"""The exact 1D DP against a dense O(G^2)-per-layer oracle and against exact
quadrature of its own points, and its memory."""

import contextlib
import math
import signal
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quantlab as ql


def dense_dp(solver):
    """Grid values and boundaries from a full (G+1)^2 cost matrix per layer.

    Cell costs come from the solver's own oracle, one vectorized call over
    every cell; each layer is a dense min with np.argmin's lowest-index ties.
    The solver's monotone layer minimum must reproduce it bit for bit at
    every p, which needs Monge cell costs; general-p costs split at the
    centre and at the breakpoints are.
    """
    grid, oracle = solver.grid, solver.oracle
    G = grid.size - 1
    ii, jj = np.triu_indices(G + 1, k=1)
    if oracle.constant is None and solver.p in (1.0, 2.0):
        nodal = oracle.law.moments(grid)
        _, costs = oracle.centers_costs(grid[ii], grid[jj],
                                        moments_l=tuple(a[ii] for a in nodal),
                                        moments_r=tuple(a[jj] for a in nodal))
    else:
        _, costs = oracle.centers_costs(grid[ii], grid[jj])
    C = np.full((G + 1, G + 1), np.inf)
    C[ii, jj] = costs
    D = C[0].copy()
    values, backs = {1: float(D[G])}, {}
    for k in range(2, solver.n_max + 1):
        M = C.T + D[None, :]
        backs[k] = np.argmin(M, axis=1)
        D = M[np.arange(G + 1), backs[k]]
        values[k] = float(D[G])

    def boundaries(N):
        idx, j = [], G
        for k in range(N, 1, -1):
            j = int(backs[k][j])
            idx.append(j)
        return grid[np.array(idx[::-1], dtype=int)]

    return values, boundaries


def _polynomial_density(coeffs):
    c = np.array(coeffs)
    return ql.density1d(lambda x: np.polyval(c, np.asarray(x)) + 0.05, (0.0, 1.0))


def _gapped_density(ab):
    # zero-mass cells cost exactly 0, so many cells tie
    return ql.piecewise_uniform([(0.0, ab[0]), (ab[1], 1.0)])


densities = st.one_of(
    st.just(ql.uniform_interval()),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4).map(_polynomial_density),
    st.tuples(st.floats(0.05, 0.45), st.floats(0.55, 0.95)).map(_gapped_density))


@settings(max_examples=60, deadline=None)
@given(m=densities, p=st.sampled_from([1.0, 1.5, 2.0, 3.0]), G=st.integers(8, 96),
       data=st.data())
def test_dp_matches_dense_layer_min(m, p, G, data):
    n_max = data.draw(st.integers(1, G // 4), label="n_max")
    solver = ql.Dp1dSolver(m, p, n_max=n_max, grid_size=G)
    values, boundaries = dense_dp(solver)
    for N in range(1, n_max + 1):
        assert solver.grid_value(N) == values[N]
        assert np.array_equal(solver.grid_boundaries(N), boundaries(N))


@pytest.mark.parametrize("p, n_max", [(2, 256), (3, 64)], ids=["p2", "p3"])
def test_dp_memory_is_linear_in_grid(p, n_max):
    # at the default grids (2048 cells at p=2, 512 at p=3) dense layers held
    # ~290 MB of tables at p=2, and a tabulated general-p cost pass 183 MB
    m = ql.density1d(lambda x: 2 * np.asarray(x), (0, 1))
    tracemalloc.start()
    try:
        ql.Dp1dSolver(m, p, n_max=n_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_general_p_refinement_never_rises_above_the_grid_optimum():
    # inexact general-p cell costs let _refine end up to 189% above the grid
    # optimum, and the reported value 0.14% off the exact error of its points
    m = ql.density1d(lambda x: 2 * np.asarray(x), (0, 1))
    solver = ql.Dp1dSolver(m, 3, n_max=64, grid_size=256)
    for N in range(1, 65):
        q = solver.solve(N)
        assert q.error.value ** 3 <= solver.grid_value(N) * (1 + 1e-12)
        assert q.provenance.converged and q.provenance.details["residual"] < 1e-13
        exact = ql.error_exact_1d(m, q.points.ravel(), 3).value
        assert q.error.value == pytest.approx(exact, rel=1e-10)


def _step_density():
    return ql.density1d(lambda x: np.where(np.asarray(x) < 0.4, 3.0, 0.5), (0.0, 1.0),
                        breakpoints=[0.4])


@pytest.mark.parametrize("m", [ql.density1d(lambda x: 2 * np.asarray(x), (0, 1)),
                               ql.piecewise_uniform([(0.0, 0.25), (0.75, 1.0)]),
                               _step_density()], ids=["2x", "gapped", "step"])
@pytest.mark.parametrize("p", [1, 1.5, 2, 3])
def test_refinement_descends_and_converges(m, p):
    # unguarded Newton from the grid optimum can jump to another stationary
    # point: on the gapped law it ended 101% (p=2) and 126% (p=3) higher
    solver = ql.Dp1dSolver(m, p, n_max=16, grid_size=128)
    for N in range(1, 17):
        q = solver.solve(N)
        assert q.error.value ** p <= solver.grid_value(N) * (1 + 1e-12)
        assert q.provenance.converged
        assert q.provenance.details["residual"] < 1e-13


@pytest.mark.parametrize("m", [ql.piecewise_uniform([(0.0, 0.25), (0.75, 1.0)]),
                               _step_density()], ids=["gapped", "step"])
@pytest.mark.parametrize("N", [2, 3, 5, 8])
def test_general_p_value_is_exact_across_breakpoints(m, N):
    # a cell rule blind to breakpoints reported 3-5% (gapped) and 0.9% (step) low
    q = ql.dp_optimal_1d(m, N, 3)
    exact = ql.error_exact_1d(m, q.points.ravel(), 3).value
    assert q.error.value == pytest.approx(exact, rel=1e-10)


@pytest.mark.parametrize("intervals, G, p", [
    ([(0.0, 1 / 9), (1 / 6, 1.0)], 45, 1), ([(0.0, 1 / 9), (1 / 6, 1.0)], 45, 2),
    ([(0.0, 1 / 9), (1 / 6, 1.0)], 45, 3), ([(0.0, 0.35), (0.55, 1.0)], 20, 2)],
    ids=["ninth-p1", "ninth-p2", "ninth-p3", "tenths-p2"])
def test_dp_matches_dense_layer_min_on_breakpoint_nodes(intervals, G, p):
    # a grid node an ulp past a breakpoint made a sliver cell that broke exact
    # cost ties, so the monotone min left the dense one by an ulp or a tie
    solver = ql.Dp1dSolver(ql.piecewise_uniform(intervals), p, n_max=G // 4, grid_size=G)
    values, boundaries = dense_dp(solver)
    for N in range(1, G // 4 + 1):
        assert solver.grid_value(N) == values[N]
        assert np.array_equal(solver.grid_boundaries(N), boundaries(N))


@pytest.mark.parametrize("p", [1.25, 1.5])
@pytest.mark.parametrize("N", [4, 8])
def test_plain_function_uniform_density_is_exact(p, N):
    # an undeclared constant density took the general-p path, 1e-7 below C_{p,1}/N
    m = ql.density1d(lambda x: np.ones_like(np.asarray(x, dtype=float)), (0, 1))
    q = ql.dp_optimal_1d(m, N, p)
    assert q.error.value == pytest.approx(ql.zador_constant_1d(p) / N, rel=1e-12)


def test_general_p_zero_mass_cells_keep_the_midpoint():
    # a batch made only of zero-mass cells must return, not bisect forever
    law = ql.piecewise_uniform([(0.0, 0.25), (0.75, 1.0)]).law
    oracle = ql.solvers._CellOracle(law, 1.5)
    ls, rs = np.array([0.3, 0.5]), np.array([0.5, 0.7])
    centers, costs = oracle.centers_costs(ls, rs)
    assert np.array_equal(centers, 0.5 * (ls + rs))
    assert np.array_equal(costs, [0.0, 0.0])
    centers, costs = oracle.centers_costs(np.array([0.5, 0.2]), np.array([0.7, 0.3]))
    assert centers[0] == 0.6 and costs[0] == 0.0
    assert 0.2 < centers[1] < 0.25 and costs[1] > 0


def test_dp_needs_an_exact_law():
    half = ql.restrict(ql.uniform_interval(), lambda x: x[0] <= 0.5)
    with pytest.raises(ValueError, match="exact law"):
        ql.Dp1dSolver(half, 2, n_max=4)
    with pytest.raises(ValueError, match="density1d"):
        ql.Dp1dSolver(ql.uniform_box([0, 0], [1, 1]), 2, n_max=4)


def bisect_centers(law, p, ls, rs):
    """Reference centres: bisect the first-order condition in each cell until
    no float lies strictly inside the bracket; zero-mass cells keep the
    midpoint."""
    q = p - 1.0
    slope = lambda y: np.copysign(np.abs(y) ** q, y)
    out = 0.5 * (ls + rs)
    idx = np.flatnonzero(law.cell_integral(ls, rs, out, np.ones_like) > 0)
    ls, rs = ls[idx], rs[idx]
    lo, hi = ls, rs
    while idx.size:
        a = 0.5 * (lo + hi)
        inside = (lo < a) & (a < hi)
        if not inside.all():
            out[idx[~inside]] = a[~inside]
            idx, ls, rs, lo, hi = (v[inside] for v in (idx, ls, rs, lo, hi))
            continue
        up = law.cell_integral(ls, rs, a, slope) > 0
        lo, hi = np.where(up, a, lo), np.where(up, hi, a)
    return out


@settings(max_examples=60, deadline=None)
@given(m=st.one_of(densities, st.builds(_step_density)),
       p=st.sampled_from([1.25, 1.5, 2.5, 3.0, 4.0]), G=st.integers(8, 96), data=st.data())
def test_newton_centers_match_bisection(m, p, G, data):
    # cells of a DP grid, as the oracle meets them. The cost reads x - a from
    # the piece ends, not from x, so a few ulps of centre move it only to
    # second order, also on a cell far narrower than its distance from 0
    law = m.law
    pairs = data.draw(st.lists(st.tuples(st.integers(0, G), st.integers(0, G)).filter(
        lambda ij: ij[0] < ij[1]), min_size=1, max_size=24), label="cells")
    grid = np.linspace(law.lo, law.hi, G + 1)
    ls, rs = grid[np.array(pairs).T]
    centers = ql.solvers._CellOracle(law, p)._centers(ls, rs)
    ref = bisect_centers(law, p, ls, rs)
    assert np.all(np.abs(centers - ref) <= 32 * np.spacing(np.abs(ref)))
    cost = lambda a: law.cell_integral(ls, rs, a, lambda y: np.abs(y) ** p)
    np.testing.assert_allclose(cost(centers), cost(ref), rtol=1e-13, atol=0)


@pytest.mark.parametrize("p", [1.5, 3])
def test_centers_of_a_density_infinite_at_an_end(p):
    # a mass test that read the density at the support end, where it is
    # infinite, called these cells massless and left them at the midpoint
    law = ql.density1d(lambda x: 0.5 / np.sqrt(np.asarray(x)), (0, 1)).law
    ls, rs = np.array([0.0, 0.0, 0.5, 0.25]), np.array([0.5, 1.0, 1.0, 0.75])
    centers = ql.solvers._CellOracle(law, p)._centers(ls, rs)
    ref = bisect_centers(law, p, ls, rs)
    assert np.all(np.abs(centers - ref) <= 32 * np.spacing(ref))
    assert np.all(centers < 0.5 * (ls + rs))


def test_p3_centers_are_the_closed_form_roots():
    # on rho = 2x, with a = l + w s, the first-order condition divided by w^3
    # is the quartic -w/3 s^4 - 4l/3 s^3 + (w + 2l) s^2 - (4w/3 + 2l) s + w/2 + 2l/3
    m = ql.density1d(lambda x: 2 * np.asarray(x), (0, 1))
    G = 64
    grid = np.linspace(0.0, 1.0, G + 1)
    ii, jj = np.triu_indices(G + 1, k=1)
    ls, rs = grid[ii], grid[jj]
    centers, _ = ql.solvers._CellOracle(m.law, 3).centers_costs(ls, rs)
    for l, r, c in zip(ls, rs, centers):
        w = r - l
        roots = np.roots([-w / 3, -4 * l / 3, w + 2 * l, -(4 * w / 3 + 2 * l),
                          w / 2 + 2 * l / 3])
        s = roots[(np.abs(roots.imag) < 1e-9) & (roots.real >= 0) & (roots.real <= 1)].real
        assert s.size == 1
        assert abs(c - (l + w * s[0])) <= 1e-13 * w


def test_p3_centers_take_few_kernel_passes(monkeypatch):
    # bisection took about 53 passes per batch; Newton that silently fell
    # back to the midpoint every step would take as many
    m = ql.density1d(lambda x: 2 * np.asarray(x), (0, 1))
    passes = []
    kernel, batch = ql.Law1D.cell_integral, ql.solvers._CellOracle.centers_costs

    def counted_kernel(self, *args):
        passes[-1] += 1
        return kernel(self, *args)

    def counted_batch(self, *args, **kwargs):
        passes.append(0)
        return batch(self, *args, **kwargs)

    monkeypatch.setattr(ql.Law1D, "cell_integral", counted_kernel)
    monkeypatch.setattr(ql.solvers._CellOracle, "centers_costs", counted_batch)
    oracle = ql.solvers._CellOracle(m.law, 3)
    grid = np.linspace(0.0, 1.0, 257)
    ii, jj = np.triu_indices(257, k=1)
    oracle.centers_costs(grid[ii], grid[jj])
    solver = ql.Dp1dSolver(m, 3, n_max=16, grid_size=128)
    for N in (1, 2, 7, 16):
        solver.solve(N)
    assert len(passes) > 100 and max(passes) <= 14


def _sqrt_singular_middle():
    return ql.density1d(lambda x: np.abs(x - 0.5) ** -0.5, (0, 1), breakpoints=[0.5])


@pytest.mark.parametrize("p, center, value", [(1, 0.25, 0.25), (2, 1 / 3, math.sqrt(4 / 45))])
def test_dp_on_a_density_infinite_at_an_end(p, center, value):
    # rho = x^(-1/2) / 2 on (0, 1] is the law of U^2 for U uniform. One point:
    # the median 1/4 with E|U^2 - 1/4| = 1/4 (p = 1), or the mean 1/3 with
    # Var U^2 = 4/45 (p = 2); a cell from 0 that read rho(0) cost 0
    m = ql.density1d(lambda x: 0.5 / np.sqrt(x), (0, 1))
    dp = ql.Dp1dSolver(m, p, n_max=4, grid_size=64)
    q = dp.solve(1)
    assert q.error.value == pytest.approx(value, rel=1e-3)
    assert q.points[0, 0] == pytest.approx(center, abs=1e-3)
    q = dp.solve(2)
    exact = ql.error_exact_1d(m, q.points.ravel(), p).value
    assert q.error.value == pytest.approx(exact, rel=1e-3)


def test_dp_on_a_density_infinite_at_a_breakpoint():
    m = _sqrt_singular_middle()
    q = ql.Dp1dSolver(m, 2, n_max=4, grid_size=64).solve(2)
    exact = ql.error_exact_1d(m, q.points.ravel(), 2).value
    assert exact > 0.1 and q.error.value == pytest.approx(exact, rel=1e-3)


@contextlib.contextmanager
def _within(seconds):
    """Turn a centre search that never returns into a failing test."""
    def hung(*_):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_p3_centers_with_a_singular_breakpoint_return():
    # the breakpoint clipped to the cell [0.25, 0.5] leaves a zero-width piece
    # at 0.5, where rho is infinite; a NaN there once kept the bracket open
    m = _sqrt_singular_middle()
    with _within(30):
        centers, costs = ql.solvers._CellOracle(m.law, 3).centers_costs(
            np.array([0.25]), np.array([0.5]))
        q = ql.Dp1dSolver(m, 3, n_max=2, grid_size=16).solve(2)
    assert np.all(np.isfinite(costs)) and 0.25 < centers[0] < 0.5
    # the 16-node rule on a piece next to the singular point is 0.3% off here
    assert q.error.value == pytest.approx(
        ql.error_exact_1d(m, q.points.ravel(), 3).value, rel=1e-2)


def test_centers_raise_on_a_non_finite_cell_integral(monkeypatch):
    law = ql.density1d(lambda x: 2 * np.asarray(x), (0, 1)).law
    monkeypatch.setattr(ql.Law1D, "cell_integral",
                        lambda self, ls, rs, a, f: np.full((2,) + np.shape(ls), np.nan))
    with _within(30), pytest.raises(ValueError, match="not finite"):
        ql.solvers._CellOracle(law, 3).centers_costs(np.array([0.0]), np.array([1.0]))
