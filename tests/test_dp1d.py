"""The exact 1D DP against a dense O(G^2)-per-layer oracle and against exact
quadrature of its own points, and its memory."""

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
