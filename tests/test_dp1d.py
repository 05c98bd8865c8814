"""The exact 1D DP against a dense O(G^2)-per-layer oracle, and its memory."""

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
@given(m=densities, p=st.sampled_from([1.0, 2.0, 3.0]), G=st.integers(8, 96),
       data=st.data())
def test_dp_matches_dense_layer_min(m, p, G, data):
    n_max = data.draw(st.integers(1, G // 4), label="n_max")
    solver = ql.Dp1dSolver(m, p, n_max=n_max, grid_size=G)
    values, boundaries = dense_dp(solver)
    for N in range(1, n_max + 1):
        assert solver.grid_value(N) == values[N]
        assert np.array_equal(solver.grid_boundaries(N), boundaries(N))


def test_dp_memory_is_linear_in_grid():
    # a dense layer at the 2048-cell default grid held ~290 MB of tables
    m = ql.density1d(lambda x: 2 * np.asarray(x), (0, 1))
    tracemalloc.start()
    try:
        ql.Dp1dSolver(m, 2, n_max=256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_dp_needs_an_exact_law():
    half = ql.restrict(ql.uniform_interval(), lambda x: x[0] <= 0.5)
    with pytest.raises(ValueError, match="exact law"):
        ql.Dp1dSolver(half, 2, n_max=4)
    with pytest.raises(ValueError, match="density1d"):
        ql.Dp1dSolver(ql.uniform_box([0, 0], [1, 1]), 2, n_max=4)
