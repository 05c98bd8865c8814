import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

import quantlab as ql
from quantlab.solvers import _centers_update, _lloyd_restart, _seed_pp
from quantlab.spatial import cloud_from_points


# ---------------------------------------------------------------------------
# seeding

def test_seed_plusplus_full_budget_returns_all_points():
    pts = np.arange(5, dtype=float).reshape(-1, 1)
    cloud = cloud_from_points(pts)
    S = ql.seed_plusplus(cloud, 5, seed=0)
    assert np.array_equal(np.sort(S.ravel()), pts.ravel())


def test_seed_plusplus_single():
    cloud = cloud_from_points(np.arange(4, dtype=float).reshape(-1, 1))
    S = ql.seed_plusplus(cloud, 1, seed=3)
    assert S.shape == (1, 1)
    assert S[0, 0] in cloud.points.ravel()


def test_seed_plusplus_budget_check():
    cloud = cloud_from_points([[0.0], [1.0]])
    with pytest.raises(ValueError):
        ql.seed_plusplus(cloud, 3, seed=0)


def test_seed_plusplus_hits_both_clusters():
    rng = np.random.default_rng(0)
    pts = np.concatenate([rng.normal(0, 0.05, size=(50, 1)),
                          rng.normal(10, 0.05, size=(50, 1))])
    cloud = cloud_from_points(pts)
    hits = 0
    for seed in range(100):
        S = ql.seed_plusplus(cloud, 2, seed=seed).ravel()
        if (S < 5).any() and (S > 5).any():
            hits += 1
    assert hits >= 95


# ---------------------------------------------------------------------------
# cell centers

def test_cell_center_mean():
    assert ql.cell_center([[0.0], [1.0]], None, 2)[0] == pytest.approx(0.5)


def test_cell_center_median():
    assert ql.cell_center([[0.0], [0.0], [1.0]], None, 1)[0] == pytest.approx(0.0)


def test_cell_center_p4_symmetric():
    # oracle: grid search over candidate centers
    pts = np.array([[0.0], [1.0]])
    grid = np.linspace(-0.2, 1.2, 2001)
    obj = [np.sum(np.abs(pts.ravel() - g) ** 4) for g in grid]
    assert grid[int(np.argmin(obj))] == pytest.approx(0.5, abs=1e-3)
    assert ql.cell_center(pts, None, 4)[0] == pytest.approx(0.5, abs=1e-8)


def test_cell_center_weiszfeld_2d():
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 3.0]])
    c = ql.cell_center(pts, None, 1)
    # oracle: local grid refinement around the returned point
    obj = lambda y: np.sum(np.linalg.norm(pts - y, axis=1))
    base = obj(c)
    rng = np.random.default_rng(1)
    for _ in range(300):
        assert base <= obj(c + rng.normal(scale=1e-3, size=2)) + 1e-9


def test_cell_center_beats_perturbations():
    rng = np.random.default_rng(2)
    for p in (1.0, 2.0, 3.5):
        for d in (1, 2):
            pts = rng.uniform(size=(10, d))
            w = rng.uniform(0.2, 1.0, size=10)
            c = ql.cell_center(pts, w, p)
            obj = lambda y: float(np.sum(w * np.linalg.norm(pts - y, axis=1) ** p))
            base = obj(c)
            for _ in range(1000):
                y = c + rng.normal(scale=1e-3, size=d)
                assert base <= obj(y) + 1e-10


def test_cell_center_minimum_enclosing_ball():
    assert ql.cell_center([[0.0], [1.0]], None, np.inf)[0] == pytest.approx(0.5)
    rng = np.random.default_rng(3)
    pts = rng.uniform(size=(40, 2))
    c = ql.cell_center(pts, None, np.inf)
    r = np.linalg.norm(pts - c, axis=1).max()
    # oracle: no random center gives a smaller enclosing radius
    for _ in range(500):
        y = c + rng.normal(scale=1e-3, size=2)
        assert r <= np.linalg.norm(pts - y, axis=1).max() + 1e-9


# ---------------------------------------------------------------------------
# Lloyd

CFG = ql.SolverConfig(restarts=3, max_iters=120, working_sample=20000,
                      eval_samples=200000)


def test_solver_config_needs_a_restart():
    # with no restart, lloyd had no best run and failed with a TypeError
    with pytest.raises(ValueError, match="restarts"):
        ql.SolverConfig(restarts=0)


def test_solver_config_rejects_an_empty_working_sample():
    # working_sample=0 silently ran the 1e5-point default
    with pytest.raises(ValueError, match="working_sample"):
        ql.SolverConfig(working_sample=0)


def test_solver_config_rejects_too_few_evaluation_samples():
    # the error surfaced from error_mc only after the whole Lloyd run
    with pytest.raises(ValueError, match="eval_samples"):
        ql.SolverConfig(eval_samples=99)


def test_lloyd_uniform_single_point():
    m = ql.uniform_interval()
    q = ql.lloyd(m, 1, 2, CFG, seed=3)
    assert q.points[0, 0] == pytest.approx(0.5, abs=0.002)
    assert q.error.value == pytest.approx(0.2887, abs=0.001)


def test_lloyd_uniform_two_points():
    m = ql.uniform_interval()
    q = ql.lloyd(m, 2, 2, CFG, seed=3)
    assert np.allclose(np.sort(q.points.ravel()), [0.25, 0.75], atol=0.01)
    assert q.error.value == pytest.approx(0.14434, rel=0.005)


def test_lloyd_quarter_circle_small_budget():
    # Zador prediction for the arc-length measure, evaluated numerically
    m = ql.hausdorff_curve_measure(ql.quarter_circle(512))
    pred = ql.zador_constant_1d(2) * (np.pi / 2) ** 1.5
    q = ql.lloyd(m, 8, 2, ql.SolverConfig(restarts=8, working_sample=20000),
                 seed=5)
    assert q.error.value == pytest.approx(pred / 8, rel=0.05)


def test_lloyd_descent_invariant():
    m = ql.uniform_box([0, 0], [1, 1])
    for seed in (0, 1, 2):
        q = ql.lloyd(m, 7, 2, ql.SolverConfig(restarts=1, working_sample=5000),
                     seed=seed)
        v = q.provenance.details["v_history"]
        assert all(b <= a * (1 + 1e-12) + 1e-300 for a, b in zip(v[:-1], v[1:]))


def test_lloyd_deterministic():
    m = ql.uniform_box([0, 0], [1, 1])
    q1 = ql.lloyd(m, 4, 2, CFG, seed=8)
    q2 = ql.lloyd(m, 4, 2, CFG, seed=8)
    assert np.array_equal(q1.points, q2.points)
    assert q1.error.value == q2.error.value


def test_lloyd_p1_small():
    m = ql.uniform_interval()
    q = ql.lloyd(m, 2, 1, ql.SolverConfig(restarts=2, working_sample=4000),
                 seed=1)
    assert np.allclose(np.sort(q.points.ravel()), [0.25, 0.75], atol=0.03)


def test_lloyd_rejects_infinite_p():
    with pytest.raises(ValueError):
        ql.lloyd(ql.uniform_interval(), 2, np.inf, CFG, seed=0)


def test_center_step_matches_sequential_sums():
    # the p=2 centre step against per-cell sums accumulated in sample order
    rng = np.random.default_rng(5)
    W = rng.normal(size=(5000, 3))
    S = rng.normal(size=(9, 3))
    assign = rng.integers(0, 8, size=5000)  # cell 8 stays empty
    sums = np.zeros((9, 3))
    np.add.at(sums, assign, W)
    counts = np.bincount(assign, minlength=9)
    S_new, reseeded = _centers_update(W, assign, S, 2.0, rng.random(5000))
    assert reseeded
    assert np.array_equal(S_new[:8], sums[:8] / counts[:8, None])


# --- the bounded assignment against a full query in every iteration ----------

def _full_query_restart(W, S, p, cfg):
    """Lloyd with every point queried on a kd-tree in every iteration."""
    v_hist, reseeds = [], 0
    converged = False
    for _ in range(cfg.max_iters):
        dist, assign = cKDTree(S).query(W)
        V = float(np.mean(dist ** p))
        v_hist.append(V)
        if (len(v_hist) >= 2
                and v_hist[-2] - V <= cfg.rel_tol * max(v_hist[-2], 1e-300)):
            converged = True
            break
        S, reseeded = _centers_update(W, assign, S, p, dist)
        reseeds += reseeded
    return S, v_hist, converged, reseeds


def _working_sample(kind, n, d, rng):
    if kind == "uniform":
        return rng.random((n, d))
    if kind == "lattice":  # equidistant sites are common: exact ties
        return rng.integers(0, 5, size=(n, d)) / 4.0
    return np.repeat(rng.random((n // 4 + 1, d)), 4, axis=0)[:n]  # duplicates


@settings(max_examples=80, deadline=None)
@given(d=st.sampled_from([1, 2, 3]), N=st.integers(1, 12),
       p=st.sampled_from([1.0, 2.0, 3.0]),
       kind=st.sampled_from(["uniform", "lattice", "duplicated"]),
       n=st.integers(30, 300), far_site=st.booleans(), seed=st.integers(0, 2 ** 16))
def test_bounded_lloyd_matches_full_query(d, N, p, kind, n, far_site, seed):
    rng = np.random.default_rng(seed)
    W = _working_sample(kind, n, d, rng)
    S0 = _seed_pp(W, np.full(n, 1.0), N, rng)  # may repeat a site: ties
    far_site = far_site and N >= 2
    if far_site:  # its cell is empty in the first step, which reseeds it
        S0[-1] = 10.0
    max_iters = 12 if p == 2.0 else 6
    cfg = ql.SolverConfig(max_iters=max_iters, rel_tol=1e-12)
    S, v_hist, converged, requeried = _lloyd_restart(W, S0.copy(), p, cfg)
    S_ref, v_ref, conv_ref, reseeds = _full_query_restart(W, S0.copy(), p, cfg)
    assert np.array_equal(S, S_ref)
    assert v_hist == v_ref
    assert converged == conv_ref
    assert len(requeried) == len(v_hist) and requeried[0] == n
    assert all(0 <= k <= n for k in requeried)
    if far_site and len(v_hist) > 1:
        assert reseeds >= 1


def test_bounded_lloyd_high_dimension():
    # at d = 8 numpy's norm and the tree's distance may differ in the last
    # ulps; assignments, hence the p=2 centres, stay those of a full query
    rng = np.random.default_rng(4)
    W = rng.normal(size=(3000, 8))
    S0 = _seed_pp(W, np.full(len(W), 1.0), 10, rng)
    cfg = ql.SolverConfig(max_iters=25, rel_tol=1e-12)
    S, v_hist, _, requeried = _lloyd_restart(W, S0.copy(), 2.0, cfg)
    S_ref, v_ref, _, _ = _full_query_restart(W, S0.copy(), 2.0, cfg)
    assert np.array_equal(S, S_ref)
    assert len(v_hist) == len(v_ref)
    assert np.allclose(v_hist, v_ref, rtol=1e-14, atol=0.0)
    assert sum(requeried) < len(W) * len(v_hist)


def test_lloyd_reports_requeried_points():
    m = ql.uniform_box([0, 0], [1, 1])
    cfg = ql.SolverConfig(restarts=2, working_sample=5000, eval_samples=20000)
    q = ql.lloyd(m, 9, 2, cfg, seed=2)
    requeried = q.provenance.details["requeried"]
    assert len(requeried) == len(q.provenance.details["v_history"])
    assert requeried[0] == 5000
    assert max(requeried[1:]) < 5000


# ---------------------------------------------------------------------------
# 1D dynamic programming

def test_dp_uniform_two_points():
    m = ql.uniform_interval()
    q = ql.dp_optimal_1d(m, 2, 2)
    assert np.allclose(q.points.ravel(), [0.25, 0.75], atol=1e-9)
    assert q.error.value == pytest.approx(1 / (4 * math.sqrt(3)), abs=1e-6)


def test_dp_uniform_five_points():
    m = ql.uniform_interval()
    q = ql.dp_optimal_1d(m, 5, 2)
    assert q.error.value == pytest.approx(1 / (10 * math.sqrt(3)), abs=1e-6)


def test_dp_linear_density_single_point():
    # oracle: mean 2/3 and variance 1/18 of the law 2x dx
    m = ql.density1d(lambda x: 2 * np.asarray(x), (0, 1))
    q = ql.dp_optimal_1d(m, 1, 2)
    assert q.points[0, 0] == pytest.approx(2 / 3, abs=1e-7)
    assert q.error.value == pytest.approx(math.sqrt(1 / 18), abs=1e-6)


def test_dp_error_consistent_with_exact_quadrature():
    m = ql.density1d(lambda x: 2 * np.asarray(x), (0, 1))
    for N in (3, 7):
        q = ql.dp_optimal_1d(m, N, 2)
        recheck = ql.error_exact_1d(m, q.points.ravel(), 2)
        assert q.error.value == pytest.approx(recheck.value, abs=1e-9)


def test_dp_matches_exhaustive_on_small_grids():
    m = ql.density1d(lambda x: 1.0 + np.asarray(x, dtype=float) ** 2, (0, 1))
    G = 12
    solver = ql.Dp1dSolver(m, 2, n_max=3, grid_size=G)
    grid = solver.grid
    for N in (2, 3):
        best = np.inf
        for combo in itertools.combinations(range(1, G), N - 1):
            edges = np.concatenate([[grid[0]], grid[list(combo)], [grid[-1]]])
            _, costs = solver.oracle.centers_costs(edges[:-1], edges[1:])
            best = min(best, float(np.sum(costs)))
        assert solver.grid_value(N) == pytest.approx(best, rel=1e-12)


def test_dp_p1_and_general_p():
    m = ql.density1d(lambda x: 2 * np.asarray(x), (0, 1))
    q1 = ql.dp_optimal_1d(m, 2, 1, grid_size=256)
    # sanity against a dense site-pair grid search oracle
    grid = np.linspace(0.01, 0.99, 99)
    best = min((ql.error_exact_1d(m, [a, b], 1).value, a, b)
               for a in grid for b in grid if a < b)
    assert q1.error.value <= best[0] + 1e-4

    q3 = ql.dp_optimal_1d(m, 2, 3.0, grid_size=64)
    recheck = ql.error_exact_1d(m, q3.points.ravel(), 3.0)
    assert q3.error.value == pytest.approx(recheck.value, rel=1e-6)


def test_dp_grid_validation():
    m = ql.uniform_interval()
    with pytest.raises(ValueError):
        ql.dp_optimal_1d(m, 10, 2, grid_size=16)


# ---------------------------------------------------------------------------
# interval construction

def test_interval_quantizer_full_interval():
    q = ql.interval_quantizer([(0, 1)], 4, 2)
    assert np.allclose(q.points.ravel(), [1 / 8, 3 / 8, 5 / 8, 7 / 8])


def test_interval_quantizer_drops_measure_zero_overlap():
    q = ql.interval_quantizer([(0, 1 / 3), (2 / 3, 1)], 3, 2)
    assert np.allclose(q.points.ravel(), [1 / 6, 5 / 6])
    assert q.provenance.details["n_points"] == 2


def test_interval_quantizer_half_interval():
    # [1/2, 1] meets K = [0, 1/2] only in the point 1/2 (measure zero): dropped
    q = ql.interval_quantizer([(0, 0.5)], 2, 2)
    assert np.allclose(q.points.ravel(), [0.25])


def test_interval_quantizer_cardinality_ratio():
    K = [(0, 1 / 3), (2 / 3, 1)]
    for N in (192, 200, 384):
        q = ql.interval_quantizer(K, N, 2)
        ratio = q.points.shape[0] / N
        assert abs(ratio - 2 / 3) <= 0.05 * (2 / 3)


def test_interval_quantizer_zero_length_rejected():
    with pytest.raises(ValueError):
        ql.interval_quantizer([(0.2, 0.2)], 3, 2)


# ---------------------------------------------------------------------------
# covers and random quantizers

def test_farthest_point_two_points():
    A = cloud_from_points([[0.0], [1.0]])
    q = ql.farthest_point_cover(A, 2, seed=0)
    assert q.error.value == 0.0


def test_farthest_point_interval_grid():
    A = cloud_from_points(np.linspace(0, 1, 101).reshape(-1, 1))
    q = ql.farthest_point_cover(A, 2, seed=0)
    assert q.error.value <= 0.5  # 2x the optimal 2-cover radius 1/4


def test_farthest_point_cantor_net():
    for k in (3, 5):
        net = ql.cantor_net(k)
        q = ql.farthest_point_cover(net, 2 ** k, seed=1)
        assert q.error.value <= 3.0 ** -k + 1e-12


def test_farthest_point_2_approximation():
    rng = np.random.default_rng(9)
    for _ in range(10):
        pts = rng.uniform(size=(11, 1))
        A = cloud_from_points(pts)
        N = int(rng.integers(2, 5))
        greedy = ql.farthest_point_cover(A, N, seed=0).error.value
        best = min(ql.covering_radius(A, pts[list(combo)])
                   for combo in itertools.combinations(range(len(pts)), N))
        assert greedy <= 2 * best + 1e-12


def test_random_quantizer_basics():
    m = ql.uniform_interval()
    S = ql.random_quantizer(m, 1, seed=0)
    assert S.shape == (1, 1) and 0 <= S[0, 0] <= 1
    assert np.array_equal(ql.random_quantizer(m, 5, seed=3),
                          ql.random_quantizer(m, 5, seed=3))


def test_cantor_cover_radius_formula():
    for N, expect in [(1, 0.5), (2, 1 / 6), (3, 1 / 6), (4, 1 / 18),
                      (1024, 3.0 ** -10 / 2)]:
        assert ql.cantor_covering_radius(N) == pytest.approx(expect)
    pts, r = ql.cantor_cover(6)
    assert pts.shape[0] == 4  # floor(log2 6) = 2 -> 4 cylinder midpoints
    assert r == pytest.approx(1 / 18)
