import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

import quantlab as ql
from quantlab.solvers import _centers_update, _dist, _lloyd_restart, _seed_pp
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


def test_cell_center_weiszfeld_from_a_vertex_that_is_the_median():
    # the start, the mean, is the centre point of the cross: the vertex step
    # finds the pull of the four arms cancels and stays there
    cross = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    assert np.array_equal(ql.cell_center(cross, None, 1.0), [0.0, 0.0])
    # a cell whose every point is the same vertex is that point
    assert np.array_equal(ql.cell_center(np.tile([0.3, 0.4], (3, 1)), None, 1.0),
                          [0.3, 0.4])


def test_cell_center_weiszfeld_steps_off_a_vertex_that_is_not_the_median():
    # the mean (0, 0) is a data point of weight 1, but the three points at
    # (1, 0) pull with weight 3 - 1: the vertex step leaves for the median
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [-3.0, 0.0]])
    assert np.allclose(ql.cell_center(pts, None, 1.0), [1.0, 0.0], atol=1e-9)


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


def test_cell_center_rejects_infinite_p():
    with pytest.raises(ValueError, match="finite p"):
        ql.cell_center([[0.0], [1.0]], None, np.inf)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_cell_center_reads_a_flat_list_as_points_on_a_line(p):
    flat, column = [0.0, 1.0, 5.0], [[0.0], [1.0], [5.0]]
    c = ql.cell_center(flat, None, p)
    assert c.shape == (1,)
    assert np.array_equal(c, ql.cell_center(column, None, p))
    assert np.array_equal(ql.cell_center(flat, [1.0, 2.0, 3.0], p),
                          ql.cell_center(column, [1.0, 2.0, 3.0], p))


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
    S_new, reseeded = _centers_update(np.ascontiguousarray(W.T), assign, S, 2.0,
                                      rng.random(5000))
    assert reseeded
    assert np.array_equal(S_new[:8], sums[:8] / counts[:8, None])


# --- the bounded assignment against a full query in every iteration ----------

def _full_query_restart(W, S, p, cfg):
    """Lloyd with every point queried on a kd-tree in every iteration."""
    v_hist, reseeds = [], 0
    converged = False
    cols = np.ascontiguousarray(W.T)
    for _ in range(cfg.max_iters):
        dist, assign = cKDTree(S).query(W)
        V = float(np.mean(dist ** p))
        v_hist.append(V)
        if (len(v_hist) >= 2
                and v_hist[-2] - V <= cfg.rel_tol * max(v_hist[-2], 1e-300)):
            converged = True
            break
        S, reseeded = _centers_update(cols, assign, S, p, dist)
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
    cols = np.ascontiguousarray(W.T)
    S0 = _seed_pp(cols, np.full(n, 1.0), N, rng)  # may repeat a site: ties
    far_site = far_site and N >= 2
    if far_site:  # its cell is empty in the first step, which reseeds it
        S0[-1] = 10.0
    max_iters = 12 if p == 2.0 else 6
    cfg = ql.SolverConfig(max_iters=max_iters, rel_tol=1e-12)
    S, v_hist, converged, requeried = _lloyd_restart(cols, S0.copy(), p, cfg)
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
    cols = np.ascontiguousarray(W.T)
    S0 = _seed_pp(cols, np.full(len(W), 1.0), 10, rng)
    cfg = ql.SolverConfig(max_iters=25, rel_tol=1e-12)
    S, v_hist, _, requeried = _lloyd_restart(cols, S0.copy(), 2.0, cfg)
    S_ref, v_ref, _, _ = _full_query_restart(W, S0.copy(), 2.0, cfg)
    assert np.array_equal(S, S_ref)
    assert len(v_hist) == len(v_ref)
    assert np.allclose(v_hist, v_ref, rtol=1e-14, atol=0.0)
    assert sum(requeried) < len(W) * len(v_hist)


def _separation_case(name):
    """(W, S0) for the edge cases of the keep test on half the separation."""
    rng = np.random.default_rng(11)
    if name == "one site":  # no other site: half is inf
        return rng.random((200, 2)), np.array([[0.9, 0.1]])
    if name == "coincident sites":  # half is 0, and the reseed lands on a site
        return np.repeat([[0.0], [1.0]], 3, axis=0), np.array([[0.0], [0.0], [1.0]])
    # at p in {2, 3} one step moves the sites to -1 and 3. The point 1 is
    # then at their midpoint. The point 2 fails its lower bound (2 less the
    # other site's shift of 1 and the slack, against a distance of 1) but is
    # inside half the separation (2)
    return np.array([[-3.0], [-1.0], [1.0], [2.0], [4.0]]), np.array([[0.0], [3.0]])


@pytest.mark.parametrize("name, p, queried", [
    *((name, p, queried) for name, queried in (("one site", 0), ("coincident sites", 3))
      for p in (1.0, 2.0, 3.0)),
    ("midpoint", 2.0, 1), ("midpoint", 3.0, 1)])  # at p = 1 the right site moves to 2
def test_separation_test_edge_cases_match_full_query(name, p, queried):
    W, S0 = _separation_case(name)
    cols = np.ascontiguousarray(W.T)
    cfg = ql.SolverConfig(max_iters=8, rel_tol=1e-12)
    S, v_hist, converged, requeried = _lloyd_restart(cols, S0.copy(), p, cfg)
    S_ref, v_ref, conv_ref, _ = _full_query_restart(W, S0.copy(), p, cfg)
    assert np.array_equal(S, S_ref)
    assert v_hist == v_ref
    assert converged == conv_ref
    # the second pass queries only the points no test keeps: none at N = 1,
    # the points at the coincident sites, and the point at the midpoint
    assert requeried[0] == len(W) and requeried[1] == queried


def test_bounded_lloyd_requeries_few_points_on_a_curve():
    cfg = ql.SolverConfig(restarts=1, max_iters=40, working_sample=4000,
                          eval_samples=1000, rel_tol=1e-12)
    q = ql.lloyd(ql.hausdorff_curve_measure(ql.quarter_circle(256)), 12, 2, cfg, seed=3)
    requeried = q.provenance.details["requeried"]
    assert len(requeried) > 20
    # points well inside their cell are kept by half the separation even
    # while every site moves; the lower bound alone re-queried 3.3% a pass
    assert np.mean(requeried[10:]) < 0.015 * 4000


_NORMAL = np.finfo(float).tiny


@settings(max_examples=300, deadline=None)
@given(x=st.floats(min_value=_NORMAL, max_value=np.finfo(float).max))
@example(x=_NORMAL)
@example(x=np.finfo(float).max)
@example(x=1.0)
@example(x=2.0 ** -1000)
@example(x=2.0 ** 1000)
@example(x=np.nextafter(2.0, 0.0))
def test_bound_rounding_multiply_lowers_every_positive_normal(x):
    # at least one ulp below x, as np.nextafter(x, -inf) was
    assert x * (1.0 - 2.0 ** -52) <= np.nextafter(x, 0.0) < x


@settings(max_examples=300, deadline=None)
@given(a=st.floats(0.0, np.finfo(float).max), t=st.floats(0.0, np.finfo(float).max))
@example(a=1.0, t=1.0 - 2.0 ** -53)
@example(a=3 * _NORMAL, t=2.5 * _NORMAL)  # a subnormal difference
@example(a=0.0, t=1.0)
def test_lowered_bound_stays_a_lower_bound(a, t):
    # a distance is at least a - t exactly, and at least 0: Lloyd's bound
    # update may not rise above either
    lower = np.array([a])
    lower -= t
    lower *= 1.0 - 2.0 ** -52
    assert Fraction(float(lower[0])) <= max(Fraction(a) - Fraction(t), Fraction(0))


# --- distances summed over coordinate columns --------------------------------

@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 9), N=st.integers(1, 12),
       kind=st.sampled_from(["uniform", "lattice", "duplicated"]),
       n=st.integers(1, 500), seed=st.integers(0, 2 ** 16))
def test_column_distances_match_the_row_norm(d, N, kind, n, seed):
    rng = np.random.default_rng(seed)
    W = _working_sample(kind, n, d, rng)
    S = _working_sample(kind, N, d, rng)
    idx = rng.integers(0, N, size=n)
    cols = np.ascontiguousarray(W.T)
    ref = np.linalg.norm(W - S[idx], axis=1)
    one = np.linalg.norm(W - S[0], axis=1)
    if d <= 7:
        assert np.array_equal(_dist(cols, S, idx), ref)
        assert np.array_equal(_dist(cols, S[0]), one)
    else:  # numpy's row sum unrolls by 8: the last ulps may differ
        ulp = np.spacing(np.maximum(ref, np.finfo(float).tiny))
        assert np.all(np.abs(_dist(cols, S, idx) - ref) <= 4 * ulp)
        ulp = np.spacing(np.maximum(one, np.finfo(float).tiny))
        assert np.all(np.abs(_dist(cols, S[0]) - one) <= 4 * ulp)


def _seed_pp_rows(points, weights, N, rng):
    """k-means++ seeding with squared distances as row sums of (W - c)**2."""
    n = points.shape[0]
    probs = weights / weights.sum()
    chosen = np.empty(N, dtype=int)
    chosen[0] = rng.choice(n, p=probs)
    d2 = np.sum((points - points[chosen[0]]) ** 2, axis=1)
    for k in range(1, N):
        d2[chosen[:k]] = 0.0
        score = weights * d2
        total = score.sum()
        if total <= 0:
            remaining = np.setdiff1d(np.arange(n), chosen[:k])
            chosen[k] = rng.choice(remaining)
        else:
            chosen[k] = rng.choice(n, p=score / total)
        d2 = np.minimum(d2, np.sum((points - points[chosen[k]]) ** 2, axis=1))
    return points[chosen].copy()


@pytest.mark.parametrize("kind", ["uniform", "lattice", "duplicated"])
@pytest.mark.parametrize("d", [1, 2, 3, 7])
def test_seed_pp_matches_the_row_formula(kind, d):
    rng = np.random.default_rng(11 + d)
    W = _working_sample(kind, 2000, d, rng)
    w = rng.random(len(W)) + 0.5
    for N, seed in [(1, 0), (7, 1), (40, 2), (150, 3)]:
        got = _seed_pp(np.ascontiguousarray(W.T), w, N, np.random.default_rng(seed))
        ref = _seed_pp_rows(W, w, N, np.random.default_rng(seed))
        assert np.array_equal(got, ref)


# --- reference copies of the row code the columns replaced -------------------

def _farthest_point_cover_rows(points, N, seed):
    """Greedy k-center on the sample's rows: the picks and the radius."""
    rng = np.random.default_rng(seed)
    first = int(rng.integers(len(points)))
    centers = [first]
    dist = np.linalg.norm(points - points[first], axis=1)
    while len(centers) < min(N, len(points)):
        far = int(np.argmax(dist))
        centers.append(far)
        dist = np.minimum(dist, np.linalg.norm(points - points[far], axis=1))
    return points[np.array(centers)], float(dist.max())


def _reseed_rows(W, dist, empties, S):
    """Each empty cell in turn takes the sample point farthest from the sites."""
    S = S.copy()
    dcur = dist.copy()
    for k in empties:
        far = int(np.argmax(dcur))
        S[k] = W[far]
        dcur = np.minimum(dcur, np.linalg.norm(W - W[far], axis=1))
    return S


@pytest.mark.parametrize("kind", ["uniform", "lattice", "duplicated"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_farthest_point_cover_matches_the_row_loop(kind, d):
    rng = np.random.default_rng(20 + d)
    W = _working_sample(kind, 400, d, rng)
    A = cloud_from_points(W)
    for N, seed in [(1, 0), (2, 1), (17, 2), (400, 3), (500, 4)]:
        q = ql.farthest_point_cover(A, N, seed=seed)
        pts, radius = _farthest_point_cover_rows(W, N, seed)
        assert np.array_equal(q.points, pts)
        assert q.error.value == radius
        assert q.provenance.iterations == len(pts)


@pytest.mark.parametrize("kind", ["uniform", "lattice", "duplicated"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_reseed_matches_the_row_loop(kind, d):
    rng = np.random.default_rng(30 + d)
    W = _working_sample(kind, 500, d, rng)
    cols = np.ascontiguousarray(W.T)
    S = rng.random((12, d))
    assign = rng.integers(0, 7, size=len(W))  # cells 7..11 stay empty
    dist = np.linalg.norm(W - S[assign], axis=1)
    dist_before = dist.copy()
    S_new, reseeded = _centers_update(cols, assign, S, 2.0, dist)
    assert reseeded
    assert np.array_equal(dist, dist_before)  # the caller's distances stay
    ref = _reseed_rows(W, dist, np.arange(7, 12), S)
    assert np.array_equal(S_new[7:], ref[7:])


@pytest.mark.parametrize("p", [1.0, 3.0])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_center_step_matches_cell_center_on_rows(p, d):
    rng = np.random.default_rng(40 + d)
    W = rng.normal(size=(300, d))
    S = rng.normal(size=(4, d))
    assign = rng.integers(0, 4, size=len(W))
    S_new, reseeded = _centers_update(np.ascontiguousarray(W.T), assign, S, p,
                                      np.zeros(len(W)))
    assert not reseeded
    for k in range(4):
        assert np.array_equal(S_new[k], ql.cell_center(W[assign == k], None, p))


# --- the batched centre step against an independent long run ---------------

def _long_run_center(pts, w, p):
    """A reference centre by other means, run long: at p = 1 Weiszfeld's map
    with the vertex rule, then the best of it and every sample point; at
    other p cyclic coordinate-wise minimisation by bounded scalar search."""
    from scipy.optimize import minimize_scalar
    obj = lambda y: float(np.sum(w * np.linalg.norm(pts - y, axis=1) ** p))
    y = np.average(pts, axis=0, weights=w)
    if p == 1.0:
        for _ in range(5000):
            diff = pts - y
            dist = np.linalg.norm(diff, axis=1)
            at = dist < 1e-14
            inv = w[~at] / dist[~at]
            if not inv.size:
                break
            T = np.sum(inv[:, None] * pts[~at], axis=0) / inv.sum()
            if np.any(at):
                r = np.linalg.norm(np.sum(inv[:, None] * diff[~at], axis=0))
                if r <= w[at].sum():
                    break
                gamma = min(1.0, w[at].sum() / r)
                T = (1.0 - gamma) * T + gamma * y
            y, step = T, np.linalg.norm(T - y)
            if step <= 1e-16:
                break
        return min([y, *pts], key=obj)
    for _ in range(100):
        moved = 0.0
        for c in range(pts.shape[1]):
            lo, hi = pts[:, c].min(), pts[:, c].max()
            if hi - lo < 1e-15:
                continue

            def f(v, _c=c):
                z = y.copy()
                z[_c] = v
                return obj(z)

            x = minimize_scalar(f, bounds=(lo, hi), method="bounded",
                                options={"xatol": 1e-13}).x
            moved, y[c] = max(moved, abs(x - y[c])), x
        if moved <= 1e-12:
            break
    return y


def _assert_optimal_center(pts, w, p, c):
    """First-order optimality of c, and no objective above the long run."""
    r = pts - c
    rho = np.linalg.norm(r, axis=1)
    off = rho > 0
    if p == 1.0:  # at a sample point, the vertex rule; elsewhere a zero pull
        pull = np.linalg.norm(np.sum((w[off] / rho[off])[:, None] * r[off], axis=0))
        at = w[~off].sum()
        assert (at > 0 and pull <= at + 1e-12 * w.sum()) or pull <= 1e-9 * w.sum()
    else:  # the pull sum w|r|^(p-2) r is the gradient / -p
        def pull(y):
            r = pts - y
            rho = np.linalg.norm(r, axis=1)
            off = rho > 0
            return np.sum((w[off] * rho[off] ** (p - 2))[:, None] * r[off], axis=0)

        g = pull(c)
        if np.linalg.norm(g) > 1e-9 * np.sum(w * rho ** (p - 1)):
            # next to a sample point |r|^(p-1) is steeper at p < 2 than floats
            # resolve: then the minimum along the pull must lie within 4 ulps
            e = g / np.linalg.norm(g)
            assert pull(c + 4 * np.spacing(np.abs(c).max()) * e) @ e <= 0
    obj = lambda y: float(np.sum(w * np.linalg.norm(pts - y, axis=1) ** p))
    assert obj(c) <= obj(_long_run_center(pts, w, p)) * (1 + 1e-12)


def _near_vertex_cell(d, gap):
    """Three weighted points whose p = 1 median lies next to the first one:
    its weight falls short of the other two's pull by the share `gap`."""
    B, C = np.eye(d)[0], np.r_[0.0, 1.0, 0.5] if d == 3 else np.r_[0.0, 1.0]
    pull = np.linalg.norm(B + C / np.linalg.norm(C))
    return np.array([np.zeros(d), B, C]), np.array([pull * (1.0 - gap), 1.0, 1.0])


@settings(max_examples=120, deadline=None)
@given(d=st.sampled_from([1, 2, 3]), p=st.sampled_from([1.0, 1.25, 1.5, 3.0, 4.0]),
       kind=st.sampled_from(["uniform", "lattice", "duplicated", "near-vertex"]),
       n=st.integers(1, 40), N=st.integers(1, 5), seed=st.integers(0, 2 ** 16))
@example(d=3, p=1.0, kind="near-vertex", n=3, N=1, seed=4)
def test_batched_center_step_is_optimal(d, p, kind, n, N, seed):
    rng = np.random.default_rng(seed)
    if kind == "near-vertex" and d >= 2:
        pts, w = _near_vertex_cell(d, 10.0 ** -rng.uniform(1, 8))
        c = ql.cell_center(pts, w, p)
        _assert_optimal_center(pts, w, p, c)
        return
    W = _working_sample("lattice" if kind == "near-vertex" else kind, n, d, rng)
    assign = rng.integers(0, N, size=n)  # small n: single-point and empty cells
    S_new, _ = _centers_update(np.ascontiguousarray(W.T), assign,
                               rng.normal(size=(N, d)), p, np.zeros(n))
    for k in np.unique(assign):
        cell = W[assign == k]
        assert np.array_equal(S_new[k], ql.cell_center(cell, None, p))
        _assert_optimal_center(cell, np.ones(len(cell)), p, S_new[k])


@pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
@pytest.mark.parametrize("curve", [False, True])
def test_lloyd_descent_at_every_p(p, curve):
    m = (ql.hausdorff_curve_measure(ql.quarter_circle(256)) if curve
         else ql.uniform_box([0, 0], [1, 1]))
    cfg = ql.SolverConfig(restarts=1, max_iters=40, working_sample=4000,
                          eval_samples=1000)
    v = ql.lloyd(m, 12, p, cfg, seed=3).provenance.details["v_history"]
    assert len(v) > 5
    assert all(b <= a * (1 + 1e-12) + 1e-300 for a, b in zip(v[:-1], v[1:]))


@pytest.mark.parametrize("points, weights, match", [
    ([[0.0], [1.0]], [0.0, 0.0], "weights"),
    ([[0.0], [1.0], [2.0]], [1.0, 1.0, -3.0], "weights"),
    ([[0.0], [1.0]], [1.0, np.nan], "weights"),
    ([[0.0], [1.0]], [1.0, np.inf], "weights"),
    ([[0.0], [1.0]], [1.0, 1.0, 1.0], "weights"),
    ([[0.0, 1.0], [np.nan, 2.0]], None, "finite"),
    ([[0.0], [np.inf]], [1.0, 1.0], "finite"),
])
@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_cell_center_rejects_bad_input(points, weights, match, p):
    with pytest.raises(ValueError, match=match):
        ql.cell_center(points, weights, p)


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


@pytest.mark.parametrize("k", [1, 20, 41, 52])
def test_cantor_depth_is_exact_at_powers_of_two(k):
    # floor(log2 N) from the bit length: a float log2 rounds 2^k - 1 up to k
    # from k = 41 on
    for N in (2 ** k - 1, 2 ** k, np.int64(2 ** k - 1), np.int64(2 ** k)):
        depth = k - 1 if N == 2 ** k - 1 else k
        assert ql.cantor_covering_radius(N) == 3.0 ** (-depth) / 2.0
    if k <= 20:
        for N in (2 ** k - 1, 2 ** k):
            pts, r = ql.cantor_cover(N)
            assert len(pts) == 2 ** (k - 1 if N == 2 ** k - 1 else k)
            assert r == ql.cantor_covering_radius(N)
