import math

import numpy as np
import pytest

import quantlab as ql


def test_psum_examples():
    assert ql.psum([3, 4], 2) == pytest.approx(5.0)
    assert ql.psum([3, 4], np.inf) == pytest.approx(4.0)
    assert ql.psum([1, 1, 1], 1) == pytest.approx(3.0)
    assert ql.psum([], 2) == 0.0
    with pytest.raises(ValueError):
        ql.psum([1.0], 0.5)


def test_exact_1d_uniform_single_site():
    # oracle: int (x - 1/2)^2 dx = 1/12
    m = ql.uniform_interval()
    assert ql.error_exact_1d(m, [0.5], 2).value == pytest.approx((1 / 12) ** 0.5)


def test_exact_1d_uniform_two_sites():
    # oracle: two cells, each int over length 1/2 of (x - 1/4)^2
    m = ql.uniform_interval()
    est = ql.error_exact_1d(m, [0.25, 0.75], 2)
    assert est.value == pytest.approx((1 / 48) ** 0.5)
    assert est.variance == 0.0


def test_exact_1d_mean_distance():
    m = ql.uniform_interval()
    assert ql.error_exact_1d(m, [0.0], 1).value == pytest.approx(0.5)


def test_exact_1d_accepts_unsorted_and_rejects_empty():
    m = ql.uniform_interval()
    a = ql.error_exact_1d(m, [0.75, 0.25], 2).value
    b = ql.error_exact_1d(m, [0.25, 0.75], 2).value
    assert a == b
    with pytest.raises(ValueError):
        ql.error_exact_1d(m, [], 2)


def test_exact_1d_sup_norm():
    m = ql.uniform_interval()
    assert ql.error_exact_1d(m, [0.5], np.inf).value == pytest.approx(0.5)
    assert ql.error_exact_1d(m, [0.25, 0.75], np.inf).value == pytest.approx(0.25)


def test_curve_segment_matches_interval():
    m = ql.curve_measure(ql.segment_curve([0, 0], [1, 0]))
    est = ql.error_curve(m, [[0.5, 0.0]], 2)
    assert est.value == pytest.approx((1 / 12) ** 0.5, abs=1e-6)


def test_curve_off_curve_site_is_worse():
    m = ql.curve_measure(ql.segment_curve([0, 0], [1, 0]))
    on = ql.error_curve(m, [[0.5, 0.0]], 2).value
    off = ql.error_curve(m, [[0.5, 0.1]], 2).value
    assert off > on


def test_curve_quarter_circle_sup_to_endpoints():
    # oracle: chord from arc midpoint to an endpoint is 2 sin(pi/8)
    c = ql.quarter_circle(1024)
    m = ql.curve_measure(c)
    est = ql.error_curve(m, [[1.0, 0.0], [0.0, 1.0]], np.inf)
    assert est.value == pytest.approx(2 * math.sin(math.pi / 8), abs=1e-4)
    assert est.method == "sup"


def test_curve_quadrature_rejects_a_restricted_curve():
    arc = ql.restrict(ql.hausdorff_curve_measure(ql.quarter_circle(64)),
                      lambda x: x[0] >= 0.5)
    with pytest.raises(ValueError, match="curve measure"):
        ql.error_curve(arc, [[0.8, 0.5]], 2)


def test_mc_uniform_single_site():
    m = ql.uniform_interval()
    est = ql.error_mc(m, [[0.5]], 2, n=10 ** 6, seed=5)
    assert abs(est.value - (1 / 12) ** 0.5) < 5e-4
    assert est.method == "montecarlo"
    assert est.n_samples == 10 ** 6
    # reported std_err describes the p-th power estimate
    assert est.std_err > 0


def test_mc_exact_zero_when_sites_cover_samples():
    emp = ql.empirical([[0.0], [0.3], [0.9]])
    est = ql.error_mc(emp, [[0.0], [0.3], [0.9]], 2, n=500, seed=1)
    assert est.value == 0.0


def test_mc_square_center():
    # oracle: int (x-1/2)^2 + (y-1/2)^2 over the unit square = 1/6
    m = ql.uniform_box([0, 0], [1, 1])
    est = ql.error_mc(m, [[0.5, 0.5]], 2, n=10 ** 6, seed=9)
    assert abs(est.value - (1 / 6) ** 0.5) < 1e-3


def test_mc_deterministic_and_needs_min_samples():
    m = ql.uniform_interval()
    a = ql.error_mc(m, [[0.3]], 2, n=1000, seed=4)
    b = ql.error_mc(m, [[0.3]], 2, n=1000, seed=4)
    assert a.value == b.value
    with pytest.raises(ValueError):
        ql.error_mc(m, [[0.3]], 2, n=10, seed=4)


def test_mc_sup_routes_to_sample_max():
    m = ql.uniform_interval()
    est = ql.error_mc(m, [[0.0]], np.inf, n=10 ** 4, seed=2)
    assert est.method == "sup"
    assert est.value <= 1.0


# ---------------------------------------------------------------------------
# basic e_p properties on exact 1D instances

def _random_instance(rng):
    a, b = rng.uniform(0.2, 2.0, size=2)
    mass = rng.uniform(0.5, 2.0)
    pdf = lambda x, _a=a, _b=b: _a + _b * np.asarray(x, dtype=float)
    m = ql.density1d(pdf, (0, 1), normalize=False)
    scale = mass / m.total_mass
    m = ql.density1d(lambda x, _p=pdf, _s=scale: _s * _p(x), (0, 1),
                     normalize=False)
    k = int(rng.integers(1, 5))
    S = np.sort(rng.uniform(0, 1, size=k))
    p = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
    return m, pdf, scale, S, p


def test_monotone_in_sites():
    rng = np.random.default_rng(31)
    m = ql.uniform_interval()
    for _ in range(25):
        S = np.sort(rng.uniform(0, 1, size=3))
        S_big = np.sort(np.concatenate([S, rng.uniform(0, 1, size=2)]))
        p = float(rng.choice([1.0, 2.0, 3.0]))
        assert (ql.error_exact_1d(m, S_big, p).value
                <= ql.error_exact_1d(m, S, p).value + 1e-12)


def test_scaling_property():
    rng = np.random.default_rng(32)
    for _ in range(25):
        m, pdf, scale, S, p = _random_instance(rng)
        lam = rng.uniform(0.3, 3.0)
        scaled = ql.density1d(lambda x, _p=pdf, _s=scale * lam: _s * _p(x),
                              (0, 1), normalize=False)
        lhs = ql.error_exact_1d(scaled, S, p).value
        rhs = lam ** (1 / p) * ql.error_exact_1d(m, S, p).value
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_order_inequality():
    rng = np.random.default_rng(33)
    for _ in range(25):
        m, _, _, S, _ = _random_instance(rng)
        p, q = 1.0, 3.0
        ep = ql.error_exact_1d(m, S, p).value
        eq = ql.error_exact_1d(m, S, q).value
        assert ep <= m.total_mass ** (1 / p - 1 / q) * eq + 1e-9


def test_disjoint_additivity_psum():
    rng = np.random.default_rng(34)
    for _ in range(25):
        m, pdf, scale, S, p = _random_instance(rng)
        c = rng.uniform(0.3, 0.7)
        left = ql.density1d(lambda x, _p=pdf, _s=scale, _c=c:
                            _s * _p(x) * (np.asarray(x) <= _c),
                            (0, 1), breakpoints=(c,), normalize=False)
        right = ql.density1d(lambda x, _p=pdf, _s=scale, _c=c:
                             _s * _p(x) * (np.asarray(x) > _c),
                             (0, 1), breakpoints=(c,), normalize=False)
        whole = ql.error_exact_1d(m, S, p).value
        parts = ql.psum([ql.error_exact_1d(left, S, p).value,
                         ql.error_exact_1d(right, S, p).value], p)
        assert whole == pytest.approx(parts, abs=1e-10)


def test_similarity_pushforward():
    rng = np.random.default_rng(35)
    for _ in range(25):
        m, pdf, scale, S, p = _random_instance(rng)
        lam = rng.uniform(0.4, 2.5)
        c = rng.uniform(-1, 1)
        push = ql.density1d(
            lambda y, _p=pdf, _s=scale, _l=lam, _c=c:
            _s * _p((np.asarray(y, dtype=float) - _c) / _l) / _l,
            (c, c + lam), normalize=False)
        lhs = ql.error_exact_1d(push, lam * S + c, p).value
        rhs = lam * ql.error_exact_1d(m, S, p).value
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_exact_vs_monte_carlo():
    rng = np.random.default_rng(36)
    for _ in range(5):
        m, _, _, S, p = _random_instance(rng)
        exact = ql.error_exact_1d(m, S, p)
        mc = ql.error_mc(m, S, p, n=200000, seed=int(rng.integers(1 << 30)))
        v_exact = exact.value ** p
        assert abs(mc.value ** p - v_exact) <= 4 * mc.std_err + 1e-12


def test_restricted_curve_routes_to_monte_carlo():
    # a restricted curve keeps no arc-length density, so no exact quadrature
    arc = ql.restrict(ql.hausdorff_curve_measure(ql.quarter_circle(64)),
                      lambda x: x[0] >= 0.5)
    assert arc.density is None
    cfg = ql.SolverConfig(restarts=1, max_iters=20, working_sample=2000,
                          eval_samples=2000)
    q = ql.lloyd(arc, 4, 2, cfg, seed=0)
    assert q.error.method == "montecarlo"
    assert q.error.n_samples == 2000 and 0 < q.error.value < 1
