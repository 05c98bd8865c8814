import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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


def test_exact_1d_sup_skips_zero_mass_gaps():
    # the midpoint 0.5 lies in the gap (0.25, 0.75), which carries no mass
    m = ql.piecewise_uniform([(0, 0.25), (0.75, 1)])
    est = ql.error_exact_1d(m, [0.125, 0.875], np.inf)
    assert est.value == pytest.approx(0.125, abs=1e-15)
    assert est.method == "sup"


def test_exact_1d_sup_with_a_density_infinite_at_an_end():
    # reading the infinite density at 0 made the only piece look massless,
    # and the maximum over no candidates raised
    m = ql.density1d(lambda x: 0.5 / np.sqrt(np.asarray(x)), (0, 1))
    est = ql.error_exact_1d(m, [0.5], np.inf)
    assert est.value == 0.5 and est.method == "sup"


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


def _envelope_error_p2(vertices, sites):
    """e_2 of arc length on a polyline, with no tree: on every segment all
    pairwise crossings of the sites' lines t -> |A + t u - s|^2 - t^2 cut it
    into pieces, the nearest site of a piece is an argmin over all sites at
    its midpoint, and (t - tau)^2 + h^2 is integrated in closed form."""
    total = 0.0
    for A, B in zip(vertices[:-1], vertices[1:]):
        ell = math.dist(A, B)
        if ell == 0.0:
            continue
        u = (B - A) / ell
        w = sites - A
        tau = w @ u
        h2 = np.sum((w - tau[:, None] * u) ** 2, axis=1)
        c = tau ** 2 + h2
        with np.errstate(divide="ignore", invalid="ignore"):
            tx = (c[None, :] - c[:, None]) / (2.0 * (tau[None, :] - tau[:, None]))
        cuts = np.unique(np.concatenate([[0.0, ell], tx[(tx > 0) & (tx < ell)]]))
        t0, t1 = cuts[:-1], cuts[1:]
        j = np.argmin(((0.5 * (t0 + t1))[:, None] - tau) ** 2 + h2, axis=1)
        total += np.sum(((t1 - tau[j]) ** 3 - (t0 - tau[j]) ** 3) / 3.0
                        + h2[j] * (t1 - t0))
    return math.sqrt(total)


coords = st.one_of(st.integers(-4, 4).map(lambda v: v / 4.0),
                   st.floats(-1, 1, allow_nan=False, allow_subnormal=False))


@settings(max_examples=100, deadline=None)
@given(verts=st.lists(st.tuples(coords, coords), min_size=2, max_size=29),
       sites=st.lists(st.tuples(coords, coords), min_size=1, max_size=59))
def test_curve_error_matches_envelope_oracle(verts, sites):
    V, S = np.array(verts), np.array(sites)
    assume(np.linalg.norm(np.diff(V, axis=0), axis=1).sum() > 1e-3)
    m = ql.hausdorff_curve_measure(ql.Curve(V))
    assert ql.error_curve(m, S, 2).value == pytest.approx(
        _envelope_error_p2(V, S), rel=1e-12)


@pytest.mark.parametrize("p", [1, 1.25, 1.5, 2, 3])
def test_curve_segment_matches_exact_1d_on_a_two_bump_law(p):
    # sites on a straight segment: the curve error is the 1D error of its law
    bumps = lambda t: (np.exp(-((np.asarray(t) - 0.3) / 0.05) ** 2)
                       + 0.5 * np.exp(-((np.asarray(t) - 0.75) / 0.1) ** 2) + 0.05)
    c = ql.segment_curve([0.0, 0.0], [0.6, 0.8])
    arc = ql.curve_measure(c, ql.Law1D(bumps, 0.0, c.total_length))
    line = ql.density1d(bumps, (0.0, c.total_length))
    t = np.array([0.05, 0.22, 0.31, 0.4, 0.7, 0.93])
    assert ql.error_curve(arc, np.outer(t, [0.6, 0.8]), p).value == pytest.approx(
        ql.error_exact_1d(line, t, p).value, rel=1e-10)


def test_curve_sup_skips_zero_mass_gaps():
    # arc law on [0, .4] and [.6, 1]: the gap's midpoint 0.5 is 0.3 from both
    # sites, but the supremum over the support is 0.2, at 0, .4, .6 and 1
    pdf = lambda t: ((np.asarray(t) <= 0.4) | (np.asarray(t) >= 0.6)).astype(float)
    arc = ql.curve_measure(ql.segment_curve([0, 0], [1, 0]),
                           ql.Law1D(pdf, 0.0, 1.0, breakpoints=(0.4, 0.6)))
    est = ql.error_curve(arc, [[0.2, 0.0], [0.8, 0.0]], np.inf)
    assert est.value == pytest.approx(0.2, abs=1e-12)
    assert est.method == "sup"


def test_curve_sup_with_a_density_infinite_at_an_end():
    # arc law rho(t) = t^(-1/2) / 2, infinite at 0: the piece next to 0 holds
    # mass, so the supremum is the distance 0.9 from that end
    law = ql.Law1D(lambda t: 0.5 / np.sqrt(t), 0.0, 1.0)
    arc = ql.curve_measure(ql.segment_curve([0, 0], [1, 0]), density1d_law=law)
    assert ql.error_curve(arc, [[0.9, 0.0]], np.inf).value == 0.9


def test_curve_with_a_repeated_vertex():
    # oracle: two unit legs, each with a site at its midpoint: 2 * 2 * (1/2)^3 / 3
    c = ql.Curve([[0, 0], [1, 0], [1, 0], [1, 1]])
    est = ql.error_curve(ql.hausdorff_curve_measure(c), [[0.5, 0], [1, 0.5]], 2)
    assert est.value == pytest.approx(math.sqrt(1 / 6), rel=1e-14)


def test_curve_measure_density_lives_in_its_law():
    m = ql.curve_measure(ql.quarter_circle(64))
    assert m.density is None and m.law is not None


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
    assert est.method == "sample-max"
    assert est.value <= 1.0


@settings(max_examples=60, deadline=None)
@given(sites=st.lists(st.floats(-0.5, 1.5), min_size=1, max_size=8),
       seed=st.integers(0, 2 ** 32 - 1))
def test_mc_sample_max_never_exceeds_the_exact_sup(sites, seed):
    m = ql.uniform_interval()
    est = ql.error_mc(m, np.reshape(sites, (-1, 1)), np.inf, n=1000, seed=seed)
    assert est.value <= ql.error_exact_1d(m, sites, np.inf).value


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
