import itertools
import math

import numpy as np
import pytest
from scipy import special
from scipy.integrate import quad

import quantlab as ql
from quantlab import bounds


def test_density_bound_constants_p2_s1():
    c1, c2, pp = ql.density_bound_constants(2, 1)
    assert pp == pytest.approx(2 / 3)
    assert c1 == pytest.approx(2 ** (-4 / 3) * (1 / 3) ** (1 / 3))
    assert c2 == pytest.approx(1.0)


def test_density_bound_constant_ratio_identity():
    p, s = 2.0, 2.0
    c1, c2, pp = ql.density_bound_constants(p, s)
    expect = 2 ** (2 * pp) * (s / (s + p)) ** (-s / (s + p))
    assert abs(c2 / c1 - expect) < 1e-12


def test_density_bound_constants_positive():
    for s in (0.3, 1.0, 2.7):
        c1, c2, _ = ql.density_bound_constants(1, s)
        assert 0 < c1 < c2 < np.inf


def test_conc_lower_bound_uniform_theta2():
    # theta = 2 is the raw constant of Lebesgue on [0,1]; bound hits C_{2,1}
    b = ql.conc_lower_bound(2.0, 1.0, 2, 1.0)
    assert b.value == pytest.approx(1 / (2 * math.sqrt(3)), abs=1e-12)
    assert b.side == "lower"


def test_conc_lower_bound_edge_cases():
    assert ql.conc_lower_bound(2.0, 1.0, 2, 0.0).value == 0.0
    v1 = ql.conc_lower_bound(1.0, 1.0, 2, 1.0).value
    v2 = ql.conc_lower_bound(10.0, 1.0, 2, 1.0).value
    v3 = ql.conc_lower_bound(100.0, 1.0, 2, 1.0).value
    assert v1 > v2 > v3  # decreasing in theta
    with pytest.raises(ValueError):
        ql.conc_lower_bound(0.0, 1.0, 2, 1.0)
    with pytest.raises(ValueError):
        ql.conc_lower_bound(1.0, 1.0, np.inf, 1.0)


def test_conc_upper_bound_values():
    assert ql.conc_upper_bound(1.0, 1.0, 2, 1.0).value == pytest.approx(2.0)
    assert ql.conc_upper_bound(1.0, 1.0, np.inf, 1.0).value == pytest.approx(2.0)
    assert ql.conc_upper_bound(1.0, 1.0, 2, 0.0).value == 0.0
    with pytest.raises(ValueError):
        ql.conc_upper_bound(-1.0, 1.0, 2, 1.0)


def test_conc_bounds_ordered_for_valid_thetas():
    # theta_upper >= theta_lower from one measure keeps lower <= upper
    for p, s in [(1, 1), (2, 1), (2, 2), (3, 1.5)]:
        lo = ql.conc_lower_bound(2.0, s, p, 1.0).value
        hi = ql.conc_upper_bound(1.0, s, p, 1.0).value
        assert lo <= hi


def test_packing_bound_values():
    assert ql.packing_bound(1.0, 1.0, 1.0, 1.0).value == pytest.approx(2.0)
    seg = ql.packing_bound(np.pi, 2.0, 1.0, 1.0)
    assert seg.value == pytest.approx(4 / np.pi)
    assert ql.packing_bound(1.0, 2.0, 1.0, 0.0).value == 0.0
    with pytest.raises(ValueError):
        ql.packing_bound(1.0, 1.0, 2.0, 1.0)


def test_theta_conversion_helper():
    assert ql.theta_raw_from_density(1.0, 1.0) == pytest.approx(2.0)
    assert ql.theta_raw_from_density(1.0, 2.0) == pytest.approx(np.pi)


def test_bounds_mass_homogeneity():
    # doubling the mass scales every Q-bound by 2^(1/p')
    for p, s in [(1, 1), (2, 1), (2, 2)]:
        pp = ql.p_prime(p, s)
        lo1 = ql.conc_lower_bound(1.5, s, p, 1.0).value
        lo2 = ql.conc_lower_bound(1.5, s, p, 2.0).value
        assert lo2 == pytest.approx(2 ** (1 / pp) * lo1, rel=1e-12)
        up1 = ql.conc_upper_bound(1.5, s, p, 1.0).value
        up2 = ql.conc_upper_bound(1.5, s, p, 2.0).value
        assert up2 == pytest.approx(2 ** (1 / pp) * up1, rel=1e-12)


def test_rand_quant_integrand_closed_form_family():
    # oracle: 2 N^2 int_0^(1/2) r (1-2r)^N dr = N^2 / (2 (N+1) (N+2))
    m = ql.uniform_interval()
    ball = ql.measure_ball_fn(m, [0.5])
    for N in (1, 10, 100, 10 ** 4):
        expect = N ** 2 / (2 * (N + 1) * (N + 2))
        assert ql.rand_quant_integrand(ball, 2, 1.0, N) == pytest.approx(
            expect, abs=1e-6)


def test_rand_quant_integrand_heavy_tail_error():
    with pytest.raises(ValueError, match="heavy tail"):
        ql.rand_quant_integrand(lambda r: 0.5, 2, 1.0, 10)


def _closed_form_F(law, x, p, N):
    """F(x) at s = 1 on [0, 1] from regularized incomplete beta functions.

    Below a = min(x, 1 - x) the survival 1 - nu(B_r(x)) is 1 - k r (k = 2 on
    the uniform law, 4x on 2x); above it, up to b = max(x, 1 - x), it is
    1 - a - r (uniform), (x - r)^2 (2x, x >= 1/2) or 1 - (x + r)^2 (2x,
    x < 1/2, closed here for integer p or x = 0), and 0 beyond b.
    """
    a, b = min(x, 1 - x), max(x, 1 - x)
    B = lambda q, M, lo: special.beta(q, M + 1) * special.betaincc(q, M + 1, lo)
    if law == "uniform":
        inner = 2.0 ** -p * (special.beta(p, N + 1) - B(p, N, 2 * a))
        outer = b ** (N + p) * B(p, N, a / b)
    else:
        inner = 0.0 if x == 0 else (4 * x) ** -p * (special.beta(p, N + 1)
                                                    - B(p, N, 4 * x * a))
        if x >= 0.5:
            outer = x ** (2 * N + p) * B(p, 2 * N, a / x)
        else:  # (u - x)^(p-1) expanded, u = x + r; int (1-u^2)^N u^k du by v = u^2
            js = range(int(p)) if p == int(p) else [0]
            assert p == int(p) or x == 0
            outer = sum(special.binom(p - 1, j) * (-x) ** j
                        * 0.5 * B((p - j) / 2, N, 4 * x * x) for j in js)
    return p * N ** p * (inner + outer)


def test_rand_quant_integrand_matches_closed_forms_with_the_kink_radii():
    laws = {"uniform": ql.uniform_interval(),
            "2x": ql.density1d(lambda x: 2 * x, (0, 1))}
    rng = np.random.default_rng(11)
    for name, m in laws.items():
        for p, tol in ((1, 1e-12), (2, 1e-12), (3, 1e-12), (1.5, 1e-9)):
            xs = [0.0, 0.5, 1.0] + list(rng.uniform(0.0, 1.0, 4))
            if name == "2x" and p != int(p):
                xs = [0.0, 0.5, 1.0] + list(rng.uniform(0.5, 1.0, 4))
            for x, N in itertools.product(xs, (1, 4, 16, 100)):
                F = ql.rand_quant_integrand(ql.measure_ball_fn(m, [x]), p, 1.0, N,
                                            breakpoints=np.abs(x - m.law.breakpoints))
                expect = _closed_form_F(name, x, p, N)
                assert F == pytest.approx(expect, rel=tol), (name, p, x, N)


def test_rand_quant_integrand_takes_no_quad_between_the_kink_radii(monkeypatch):
    calls = []
    monkeypatch.setattr(bounds, "quad", lambda *a, **k: calls.append(a) or quad(*a, **k))
    m = ql.density1d(lambda x: 2 * x, (0, 1))
    for x in [0.0, 0.5, 1.0] + list(np.random.default_rng(12).uniform(0.0, 1.0, 20)):
        ball = ql.measure_ball_fn(m, [x])
        F = ql.rand_quant_integrand(ball, 3, 1.0, 16,
                                    breakpoints=np.abs(x - m.law.breakpoints))
        assert not calls, x
        # without the kink radii, a kink past a piece's outermost nodes is seen
        # by neither rule (nor by quad): up to 5.3e-8 over 2100 points of 2x
        assert ql.rand_quant_integrand(ball, 3, 1.0, 16) == pytest.approx(F, abs=1e-7)
        calls.clear()
    with pytest.raises(ValueError, match="heavy tail"):
        ql.rand_quant_integrand(lambda r: 0.5, 3, 1.0, 16)


@pytest.mark.parametrize("N, p", [(100, 3), (1000, 3), (1000, 4)])
def test_rand_quant_integrand_fallback_quad_holds_its_tolerance_on_the_scale_of_F(N, p):
    # without the kink radii the split rules disagree and quad integrates the
    # pieces; its absolute tolerance must hold after the p N^(p/s) scale
    # (it was 3.6e-9, 8.8e-7 and 3.8e-6 relative off)
    m = ql.uniform_interval()
    ball = ql.measure_ball_fn(m, [0.0012])
    F = ql.rand_quant_integrand(ball, p, 1.0, N, breakpoints=np.abs(0.0012 - m.law.breakpoints))
    assert ql.rand_quant_integrand(ball, p, 1.0, N) == pytest.approx(F, rel=1e-12)


def test_rand_quant_integrand_on_the_unit_square_matches_split_quadrature():
    m = ql.uniform_box([0, 0], [1, 1])
    points = [(0.5, 0.5), (0.1, 0.3), (0.0, 0.0), (0.9, 0.05)]
    for x, N in itertools.product(points, (4, 16)):
        ball = lambda r: m.ball_measure(x, r)
        # the disk meets a side or a corner of the square at these radii
        sides = [x[0], 1 - x[0], x[1], 1 - x[1]]
        corners = [math.hypot(cx - x[0], cy - x[1]) for cx in (0, 1) for cy in (0, 1)]
        cuts = sorted({0.0, *sides, *corners})
        ref = sum(quad(lambda r: (1 - ball(r)) ** N * r, lo, hi,
                       epsabs=1e-15, epsrel=1e-13, limit=200)[0]
                  for lo, hi in zip(cuts[:-1], cuts[1:]) if hi > lo)
        F = ql.rand_quant_integrand(ql.measure_ball_fn(m, x), 2, 2.0, N)
        assert F == pytest.approx(2 * N * ref, rel=1e-9, abs=1e-9), (x, N)


def test_rand_quant_integrand_at_the_centre_of_a_decaying_mixture():
    mix = ql.decaying_mixture(ql.lebesgue_halfline(), 0.0, alpha=2.0, beta=9.0, R0=1.0)
    ball = lambda r: mix.measure.ball_measure([0.0], r)
    cuts = [0.0] + sorted({a[1] for a in mix.annuli if a[1] < 1e4})
    ref = sum(quad(lambda r: (1 - ball(r)) ** 4 * r, lo, hi, epsabs=1e-15,
                   epsrel=1e-13, limit=200)[0] for lo, hi in zip(cuts[:-1], cuts[1:]))
    F = ql.rand_quant_integrand(ql.measure_ball_fn(mix.measure, [0.0]), 2, 1.0, 4)
    assert F == pytest.approx(2 * 4 ** 2 * ref, rel=1e-9)


def test_rand_quant_bound_passes_the_kink_radii_of_a_law():
    # a one-point mu makes the bound F(x) itself; without the kink radii, quad
    # stepped over them and the bound was 2.7e-7 (uniform) and 1.3e-8 (2x) off
    uni, lin = ql.uniform_interval(), ql.density1d(lambda x: 2 * x, (0, 1))
    for name, m, x, p, N in (("uniform", uni, 0.0003006901069229073, 2, 1),
                             ("2x", lin, 0.7966391827460546, 3, 16)):
        one = ql.empirical([[x]])
        rep = ql.rand_quant_bound(one, m, p, 1.0, N, n_mc=2, empirical=0.0)
        assert rep.value == pytest.approx(_closed_form_F(name, x, p, N), rel=1e-12)


def test_measure_ball_fn_rejects_a_point_of_another_dimension():
    # these once read the first coordinates and returned a ball of the wrong point
    with pytest.raises(ValueError, match="coordinates"):
        ql.measure_ball_fn(ql.uniform_interval(), [0.2, 0.9])
    with pytest.raises(ValueError, match="coordinates"):
        ql.measure_ball_fn(ql.uniform_box([0, 0], [1, 1]), [0.5, 0.5, 0.5])
    ball = ql.measure_ball_fn(ql.uniform_interval(), 0.2)
    assert ball(np.array([0.1, 0.3])) == pytest.approx([0.2, 0.5])


def test_rand_quant_bound_uniform():
    m = ql.uniform_interval()
    rep = ql.rand_quant_bound(m, m, 2, 1.0, 10, n_mc=150, seed=2)
    # quadrature oracle for the integral of F over [0, 1] is 0.495338
    assert rep.value == pytest.approx(0.495338, abs=0.02)
    assert rep.compared_to["passes"]
    assert rep.compared_to["empirical"] == pytest.approx(
        100 * (ql.zador_constant_1d(2) / 10) ** 2, rel=1e-4)


def test_rand_quant_bound_near_dirac():
    tight = ql.empirical(0.5 + 1e-6 * np.arange(5).reshape(-1, 1) - 2e-6)
    nu = ql.uniform_interval()
    F_center = ql.rand_quant_integrand(ql.measure_ball_fn(nu, [0.5]), 2, 1.0, 10)
    rep = ql.rand_quant_bound(tight, nu, 2, 1.0, 10, n_mc=100, seed=1,
                              empirical=0.0)
    assert rep.value == pytest.approx(F_center, rel=1e-3)


def test_rand_quant_bound_n1():
    m = ql.uniform_interval()
    rep = ql.rand_quant_bound(m, m, 2, 1.0, 1, n_mc=100, seed=4)
    assert rep.compared_to["passes"]


def test_rand_quant_bound_needs_two_draws_for_a_standard_error():
    m = ql.uniform_interval()
    with pytest.raises(ValueError, match="n_mc"):
        ql.rand_quant_bound(m, m, 2, 1.0, 4, n_mc=1, empirical=0.0)


def test_rand_quant_bound_restricted_density_falls_back_to_lloyd():
    # a restriction has no exact law, so the empirical side comes from Lloyd;
    # oracle: N^2 V_N of uniform [0, 1/2] is N^2 (1/2) (1/(2N))^2 / 12
    half = ql.restrict(ql.uniform_interval(), lambda x: x[0] <= 0.5)
    rep = ql.rand_quant_bound(half, ql.uniform_interval(), 2, 1.0, 4, n_mc=8)
    assert np.isfinite(rep.value) and rep.value > 0
    assert rep.compared_to["empirical"] == pytest.approx(0.5 / 48, rel=0.05)
    assert rep.compared_to["passes"]


def test_decaying_mixture_tail_example():
    mix = ql.decaying_mixture(ql.lebesgue_halfline(), 0.0, alpha=2.0, beta=4.0,
                              R0=1.0)
    assert mix.q == pytest.approx(0.25)
    # sum of weights from index 2 on is q^2, the displayed tail bound at R=4
    assert (1 - mix.weights[:2].sum()) == pytest.approx(mix.q ** 2, abs=1e-12)
    assert mix.tail(4.0) == pytest.approx(3 / 64, abs=1e-12)
    assert mix.tail(4.0) <= (4.0) ** -2.0


def test_decaying_mixture_tail_bound_on_grid():
    mix = ql.decaying_mixture(ql.lebesgue_halfline(), 0.0, alpha=2.0, beta=4.0,
                              R0=1.0)
    for R in (1, 2, 4, 8, 16, 32, 64):
        assert mix.tail(float(R)) <= (R / 1.0) ** -2.0 + 1e-15


def test_decaying_mixture_tail_bound_off_grid():
    # off the grid R0 beta^(k/2) the bound loses at most a factor beta^(alpha/2)
    for alpha, beta, R0 in itertools.product([0.5, 1, 2, 3], [1.5, 2, 4, 9], [0.5, 1, 3]):
        mix = ql.decaying_mixture(ql.lebesgue_halfline(), 0.0, alpha, beta, R0)
        for R in R0 * np.geomspace(1.0, 1e3, 97):
            assert mix.tail(R) <= beta ** (alpha / 2) * (R / R0) ** -alpha + 1e-15
        for k in range(12):
            R = R0 * beta ** (k / 2)
            assert mix.tail(R) <= (R / R0) ** -alpha + 1e-15
    # between grid radii (R/R0)^(-alpha) alone does not hold
    mix = ql.decaying_mixture(ql.lebesgue_halfline(), 0.0, 2.0, 4.0, 1.0)
    assert mix.tail(3.0) == pytest.approx(0.1171875, abs=1e-15) and mix.tail(3.0) > 1 / 9


def test_decaying_mixture_mass_and_determinism():
    mix = ql.decaying_mixture(ql.lebesgue_halfline(), 0.0, alpha=2.0, beta=4.0,
                              R0=1.0)
    assert mix.weights.sum() == pytest.approx(1.0, abs=1e-12)
    a = ql.sample(mix.measure, 256, seed=8).points
    b = ql.sample(mix.measure, 256, seed=8).points
    assert np.array_equal(a, b)
    # exact ball function vs empirical frequencies
    n = 200000
    pts = ql.sample(mix.measure, n, seed=9).points.ravel()
    for R in (2.0, 8.0):
        emp = float(np.mean(pts < R))
        exact = 1.0 - mix.tail(R)
        assert abs(emp - exact) <= 4 * math.sqrt(exact * (1 - exact) / n)


def test_decaying_mixture_drops_empty_annuli():
    # measure with no mass between radii 1 and 4 has a zero-mass annulus
    gap = ql.RadialMeasure(
        ball_mass=lambda r: min(r, 1.0) + max(r - 4.0, 0.0),
        sample_annulus=lambda rng, n, a, b: rng.uniform(a, b, size=(n, 1)),
        ambient_dim=1, x0=0.0)
    mix = ql.decaying_mixture(gap, 0.0, alpha=2.0, beta=4.0, R0=1.0)
    assert len(mix.dropped) >= 1
    assert mix.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_mixture_ball_measure_only_at_center():
    mix = ql.decaying_mixture(ql.lebesgue_halfline(), 0.0, alpha=2.0, beta=4.0,
                              R0=1.0)
    assert mix.measure.ball_measure([0.0], 4.0) == pytest.approx(1 - 3 / 64)
    with pytest.raises(ValueError):
        mix.measure.ball_measure([1.0], 2.0)


def test_sandwich_check():
    lo = ql.conc_lower_bound(2.0, 1.0, 2, 1.0)
    hi = ql.conc_upper_bound(1.0, 1.0, 2, 1.0)
    out = ql.sandwich_check((0.2887, 0.2887), lo, hi)
    assert out["passes"]
    out = ql.sandwich_check(5.0, lo, hi)
    assert not out["passes"]
    bad = ql.conc_upper_bound(1.0, 2.0, 2, 1.0)
    with pytest.raises(ValueError, match="mismatch"):
        ql.sandwich_check(0.3, lo, bad)
