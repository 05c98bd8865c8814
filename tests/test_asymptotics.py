import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

import quantlab as ql
from quantlab.asymptotics import solver_for


def test_coeff_sequence_uniform_dp():
    m = ql.uniform_interval()
    series = ql.coeff_sequence(m, 2, 1.0, [2, 4, 8, 16], solver="dp")
    assert np.allclose(series.scaled, 1 / (2 * math.sqrt(3)), atol=1e-5)
    assert series.monotone


def test_coeff_sequence_linear_density_trend():
    # oracle: C_{2,1} (int (2x)^(1/3) dx)^(3/2), the integral by quadrature
    integral, _ = quad(lambda x: (2 * x) ** (1 / 3), 0, 1)
    target = ql.zador_constant_1d(2) * integral ** 1.5
    m = ql.density1d(lambda x: 2 * np.asarray(x), (0, 1))
    series = ql.coeff_sequence(m, 2, 1.0, [32, 64, 128, 256], solver="dp")
    assert abs(series.scaled[-1] - target) / target < 0.02


def test_coeff_sequence_cantor_exact():
    m = ql.ifs_measure(ql.cantor_ifs(), depth=30)
    s = math.log(2) / math.log(3)
    series = ql.coeff_sequence(m, np.inf, s, [2 ** k for k in range(1, 11)],
                               solver="auto")
    assert np.allclose(series.scaled, 0.5, atol=1e-12)


def test_cantor_pipeline_serves_only_the_middle_thirds_measure():
    # the maps x/2 and x/2 + 1/2 give the uniform law, e_{N,inf} = 1/(2N)
    uni = ql.ifs_measure(ql.IfsSpec((0.5, 0.5), [[0], [0.5]], (0.5, 0.5)))
    assert uni.label == "ifs"
    for solver in ("auto", "cantor"):
        with pytest.raises(ValueError, match="Cantor"):
            ql.coeff_sequence(uni, np.inf, 1.0, [2, 4, 8, 16], solver=solver)
    assert ql.ifs_measure(ql.cantor_ifs((0.75, 0.25))).label == "cantor"
    assert ql.ifs_measure(ql.cantor_ifs((1.0, 0.0))).label == "ifs"


def test_coeff_sequence_budget_validation():
    m = ql.uniform_interval()
    with pytest.raises(ValueError):
        ql.coeff_sequence(m, 2, 1.0, [4, 4, 8], solver="dp")


def test_estimate_coefficients_constant_series():
    series = ql.make_series([2, 4, 8, 16, 32, 64, 128, 256],
                            [0.2887 / n for n in [2, 4, 8, 16, 32, 64, 128, 256]],
                            2, 1.0)
    est = ql.estimate_coefficients(series, 0.5)
    assert est.lower == pytest.approx(0.2887)
    assert est.upper == pytest.approx(0.2887)
    assert est.fitted == pytest.approx(0.2887, rel=1e-6)


def test_estimate_coefficients_cantor_gap():
    s = math.log(2) / math.log(3)
    budgets = sorted({2 ** k for k in range(2, 11)}
                     | {3 * 2 ** (k - 1) for k in range(2, 11)})
    errs = [ql.cantor_covering_radius(n) for n in budgets]
    series = ql.make_series(budgets, errs, np.inf, s)
    est = ql.estimate_coefficients(series, 0.5)
    assert est.lower == pytest.approx(0.5, abs=1e-12)
    assert est.upper > est.lower + 0.3


def test_estimate_coefficients_monotone_series():
    budgets = [2, 4, 8, 16, 32, 64, 128, 256]
    scaled = np.linspace(0.4, 0.3, len(budgets))
    series = ql.make_series(budgets, scaled / np.asarray(budgets), 2, 1.0)
    est = ql.estimate_coefficients(series, 0.5)
    assert est.lower == pytest.approx(series.scaled[-1])


def test_estimate_coefficients_needs_four_tail_entries():
    series = ql.make_series([2, 4, 8], [0.1, 0.05, 0.025], 2, 1.0)
    with pytest.raises(ValueError):
        ql.estimate_coefficients(series, 0.5)


def test_estimate_coefficients_scale_invariance():
    budgets = [2, 3, 5, 8, 13, 21, 34, 55]
    rng = np.random.default_rng(0)
    errs = np.sort(rng.uniform(0.01, 1.0, len(budgets)))[::-1]
    s1 = ql.make_series(budgets, errs, 2, 1.0)
    s2 = ql.make_series(budgets, 3.0 * errs, 2, 1.0)
    e1 = ql.estimate_coefficients(s1, 0.5)
    e2 = ql.estimate_coefficients(s2, 0.5)
    assert e2.lower == pytest.approx(3 * e1.lower, rel=1e-15)
    assert e2.upper == pytest.approx(3 * e1.upper, rel=1e-15)


def test_zador_constant_values():
    assert ql.zador_constant_1d(1) == pytest.approx(0.25)
    assert ql.zador_constant_1d(2) == pytest.approx(1 / (2 * math.sqrt(3)))
    assert ql.zador_constant_1d(3) == pytest.approx((1 / 32) ** (1 / 3))
    with pytest.raises(ValueError):
        ql.zador_constant_1d(np.inf)


def test_zador_functional_uniform():
    assert ql.zador_functional(ql.uniform_interval(), 1, 2) == pytest.approx(1.0)


def test_zador_functional_linear_density():
    # oracle quadrature of (2x)^(1/3)
    integral, _ = quad(lambda x: (2 * x) ** (1 / 3), 0, 1)
    m = ql.density1d(lambda x: 2 * np.asarray(x), (0, 1))
    assert ql.zador_functional(m, 1, 2) == pytest.approx(integral ** 1.5,
                                                         abs=1e-9)


def test_zador_functional_quarter_circle():
    prob = ql.curve_measure(ql.quarter_circle(2048))
    assert ql.zador_functional(prob, 1, 2) == pytest.approx(np.pi / 2, abs=1e-5)
    h1 = ql.hausdorff_curve_measure(ql.quarter_circle(2048))
    assert ql.zador_functional(h1, 1, 2) == pytest.approx((np.pi / 2) ** 1.5,
                                                          abs=1e-5)


def test_zador_functional_singular_kinds_contribute_zero():
    m = ql.ifs_measure(ql.cantor_ifs(), depth=20)
    assert ql.zador_functional(m, 1, 2) == 0.0


def test_zador_prediction_values():
    assert ql.zador_prediction(ql.uniform_interval(), 1, 2) == pytest.approx(
        1 / (2 * math.sqrt(3)))
    h1 = ql.hausdorff_curve_measure(ql.quarter_circle(2048))
    assert ql.zador_prediction(h1, 1, 2) == pytest.approx(
        ql.zador_constant_1d(2) * (np.pi / 2) ** 1.5, abs=1e-5)
    lin = ql.density1d(lambda x: 2 * np.asarray(x), (0, 1))
    assert ql.zador_prediction(lin, 1, 2) == pytest.approx(0.2651650429,
                                                           abs=1e-6)
    with pytest.raises(ValueError, match="constant unknown"):
        ql.zador_prediction(ql.uniform_box([0, 0], [1, 1]), 2, 2)


def test_optimal_allocation_examples():
    r = ql.optimal_allocation([1, 1], 2, 1.0)
    assert r.p_prime == pytest.approx(2 / 3)
    assert np.allclose(r.beta, [0.5, 0.5])
    assert r.value == pytest.approx(2 ** 1.5)

    r = ql.optimal_allocation([0.0, 2.5], 2, 1.0)
    assert np.allclose(r.beta, [0.0, 1.0])
    assert r.value == pytest.approx(2.5)

    r = ql.optimal_allocation([1, 2], np.inf, 1.0)
    assert r.p_prime == pytest.approx(1.0)
    assert np.allclose(r.beta, [1 / 3, 2 / 3])
    assert r.value == pytest.approx(3.0)

    r = ql.optimal_allocation([0.0, 0.0], 2, 1.0)
    assert not r.defined and r.value == 0.0


def test_allocation_value_is_psum_identity():
    rng = np.random.default_rng(4)
    for _ in range(20):
        a = rng.uniform(0, 2, size=3)
        p = float(rng.choice([1.0, 2.0, 4.0]))
        s = float(rng.uniform(0.5, 3.0))
        r = ql.optimal_allocation(a, p, s)
        assert r.value == pytest.approx(float(np.sum(a ** r.p_prime))
                                        ** (1 / r.p_prime), abs=1e-12)
        if r.defined:
            assert r.beta.sum() == pytest.approx(1.0, abs=1e-12)


def test_spatial_histogram_whole_space():
    pts = np.random.default_rng(0).uniform(size=(40, 2))
    fr = ql.spatial_histogram(pts, [lambda x: True])
    assert fr[0] == 1.0


def test_spatial_histogram_overlap_rejected():
    with pytest.raises(ValueError, match="overlap"):
        ql.spatial_histogram(np.array([[0.5]]),
                             [lambda x: x[0] < 1, lambda x: x[0] > 0])


def test_spatial_histogram_reads_a_flat_list_as_points_on_a_line():
    # np.atleast_2d read [0.1, 0.6, 0.7] as one point in R^3, giving [1, 0]
    fr = ql.spatial_histogram([0.1, 0.6, 0.7], [lambda x: x[0] < 0.5, lambda x: x[0] >= 0.5])
    assert np.array_equal(fr, [1 / 3, 2 / 3])


def test_spatial_histogram_uniform_split():
    m = ql.uniform_interval()
    q = ql.dp_optimal_1d(m, 100, 2)
    fr = ql.spatial_histogram(q.points, [lambda x: x[0] <= 0.5])
    assert abs(fr[0] - 0.5) <= 0.02


def test_functional_similarity_scaling():
    # pushforward under x -> lam x + c multiplies the functional by lam
    rng = np.random.default_rng(6)
    base = lambda x: 1.0 + np.asarray(x, dtype=float)
    m = ql.density1d(base, (0, 1), normalize=False)
    for _ in range(5):
        lam = float(rng.uniform(0.4, 2.5))
        c = float(rng.uniform(-1, 1))
        push = ql.density1d(
            lambda y, _l=lam, _c=c: base((np.asarray(y, dtype=float) - _c) / _l) / _l,
            (c, c + lam), normalize=False)
        f0 = ql.zador_functional(m, 1, 2)
        f1 = ql.zador_functional(push, 1, 2)
        assert f1 == pytest.approx(lam * f0, abs=1e-9)


def test_quantizability_probe_uniform():
    m = ql.uniform_interval()
    cfg = ql.SolverConfig(restarts=2, max_iters=60, working_sample=20000,
                          eval_samples=50000)
    rows = ql.quantizability_probe(m, 2, 1.0, [0.5, 0.25, 0.125],
                                   budgets=(8, 12, 16, 24, 32), seed=3, cfg=cfg)
    vals = [r.q_upper_est for r in rows]
    assert vals[0] > vals[1] > vals[2]
    # oracle: restricted uniform coefficients scale like fraction^(1 + 1/p)
    expect_ratio = (0.25 / 0.5) ** 1.5
    assert vals[1] / vals[0] == pytest.approx(expect_ratio, rel=0.15)


class _Captured(Exception):
    pass


@pytest.mark.parametrize("dim", [1, 2])
def test_quantizability_probe_predicate_matches_math_dist(monkeypatch, dim):
    m = ql.uniform_interval() if dim == 1 else ql.uniform_box([0, 0], [1, 1])
    preds = []

    def capture(measure, predicate):
        preds.append(predicate)
        raise _Captured

    monkeypatch.setattr("quantlab.asymptotics.restrict", capture)
    with pytest.raises(_Captured):
        ql.quantizability_probe(m, 2, 1.0, [0.5], seed=3)
    pred = preds[0]
    # the probe's base point and radius, rebuilt from its own draws
    base = ql.sample(m, 4096, ql.derive_seed(3, "probe-base")).points
    x0 = base.mean(axis=0)
    r = float(np.quantile(np.linalg.norm(base - x0, axis=1), 0.5))
    draws = ql.sample(m, 10 ** 4, 7).points
    # points at distance r exactly, up to rounding, on both sides
    edge = x0 + r * np.eye(dim)[0] * np.array([[1.0], [-1.0]])
    pts = np.vstack([draws, edge, np.nextafter(edge, 0.5), np.nextafter(edge, -0.5)])
    assert [bool(pred(x)) for x in pts] == [math.dist(x, x0) >= r for x in pts]


def test_coeff_sequence_gap_flag_on_solver_failure():
    # a budget larger than the working sample makes lloyd fail for that entry
    m = ql.uniform_box([0, 0], [1, 1])
    cfg = ql.SolverConfig(restarts=1, max_iters=30, working_sample=500,
                          eval_samples=2000)
    series = ql.coeff_sequence(m, 2, 2.0, [4, 8, 1000], solver="lloyd",
                               seed=0, cfg=cfg)
    assert np.isfinite(series.scaled[:2]).all()
    assert np.isnan(series.scaled[-1])
    assert series.provenance[-1][0] == "gap"


def test_coeff_sequence_other_solver_errors_propagate(monkeypatch):
    # only ValueError becomes a gap; any other failure is a fault to report
    def broken(*args, **kwargs):
        raise FloatingPointError("solver fault")

    monkeypatch.setattr("quantlab.asymptotics.lloyd", broken)
    with pytest.raises(FloatingPointError, match="solver fault"):
        ql.coeff_sequence(ql.uniform_box([0, 0], [1, 1]), 2, 2.0, [4, 8],
                          solver="lloyd", seed=0)


def test_allocation_consistency_split_budgets():
    # budgets split per the optimal beta reproduce the unsplit DP error
    p, s = 2.0, 1.0
    whole = ql.uniform_interval()
    left = ql.density1d(lambda x: np.ones_like(np.asarray(x, dtype=float)),
                        (0, 0.5), normalize=False)
    right = ql.density1d(lambda x: np.ones_like(np.asarray(x, dtype=float)),
                         (0.5, 1), normalize=False)
    probe = 64
    alpha = [probe * ql.dp_optimal_1d(piece, probe, p).error.value
             for piece in (left, right)]
    beta = ql.optimal_allocation(alpha, p, s).beta
    for N in (64, 128):
        budgets = np.maximum(np.round(beta * N).astype(int), 1)
        combined = ql.psum([ql.dp_optimal_1d(left, int(budgets[0]), p).error.value,
                            ql.dp_optimal_1d(right, int(budgets[1]), p).error.value],
                           p)
        unsplit = ql.dp_optimal_1d(whole, N, p).error.value
        assert abs(combined / unsplit - 1) < 0.01


def test_quantizability_probe_edge_cases():
    m = ql.uniform_interval()
    cfg = ql.SolverConfig(restarts=1, max_iters=40, working_sample=5000,
                          eval_samples=20000)
    rows = ql.quantizability_probe(m, 2, 1.0, [1.0], budgets=(8, 12, 16, 24),
                                   seed=1, cfg=cfg)
    assert rows[0].mass == pytest.approx(1.0)
    assert ql.quantizability_probe(m, 2, 1.0, []) == []


def test_quantizability_probe_on_a_curve():
    arc = ql.hausdorff_curve_measure(ql.quarter_circle(64))
    cfg = ql.SolverConfig(restarts=1, max_iters=20, working_sample=2000,
                          eval_samples=2000)
    rows = ql.quantizability_probe(arc, 2, 1.0, [0.5], budgets=(4, 8),
                                   seed=0, cfg=cfg)
    assert len(rows) == 1
    assert 0 < rows[0].mass < arc.total_mass
    assert np.isfinite(rows[0].q_upper_est) and rows[0].q_upper_est > 0


def test_restricted_density1d_has_no_exact_law():
    half = ql.restrict(ql.uniform_interval(), lambda x: x[0] <= 0.5)
    cfg = ql.SolverConfig(restarts=1, max_iters=30, working_sample=2000,
                          eval_samples=2000)
    series = ql.coeff_sequence(half, 2, 1.0, [4, 8], cfg=cfg)
    assert [row[0] for row in series.provenance] == ["lloyd", "lloyd"]
    assert np.isfinite(series.scaled).all()
    # a restriction is its own kind: the Monte Carlo functional of the
    # indicator density, scaled by the calibrated mass
    assert ql.zador_functional(half, 1, 2) == pytest.approx(0.5 ** 1.5, rel=0.01)


def test_zador_functional_restricted_box_uses_restricted_mass():
    # oracle: rho = 1 on [0, 1/4] x [0, 1], so the functional is the mass 1/4
    box = ql.restrict(ql.uniform_box([0, 0], [1, 1]), lambda x: x[0] <= 0.25)
    assert ql.zador_functional(box, 2, 2) == pytest.approx(0.25, rel=0.01)


def test_zador_functional_restricted_curve_raises():
    # an ambient predicate has no indicator on the arc-length density
    arc = ql.restrict(ql.hausdorff_curve_measure(ql.quarter_circle(64)),
                      lambda x: x[0] >= 0.5)
    with pytest.raises(ValueError, match="no declared density"):
        ql.zador_functional(arc, 1, 2)


def test_zador_functional_densityless_mixture_raises():
    # the annuli mixture of Lebesgue measure is absolutely continuous, not singular
    mix = ql.decaying_mixture(ql.lebesgue_halfline(), 0.0, 2.0, 4.0, 1.0)
    with pytest.raises(ValueError, match="no declared density"):
        ql.zador_functional(mix.measure, 1, 2)


def test_routes_follow_the_law_not_the_kind():
    # a density1d renamed keeps its law, so every exact 1D path still takes it
    lin = ql.density1d(lambda x: 2 * np.asarray(x), (0, 1))
    other = dataclasses.replace(lin, kind="other")
    sites = [[0.2], [0.7]]
    exact = ql.error_eval(lin, sites, 2)
    assert ql.error_eval(other, sites, 2) == exact and exact.method == "exact1d"
    assert solver_for(other, 2, "auto", 8)[0] == "dp"
    assert (ql.Dp1dSolver(other, 2, n_max=8).solve(8).error
            == ql.Dp1dSolver(lin, 2, n_max=8).solve(8).error)


def test_routes_follow_the_curve_not_the_kind():
    arc = ql.hausdorff_curve_measure(ql.quarter_circle(64))
    other = dataclasses.replace(arc, kind="other")
    sites = [[1.0, 0.0], [0.0, 1.0], [0.7, 0.7]]
    assert ql.error_eval(other, sites, 2) == ql.error_curve(arc, sites, 2)
    assert solver_for(other, 2, "auto", 8)[0] == "lloyd"
    with pytest.raises(ValueError, match="density1d"):
        ql.Dp1dSolver(other, 2, n_max=4)


def test_zador_functional_is_zero_on_restricted_singular_measures():
    cantor = ql.restrict(ql.ifs_measure(ql.cantor_ifs(), depth=20), lambda x: x[0] <= 0.5)
    cloud = ql.restrict(ql.empirical([[0.0], [1.0], [3.0]]), lambda x: x[0] <= 1.5)
    assert ql.zador_functional(cantor, 1, 2) == 0.0
    assert ql.zador_functional(cloud, 1, 2) == 0.0


def test_zador_functional_of_a_self_similar_interval_raises():
    # the maps x/2 and x/2 + 1/2 give Lebesgue measure on [0, 1]: not singular
    uni = ql.ifs_measure(ql.IfsSpec((0.5, 0.5), [[0], [0.5]], (0.5, 0.5)))
    with pytest.raises(ValueError, match="no declared density"):
        ql.zador_functional(uni, 1, 2)


@pytest.mark.parametrize("lo, hi, p", [([0, 0], [2, 3], 2.0), ([0, 0, 0], [1, 1, 2], 1.5)])
def test_zador_functional_of_a_box_is_its_closed_form(lo, hi, p):
    # the Monte Carlo integrand rho^(-p/(m+p)) is constant on a box
    m = len(lo)
    vol = float(np.prod(np.subtract(hi, lo)))
    closed = ((1 / vol) ** (m / (m + p)) * vol) ** ((m + p) / (m * p))
    got = ql.zador_functional(ql.uniform_box(lo, hi), m, p)
    assert abs(got - closed) <= 4 * np.spacing(closed)


@pytest.mark.parametrize("make", [
    ql.uniform_interval,
    lambda: ql.curve_measure(ql.quarter_circle(64)),
    lambda: ql.uniform_box([0, 0], [1, 1]),
], ids=["interval", "curve", "box"])
def test_auto_at_p_inf_refuses_all_but_the_cantor_measure(make):
    # refused up front, not a series of Lloyd gaps
    with pytest.raises(ValueError, match="Cantor"):
        ql.coeff_sequence(make(), np.inf, 1.0, [2, 4])


def test_solver_for_checks_the_order_before_building_a_row(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a row was built")

    monkeypatch.setattr("quantlab.asymptotics.lloyd", never)
    monkeypatch.setattr("quantlab.asymptotics.Dp1dSolver", never)
    m = ql.uniform_interval()
    for solver in ("lloyd", "dp"):
        with pytest.raises(ValueError, match="serve finite p"):
            solver_for(m, np.inf, solver)
    for solver in ("cantor", "farthest-point"):
        with pytest.raises(ValueError, match="p = inf only"):
            solver_for(m, 2, solver)
    with pytest.raises(ValueError, match="no solver 'newton'"):
        solver_for(m, 2, "newton")


def test_cantor_row_needs_the_cantor_measure_not_its_label():
    # a density labelled "cantor" has a law: the Cantor covers' radius is not its sup
    lin = ql.density1d(lambda x: 2 * np.asarray(x), (0, 1), label="cantor")
    for solver in ("cantor", "auto"):
        with pytest.raises(ValueError, match="Cantor"):
            solver_for(lin, np.inf, solver)
    assert solver_for(ql.ifs_measure(ql.cantor_ifs()), np.inf, "cantor")[0] == "cantor"


def test_farthest_point_row_reports_a_sample_max():
    # the greedy radius over the working sample is a lower bound on the measure's sup
    m = ql.uniform_interval()
    _, solve = solver_for(m, np.inf, "farthest-point", cfg=ql.SolverConfig(working_sample=200))
    q = solve(5, 0)
    exact = ql.error_eval(m, q.points, np.inf)
    assert (q.error.method, q.error.n_samples) == ("sample-max", 200)
    assert exact.method == "sup" and q.error.value <= exact.value
    # on a cloud the radius is the cloud's exact sup
    assert ql.farthest_point_cover(ql.sample(m, 200, 1), 5).error.method == "sup"


def test_quantizability_probe_refuses_p_inf_before_restricting(monkeypatch):
    calls = []
    monkeypatch.setattr("quantlab.asymptotics.restrict", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="finite p only"):
        ql.quantizability_probe(ql.uniform_interval(), np.inf, 1.0, [0.5])
    assert calls == []
