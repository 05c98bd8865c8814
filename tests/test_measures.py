import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import quantlab as ql


def test_uniform_sampler_deterministic():
    m = ql.uniform_interval()
    a = ql.sample(m, 3, seed=7)
    b = ql.sample(m, 3, seed=7)
    assert np.array_equal(a.points, b.points)
    assert np.all((a.points >= 0) & (a.points <= 1))
    assert np.allclose(a.weights, 1 / 3)


def test_sampler_determinism_all_kinds():
    curve = ql.quarter_circle(64)
    kinds = [
        ql.uniform_interval(),
        ql.uniform_box([0, 0], [1, 1]),
        ql.density1d(lambda x: 2 * np.asarray(x), (0, 1)),
        ql.curve_measure(curve),
        ql.ifs_measure(ql.cantor_ifs(), depth=30),
        ql.empirical([[0.0], [1.0], [2.0]]),
        ql.restrict(ql.uniform_interval(), lambda x: x[0] < 0.5),
    ]
    for m in kinds:
        a = ql.sample(m, 50, seed=123)
        b = ql.sample(m, 50, seed=123)
        assert np.array_equal(a.points, b.points), m.kind


def test_empirical_reads_a_flat_list_as_points_on_a_line():
    # np.atleast_2d read [0, 1, 3] as one atom in R^3
    m = ql.empirical([0.0, 1.0, 3.0])
    assert m.ambient_dim == 1
    assert set(ql.sample(m, 200, seed=1).points.ravel()) == {0.0, 1.0, 3.0}


@pytest.mark.parametrize("weights", [[1.0, np.nan, 1.0], [1.0, -0.5, 1.0], [1.0, 1.0],
                                     [[1.0, 1.0, 1.0]], [0.0, 0.0, 0.0]],
                         ids=["nan", "negative", "short", "nested", "zero"])
def test_empirical_rejects_bad_weights(weights):
    with pytest.raises(ValueError, match="weights"):
        ql.empirical([[0.0], [1.0], [3.0]], weights)


def test_density1d_linear_mean():
    # oracle: int 2x * x dx = 2/3 by direct integration
    oracle, _ = quad(lambda x: 2 * x * x, 0, 1)
    assert abs(oracle - 2 / 3) < 1e-12
    m = ql.density1d(lambda x: 2 * np.asarray(x), (0, 1))
    pts = ql.sample(m, 10 ** 5, seed=1).points
    assert abs(pts.mean() - oracle) < 0.005


def test_density1d_normalizes_and_integrates_to_mass():
    m = ql.density1d(lambda x: np.asarray(x) ** 2, (0, 2))  # raw mass 8/3
    assert abs(m.total_mass - 1.0) < 1e-12
    val, _ = quad(lambda x: float(m.density(np.array([x]))[0]), 0, 2)
    assert abs(val - m.total_mass) < 1e-10

    raw = ql.density1d(lambda x: np.asarray(x) ** 2, (0, 2), normalize=False)
    assert abs(raw.total_mass - 8 / 3) < 1e-12


def test_cantor_ifs_attractor_structure():
    m = ql.ifs_measure(ql.cantor_ifs(), depth=40)
    pts = ql.sample(m, 10 ** 4, seed=1).points.ravel()
    assert np.all((pts >= 0) & (pts <= 1))
    inside_gap = (pts > 1 / 3 + 1e-9) & (pts < 2 / 3 - 1e-9)
    assert not inside_gap.any()


def test_cantor_similarity_dimension():
    spec = ql.cantor_ifs()
    assert abs(spec.similarity_dim - np.log(2) / np.log(3)) < 1e-12


def test_single_map_ifs_rejected():
    with pytest.raises(ValueError, match="degenerate IFS"):
        ql.IfsSpec(ratios=(0.5,), offsets=[[0.0]], weights=(1.0,))


def test_ifs_bad_weights_rejected():
    with pytest.raises(ValueError, match="sum to 1"):
        ql.IfsSpec(ratios=(1 / 3, 1 / 3), offsets=[[0.0], [2 / 3]],
                   weights=(0.6, 0.5))


def test_nonuniform_cantor_first_cylinder_mass():
    spec = ql.cantor_ifs(weights=(0.75, 0.25))
    m = ql.ifs_measure(spec, depth=40)
    pts = ql.sample(m, 10 ** 4, seed=1).points.ravel()
    assert abs(np.mean(pts <= 1 / 3) - 0.75) < 0.01


def test_ifs_cylinder_masses_match_weight_products():
    # level-2 cylinder masses are products of the word weights
    from quantlab.measures import cantor_cylinders

    spec = ql.cantor_ifs(weights=(0.75, 0.25))
    m = ql.ifs_measure(spec, depth=40)
    n = 10 ** 5
    pts = ql.sample(m, n, seed=3).points.ravel()
    lefts = cantor_cylinders(2)
    width = 3.0 ** -2
    # word order: cylinder index bits give map choices most-significant first
    expected = [0.75 * 0.75, 0.75 * 0.25, 0.25 * 0.75, 0.25 * 0.25]
    for left, pw in zip(lefts, expected):
        emp = np.mean((pts >= left - 1e-9) & (pts <= left + width + 1e-9))
        se = np.sqrt(pw * (1 - pw) / n)
        assert abs(emp - pw) <= 3 * se + 1e-12


def test_quarter_circle_curve_measure():
    c = ql.quarter_circle(1024)
    assert abs(c.total_length - np.pi / 2) < 1e-5
    m = ql.curve_measure(c)
    assert m.total_mass == pytest.approx(1.0)
    assert m.intrinsic_dim == 1.0


def test_segment_curve_uniform_samples():
    c = ql.segment_curve([0, 0], [1, 0])
    m = ql.curve_measure(c)
    pts = ql.sample(m, 20000, seed=2).points
    assert np.allclose(pts[:, 1], 0.0)
    assert abs(pts[:, 0].mean() - 0.5) < 0.01
    assert pts[:, 0].min() >= 0 and pts[:, 0].max() <= 1


def test_segment_curve_linear_density_mean():
    c = ql.segment_curve([0, 0], [1, 0])
    L = c.total_length
    law = ql.Law1D(lambda t: 2 * np.asarray(t) / L ** 2, 0.0, L)
    m = ql.curve_measure(c, density1d_law=law)
    pts = ql.sample(m, 10 ** 5, seed=4).points
    assert abs(pts[:, 0].mean() - 2 / 3) < 0.005


def test_degenerate_curve_rejected():
    with pytest.raises(ValueError, match="degenerate curve"):
        ql.curve_measure(ql.Curve(np.array([[0.0, 0.0], [0.0, 0.0]])))


def test_curve_computes_its_own_arc_length_table():
    # a cum_length argument was accepted and silently replaced
    c = ql.Curve([[0.0, 0.0], [3.0, 4.0]])
    assert np.array_equal(c.cum_length, [0.0, 5.0])
    with pytest.raises(TypeError):
        ql.Curve([[0.0, 0.0], [3.0, 4.0]], cum_length=np.array([0.0, 1.0]))


def test_curve_mass_preserved():
    c = ql.quarter_circle(512)
    law = ql.Law1D(lambda t: np.full_like(np.asarray(t, dtype=float), 2.0),
                   0.0, c.total_length)
    m = ql.curve_measure(c, density1d_law=law, normalize=False)
    assert abs(m.total_mass - 2.0 * c.total_length) < 1e-10


def test_arclength_parametrization_is_1_lipschitz():
    rng = np.random.default_rng(0)
    c = ql.quarter_circle(256)
    L = c.total_length
    for _ in range(200):
        t0, t1 = rng.uniform(0, L, 2)
        chord = np.linalg.norm(c.point_at(t1) - c.point_at(t0))
        assert chord <= abs(t1 - t0) + 1e-12


def test_restrict_uniform_half():
    m = ql.restrict(ql.uniform_interval(), lambda x: x[0] <= 0.5)
    assert abs(m.total_mass - 0.5) < 0.01
    pts = ql.sample(m, 1000, seed=9).points
    assert pts.max() <= 0.5


def test_restrict_linear_density_mass():
    # oracle: int_0^0.5 2x dx = 1/4
    lin = ql.density1d(lambda x: 2 * np.asarray(x), (0, 1))
    m = ql.restrict(lin, lambda x: x[0] <= 0.5)
    assert abs(m.total_mass - 0.25) < 0.015
    d = m.density(np.array([0.25, 0.75]))
    assert d[0] > 0 and d[1] == 0.0


def test_restriction_is_its_own_kind():
    m = ql.restrict(ql.uniform_interval(), lambda x: x[0] <= 0.5)
    assert m.kind == "restricted"
    assert m.law is None and m.curve is None and m.ball_measure is None
    assert m.density is not None
    arc = ql.restrict(ql.hausdorff_curve_measure(ql.quarter_circle(64)),
                      lambda x: x[0] >= 0.5)
    assert arc.kind == "restricted" and arc.curve is None and arc.density is None


def test_restrict_empty_region_errors():
    with pytest.raises(ValueError, match="region too small"):
        ql.restrict(ql.uniform_interval(), lambda x: x[0] > 2.0)


@pytest.mark.parametrize("pdf", [lambda x: np.sqrt(np.asarray(x) - 0.5),
                                 lambda x: np.full_like(np.asarray(x), np.inf)],
                         ids=["nan", "inf"])
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_non_finite_density_raises(pdf):
    # a NaN mass once gave an "exact1d" error of 0.0
    with pytest.raises(ValueError, match="finite"):
        ql.density1d(pdf, (0, 1))


def test_law1d_never_flags_a_varying_density():
    assert ql.Law1D(lambda x: 2 * np.asarray(x), 0.0, 1.0).constant is None
    assert ql.piecewise_uniform([(0.0, 0.25), (0.75, 1.0)]).law.constant is None


def test_law1d_detects_a_constant_density():
    plain = ql.Law1D(lambda x: np.full_like(np.asarray(x), 0.25), -1.0, 3.0)
    assert plain.constant == 0.25
    assert ql.piecewise_uniform([(0.0, 0.5)]).law.constant is not None
    u = np.linspace(0.0, 0.9, 10)
    assert np.array_equal(plain.ppf(u), -1.0 + 4.0 * u)  # affine, no Newton polish


def test_normalized_curve_law_stays_constant():
    c = ql.quarter_circle(512)
    law = ql.Law1D(lambda t: np.full_like(np.asarray(t, dtype=float), 2.0),
                   0.0, c.total_length)
    m = ql.curve_measure(c, density1d_law=law)
    assert m.law.constant == pytest.approx(1.0 / c.total_length, rel=1e-14)


def test_law1d_cdf_ppf_roundtrip():
    law = ql.Law1D(lambda x: 2 * np.asarray(x), 0.0, 1.0)
    u = np.linspace(0.01, 0.99, 17) * law.mass
    x = law.ppf(u)
    assert np.allclose(law.cdf(x), u, atol=1e-9)
    # exact cdf of 2x dx is x^2
    xs = np.linspace(0, 1, 11)
    assert np.allclose(law.cdf(xs), xs ** 2, atol=1e-12)


def test_law_with_a_density_infinite_at_an_end():
    # rho = x^(-1/2) / 2 is infinite at 0; a piece of zero width adds exactly
    # 0, so neither cdf(0) nor the mass of [0, 1] reads rho(0)
    law = ql.density1d(lambda x: 0.5 / np.sqrt(x), (0, 1)).law
    assert law.cdf(0.0) == 0.0
    assert np.array_equal(law.moments(0.0), [0.0, 0.0, 0.0])
    piece_mass = np.diff(law.cdf(law.breakpoints))
    assert np.all(np.isfinite(piece_mass)) and piece_mass.sum() > 0


@pytest.mark.parametrize("left", [True, False], ids=["at-lo", "at-hi"])
def test_ppf_leaves_an_end_where_the_density_is_infinite(left):
    # a Newton step in the end grid cell can land on the end, where rho is
    # infinite and every further step is 0; ppf bisects on cdf in that cell
    pdf = (lambda x: 0.5 / np.sqrt(x)) if left else (lambda x: 0.5 / np.sqrt(1 - x))
    m = ql.density1d(pdf, (0, 1))
    law, end = m.law, 0.0 if left else 1.0
    assert not np.any(ql.sample(m, 100000, seed=1).points == end)
    u = np.sort(np.random.default_rng(2).uniform(0.0, law.mass, 20000))
    assert np.all(np.diff(law.ppf(u)) >= 0)
    if left:
        assert np.all(law.ppf([1e-4, 1e-3, 2e-3]) > 0)
        u = np.geomspace(1e-12, law.cdf(law.grid[1]), 2000)
        assert np.max(np.abs(law.cdf(law.ppf(u)) / u - 1)) <= 1e-12
    else:
        # floats near 1 cannot resolve the steep cdf there: ask for order only
        u = np.linspace(law.cdf(law.grid[-2]), law.mass, 2000, endpoint=False)
        t = law.ppf(u)
        assert np.all(np.diff(t) >= 0) and not np.any(t == end)


def test_moments_read_the_density_once():
    calls = []

    def pdf(x):
        calls.append(np.shape(x))
        return 2 * np.asarray(x)

    law = ql.Law1D(pdf, 0.0, 1.0)
    xs = np.linspace(0.0, 1.0, 7)
    calls.clear()
    m0, m1, m2 = law.moments(xs)
    assert len(calls) == 1
    # exact cumulative moments of 2x dx: x^2, 2x^3/3, x^4/2
    np.testing.assert_allclose(m0, xs ** 2, atol=1e-14)
    np.testing.assert_allclose(m1, 2 * xs ** 3 / 3, atol=1e-14)
    np.testing.assert_allclose(m2, xs ** 4 / 2, atol=1e-14)


def test_ball_measure_monotone_and_bounded():
    m = ql.density1d(lambda x: 2 * np.asarray(x), (0, 1))
    rs = np.linspace(1e-4, 2.0, 50)
    vals = [m.ball_measure(np.array([0.4]), r) for r in rs]
    assert all(b >= a - 1e-12 for a, b in zip(vals[:-1], vals[1:]))
    assert all(0 <= v <= m.total_mass + 1e-12 for v in vals)


def test_ball_mass_over_an_array_of_radii_matches_the_scalar_loop():
    rs = np.concatenate([[-0.5, -1e-300, 0.0, 0.3, 0.6, 2.0],
                         np.random.default_rng(3).uniform(0.0, 1.5, 200)])
    for law in (ql.density1d(lambda x: 2 * x, (0, 1)).law,
                ql.piecewise_uniform([(0, 0.3), (0.6, 1)]).law):
        for x in (0.0, 0.45, 0.8, 1.2):
            # the scalar loop: one cdf pass over both ends per radius
            loop = np.array([np.diff(law.cdf(np.array([x - r, x + r])))[0]
                             if r > 0 else 0.0 for r in rs])
            assert all(law.ball_mass(x, float(r)) == v for r, v in zip(rs, loop))
            assert all(type(law.ball_mass(x, float(r))) is float for r in rs[:6])
            assert np.array_equal(law.ball_mass(x, rs), loop)
            grid = rs.reshape(2, -1)
            assert np.array_equal(law.ball_mass(x, grid), loop.reshape(grid.shape))
            assert np.all(loop[:3] == 0.0) and np.all(loop[3:] >= 0.0)


def test_disk_box_area_against_mc():
    from quantlab.measures import disk_box_area

    rng = np.random.default_rng(5)
    n = 200000
    for (cx, cy, r) in [(0.5, 0.5, 0.2), (0.0, 0.0, 0.7), (0.9, 0.2, 0.5),
                        (1.4, 0.5, 0.6), (0.5, 0.5, 2.0)]:
        pts = rng.uniform(0, 1, size=(n, 2))
        inside = ((pts[:, 0] - cx) ** 2 + (pts[:, 1] - cy) ** 2) < r * r
        mc = inside.mean()
        exact = disk_box_area(cx, cy, r, 0, 1, 0, 1)
        assert abs(exact - mc) < 4 * np.sqrt(mc * (1 - mc) / n) + 1e-4


def test_uniform_box_exact_ball_center_and_corner():
    m = ql.uniform_box([0, 0], [1, 1])
    assert m.ball_measure([0.5, 0.5], 0.1) == pytest.approx(np.pi * 0.01)
    assert m.ball_measure([0.0, 0.0], 0.1) == pytest.approx(np.pi * 0.01 / 4)


def test_cantor_net_points():
    cloud = ql.cantor_net(2)
    expect = sorted([0, 1 / 9, 2 / 9, 3 / 9, 6 / 9, 7 / 9, 8 / 9, 1.0])
    assert np.allclose(np.sort(cloud.points.ravel()), expect)


def test_not_sampleable_measure():
    m = ql.Measure(kind="opaque", ambient_dim=1, intrinsic_dim=1.0,
                   total_mass=1.0, sampler=None)
    with pytest.raises(ValueError, match="not sampleable"):
        ql.sample(m, 3, seed=0)


def _step_law(b):
    return ql.density1d(lambda x: np.where(np.asarray(x) < b, 3.0, 0.5), (0, 1),
                        breakpoints=(b,)).law


def _steep_tail():
    # every cell past about 0.7 holds under an ulp of the running mass
    return ql.density1d(lambda x: np.exp(-50 * np.asarray(x)), (0, 1)).law


hull_laws = st.one_of(
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4).filter(lambda c: sum(c) > 0.1)
    .map(lambda c: ql.density1d(lambda x, _c=np.array(c): np.polyval(_c, x), (0, 1)).law),
    st.floats(0.1, 0.9).map(_step_law),
    st.tuples(st.floats(0.05, 0.45), st.floats(0.55, 0.95)).map(
        lambda ab: ql.piecewise_uniform([(0.0, ab[0]), (ab[1], 1.0)]).law),
    # zero on [0, 1/2], whose end is a grid node though not a breakpoint
    st.just(ql.density1d(lambda x: np.maximum(np.asarray(x) - 0.5, 0), (0, 1)).law),
    st.just(_steep_tail()))


@settings(max_examples=80, deadline=None)
@given(law=hull_laws, data=st.data())
def test_hull_holds_exactly_the_mass_of_its_interval(law, data):
    # ends on a 1/1000 lattice around the support or at grid nodes
    end = st.one_of(st.integers(-250, 1250).map(lambda j: j / 1000),
                    st.integers(0, law.grid.size - 1).map(lambda k: float(law.grid[k])))
    pairs = np.sort(data.draw(st.lists(st.tuples(end, end), min_size=1, max_size=16),
                              label="intervals"), axis=1)
    ls, rs = np.clip(pairs.T, 0.0, 1.0)
    hl, hr, has = law.hull(ls, rs)
    # has tells positive mass by quadrature, not by cdf differences: on the
    # steep tail a cell's mass rounds away in the cumulative sum
    true = [quad(lambda x: float(law.pdf(np.array([x]))[0]), l, r,
                 points=[b for b in law.breakpoints if l < b < r] or None)[0]
            if r > l else 0.0 for l, r in zip(ls, rs)]
    assert np.array_equal(has, np.array(true) > 0)
    mass = law.cdf(rs) - law.cdf(ls)
    assert np.all(mass[~has] == 0)
    assert np.all((ls[has] <= hl[has]) & (hl[has] <= hr[has]) & (hr[has] <= rs[has]))
    assert np.array_equal(law.cdf(hr[has]) - law.cdf(hl[has]), mass[has])


def test_hull_keeps_tail_cells_whose_mass_rounds_away_in_the_cdf():
    law = _steep_tail()
    assert law.cdf(0.9) == law.cdf(0.8)
    hl, hr, has = law.hull(np.array([0.8, 0.5]), np.array([0.9, 1.5]))
    assert has.all() and np.array_equal(hl, [0.8, 0.5]) and np.array_equal(hr, [0.9, 1.0])


@pytest.mark.parametrize("cx, cy, r, box", [
    (0.5, 0.9, 0.2, (0.0, 1.0, 0.0, 1.0)),
    (0.15, 0.95, 0.1, (0.0, 1.0, 0.0, 1.0)),
    (1.0, 0.4, 0.3, (0.0, 2.0, -1.0, 0.5)),
])
def test_disk_box_area_when_the_disk_crosses_only_the_top_edge(cx, cy, r, box):
    # oracle: quadrature over x of each column's height inside the box,
    # told where the circle meets the top edge
    from quantlab.measures import disk_box_area
    x0, x1, y0, y1 = box
    assert y0 < cy - r and cy + r > y1

    def height(x):
        g = np.sqrt(max(r * r - (x - cx) ** 2, 0.0))
        return max(0.0, min(cy + g, y1) - max(cy - g, y0))

    kink = np.sqrt(r * r - (y1 - cy) ** 2)
    ref, _ = quad(height, max(x0, cx - r), min(x1, cx + r),
                  points=[cx - kink, cx + kink], epsabs=0, epsrel=1e-13, limit=200)
    assert disk_box_area(cx, cy, r, *box) == pytest.approx(ref, rel=1e-11)


def test_similarity_dimension_above_one():
    # the Sierpinski maps: three halvings, s = log 3 / log 2
    spec = ql.IfsSpec((0.5, 0.5, 0.5), [[0, 0], [0.5, 0], [0.25, 0.5]], (1 / 3, 1 / 3, 1 / 3))
    assert spec.similarity_dim == pytest.approx(np.log(3) / np.log(2), rel=1e-12)


def test_uniform_box_in_one_dimension_is_the_uniform_interval():
    m = ql.uniform_box([2.0], [5.0])
    assert m.kind == "density1d" and (m.law.lo, m.law.hi) == (2.0, 5.0)
    assert m.total_mass == pytest.approx(1.0, rel=1e-13)
    # one site at the centre: e_2 = 1.5 / sqrt(3)
    assert ql.error_eval(m, [[3.5]], 2).value == pytest.approx(1.5 / np.sqrt(3), rel=1e-12)
