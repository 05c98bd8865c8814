import numpy as np
import pytest
from scipy.spatial import cKDTree

import quantlab as ql
from quantlab.spatial import cloud_from_points


def brute_nearest(points, x):
    d = np.linalg.norm(points - x, axis=1)
    return d.min(), int(np.argmin(d))


def brute_ball_weight(points, weights, x, r):
    d = np.linalg.norm(points - x, axis=1)
    return float(weights[d < r].sum())


def test_single_point_index():
    idx = ql.SpatialIndex(cloud_from_points([[0.3, 0.4]]))
    d, i = idx.nearest([10.0, 10.0])
    assert i == 0
    assert d == pytest.approx(np.hypot(9.7, 9.6))


def test_empty_cloud_rejected():
    with pytest.raises(ValueError, match="empty"):
        ql.SpatialIndex(ql.PointCloud(np.zeros((0, 2)), np.zeros(0)))


def test_duplicate_points_zero_distance():
    pts = [[1.0], [1.0], [2.0]]
    idx = ql.SpatialIndex(cloud_from_points(pts))
    d, i = idx.nearest([1.0])
    assert d == 0.0
    assert i == cKDTree(pts).query([1.0])[1]  # the k = 1 answer on ties
    assert i in (0, 1)


def test_nearest_matches_brute_force():
    rng = np.random.default_rng(42)
    pts = rng.normal(size=(1000, 3))
    cloud = cloud_from_points(pts)
    idx = ql.SpatialIndex(cloud)
    for _ in range(100):
        x = rng.normal(size=3)
        d_brute, _ = brute_nearest(pts, x)
        d, _ = idx.nearest(x)
        assert d == pytest.approx(d_brute, abs=0)


def test_index_vs_brute_force_200_instances():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(2, 60))
        d = int(rng.integers(1, 4))
        pts = rng.uniform(-1, 1, size=(n, d))
        w = rng.uniform(0, 1, size=n)
        idx = ql.SpatialIndex(ql.PointCloud(pts, w))
        x = rng.uniform(-1, 1, size=d)
        r = float(rng.uniform(0.1, 1.5))
        db, _ = brute_nearest(pts, x)
        dq, _ = idx.nearest(x)
        assert dq == db
        assert idx.ball_weight(x, r) == brute_ball_weight(pts, w, x, r)


def test_voronoi_tie_takes_the_kdtree_answer():
    cloud = cloud_from_points([[0.5]])
    assign = ql.voronoi_assign([[0.0], [1.0]], cloud)
    assert assign[0] == cKDTree([[0.0], [1.0]]).query([[0.5]])[1][0]
    assert assign[0] in (0, 1)


def test_voronoi_assign_on_exact_lattice_ties():
    # symmetric sites and lattice points with dyadic coordinates, so the
    # distances to tied sites are bitwise equal
    S = np.array([[0.25, 0.25], [0.75, 0.25], [0.25, 0.75], [0.75, 0.75], [0.5, 0.5]])
    g = np.arange(9) / 8.0
    pts = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
    cloud = cloud_from_points(pts)
    assign = ql.voronoi_assign(S, cloud)
    assert np.array_equal(assign, cKDTree(S).query(pts)[1])
    d_all = np.linalg.norm(pts[:, None, :] - S[None, :, :], axis=2)
    assert np.sum(d_all == d_all.min(axis=1, keepdims=True)) > len(pts)  # ties occur
    assert np.array_equal(d_all[np.arange(len(pts)), assign], d_all.min(axis=1))


def test_voronoi_simple_assignment():
    cloud = cloud_from_points([[0.1], [0.9]])
    assign = ql.voronoi_assign([[0.25], [0.75]], cloud)
    assert list(assign) == [0, 1]


def test_voronoi_cells_are_subsets_of_true_cells():
    rng = np.random.default_rng(3)
    S = rng.uniform(size=(20, 2))
    cloud = cloud_from_points(rng.uniform(size=(500, 2)))
    assign = ql.voronoi_assign(S, cloud)
    d_all = np.linalg.norm(cloud.points[:, None, :] - S[None, :, :], axis=2)
    chosen = d_all[np.arange(cloud.n), assign]
    assert np.all(chosen <= d_all.min(axis=1) + 1e-12)


def test_ball_count_open_ball_convention():
    cloud = ql.PointCloud(np.array([[0.0], [0.5], [1.0]]), np.full(3, 1 / 3))
    idx = ql.SpatialIndex(cloud)
    assert idx.ball_weight([0.5], 0.5) == pytest.approx(1 / 3)
    assert idx.ball_weight([0.5], 0.6) == pytest.approx(1.0)


def test_ball_count_uniform_square():
    # oracle: Lebesgue area of the r=0.1 disk is pi/100
    m = ql.uniform_box([0, 0], [1, 1])
    n = 10 ** 5
    idx = ql.SpatialIndex(ql.sample(m, n, seed=11))
    est = idx.ball_weight([0.5, 0.5], 0.1)
    p = np.pi * 0.01
    assert abs(est - p) <= 3 * np.sqrt(p * (1 - p) / n)


def test_omega_values():
    assert ql.omega(2) == pytest.approx(np.pi)
    assert ql.omega(1) == pytest.approx(2.0)
    assert ql.omega(3) == pytest.approx(4 * np.pi / 3)
    with pytest.raises(ValueError):
        ql.omega(0.0)
    with pytest.raises(ValueError):
        ql.omega(-1.0)


def test_omega_gamma_recursion():
    for s in range(1, 9):
        assert abs(ql.omega(s + 2) - ql.omega(s) * 2 * np.pi / (s + 2)) < 1e-12


def test_hausdorff_density_exact_square_center():
    m = ql.uniform_box([0, 0], [1, 1])
    est = ql.hausdorff_density(m, [0.5, 0.5], s=2, delta=0.2)
    assert est.lower == pytest.approx(1.0, abs=1e-9)
    assert est.upper == pytest.approx(1.0, abs=1e-9)


def test_hausdorff_density_corner_quarter():
    m = ql.uniform_box([0, 0], [1, 1])
    est = ql.hausdorff_density(m, [0.0, 0.0], s=2, delta=0.2)
    assert est.lower == pytest.approx(0.25, abs=1e-9)
    assert est.upper == pytest.approx(0.25, abs=1e-9)


def test_hausdorff_density_wrong_dimension_blows_up():
    # ratio scales like r^(2-3): two decades of radii give a factor >= 10
    m = ql.uniform_box([0, 0], [1, 1])
    est = ql.hausdorff_density(m, [0.5, 0.5], s=3, delta=0.2)
    assert est.ratios[0] / est.ratios[-1] >= 10.0


def test_hausdorff_density_outside_support():
    m = ql.uniform_box([0, 0], [1, 1])
    est = ql.hausdorff_density(m, [5.0, 5.0], s=2, delta=0.2)
    assert est.outside_support
    assert est.lower == est.upper == 0.0


def test_density_monotone_in_delta_with_nested_grids():
    m = ql.uniform_box([0, 0], [1, 1])
    radii = ql.geometric_radii(0.4, decades=2, per_decade=16)
    small = radii[radii < 0.1]
    a = ql.hausdorff_density(m, [0.05, 0.5], s=2, delta=0.4, radii=radii)
    b = ql.hausdorff_density(m, [0.05, 0.5], s=2, delta=0.1, radii=small)
    assert b.lower >= a.lower - 1e-12
    assert b.upper <= a.upper + 1e-12


def test_covering_radius_examples():
    A = cloud_from_points([[0.0], [1.0]])
    assert ql.covering_radius(A, [[0.0]]) == pytest.approx(1.0)
    grid = cloud_from_points(np.linspace(0, 1, 1001).reshape(-1, 1))
    assert ql.covering_radius(grid, [[0.5]]) == pytest.approx(0.5)


def test_covering_radius_cantor_net():
    for k in (2, 4, 6):
        net = ql.cantor_net(k)
        mids, radius = ql.cantor_cover(2 ** k)
        assert ql.covering_radius(net, mids) == pytest.approx(3.0 ** -k / 2)
        assert radius == pytest.approx(3.0 ** -k / 2)


def test_covering_radius_monotone_under_union():
    rng = np.random.default_rng(12)
    A = cloud_from_points(rng.uniform(size=(200, 2)))
    S = rng.uniform(size=(5, 2))
    S2 = np.vstack([S, rng.uniform(size=(3, 2))])
    assert ql.covering_radius(A, S2) <= ql.covering_radius(A, S) + 1e-15


def test_minkowski_content_segment_in_plane():
    # oracle: tube of a unit segment has area 2r + pi r^2
    vol = lambda r: 2 * r + np.pi * r ** 2
    radii = np.geomspace(1e-2, 1e-5, 25)[::-1]
    est = ql.minkowski_content(vol, m=1, s=2, radii=sorted(radii, reverse=True))
    assert est == pytest.approx(1.0, rel=1e-3)


def test_minkowski_content_m_equals_s():
    vol = lambda r: 1.0 + 2 * r
    est = ql.minkowski_content(vol, m=1, s=1, radii=np.geomspace(1e-3, 1e-6, 20))
    assert est == pytest.approx(1.0, rel=2e-3)


def test_minkowski_content_rejects_m_above_s():
    with pytest.raises(ValueError):
        ql.minkowski_content(lambda r: r, m=2, s=1, radii=[0.1])


def test_mc_tube_volume_segment():
    seg = cloud_from_points(np.column_stack([np.linspace(0, 1, 2001),
                                             np.zeros(2001)]))
    vol = ql.mc_tube_volume(seg, [-0.5, -0.5], [1.5, 0.5], n=200000, seed=4)
    r = 0.1
    expect = 2 * r + np.pi * r ** 2
    assert abs(vol(r) - expect) < 0.01
