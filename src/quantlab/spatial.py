"""Spatial queries: nearest neighbors, Voronoi assignment, ball masses, densities.

Everything here uses the Euclidean metric and the open-ball convention
(strict inequality d < r), so empirical counts on boundary points match the
exact ball functions of the measures module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree


def _as_points(x, d=None):
    """The one reading of points as an (n, d) float array.

    A scalar is one point of R^1. A flat list is n points of R^1, or, when
    d > 1, exactly one point, which must then have d coordinates (an empty
    flat list is no point). A 2-D array is one point per row, with d columns
    when d is given. Anything else, or a non-finite value, raises ValueError.
    """
    a = np.asarray(x, dtype=float)
    if a.ndim < 2:
        a = a.reshape(1, -1) if (d or 1) > 1 and a.size else a.reshape(-1, d or 1)
    if a.ndim != 2 or (d is not None and a.shape[1] != d):
        raise ValueError(f"points must be rows of {d or 'equally many'} coordinates, "
                         f"not shape {np.shape(x)}")
    if not np.isfinite(a).all():
        raise ValueError("coordinates must be finite")
    return a


def _as_point(x, d):
    """Exactly one point of R^d, as a (d,) array (read by `_as_points`)."""
    a = _as_points(x, d)
    if len(a) != 1:
        raise ValueError(f"need the {d} coordinates of one point, not {len(a)} points")
    return a[0]


def _as_sites(S, d):
    """A non-empty site list of R^d, as an (N, d) array (read by `_as_points`)."""
    a = _as_points(S, d)
    if not len(a):
        raise ValueError("empty site list")
    return a


def _as_weights(w, n):
    """Weights of n points: finite, non-negative, one per point and, when
    n > 0, not all zero; else ValueError."""
    w = np.asarray(w, dtype=float)
    if not (w.shape == (n,) and np.isfinite(w).all() and (w >= 0).all()
            and (w.any() or n == 0)):
        raise ValueError("weights must be finite and non-negative, one per point, "
                         "not all zero")
    return w


@dataclass(frozen=True)
class PointCloud:
    """n weighted points in R^d, the empirical stand-in for a measure.

    Points are read by `_as_points` (a flat list is n points on a line) and
    weights by `_as_weights`: finite, non-negative, one per point, not all
    zero.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = _as_points(self.points)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", _as_weights(self.weights, len(pts)))

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]


def cloud_from_points(points, weights=None) -> PointCloud:
    """A `PointCloud` of the points, weighted 1/n each unless weights are given."""
    pts = _as_points(points)
    return PointCloud(pts, np.full(len(pts), 1.0 / max(len(pts), 1))
                      if weights is None else weights)


class SpatialIndex:
    """Immutable exact nearest-neighbor / range-count structure over a cloud.

    Backed by a k-d tree; all queries agree with a brute-force linear scan
    (the test suite checks this on random instances).
    """

    def __init__(self, cloud: PointCloud):
        if cloud.n < 1:
            raise ValueError("empty cloud")
        self.cloud = cloud
        self._tree = cKDTree(cloud.points)

    def nearest(self, x):
        """Distance and index of the nearest point: the k-d tree's k = 1
        answer, which on a tie may be any of the tied points."""
        dist, idx = self._tree.query(_as_point(x, self.cloud.d))
        return float(dist), int(idx)

    def nearest_distances(self, X) -> np.ndarray:
        """Distances from each point of X (`_as_points`) to the cloud."""
        return self._tree.query(_as_points(X, self.cloud.d))[0]

    def ball_weight(self, x, r: float) -> float:
        """Total weight of cloud points with d(point, x) < r (open ball)."""
        x = _as_point(x, self.cloud.d)
        if r <= 0:
            return 0.0
        idx = np.asarray(self._tree.query_ball_point(x, r, return_sorted=True), dtype=np.intp)
        d = np.linalg.norm(self.cloud.points[idx] - x, axis=1)
        return float(self.cloud.weights[idx][d < r].sum())


def voronoi_assign(S, cloud: PointCloud) -> np.ndarray:
    """Index of the nearest site in S for every cloud point.

    This is the k-d tree's k = 1 answer, the rule Lloyd uses: a point
    equidistant from several sites goes to one of them, which need not be
    the lowest index, so each cell is a subset of its closed Voronoi cell.
    """
    return cKDTree(_as_sites(S, cloud.d)).query(cloud.points)[1]


def omega(s: float) -> float:
    """Volume pi^(s/2) / Gamma(1 + s/2) of the unit s-ball (real s > 0)."""
    if s <= 0:
        raise ValueError("dimension s must be positive")
    return math.pi ** (s / 2) / math.gamma(1 + s / 2)


def geometric_radii(delta: float, decades: int = 2, per_decade: int = 32) -> np.ndarray:
    """Geometric radius grid spanning `decades` decades strictly below delta."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    grid = np.geomspace(delta * 10.0 ** (-decades), delta, decades * per_decade + 1)
    return grid[:-1]


@dataclass(frozen=True)
class DensityEstimate:
    """Grid approximation of the lower/upper Hausdorff density at a point."""

    lower: float
    upper: float
    radii: np.ndarray
    s: float
    delta: float
    outside_support: bool = False
    ratios: np.ndarray = field(default=None, repr=False)


def hausdorff_density(source, x, s: float, delta: float, radii=None) -> DensityEstimate:
    """Scan nu(B_r(x)) / (omega_s r^s) over a finite radius grid below delta.

    `source` is either a measure exposing an exact ``ball_measure(x, r)`` or a
    SpatialIndex, in which case the empirical open-ball weight is used. The
    grid minimum approximates the lower density, the maximum the upper one.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if radii is None:
        radii = geometric_radii(delta)
    radii = np.asarray(radii, dtype=float)
    if radii.size == 0:
        raise ValueError("radius grid is empty")
    if np.any(radii >= delta) or np.any(radii <= 0):
        raise ValueError("all radii must lie in (0, delta)")

    ball = getattr(source, "ball_measure", None)
    if ball is None:
        if not isinstance(source, SpatialIndex):
            raise TypeError("source must have ball_measure or be a SpatialIndex")
        ball = lambda p, r: source.ball_weight(p, r)
    elif not callable(ball):
        raise TypeError("ball_measure is not callable")

    ws = omega(s)
    masses = np.array([ball(x, float(r)) for r in radii])
    if np.all(masses == 0.0):
        return DensityEstimate(0.0, 0.0, radii, s, delta, outside_support=True,
                               ratios=np.zeros_like(radii))
    ratios = masses / (ws * radii ** s)
    return DensityEstimate(float(ratios.min()), float(ratios.max()), radii, s, delta,
                           outside_support=False, ratios=ratios)


def covering_radius(A: PointCloud, S) -> float:
    """e_inf(A; S): the largest distance from a point of A to the site set S."""
    if A.n == 0:
        raise ValueError("empty cloud")
    return float(cKDTree(_as_sites(S, A.d)).query(A.points)[0].max())


def minkowski_content(volume_fn, m: float, s: float, radii) -> float:
    """Upper Minkowski content estimate from tube volumes nu(A^r).

    Takes the maximum of nu(A^r) / (omega_{s-m} r^(s-m)) over the smallest
    decade of the (decreasing) radius grid; the limsup definition makes
    extrapolation inappropriate.
    """
    if m > s:
        raise ValueError("content dimension m may not exceed ambient dimension s")
    radii = np.asarray(radii, dtype=float)
    if radii.size == 0 or np.any(radii <= 0):
        raise ValueError("need a positive, nonempty radius grid")
    r_min = radii.min()
    small = radii[radii <= 10.0 * r_min]
    w = 1.0 if s == m else omega(s - m)
    vals = [float(volume_fn(float(r))) / (w * r ** (s - m)) for r in small]
    return float(max(vals))


def mc_tube_volume(cloud: PointCloud, box_lo, box_hi, n: int, seed) -> callable:
    """Monte Carlo tube-volume function r -> vol(A^r) inside a bounding box.

    The sample is drawn once (deterministic per seed); the returned closure
    reuses it for every radius, so the volume curve is monotone in r.
    """
    lo, hi = _as_point(box_lo, cloud.d), _as_point(box_hi, cloud.d)
    rng = np.random.default_rng(seed)
    pts = rng.uniform(lo, hi, size=(n, lo.size))
    dist = SpatialIndex(cloud).nearest_distances(pts)
    box_vol = float(np.prod(hi - lo))

    def volume(r: float) -> float:
        return box_vol * float(np.mean(dist < r))

    return volume
