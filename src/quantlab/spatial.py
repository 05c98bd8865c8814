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
    """Coerce a point list / single point to an (n, d) float array."""
    a = np.asarray(x, dtype=float)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    elif a.ndim == 1:
        # ambiguous: either one d-dim point or n scalar points
        a = a.reshape(-1, d) if d is not None and d > 1 else a.reshape(-1, 1)
    if not np.all(np.isfinite(a)):
        raise ValueError("points must be finite")
    return a


@dataclass(frozen=True)
class PointCloud:
    """n weighted points in R^d, the empirical stand-in for a measure."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        w = np.asarray(self.weights, dtype=float).ravel()
        if pts.shape[0] != w.shape[0]:
            raise ValueError("points and weights length mismatch")
        if not np.all(np.isfinite(pts)):
            raise ValueError("coordinates must be finite")
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite and nonnegative")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    @property
    def total_weight(self) -> float:
        return float(self.weights.sum())


def cloud_from_points(points, weights=None) -> PointCloud:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[0] == 1 and pts.shape[1] > 1 and np.ndim(points) == 1:
        pts = pts.T
    if weights is None:
        weights = np.full(pts.shape[0], 1.0 / pts.shape[0])
    return PointCloud(pts, weights)


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
        """Distance and index of the nearest point; lowest index on ties."""
        x = np.asarray(x, dtype=float).ravel()
        dist, idx = self._tree.query(x)
        # resolve potential ties in favor of the lowest index
        tied = self._tree.query_ball_point(x, dist * (1 + 1e-12) + 1e-300)
        if len(tied) > 1:
            cand = np.array(sorted(tied))
            dd = np.linalg.norm(self.cloud.points[cand] - x, axis=1)
            best = cand[dd <= dd.min()][0]
            return float(np.linalg.norm(self.cloud.points[best] - x)), int(best)
        return float(dist), int(idx)

    def nearest_distances(self, X) -> np.ndarray:
        """Distances from each row of X to the cloud."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        dist, _ = self._tree.query(X)
        return dist

    def ball_weight(self, x, r: float) -> float:
        """Total weight of cloud points with d(point, x) < r (open ball)."""
        if r <= 0:
            return 0.0
        x = np.asarray(x, dtype=float).ravel()
        idx = self._tree.query_ball_point(x, r)
        if not idx:
            return 0.0
        idx = np.sort(np.asarray(idx))  # fixed summation order
        d = np.linalg.norm(self.cloud.points[idx] - x, axis=1)
        return float(self.cloud.weights[idx][d < r].sum())


def voronoi_assign(S, cloud: PointCloud) -> np.ndarray:
    """Index of the nearest site in S for every cloud point.

    Ties are broken toward the lowest site index, so the induced partition
    cells are genuine subsets of the closed Voronoi cells.
    """
    S = _as_points(S, d=cloud.d)
    if S.shape[0] == 0:
        raise ValueError("empty site list")
    if S.shape[1] != cloud.d:
        raise ValueError(f"site dimension {S.shape[1]} != cloud dimension {cloud.d}")
    tree = cKDTree(S)
    dist, idx = tree.query(cloud.points, k=min(2, S.shape[0]))
    if S.shape[0] == 1:
        return np.zeros(cloud.n, dtype=int)
    d1, d2 = dist[:, 0], dist[:, 1]
    assign = idx[:, 0].astype(int)
    # near-ties get an exact brute-force recheck with first-minimum argmin
    sus = np.nonzero(d2 - d1 <= 1e-12 * (1.0 + d1))[0]
    for i in sus:
        dd = np.linalg.norm(S - cloud.points[i], axis=1)
        assign[i] = int(np.argmin(dd))
    return assign


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
    S = _as_points(S, d=A.d)
    if A.n == 0 or S.shape[0] == 0:
        raise ValueError("A and S must be nonempty")
    tree = cKDTree(S)
    dist, _ = tree.query(A.points)
    return float(dist.max())


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
    lo = np.asarray(box_lo, dtype=float).ravel()
    hi = np.asarray(box_hi, dtype=float).ravel()
    rng = np.random.default_rng(seed)
    pts = rng.uniform(lo, hi, size=(n, lo.size))
    dist = SpatialIndex(cloud).nearest_distances(pts)
    box_vol = float(np.prod(hi - lo))

    def volume(r: float) -> float:
        return box_vol * float(np.mean(dist < r))

    return volume
