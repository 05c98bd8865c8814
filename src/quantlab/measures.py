"""Measure families: 1D densities, boxes, empirical clouds, curves, IFS, restrictions.

Measures are immutable after construction. Samplers take the seed as an
argument and hold no state, so identical (seed, n) pairs always reproduce the
same draws. Probability constructors normalize to total mass 1; restrictions
and Hausdorff-type measures carry their own mass, and every evaluator scales
errors through the mass explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.optimize import brentq

from .spatial import PointCloud

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)

# fixed seed and size of the calibration draw that estimates a restriction's mass
_CALIBRATION_SEED = 0x5EEDCA1B
_CALIBRATION_N = 8192

# Law1D grid cells over the whole support, shared among its smooth pieces
_N_GRID = 4096


def derive_seed(seed, *parts):
    """Deterministic child-seed sequence for (seed, part, part, ...)."""
    import zlib

    out = list(np.atleast_1d(np.asarray(seed, dtype=object)).ravel())
    for p in parts:
        out.append(zlib.crc32(repr(p).encode()))
    return [int(v) for v in out]


def _powers(x):
    """The moment integrands 1, x and x^2."""
    return 1.0, x, x * x


class Law1D:
    """A nonnegative 1D density on an interval with CDF/quantile machinery.

    Carries cumulative moments of orders 0..2 on a fine grid (piecewise
    Gauss-Legendre, so smooth densities are resolved to machine precision),
    plus declared breakpoints where the density may jump. In every integral a
    piece of zero width adds exactly 0 (`_integrate`), so the density may be
    infinite at a breakpoint or an end. `hull` decides where the law holds
    mass, at the grid's resolution. `constant` is the density's value when it is
    equal at every quadrature node of the grid, else None; a constant law
    takes closed-form cell costs in the DP and an affine quantile.
    """

    def __init__(self, pdf, lo, hi, breakpoints=()):
        if not hi > lo:
            raise ValueError("empty support interval")
        self.pdf = pdf
        self.lo, self.hi = float(lo), float(hi)
        inner = {float(b) for b in breakpoints if self.lo < float(b) < self.hi}
        self.breakpoints = np.array(sorted(inner | {self.lo, self.hi}))

        # grid: proportional share of nodes per smooth piece, at least 8 each
        nodes = [np.array([self.lo])]
        span = self.hi - self.lo
        for a, b in zip(self.breakpoints[:-1], self.breakpoints[1:]):
            k = max(8, int(round(_N_GRID * (b - a) / span)))
            nodes.append(np.linspace(a, b, k + 1)[1:])
        self.grid = np.concatenate(nodes)

        cells, fx = self._integrate(self.grid[:-1], self.grid[1:], _powers)
        if not np.all(np.isfinite(fx)):
            raise ValueError("density must be finite")
        if np.any(fx < -1e-12):
            raise ValueError("density must be nonnegative")
        self.constant = float(fx.flat[0]) if np.all(fx == fx.flat[0]) else None
        # cumulative moments of orders 0, 1, 2 at the grid nodes
        self._cum = np.concatenate([np.zeros((3, 1)), np.cumsum(cells, axis=1)], axis=1)
        self.mass = float(self._cum[0, -1])
        if self.mass <= 0:
            raise ValueError("density integrates to zero")
        with np.errstate(divide="ignore", invalid="ignore"):
            self._infinite_end = np.isinf(self._rho(np.array([self.lo, self.hi])))
        # per cell: first live cell at or after it (or the count), last at or before
        # (or -1). Liveness reads each cell's own mass: a tail cell's mass may
        # round away in the cumulative sum
        live = cells[0] > 0
        k = np.arange(live.size)
        self._first_live = np.minimum.accumulate(np.where(live, k, live.size)[::-1])[::-1]
        self._last_live = np.maximum.accumulate(np.where(live, k, -1))

    def _rho(self, x):
        """The density at x, as floats in x's shape."""
        fx = np.asarray(self.pdf(x), dtype=float)
        return fx if fx.shape == x.shape else np.broadcast_to(fx, x.shape)

    def _integrate(self, l, r, g=None, a=None):
        """16-node Gauss-Legendre integrals of g(x) rho(x) over each piece
        [l, r] (of rho alone if g is None), and rho at the nodes.

        g may return a tuple of integrands, whose integrals are then stacked
        along a new leading axis. Given a (broadcast against l), g reads x - a
        instead, formed from l - a and r - a, so a node near a does not lose
        the digits of a to cancellation. A piece of zero width adds exactly 0:
        rho's value there, which may be infinite, never enters a sum.
        """
        half = 0.5 * (r - l)
        offset = half[..., None] * _GL_NODES
        x = (0.5 * (r + l))[..., None] + offset
        with np.errstate(divide="ignore", invalid="ignore"):
            fx = self._rho(x)
            wf = _GL_WEIGHTS * fx
            if g is not None and a is not None:
                x = np.add(offset, (0.5 * ((l - a) + (r - a)))[..., None], out=offset)
            gx = 1.0 if g is None else g(x)
            s = (np.stack([(wf * gi).sum(axis=-1) for gi in gx]) if isinstance(gx, tuple)
                 else (wf * gx).sum(axis=-1))
            return np.where(half > 0, half * s, 0.0), fx

    def _locate(self, x):
        """x clipped to the support, and the index of its grid cell."""
        x = np.minimum(np.maximum(np.asarray(x, dtype=float), self.lo), self.hi)
        return x, np.searchsorted(self.grid[1:-1], x, side="right")

    def cdf(self, x):
        x, idx = self._locate(x)
        return self._cum[0][idx] + self._integrate(self.grid[idx], x)[0]

    def hull(self, ls, rs):
        """Each interval [l, r] clipped to the grid cells of positive mass it
        meets, and whether it meets any (a zero-width interval meets none). A
        zero of rho inside a cell, unless a breakpoint, leaves the cell in."""
        ls, rs = (np.clip(np.asarray(v, dtype=float), self.lo, self.hi) for v in (ls, rs))
        inner = self.grid[1:-1]
        j0 = self._first_live[np.searchsorted(inner, ls, side="right")]
        j1 = self._last_live[np.searchsorted(inner, rs, side="left")]
        return (np.maximum(ls, self.grid[j0]), np.minimum(rs, self.grid[j1 + 1]),
                (j0 <= j1) & (ls < rs))

    def moments(self, x):
        """Cumulative mass, first and second moment from lo to x, stacked
        along a new leading axis."""
        x, idx = self._locate(x)
        return self._cum.take(idx, axis=1) + self._integrate(self.grid[idx], x, _powers)[0]

    def cell_integral(self, ls, rs, a, f):
        """Integral of f(x - a) rho(x) over [l, r], for arrays of cells.

        ls, rs and a share one shape. Each cell is split at a (clipped to the
        cell) and at the declared breakpoints inside it, and each piece takes
        the 16-node rule, so neither a jump of rho nor a kink of f at 0 falls
        inside a piece. f may return a tuple of k integrands; the result then
        stacks them along a new leading axis, and x and rho(x) serve all k.
        """
        edges = np.stack([ls, np.clip(a, ls, rs), rs], axis=-1)
        if self.breakpoints.size > 2:
            inner = np.clip(self.breakpoints[1:-1], ls[..., None], rs[..., None])
            edges = np.sort(np.concatenate([edges, inner], axis=-1), axis=-1)
        return self._integrate(edges[..., :-1], edges[..., 1:], f,
                               a[..., None])[0].sum(axis=-1)

    def ppf(self, u):
        """Quantile on [0, mass]: affine if constant, else grid inverse + Newton, but
        bisection on cdf in a grid cell at an end where rho is infinite (Newton stops there)."""
        u = np.clip(np.asarray(u, dtype=float), 0.0, self.mass)
        if self.constant is not None:
            return np.minimum(self.lo + u / self.constant, self.hi)
        shape, u = u.shape, np.atleast_1d(u)
        c, g = self._cum[0], self.grid
        at_lo = (u <= c[1]) & self._infinite_end[0]
        end = at_lo | (u >= c[-2]) & self._infinite_end[1]
        t = np.interp(u, c, g)
        tn, un = t[~end], u[~end]
        for _ in range(2):
            step = (self.cdf(tn) - un) / np.maximum(self._rho(tn), 1e-12)
            tn = np.clip(tn - step, self.lo, self.hi)
        t[~end] = tn
        if np.any(end):
            # cdf(a) < u <= cdf(b) until a and b are adjacent floats
            a, b, ue = np.where(at_lo, g[0], g[-2])[end], np.where(at_lo, g[1], g[-1])[end], u[end]
            while np.any(((m := 0.5 * (a + b)) > a) & (m < b)):
                past = self.cdf(m) >= ue
                a, b = np.where(past, a, m), np.where(past, m, b)
            t[end] = m
        return t.reshape(shape)[()]

    def sample(self, rng: np.random.Generator, n: int):
        return self.ppf(rng.uniform(0.0, self.mass, size=n))

    def ball_mass(self, x: float, r):
        """Mass of the open interval (x - r, x + r) within the support, for a
        float r (a float back) or an array of radii; r <= 0 gives 0."""
        r = np.asarray(r, dtype=float)
        lo, hi = self.cdf(np.stack([x - r, x + r]))
        out = np.where(r > 0, hi - lo, 0.0)
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class Curve:
    """Polyline in R^d with an exact cumulative arc-length table."""

    vertices: np.ndarray
    cum_length: np.ndarray = field(default=None)

    def __post_init__(self):
        v = np.atleast_2d(np.asarray(self.vertices, dtype=float))
        if v.shape[0] < 2:
            raise ValueError("a curve needs at least two vertices")
        seg = np.linalg.norm(np.diff(v, axis=0), axis=1)
        cum = np.concatenate([[0.0], np.cumsum(seg)])
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "cum_length", cum)

    @property
    def total_length(self) -> float:
        return float(self.cum_length[-1])

    @property
    def d(self) -> int:
        return self.vertices.shape[1]

    def point_at(self, t):
        """Arc-length parametrization s: [0, L] -> R^d (1-Lipschitz)."""
        t = np.clip(np.asarray(t, dtype=float), 0.0, self.total_length)
        idx = np.clip(np.searchsorted(self.cum_length, t, side="right") - 1,
                      0, len(self.cum_length) - 2)
        t0 = self.cum_length[idx]
        seg = self.cum_length[idx + 1] - t0
        frac = np.where(seg > 0, (t - t0) / np.where(seg > 0, seg, 1.0), 0.0)
        a = self.vertices[idx]
        b = self.vertices[idx + 1]
        return a + frac[..., None] * (b - a)


@dataclass(frozen=True)
class IfsSpec:
    """Contractive similarities (ratio, offset) with selection weights."""

    ratios: np.ndarray
    offsets: np.ndarray
    weights: np.ndarray
    similarity_dim: float = field(init=False)

    def __post_init__(self):
        r = np.asarray(self.ratios, dtype=float).ravel()
        off = np.atleast_2d(np.asarray(self.offsets, dtype=float))
        if off.shape[0] != r.size:
            off = off.T
        w = np.asarray(self.weights, dtype=float).ravel()
        if not (r.size == off.shape[0] == w.size):
            raise ValueError("maps and weights length mismatch")
        if np.any(r <= 0) or np.any(r >= 1):
            raise ValueError("contraction ratios must lie in (0, 1)")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1 within 1e-12")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        if r.size < 2:
            raise ValueError("degenerate IFS: no positive similarity dimension")
        object.__setattr__(self, "ratios", r)
        object.__setattr__(self, "offsets", off)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "similarity_dim", _similarity_dimension(r))

    @property
    def d(self) -> int:
        return self.offsets.shape[1]


def _similarity_dimension(ratios) -> float:
    f = lambda s: np.sum(ratios ** s) - 1.0
    hi = 1.0
    while f(hi) > 0:
        hi *= 2.0
        if hi > 1e6:
            raise ValueError("similarity dimension not found")
    return float(brentq(f, 1e-12, hi, xtol=1e-14))


@dataclass(frozen=True)
class Measure:
    """A sampleable measure with optional density and exact ball function.

    `density` takes ambient points and is taken with respect to Lebesgue
    measure (density1d / uniform-box / restricted); it includes the total
    mass. `ball_measure(x, r)` returns the exact mass of the open ball when
    available. Every density1d carries its `law`, and every curve its
    `curve` and its `law` on arc length, whose `pdf` is the curve's density.
    """

    kind: str
    ambient_dim: int
    intrinsic_dim: float
    total_mass: float
    sampler: Callable = field(repr=False)
    density: Optional[Callable] = field(default=None, repr=False)
    ball_measure: Optional[Callable] = field(default=None, repr=False)
    law: Optional[Law1D] = field(default=None, repr=False)
    curve: Optional[Curve] = field(default=None, repr=False)
    support_box: Optional[tuple] = None
    label: str = ""

    def sample_rng(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.sampler is None:
            raise ValueError(f"measure of kind '{self.kind}' is not sampleable")
        return self.sampler(rng, n)


def sample(m: Measure, n: int, seed) -> PointCloud:
    """n i.i.d. draws from the (normalized) measure, weights 1/n each."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    pts = np.atleast_2d(m.sample_rng(rng, n))
    if pts.shape[0] != n:
        pts = pts.reshape(n, -1)
    return PointCloud(pts, np.full(n, 1.0 / n))


def _normalized(law: Law1D) -> Law1D:
    """The law rescaled to mass 1; itself when its mass is 1 within 1e-13."""
    if abs(law.mass - 1.0) <= 1e-13:
        return law
    return Law1D(lambda x, _f=law.pdf, _c=law.mass: np.asarray(_f(x)) / _c,
                 law.lo, law.hi, breakpoints=law.breakpoints[1:-1])


def density1d(pdf, support, breakpoints=(), normalize=True, label="") -> Measure:
    """Measure on an interval from a density w.r.t. Lebesgue.

    With normalize=True (default) the density is rescaled to total mass 1;
    otherwise the raw integral becomes the total mass.
    """
    lo, hi = float(support[0]), float(support[1])
    law = Law1D(pdf, lo, hi, breakpoints=breakpoints)
    if normalize:
        law = _normalized(law)
    return Measure(
        kind="density1d", ambient_dim=1, intrinsic_dim=1.0, total_mass=law.mass,
        sampler=lambda rng, n, _l=law: _l.sample(rng, n).reshape(n, 1),
        density=lambda x, _l=law: np.asarray(_l.pdf(np.asarray(x, dtype=float))),
        ball_measure=lambda x, r, _l=law: _l.ball_mass(float(np.ravel(x)[0]), r),
        law=law, support_box=((lo,), (hi,)), label=label or "density1d",
    )


def uniform_interval(lo=0.0, hi=1.0) -> Measure:
    rho = 1.0 / (hi - lo)
    return density1d(lambda x, _r=rho: np.full_like(np.asarray(x, dtype=float), _r),
                     (lo, hi), label=f"uniform[{lo},{hi}]")


def piecewise_uniform(intervals, normalize=True) -> Measure:
    """Uniform density over a finite union of disjoint closed intervals."""
    iv = sorted((float(a), float(b)) for a, b in intervals if b > a)
    if not iv:
        raise ValueError("union of intervals has zero length")
    length = sum(b - a for a, b in iv)
    lo, hi = iv[0][0], iv[-1][1]
    arr = np.array(iv)

    def pdf(x, _arr=arr):
        x = np.asarray(x, dtype=float)
        inside = np.zeros_like(x)
        for a, b in _arr:
            inside = inside + ((x >= a) & (x <= b))
        return np.minimum(inside, 1.0)

    breaks = sorted({v for ab in iv for v in ab})
    return density1d(pdf, (lo, hi), breakpoints=breaks, normalize=normalize,
                     label="piecewise-uniform")


def _segment_area(r, a, b):
    """Integral of sqrt(r^2 - x^2) over [a, b] within [-r, r]."""
    a = min(max(a, -r), r)
    b = min(max(b, -r), r)
    if b <= a:
        return 0.0
    F = lambda x: 0.5 * (x * math.sqrt(max(r * r - x * x, 0.0))
                         + r * r * math.asin(min(max(x / r, -1.0), 1.0)))
    return F(b) - F(a)


def disk_box_area(cx, cy, r, x0, x1, y0, y1):
    """Exact area of the disk B_r((cx, cy)) intersected with a rectangle."""
    if r <= 0:
        return 0.0
    x0, x1, y0, y1 = x0 - cx, x1 - cx, y0 - cy, y1 - cy
    lo, hi = max(x0, -r), min(x1, r)
    if hi <= lo:
        return 0.0
    cand = {lo, hi}
    for y in (y0, y1):
        if abs(y) < r:
            c = math.sqrt(r * r - y * y)
            for v in (-c, c):
                if lo < v < hi:
                    cand.add(v)
    edges = sorted(cand)
    area = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        xm = 0.5 * (a + b)
        g = math.sqrt(max(r * r - xm * xm, 0.0))
        if min(y1, g) <= max(y0, -g):
            continue
        top_is_chord = g < y1
        bot_is_chord = -g > y0
        if top_is_chord and bot_is_chord:
            area += 2.0 * _segment_area(r, a, b)
        elif top_is_chord:
            area += _segment_area(r, a, b) - y0 * (b - a)
        elif bot_is_chord:
            area += y1 * (b - a) + _segment_area(r, a, b)
        else:
            area += (y1 - y0) * (b - a)
    return max(area, 0.0)


def uniform_box(lo, hi) -> Measure:
    """Uniform probability measure on an axis-aligned box in R^d."""
    lo = np.asarray(lo, dtype=float).ravel()
    hi = np.asarray(hi, dtype=float).ravel()
    if lo.size != hi.size or np.any(hi <= lo):
        raise ValueError("invalid box")
    d = lo.size
    vol = float(np.prod(hi - lo))
    rho = 1.0 / vol

    if d == 1:
        return uniform_interval(lo[0], hi[0])

    ball = None
    if d == 2:
        def ball(x, r, _lo=lo, _hi=hi, _rho=rho):
            x = np.asarray(x, dtype=float).ravel()
            return _rho * disk_box_area(x[0], x[1], r, _lo[0], _hi[0], _lo[1], _hi[1])

    return Measure(
        kind="uniform-box", ambient_dim=d, intrinsic_dim=float(d), total_mass=1.0,
        sampler=lambda rng, n, _lo=lo, _hi=hi: rng.uniform(_lo, _hi, size=(n, d)),
        density=lambda x, _r=rho: np.full(np.atleast_2d(x).shape[0], _r),
        ball_measure=ball, support_box=(tuple(lo), tuple(hi)),
        label=f"uniform-box(d={d})",
    )


def empirical(points, weights=None) -> Measure:
    """Empirical measure of a weighted cloud (samples with replacement)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n, d = pts.shape
    w = np.full(n, 1.0 / n) if weights is None else np.asarray(weights, dtype=float)
    total = float(w.sum())
    probs = w / total

    def sampler(rng, k, _p=pts, _w=probs):
        idx = rng.choice(len(_p), size=k, p=_w)
        return _p[idx]

    return Measure(kind="empirical", ambient_dim=d, intrinsic_dim=0.0,
                   total_mass=total, sampler=sampler, label="empirical")


def curve_measure(c: Curve, density1d_law=None, normalize=True) -> Measure:
    """Pushforward of a 1D law on [0, L] through the arc-length map.

    Default law is uniform 1/L (a probability measure). Pass a Law1D on
    [0, L] for a nonuniform arc-length density; normalize=False keeps its
    raw mass, which is how Hausdorff measure on the curve is represented.
    """
    L = c.total_length
    if L <= 0:
        raise ValueError("degenerate curve")
    if density1d_law is None:
        law = Law1D(lambda t: np.full_like(np.asarray(t, dtype=float), 1.0 / L),
                    0.0, L)
    else:
        law = density1d_law
        if law.lo < -1e-12 or law.hi > L + 1e-12:
            raise ValueError("arc-length density must be supported on [0, L]")
        if normalize:
            law = _normalized(law)

    lo = c.vertices.min(axis=0)
    hi = c.vertices.max(axis=0)
    return Measure(
        kind="curve", ambient_dim=c.d, intrinsic_dim=1.0, total_mass=law.mass,
        sampler=lambda rng, n, _c=c, _l=law: _c.point_at(_l.sample(rng, n)),
        law=law, curve=c, support_box=(tuple(lo), tuple(hi)), label="curve",
    )


def hausdorff_curve_measure(c: Curve) -> Measure:
    """Arc-length (Hausdorff) measure on the curve: density 1, mass L."""
    law = Law1D(lambda t: np.ones_like(np.asarray(t, dtype=float)),
                0.0, c.total_length)
    return curve_measure(c, density1d_law=law, normalize=False)


def quarter_circle(segments=1024, radius=1.0) -> Curve:
    theta = np.linspace(0.0, math.pi / 2, segments + 1)
    return Curve(radius * np.column_stack([np.cos(theta), np.sin(theta)]))


def segment_curve(a, b, segments=1) -> Curve:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    ts = np.linspace(0.0, 1.0, segments + 1)[:, None]
    return Curve(a + ts * (b - a))


def ifs_measure(spec: IfsSpec, depth: int = 40) -> Measure:
    """Self-similar measure sampled by depth-truncated random words.

    Positions are resolved below max(ratio)^depth, far under every tolerance
    used here at the default depth. The label is "cantor" for the
    middle-thirds maps with both weights positive, else "ifs".
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")

    def sampler(rng, n, _s=spec, _d=depth):
        words = rng.choice(len(_s.weights), size=(n, _d), p=_s.weights)
        x = np.zeros((n, _s.d))
        for j in range(_d - 1, -1, -1):
            w = words[:, j]
            x = _s.ratios[w, None] * x + _s.offsets[w]
        return x

    lo = spec.offsets.min(axis=0)
    hi = (spec.offsets + spec.ratios[:, None]).max(axis=0)  # rough hull bound
    cantor = (spec.d == 1 and np.all(spec.ratios == 1.0 / 3.0) and np.all(spec.weights > 0)
              and np.array_equal(np.sort(spec.offsets.ravel()), [0.0, 2.0 / 3.0]))
    return Measure(kind="ifs", ambient_dim=spec.d, intrinsic_dim=spec.similarity_dim,
                   total_mass=1.0, sampler=sampler, support_box=(tuple(lo), tuple(hi)),
                   label="cantor" if cantor else "ifs")


def cantor_ifs(weights=(0.5, 0.5)) -> IfsSpec:
    """Middle-thirds Cantor maps x/3 and x/3 + 2/3."""
    return IfsSpec(ratios=(1.0 / 3.0, 1.0 / 3.0), offsets=[[0.0], [2.0 / 3.0]],
                   weights=weights)


def cantor_cylinders(depth: int) -> np.ndarray:
    """Left endpoints of the 2^depth level-`depth` Cantor cylinders."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    idx = np.arange(2 ** depth)
    left = np.zeros(len(idx))
    for j in range(depth):
        digit = (idx >> (depth - 1 - j)) & 1
        left += digit * 2.0 * 3.0 ** (-(j + 1))
    return left


def cantor_net(depth: int) -> PointCloud:
    """All level-depth cylinder endpoints (exact extreme points of the set)."""
    left = cantor_cylinders(depth)
    pts = np.sort(np.concatenate([left, left + 3.0 ** (-depth)]))
    return PointCloud(pts.reshape(-1, 1), np.full(pts.size, 1.0 / pts.size))


def restrict(m: Measure, predicate) -> Measure:
    """Sub-measure of kind "restricted", rejection-sampled against a predicate.

    The acceptance rate on a fixed calibration draw estimates the retained
    mass. The result keeps the sampler, that mass, the support box and, when
    m has a density, the density times the indicator; it has no law,
    curve or ball function, so evaluators treat it as a sampled measure.
    """
    rng = np.random.default_rng(derive_seed(_CALIBRATION_SEED, m.kind, m.label))
    cal = np.atleast_2d(m.sample_rng(rng, _CALIBRATION_N))
    keep = np.asarray([bool(predicate(p)) for p in cal])
    rate = float(keep.mean())
    if rate < 1e-4:
        raise ValueError("region too small")

    def sampler(rng_, n, _m=m, _pred=predicate):
        out = []
        got = 0
        while got < n:
            batch = np.atleast_2d(_m.sample_rng(rng_, max(n, 1024)))
            ok = np.asarray([bool(_pred(p)) for p in batch])
            sel = batch[ok]
            out.append(sel)
            got += len(sel)
        return np.concatenate(out)[:n]

    dens = None
    if m.density is not None:
        def dens(x, _m=m, _pred=predicate):
            x = np.asarray(x, dtype=float)
            base = np.asarray(_m.density(x), dtype=float)
            pts = x.reshape(-1, _m.ambient_dim)
            ind = np.asarray([1.0 if _pred(p) else 0.0 for p in pts])
            return base * ind.reshape(base.shape)

    return Measure(kind="restricted", ambient_dim=m.ambient_dim,
                   intrinsic_dim=m.intrinsic_dim,
                   total_mass=rate * m.total_mass, sampler=sampler,
                   density=dens, support_box=m.support_box,
                   label=m.label + "|restricted")
