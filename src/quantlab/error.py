"""Quantization error e_p(mu; S) evaluators and p-sum utilities.

Three routes: exact adaptive quadrature for 1D densities, exact nearest-site
pieces of arc length for curves, Monte Carlo with confidence information
otherwise. All evaluators are pure given (measure, S, p, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.spatial import cKDTree

from .measures import Measure
from .spatial import _as_points

INF = math.inf

_CHUNK = 512  # grid intervals per Law1D.cell_integral call in error_curve


def check_order(p) -> float:
    p = float(p)
    if not p >= 1.0:
        raise ValueError("order p must satisfy p >= 1")
    return p


def psum(values, p) -> float:
    """l^p combination of nonnegative values; supremum for p = inf."""
    p = check_order(p)
    v = np.asarray(values, dtype=float).ravel()
    if v.size == 0:
        return 0.0
    if np.any(v < 0):
        raise ValueError("p-sums take nonnegative values")
    if math.isinf(p):
        return float(v.max())
    m = v.max()
    if m == 0.0:
        return 0.0
    return float(m * np.sum((v / m) ** p) ** (1.0 / p))


@dataclass(frozen=True)
class ErrorEstimate:
    """e_p value with the variance of its p-th-power estimator.

    `variance` refers to the Monte Carlo estimator of V_p = e_p^p and is 0
    for exact methods. `method` says what the value is: exact ("exact1d",
    "curve", and "sup" for an exact supremum at p = inf), a Monte Carlo
    estimate ("montecarlo"), or a lower bound on the supremum ("sample-max").
    """

    value: float
    variance: float
    n_samples: int
    method: str

    @property
    def std_err(self) -> float:
        return math.sqrt(self.variance)

    def to_json(self) -> dict:
        return {"value": self.value, "std_err": self.std_err,
                "n": self.n_samples, "method": self.method}


def error_exact_1d(m: Measure, S, p) -> ErrorEstimate:
    """Exact e_p for a 1D density measure by per-cell adaptive quadrature; at
    p = inf the largest distance over the support ends and Voronoi midpoints
    of the law's breakpoint pieces of positive mass."""
    p = check_order(p)
    if m.law is None or m.kind != "density1d":
        raise ValueError("error_exact_1d needs a density1d measure")
    s = np.unique(np.asarray(S, dtype=float).ravel())
    if s.size == 0:
        raise ValueError("empty site list")
    law, bp = m.law, m.law.breakpoints
    mids = 0.5 * (s[:-1] + s[1:])

    if math.isinf(p):
        live = law.piece_mass > 0
        in_live = np.r_[False, live, False][np.searchsorted(bp, mids, side="right")]
        cand = np.concatenate([bp[:-1][live], bp[1:][live], mids[in_live]])
        dmax = np.abs(cand[:, None] - s[None, :]).min(axis=1).max()
        return ErrorEstimate(float(dmax), 0.0, 0, "sup")

    # one quad call per Voronoi cell (clipped to the support), told its cuts
    edges = np.concatenate([[law.lo], np.clip(mids, law.lo, law.hi), [law.hi]])
    V = 0.0
    for l, r, a in zip(edges[:-1], edges[1:], s):
        if r > l:
            cuts = [c for c in (a, *bp[1:-1]) if l < c < r]
            V += quad(lambda x: abs(x - a) ** p * float(law.pdf(np.array([x]))[0]), l, r,
                      points=cuts or None, epsabs=1e-12, epsrel=1e-12, limit=200)[0]
    return ErrorEstimate(V ** (1.0 / p), 0.0, 0, "exact1d")


def _foot(curve, S, k, j):
    """Arc length a of the foot of site j on the line of segment k, and the
    site's squared distance h^2 from that line."""
    A = curve.vertices[k]
    u = curve.vertices[k + 1] - A
    u /= np.linalg.norm(u, axis=1)[:, None]
    w = S[j] - A
    tau = np.einsum("ij,ij->i", w, u)
    perp = w - tau[:, None] * u
    return curve.cum_length[k] + tau, np.einsum("ij,ij->i", perp, perp)


def _cuts(curve, S, tree):
    """Arc lengths of the vertices and of where the nearest site may change.

    On a segment |x(t) - s|^2 = (t - a)^2 + h^2 is t^2 plus a line, and a site
    nearest at both ends of an interval is nearest on all of it (the lower
    envelope of lines is concave). Other intervals split where their end
    sites' lines cross if the site nearest there, found by one kd-tree query
    per level for all segments, is strictly closer; else the crossing is a cut.
    """
    cum = curve.cum_length
    k = np.flatnonzero(np.diff(cum) > 0)  # repeated vertices span no arc length
    jv = tree.query(curve.vertices)[1]
    t0, t1, j0, j1 = cum[k], cum[k + 1], jv[k], jv[k + 1]
    out = [cum]
    while k.size:
        (a0, h0), (a1, h1) = _foot(curve, S, k, j0), _foot(curve, S, k, j1)
        den = 2.0 * (a1 - a0)  # zero for one site or equal feet: no crossing
        tx = np.clip(np.divide((a1 - a0) * (a1 + a0) + h1 - h0, den, out=t0.copy(),
                               where=den != 0), t0, t1)
        jx = tree.query(curve.point_at(tx))[1]
        ax, hx = _foot(curve, S, k, jx)
        split = (t0 < tx) & (tx < t1) & ((tx - ax) ** 2 + hx < np.minimum(
            (tx - a0) ** 2 + h0, (tx - a1) ** 2 + h1))
        out.append(tx[~split])
        # the split intervals' left and right halves
        k, t0, t1, j0, j1 = (np.concatenate([a[split], b[split]]) for a, b in
                             ((k, k), (t0, tx), (tx, t1), (j0, jx), (jx, j1)))
    return np.concatenate(out)


def error_curve(m: Measure, S, p) -> ErrorEstimate:
    """Exact e_p along a curve measure, integrated over nearest-site pieces.

    Cut at `_cuts` and at the law's grid nodes, each piece of arc length has
    one segment and one nearest site (anywhere in the ambient space), and
    `Law1D.cell_integral` integrates ((t - a)^2 + h^2)^(p/2) rho(t) around the
    site's foot a: exact to rounding for even p and a polynomial rho, else a
    16-node rule on grid-fine pieces. At p = inf: the exact supremum, the
    largest distance at an end of a piece of positive mass.
    """
    p = check_order(p)
    if m.kind != "curve":
        raise ValueError("error_curve needs a curve measure")
    S = _as_points(S, d=m.curve.d)
    if S.shape[0] == 0:
        raise ValueError("empty site list")
    law, cum, tree = m.law, m.curve.cum_length, cKDTree(S)
    E = np.unique(np.clip(np.r_[_cuts(m.curve, S, tree), law.grid],
                          max(law.lo, 0.0), min(law.hi, cum[-1])))
    l, r = E[:-1], E[1:]
    k = np.searchsorted(cum, l, side="right") - 1
    a, h2 = _foot(m.curve, S, k, tree.query(m.curve.point_at(0.5 * (l + r)))[1])
    if math.isinf(p):
        live = np.diff(law.cdf(E)) > 0
        ends = np.maximum((l - a) ** 2, (r - a) ** 2) + h2
        return ErrorEstimate(float(np.sqrt(ends[live].max())), 0.0, 0, "sup")
    V = 0.0
    for c in range(0, l.size, _CHUNK):
        sl = slice(c, c + _CHUNK)
        V += float(law.cell_integral(l[sl], r[sl], a[sl], lambda y, _h=h2[sl, None, None]:
                                     (y * y + _h) ** (p / 2)).sum())
    return ErrorEstimate(V ** (1.0 / p), 0.0, 0, "curve")


def error_mc(m: Measure, S, p, n: int, seed) -> ErrorEstimate:
    """Monte Carlo e_p over n i.i.d. draws, deterministic per seed.

    For p = inf it reports the sample maximum, method "sample-max": a lower
    bound on the true supremum, never the exact "sup".
    """
    p = check_order(p)
    if n < 100:
        raise ValueError("n must be >= 100")
    from .measures import sample as sample_measure

    cloud = sample_measure(m, n, seed)
    S = _as_points(S, d=cloud.d)
    tree = cKDTree(S)
    dist, _ = tree.query(cloud.points)

    if math.isinf(p):
        return ErrorEstimate(float(dist.max()), 0.0, n, "sample-max")

    dp = dist ** p
    V = m.total_mass * float(dp.mean())
    var = (m.total_mass ** 2) * float(dp.var(ddof=1)) / n
    return ErrorEstimate(V ** (1.0 / p), var, n, "montecarlo")


def error_eval(m: Measure, S, p, n_mc: int = 1 << 19, seed=0) -> ErrorEstimate:
    """Route by kind: exact quadrature for density1d, exact arc-length pieces
    for curves, Monte Carlo for every other kind (restrictions included)."""
    if m.kind == "density1d":
        return error_exact_1d(m, S, p)
    if m.kind == "curve":
        return error_curve(m, S, p)
    return error_mc(m, S, p, n_mc, seed)
