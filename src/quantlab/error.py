"""Quantization error e_p(mu; S) evaluators and p-sum utilities.

Three routes: exact adaptive quadrature for 1D densities, arc-length
quadrature for curves, Monte Carlo with confidence information otherwise.
All evaluators are pure given (measure, S, p, seed).
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
    for exact methods.
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


def _sorted_sites_1d(S) -> np.ndarray:
    s = np.unique(np.asarray(S, dtype=float).ravel())
    if s.size == 0:
        raise ValueError("empty site list")
    return s


def _cell_quad(law, l, r, a, p) -> float:
    """Integral of |x-a|^p rho(x) over [l, r], split at kinks and density breaks."""
    if r <= l:
        return 0.0
    cuts = [l, r]
    if l < a < r:
        cuts.append(a)
    for b in law.breakpoints:
        if l < b < r:
            cuts.append(float(b))
    cuts = sorted(set(cuts))
    total = 0.0
    for u, v in zip(cuts[:-1], cuts[1:]):
        val, _ = quad(lambda x: abs(x - a) ** p * float(law.pdf(np.array([x]))[0]),
                      u, v, epsabs=1e-12, epsrel=1e-12, limit=200)
        total += val
    return total


def error_exact_1d(m: Measure, S, p) -> ErrorEstimate:
    """Exact e_p for a 1D density measure by per-cell adaptive quadrature."""
    p = check_order(p)
    if m.law is None or m.kind != "density1d":
        raise ValueError("error_exact_1d needs a density1d measure")
    s = _sorted_sites_1d(S)
    law = m.law
    lo, hi = law.lo, law.hi

    if math.isinf(p):
        cand = [lo, hi]
        cand += [0.5 * (a + b) for a, b in zip(s[:-1], s[1:]) if lo < 0.5 * (a + b) < hi]
        dmax = max(min(abs(x - a) for a in s) for x in cand)
        return ErrorEstimate(float(dmax), 0.0, 0, "sup")

    # Voronoi boundaries between consecutive sites, clipped to the support
    mids = 0.5 * (s[:-1] + s[1:])
    edges = np.concatenate([[lo], np.clip(mids, lo, hi), [hi]])
    V = 0.0
    for k, a in enumerate(s):
        V += _cell_quad(law, edges[k], edges[k + 1], float(a), p)
    return ErrorEstimate(V ** (1.0 / p), 0.0, 0, "exact1d")


def error_curve(m: Measure, S, p, n_nodes: int = 1 << 14, tol: float = 1e-8,
                max_nodes: int = 1 << 18) -> ErrorEstimate:
    """e_p along a curve measure by composite quadrature over arc length.

    The trapezoid value on a uniform parameter grid is refined by doubling
    until it moves by less than `tol`; quantizer points may sit anywhere in
    the ambient space.
    """
    p = check_order(p)
    if m.curve is None:
        raise ValueError("error_curve needs a curve measure")
    S = _as_points(S, d=m.curve.d)
    if S.shape[0] == 0:
        raise ValueError("empty site list")
    tree = cKDTree(S)
    L = m.curve.total_length

    def evaluate(n):
        t = np.linspace(0.0, L, n + 1)
        pts = m.curve.point_at(t)
        dist, _ = tree.query(pts)
        if math.isinf(p):
            return float(dist.max())
        rho = np.asarray(m.density(t), dtype=float)
        return float(np.trapezoid(dist ** p * rho, t)) ** (1.0 / p)

    val = evaluate(n_nodes)
    n = n_nodes
    while n < max_nodes:
        n *= 2
        new = evaluate(n)
        if abs(new - val) < tol:
            val = new
            break
        val = new
    method = "sup" if math.isinf(p) else "curve"
    return ErrorEstimate(val, 0.0, 0, method)


def error_mc(m: Measure, S, p, n: int, seed) -> ErrorEstimate:
    """Monte Carlo e_p over n i.i.d. draws, deterministic per seed.

    For p = inf the sample maximum is reported (a lower bound on the true
    supremum; use exact nets where the distinction matters).
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
        return ErrorEstimate(float(dist.max()), 0.0, n, "sup")

    dp = dist ** p
    V = m.total_mass * float(dp.mean())
    var = (m.total_mass ** 2) * float(dp.var(ddof=1)) / n
    return ErrorEstimate(V ** (1.0 / p), var, n, "montecarlo")


def error_eval(m: Measure, S, p, n_mc: int = 1 << 19, seed=0) -> ErrorEstimate:
    """Route to the best available evaluator for the measure kind.

    Restricted 1D densities and curves keep no exact law or arc-length
    density, so they go to Monte Carlo.
    """
    if m.kind == "density1d" and m.law is not None:
        return error_exact_1d(m, S, p)
    if m.kind == "curve" and m.density is not None:
        return error_curve(m, S, p)
    return error_mc(m, S, p, n_mc, seed)
