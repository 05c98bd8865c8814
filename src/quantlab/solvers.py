"""Quantizer solvers: Lloyd alternation, exact 1D dynamic programming,
uniform-interval constructions on compact subsets of [0,1], greedy covers,
and i.i.d. random quantizers.

The 1D DP is the ground-truth anchor: globally optimal cell boundaries on a
grid, refined to the continuum stationary point. Lloyd is the general-purpose
heuristic; it reports best-found values and never claims global optimality.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_banded
from scipy.spatial import cKDTree

from .error import INF, ErrorEstimate, check_order, error_eval, error_exact_1d
from .measures import (Law1D, Measure, cantor_cylinders, derive_seed,
                       piecewise_uniform, sample)
from .spatial import PointCloud, _as_points


@dataclass
class SolverConfig:
    max_iters: int = 200
    rel_tol: float = 1e-9
    restarts: int = 8
    working_sample: int | None = None  # default 1e5 * max(1, d/2)
    eval_samples: int = 1 << 19

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.rel_tol <= 0:
            raise ValueError("rel_tol must be positive")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.working_sample is not None and self.working_sample < 1:
            raise ValueError("working_sample must be >= 1, or None for the default")
        if self.eval_samples < 100:
            raise ValueError("eval_samples must be >= 100")


@dataclass(frozen=True)
class Provenance:
    solver: str
    seed: object
    iterations: int
    converged: bool
    details: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Quantizer:
    points: np.ndarray
    N: int
    p: float
    error: ErrorEstimate
    provenance: Provenance

    def __post_init__(self):
        object.__setattr__(self, "points",
                           np.atleast_2d(np.asarray(self.points, dtype=float)))


# ---------------------------------------------------------------------------
# seeding

def _sq_dist(cols, S, idx=None):
    """|w_i - S[idx_i]|^2, or |w_i - S|^2 to the one site S when idx is None,
    where cols[k] holds coordinate k of every w_i (cols: (d, n), contiguous).

    Summed one column at a time in place, with no (n, d) temporary: bit for
    bit numpy's row sum of squares for d <= 7. From d = 8 on numpy's pairwise
    sum unrolls by 8, and the two may differ in the last ulp.
    """
    acc = None
    for k, c in enumerate(cols):
        t = c - (S[k] if idx is None else S[:, k].take(idx))
        t *= t
        acc = t if acc is None else np.add(acc, t, out=acc)
    return acc


def _dist(cols, S, idx=None):
    """Distances |w_i - S[idx_i]| (or |w_i - S|), as `_sq_dist`."""
    d = _sq_dist(cols, S, idx)
    return np.sqrt(d, out=d)


def _seed_pp(cols, weights, N, rng):
    """k-means++ seeding on the sample's coordinate columns `cols` (d, n)."""
    n = cols.shape[1]
    if N > n:
        raise ValueError("budget exceeds number of points")
    probs = weights / weights.sum()
    chosen = np.empty(N, dtype=int)
    chosen[0] = rng.choice(n, p=probs)
    d2 = _sq_dist(cols, cols[:, chosen[0]])
    for k in range(1, N):
        score = weights * d2
        total = score.sum()
        if total <= 0:
            remaining = np.setdiff1d(np.arange(n), chosen[:k])
            chosen[k] = rng.choice(remaining)
        else:
            chosen[k] = rng.choice(n, p=score / total)
        np.minimum(d2, _sq_dist(cols, cols[:, chosen[k]]), out=d2)
    return cols[:, chosen].T.copy()


def _farthest(cols, dist, k):
    """k farthest-point picks on `cols` (d, n): each takes the argmax of
    `dist`, then lowers `dist` in place to at most the distance from it."""
    picks = np.empty(k, dtype=np.intp)
    for j in range(k):
        picks[j] = far = int(np.argmax(dist))
        np.minimum(dist, _dist(cols, cols[:, far]), out=dist)
    return picks


def seed_plusplus(cloud: PointCloud, N: int, seed) -> np.ndarray:
    """Distance-squared-proportional seeding over a weighted cloud."""
    rng = np.random.default_rng(seed)
    return _seed_pp(np.ascontiguousarray(cloud.points.T), cloud.weights, N, rng)


# ---------------------------------------------------------------------------
# cell centres

_STEP_TOL = 1e-12  # a cell stops once its step is below this share of its size
_ROUND = 1e-13  # rounding allowed: an objective may rise, a pull exceed W0, by this share
_WEAK = 1e-9  # p = 1: a Hessian singular to this share gives way to Weiszfeld's map
_MAX_PASSES = 100


def _lower_medians(x, assign, counts, ok, w):
    """Each cell's lower weighted median of x: its first point, in (x, sample)
    order, whose running weight reaches half of the cell's."""
    order = np.lexsort((x, assign))
    cum = np.cumsum(np.ones(x.size) if w is None else w[order])
    ends = np.cumsum(counts)[ok]
    before = np.concatenate([[0.0], cum])[ends - counts[ok]]
    k = np.searchsorted(cum, before + 0.5 * (cum[ends - 1] - before))
    return x[order[np.minimum(k, ends - 1)]]


def _cell_moments(X, a, m, z, p, w):
    """Sums over the m cells labelled by `a` at trial centres z, r = x - z:
    f = sum w|r|^p, the pull R = sum w|r|^(p-2) r and Hessian H = sum
    w|r|^(p-2) (I + (p-2) r r^T/|r|^2) of the points off z (H^-1 R is
    Newton's step), Hs = sum w|r|^(p-2), the mass W0 at z, and the nearest
    point off z with the share of Hs held at its distance."""
    sums = lambda v: np.bincount(a, weights=v, minlength=m)
    r = [c - z[:, k].take(a) for k, c in enumerate(X)]
    rho2 = sum(rk * rk for rk in r)
    wrp = np.sqrt(rho2) ** p * (1.0 if w is None else w)
    off = rho2 > 0
    u = np.divide(wrp, rho2, out=np.zeros(a.size), where=off)  # w |r|^(p-2)
    v = (p - 2.0) * np.divide(u, rho2, out=np.zeros(a.size), where=off)
    Hs = sums(u)
    H = np.empty((m, len(X), len(X)))
    for i, j in itertools.combinations_with_replacement(range(len(X)), 2):
        H[:, i, j] = H[:, j, i] = sums(v * r[i] * r[j]) + (i == j) * Hs
    far = np.where(off, rho2, np.inf)
    nearest, first = np.full(m, np.inf), np.full(m, a.size)
    np.minimum.at(nearest, a, far)
    hit = np.flatnonzero(far == nearest[a])
    np.minimum.at(first, a[hit], hit)
    return (sums(wrp), np.column_stack([sums(u * rk) for rk in r]), H, Hs,
            sums(np.where(off, 0.0, 1.0 if w is None else w)),
            X.take(first, 1, mode="clip").T, np.bincount(a[hit], u[hit], m))


def _newton_centers(X, a, y, mass, p, w):
    """Every cell's argmin of sum w|x - y|^p by safeguarded Newton from its
    mean y, all cells at once; each pass sums every active cell at its trial.

    A trial stands unless its objective rises (by more than rounding); then
    Newton's step from it is the next trial, else the step halves. Sample
    points are kinks for p < 2, so a trial that rose, or an iterate whose
    nearest sample points hold half of Hs (also a cell at one point), first
    tries the nearest sample point, once: a minimum there is found exactly.
    At p = 1 a sample point of mass W0 is the minimum if the pull of the
    others is at most W0. Otherwise, from a sample point the step follows
    the pull, by about the root of W0 s^(p-1) + curvature s = pull (exactly
    at p = 1); and at p = 1 a singular Hessian (a line of points through y)
    gives way to Weiszfeld's map. A cell stops once its step is below _STEP_TOL of its size
    (f/mass)^(1/p) at the mean, takes that last step, and leaves the sums,
    so its centre depends only on its own points, in sample order.
    """
    m, d = y.shape
    y, rows, fy, dy = y.copy(), np.arange(m), np.full(m, np.inf), np.zeros((m, d))
    out, z, near, last = y.copy(), y.copy(), y.copy(), np.full((m, d), np.nan)
    snap, vertex, close = (np.zeros(m, dtype=bool) for _ in range(3))
    tol = None
    for _ in range(_MAX_PASSES):
        f, R, H, Hs, W0, nz, unear = _cell_moments(X, a, len(rows), z, p, w)
        if tol is None:  # the pass at the mean gives each cell's size
            tol = (_STEP_TOL * (f / np.where(mass > 0, mass, 1)) ** (1.0 / p)
                   + 4.0 * np.spacing(np.abs(y).max(axis=1)))
        acc = f <= fy * (1.0 + _ROUND)
        y[acc], fy[acc], near[acc] = z[acc], f[acc], nz[acc]
        vertex[acc], close[acc] = W0[acc] > 0, 2.0 * unear[acc] >= Hs[acc]
        done = acc & (f == 0)
        pull = np.linalg.norm(R, axis=1)
        if p == 1.0:
            done |= acc & vertex & (pull <= W0 * (1.0 + _ROUND))
            rest = np.where(unear < Hs, Hs - unear, Hs)  # Hs but for the nearest
            weak = np.linalg.eigvalsh(H)[:, 0] <= _WEAK * rest
            H[weak] = Hs[weak, None, None] * np.eye(d)
        step = acc & ~done
        dy[step] = np.linalg.solve(H[step], R[step][..., None])[..., 0]
        dy[done] = 0.0
        # from a sample point, a kink for p < 2, only the pull's own direction
        # descends: at p = 1 the root of W0 + curvature s = pull, else the
        # shorter of the roots with either term alone
        leave = np.flatnonzero(step & vertex & (pull > 0) & (p < 2.0))
        g, W0 = pull[leave], W0[leave]
        e = R[leave] / g[:, None]
        curv = sum(e[:, i] * H[leave, i, j] * e[:, j] for i in range(d) for j in range(d))
        dy[leave] = e * ((g - W0) / curv if p == 1.0 else
                         np.minimum((g / W0) ** (1.0 / (p - 1.0)), g / curv))[:, None]
        halved = ~acc & ~snap  # a rejected sample point retries the step behind it
        dy[halved] *= 0.5
        snap = ~done & ~vertex & np.any(near != last, axis=1) & (halved | (acc & close))
        fin = ~snap & (acc | halved) & (np.linalg.norm(dy, axis=1) <= tol)
        y[fin & acc] += dy[fin & acc]
        done |= fin
        z = np.where(snap[:, None], near, y + dy)
        last[snap] = near[snap]
        out[rows[done]] = y[done]
        keep = ~done
        if not keep.any():
            return out
        if not keep.all():
            label = np.where(keep, np.cumsum(keep) - 1, -1)[a]
            X, a, w = X[:, label >= 0], label[label >= 0], None if w is None else w[label >= 0]
            rows, y, fy, dy, z, near, last, snap, vertex, close, tol = (
                v[keep] for v in (rows, y, fy, dy, z, near, last, snap, vertex, close, tol))
    out[rows] = y
    return out


def _cell_centers(cols, assign, S, p, weights=None):
    """Each cell's argmin_y of sum w|x - y|^p over its points, from the
    coordinate columns `cols` (d, n), and the cells' point counts; a cell
    without mass keeps its row of S. p = 2 is the mean from segment sums,
    p = 1 in 1D the lower weighted median, other p `_newton_centers`."""
    N = len(S)
    counts = np.bincount(assign, minlength=N)
    mass = counts if weights is None else np.bincount(assign, weights, N)
    ok = mass > 0
    C = S.copy()
    C[ok] = np.column_stack([np.bincount(assign, weights=c, minlength=N) for c in
                             (cols if weights is None else cols * weights)])[ok] / mass[ok, None]
    if p == 1.0 and len(cols) == 1:
        C[ok, 0] = _lower_medians(cols[0], assign, counts, ok, weights)
    elif p != 2.0:
        C = _newton_centers(cols, assign, C, mass, p, weights)
    return C, counts


def cell_center(points, weights=None, p=2.0) -> np.ndarray:
    """argmin_a of the weighted p-th moment of a cell around a: the one-cell
    call of Lloyd's batched centre step (`_cell_centers`). Points are coerced
    as everywhere else: a flat list is n points in R^1. Non-finite points,
    weights that are non-finite, negative, all zero or not one per point,
    and p=inf raise ValueError."""
    pts = _as_points(points)
    w = None if weights is None else np.asarray(weights, dtype=float)
    if len(pts) == 0:
        raise ValueError("empty cell")
    if w is not None and not (w.shape == pts.shape[:1] and np.all(np.isfinite(w))
                              and np.all(w >= 0) and np.any(w > 0)):
        raise ValueError("weights must be finite and non-negative, one per point, "
                         "not all zero")
    p = check_order(p)
    if math.isinf(p):
        raise ValueError("cell_center handles finite p only")
    return _cell_centers(np.ascontiguousarray(pts.T), np.zeros(len(pts), dtype=np.intp),
                         np.zeros((1, pts.shape[1])), p, w)[0][0]


# ---------------------------------------------------------------------------
# Lloyd alternation

def _centers_update(cols, assign, S, p, dist):
    """One center step with reseed-at-farthest for empty cells."""
    S_new, counts = _cell_centers(cols, assign, S, p)
    empties = np.nonzero(counts == 0)[0]
    reseeded = len(empties) > 0
    if reseeded:
        S_new[empties] = cols[:, _farthest(cols, dist.copy(), len(empties))].T
    return S_new, reseeded


def _other_max(shift):
    """Per centre, the largest shift among the other centres (0 if none)."""
    k = int(np.argmax(shift))
    out = np.full_like(shift, shift[k])
    out[k] = np.max(np.delete(shift, k), initial=0.0)
    return out


def _lloyd_restart(cols, S, p, cfg):
    """Lloyd iterations from the sites S on the sample's columns `cols` (d, n).

    A point keeps its site, unqueried, when its exact distance to it passes
    either of Hamerly's tests (G. Hamerly, "Making k-means even faster", SDM
    2010), each with a relative margin of 1e-12:
    - it is below `lower`, the point's bound on its distance to every other
      site, which a centre step lowers by the largest shift among the other
      sites;
    - it is below `half`, half the distance from its site to the nearest
      other site. For any other site c_j, |x - c_j| >= 2 half - |x - c_a| >
      |x - c_a|, so the point is strictly nearest its own site, whatever the
      history.
    Every other point, ties included, is re-queried on a kd-tree of the
    sites, so the tree decides every assignment that could change, exactly
    as a full query would. Returns the sites, the V_p history, convergence
    and the number of points queried before each history entry.
    """
    n = cols.shape[1]
    assign = np.zeros(n, dtype=np.intp)
    lower = np.zeros(n)  # no bound yet: the first pass queries every point
    tree, half = cKDTree(S), np.zeros(len(S))
    v_hist, requeried = [], []
    converged = False
    for _ in range(cfg.max_iters):
        dist = _dist(cols, S, assign)
        # one expression, so its temporaries are gone before the query
        stale = np.nonzero(
            ~(dist < np.maximum(lower, half.take(assign)) * (1.0 - 1e-12)))[0]
        if len(stale):
            sub = cols[:, stale]
            d2, i2 = tree.query(sub.T, k=2)
            tie = d2[:, 0] == d2[:, 1]
            if np.any(tie):  # k=2 orders tied neighbours unlike a k=1 query
                i2[tie, 0] = tree.query(sub[:, tie].T)[1]
            assign[stale] = i2[:, 0]
            lower[stale] = d2[:, 1]
            # every distance from numpy, so V does not depend on who queried
            dist[stale] = _dist(sub, S, assign[stale])
        requeried.append(len(stale))
        V = float(np.mean(dist ** p))
        v_hist.append(V)
        if (len(v_hist) >= 2
                and v_hist[-2] - V <= cfg.rel_tol * max(v_hist[-2], 1e-300)):
            converged = True
            break
        S_new, _ = _centers_update(cols, assign, S, p, dist)
        shift = np.linalg.norm(S_new - S, axis=1)
        # Rounding may only lower the bound. Each shift gets a relative slack
        # of 1e-12, far above its few-ulp error. Each subtraction then rounds
        # down, so its error cannot build up over iterations: for a positive
        # normal x the exact x (1 - 2^-52) is at most x - ulp(x), a float, so
        # the rounded product is at most x - ulp(x) too, below x by more than
        # the subtraction's half-ulp error. A subtraction whose result is
        # subnormal is exact, and a bound at or below zero keeps no point.
        # The few-ulp errors of the tree's second distance and of dist scale
        # with that distance, at most lower + the shifts taken off it, which
        # the two 1e-12 slacks (here and in the keep test) cover.
        lower -= (_other_max(shift) * (1.0 + 1e-12))[assign]
        lower *= 1.0 - 2.0 ** -52
        S = S_new
        # one tree of the new sites: their separations (inf at N = 1, 0 for
        # coincident sites) and the next pass's re-queries
        tree = cKDTree(S)
        half = 0.5 * tree.query(S, k=2)[0][:, 1]
    return S, v_hist, converged, requeried


def lloyd(m: Measure, N: int, p, cfg: SolverConfig | None = None, seed=0) -> Quantizer:
    """Multi-start Lloyd alternation on a fixed working sample.

    The working-sample objective V_p is non-increasing across iterations
    (empty cells reseed at the farthest sample point, which preserves
    descent). Each restart queries every point once on a k=2 kd-tree, then
    re-queries only the points that fail both of Hamerly's tests
    (`_lloyd_restart`): a point keeps its site while its distance to it is
    below its bound on the distance to every other site, or below half the
    distance from its site to the nearest other site. Every iteration gives
    the results of a full query; details["requeried"] counts the queried
    points per iteration. The returned error is re-evaluated independently:
    exact quadrature for 1D densities and curves, Monte Carlo otherwise.
    """
    p = check_order(p)
    if math.isinf(p):
        raise ValueError("lloyd handles finite p only")
    if N < 1:
        raise ValueError("N must be >= 1")
    cfg = cfg or SolverConfig()
    n_work = cfg.working_sample or int(1e5 * max(1.0, m.ambient_dim / 2.0))
    # the one layout of the working sample: coordinate columns, (d, n)
    cols = np.ascontiguousarray(sample(m, n_work, derive_seed(seed, "work")).points.T)

    best = None
    for rs in range(cfg.restarts):
        rng = np.random.default_rng(derive_seed(seed, "restart", rs))
        S = _seed_pp(cols, np.full(cols.shape[1], 1.0), N, rng)
        S, v_hist, converged, requeried = _lloyd_restart(cols, S, p, cfg)
        key = (v_hist[-1], tuple(np.sort(S.ravel())))
        if best is None or key < best[0]:
            best = (key, S, v_hist, converged, requeried)

    _, S, v_hist, converged, requeried = best
    order = np.lexsort(S.T[::-1])
    S = S[order]
    err = error_eval(m, S, p, n_mc=cfg.eval_samples, seed=derive_seed(seed, "eval"))
    prov = Provenance("lloyd", seed, len(v_hist), converged,
                      details={"restarts": cfg.restarts, "v_history": v_hist,
                               "requeried": requeried, "working_sample": n_work})
    return Quantizer(S, N, p, err, prov)


# ---------------------------------------------------------------------------
# exact 1D dynamic programming

class _CellOracle:
    """Optimal single-point cost of interval cells [l, r] for one (law, p).

    p in {1, 2} works from cumulative moments and a constant density from
    its closed form, so neither re-integrates the density. Other p find the
    centre by safeguarded Newton on the first-order condition (`_centers`)
    and integrate the cost with `Law1D.cell_integral`, which splits every
    cell at its centre and at the law's breakpoints, so no kink or jump falls
    inside a quadrature piece. That keeps the costs Monge, as the DP's
    monotone layer minimum needs.
    """

    def __init__(self, law: Law1D, p: float):
        self.law = law
        self.p = float(p)
        self.constant = law.constant

    def centers_costs(self, ls, rs, moments_l=None, moments_r=None):
        ls = np.asarray(ls, dtype=float)
        rs = np.asarray(rs, dtype=float)
        if self.constant is not None:
            h = np.maximum(rs - ls, 0.0)
            centers = 0.5 * (ls + rs)
            costs = self.constant * 2.0 * (h / 2.0) ** (self.p + 1) / (self.p + 1)
            return centers, costs
        if self.p in (1.0, 2.0):
            m0l, m1l, m2l = moments_l if moments_l is not None else self.law.moments(ls)
            m0r, m1r, m2r = moments_r if moments_r is not None else self.law.moments(rs)
            mass = m0r - m0l
            safe = np.maximum(mass, 1e-300)
            if self.p == 2.0:
                centers = np.where(mass > 0, (m1r - m1l) / safe, 0.5 * (ls + rs))
                costs = np.maximum((m2r - m2l) - (m1r - m1l) ** 2 / safe, 0.0)
                return centers, np.where(mass > 0, costs, 0.0)
            med = self.law.ppf(0.5 * (m0l + m0r))
            med = np.where(mass > 0, med, 0.5 * (ls + rs))
            m0m, m1m, _ = self.law.moments(med)
            costs = (m1r - m1m) - med * (m0r - m0m) + med * (m0m - m0l) - (m1m - m1l)
            return med, np.maximum(np.where(mass > 0, costs, 0.0), 0.0)
        centers = self._centers(ls, rs)
        return centers, self.law.cell_integral(ls, rs, centers,
                                               lambda y: np.abs(y) ** self.p)

    def _centers(self, ls, rs):
        """Root of F(a) = integral of sign(x-a)|x-a|^(p-1) rho, decreasing in a.

        Safeguarded Newton with F'(a) = -(p-1) * integral of |x-a|^(p-2) rho,
        both from one `Law1D.cell_integral` pass. Each F shrinks a bracket by
        its sign; a Newton step is taken only if it lands strictly inside the
        bracket and is at most half the step before last, else the bracket's
        midpoint. A cell is done when F = 0, when a Newton step is within 4
        ulps, or when no float lies strictly between the midpoint and an end
        of the bracket. The bracket and the first iterate come from the cell
        clipped to its positive-mass hull, so a centre depends only on where
        its cell holds mass; cells without mass keep their midpoint. An F
        that is not finite, which a singular point inside a piece can give,
        raises ValueError rather than stall the bracket.
        """
        q = self.p - 1.0

        def kernel(y):
            m = np.abs(y)
            return np.copysign(m ** q, y), m ** (q - 1.0)

        out = 0.5 * (ls + rs)
        hl, hr, has = self.law.hull(ls, rs)
        idx = np.flatnonzero(has)
        hl, hr = hl[idx], hr[idx]
        lo, hi = hl, hr
        a = 0.5 * (lo + hi)
        d1 = d2 = hi - lo  # the last two steps
        while idx.size:
            with np.errstate(divide="ignore", invalid="ignore"):  # |0|^(p-2), p < 2
                F, dI = self.law.cell_integral(hl, hr, a, kernel)
                step = F / (q * dI)
            if not np.all(np.isfinite(F)):
                raise ValueError("cell integral is not finite: declare the density's "
                                 "singular points as breakpoints")
            lo, hi = np.where(F > 0, a, lo), np.where(F < 0, a, hi)
            usable = np.isfinite(dI) & np.isfinite(step)
            new = a + step
            newton = usable & (lo < new) & (new < hi) & (2.0 * np.abs(step) <= np.abs(d2))
            mid = 0.5 * (lo + hi)
            nxt = np.where(newton, new, mid)
            small = usable & (np.abs(step) <= 4.0 * np.spacing(a))
            tight = ~((np.nextafter(lo, hi) < mid) & (mid < np.nextafter(hi, lo)))
            done = (F == 0) | small | tight
            out[idx[done]] = np.where(F == 0, a, np.where(small, np.clip(new, lo, hi),
                                                          nxt))[done]
            d2, d1 = d1, nxt - a
            keep = ~done
            idx, hl, hr, lo, hi, a, d1, d2 = (v[keep] for v in
                                              (idx, hl, hr, lo, hi, nxt, d1, d2))
        return out


def _layer_min(D, cost, k):
    """One DP layer: E[j] = min over i of cost(i, j) + D[i], with its argmin.

    Rows j < k cannot hold k cells and stay at inf (argmin 0). The lowest
    argmin is nondecreasing in j, so rows are solved by divide and conquer:
    each recursion level takes the middle row of every open row range, scans
    only the candidates between the argmins of the rows bounding it, and
    splits the range there. A level is vectorised across all its ranges, so a
    layer costs O(G log G) cell costs and O(G) memory. Ties go to the lowest
    candidate, as with np.argmin.
    """
    G = D.size - 1
    E = np.full(G + 1, np.inf)
    arg = np.zeros(G + 1, dtype=np.int32)
    # open row ranges [jlo, jhi] with candidate ranges [ilo, ihi]
    jlo, jhi = np.array([k]), np.array([G])
    ilo, ihi = np.array([k - 1]), np.array([G - 1])
    while jlo.size:
        mid = (jlo + jhi) // 2
        n = np.minimum(ihi, mid - 1) - ilo + 1
        starts = np.cumsum(n) - n
        i = np.arange(starts[-1] + n[-1]) - np.repeat(starts - ilo, n)
        v = cost(i, np.repeat(mid, n)) + D[i]
        best = np.minimum.reduceat(v, starts)
        hits = np.flatnonzero(v == np.repeat(best, n))
        opt = i[hits[np.searchsorted(hits, starts)]]
        E[mid] = best
        arg[mid] = opt
        left, right = jlo < mid, mid < jhi
        jlo, jhi, ilo, ihi = (np.concatenate([jlo[left], mid[right] + 1]),
                              np.concatenate([mid[left] - 1, jhi[right]]),
                              np.concatenate([ilo[left], opt[right]]),
                              np.concatenate([opt[left], ihi[right]]))
    return E, arg


class Dp1dSolver:
    """Globally optimal 1D quantizers on a boundary grid, for all N at once.

    Cell boundaries are restricted to a uniform grid of G cells, and a
    layered DP finds optimal boundaries for every budget up to n_max. Per-cell
    optimal costs are closed-form (constant density, p in {1,2}) or
    integrated piecewise by `Law1D.cell_integral` around a centre found by
    safeguarded Newton (other p, `_CellOracle._centers`), and come on demand.
    Every layer is a monotone row minimum solved by divide and conquer in
    O(G log G) cell costs; the solver keeps the (n_max, G) backpointers. A
    cost that is not closed-form (p = 1 or general p on a non-constant law)
    is priced once per build: the build holds a memo of 8 (G+1)^2 bytes and
    drops it when it returns. `solve` refines the grid solution to the
    continuum stationary point by a safeguarded Newton loop, whose Newton
    steps are kept only when they do not raise the cost.
    """

    _TOL = 1e-13  # refinement stops at a stationarity residual below _TOL * span

    def __init__(self, m: Measure, p, n_max: int, grid_size: int | None = None):
        p = check_order(p)
        if math.isinf(p):
            raise ValueError("dp solver handles finite p only")
        if m.kind != "density1d" or m.law is None:
            raise ValueError("dp solver needs a density1d measure with an exact law")
        law = m.law
        general = law.constant is None and p not in (1.0, 2.0)
        if grid_size is None:
            grid_size = int(np.clip(8 * n_max, 64 if general else 1024,
                                    512 if general else 2048))
        if grid_size < 4 * n_max:
            raise ValueError("grid_size must be at least 4N")
        self.measure = m
        self.p = p
        self.n_max = int(n_max)
        self.grid = np.linspace(law.lo, law.hi, grid_size + 1)
        # a node an ulp off a breakpoint leaves a sliver cell whose quadrature
        # reads the density's value across the jump, breaking cost ties
        for x in law.breakpoints[1:-1]:
            self.grid[np.abs(self.grid - x) <= 4 * np.spacing(abs(x))] = x
        self.oracle = _CellOracle(law, p)

        G = grid_size
        cost = self._costs()
        # D[j] = optimal cost of covering [grid[0], grid[j]] with k cells
        D = np.full(G + 1, np.inf)
        D[1:] = cost(np.zeros(G, dtype=int), np.arange(1, G + 1))
        back = np.zeros((self.n_max + 1, G + 1), dtype=np.int32)
        self._grid_V = {1: float(D[G])}
        for k in range(2, self.n_max + 1):
            D, back[k] = _layer_min(D, cost, k)
            self._grid_V[k] = float(D[G])
        self._back = back

    def _costs(self):
        """cost(i, j): optimal cost of the cells [grid[i], grid[j]], i < j.

        The constant-density closed form and p = 2 from the nodal moments are
        recomputed on every call: that is cheaper than a lookup, and p = 2's
        2048-cell default grid would need a 33.6 MB memo. Every other cost is
        priced once: a memo of 8 (G+1)^2 bytes, indexed by grid indices and
        NaN until priced, lives as long as the returned function, i.e. for the
        build. Later layers ask mostly for cells earlier ones priced, and a
        cost depends only on its own cell, so the memo changes no bit.
        """
        grid, oracle = self.grid, self.oracle
        if oracle.constant is not None or self.p not in (1.0, 2.0):
            price = lambda i, j: oracle.centers_costs(grid[i], grid[j])[1]
        else:
            nodal = oracle.law.moments(grid)  # one pass; cells index into it
            price = lambda i, j: oracle.centers_costs(
                grid[i], grid[j], moments_l=nodal.take(i, 1), moments_r=nodal.take(j, 1))[1]
        if oracle.constant is not None or self.p == 2.0:
            return price
        memo = np.full((grid.size, grid.size), np.nan)

        def cost(i, j):
            c = memo[i, j]
            new = np.flatnonzero(np.isnan(c))
            if new.size:
                i, j = i[new], j[new]
                c[new] = memo[i, j] = price(i, j)
            return c
        return cost

    def grid_boundaries(self, N: int) -> np.ndarray:
        """Interior cell boundaries of the grid-optimal N-cell solution."""
        if not 1 <= N <= self.n_max:
            raise ValueError("N out of range for this solver")
        G = len(self.grid) - 1
        idx = []
        j = G
        for k in range(N, 1, -1):
            j = int(self._back[k][j])
            idx.append(j)
        return self.grid[np.array(idx[::-1], dtype=int)]

    def grid_value(self, N: int) -> float:
        return self._grid_V[N]

    def _refine(self, b):
        """Polish grid boundaries b to the continuum stationarity system.

        Safeguarded Newton on F(b) = b - (c_left + c_right) / 2, where c are
        the exact cell centres. A centre depends on its own cell's edges only,
        so two more oracle passes, one moving every left edge in by eps and
        one every right edge, difference all slopes of the tridiagonal
        Jacobian at once. A Newton step is kept only if the edges stay ordered
        and the cost does not rise; a step of at most eps skips the cost test,
        which cannot resolve descent at that scale. Otherwise the midpoint map
        b - F, a descent step, is taken: Newton alone from the grid optimum
        can jump to another stationary point. Returns the centres, the cost,
        the steps taken (each a Newton step or its midpoint fallback) and the
        residual max|F| relative to the support.
        """
        lo, hi = self.grid[0], self.grid[-1]
        span = hi - lo
        eps = 1e-7 * span
        cells = self.oracle.centers_costs

        def state(b):
            edges = np.concatenate([[lo], b, [hi]])
            c, costs = cells(edges[:-1], edges[1:])
            return edges, c, b - 0.5 * (c[:-1] + c[1:]), float(np.sum(costs))

        edges, c, F, V = state(b)
        steps = 0
        while np.max(np.abs(F), initial=0.0) >= self._TOL * span and steps < 64:
            steps += 1
            dl = (cells(edges[:-1] + eps, edges[1:])[0] - c) / eps
            dr = (c - cells(edges[:-1], edges[1:] - eps)[0]) / eps
            # b_j is the right edge of cell j and the left edge of cell j+1;
            # rows: super-, main and sub-diagonal of dF/db in banded form
            J = np.array([np.r_[0.0, -0.5 * dr[1:-1]], 1.0 - 0.5 * (dr[:-1] + dl[1:]),
                          np.r_[-0.5 * dl[1:-1], 0.0]])
            try:
                nb = b - solve_banded((1, 1), J, F)
            except np.linalg.LinAlgError:  # singular: the midpoint step
                nb = b - F
            new = state(nb)
            if not (np.all(np.diff(new[0]) > 0)
                    and (np.max(np.abs(nb - b)) <= eps or new[3] <= V)):
                nb = b - F
                new = state(nb)
            b, (edges, c, F, V) = nb, new
        return c, V, steps, float(np.max(np.abs(F), initial=0.0) / span)

    def solve(self, N: int) -> Quantizer:
        centers, V, steps, residual = self._refine(self.grid_boundaries(N))
        err = ErrorEstimate(V ** (1.0 / self.p), 0.0, 0, "exact1d")
        prov = Provenance("dp1d", None, steps, residual < self._TOL,
                          details={"grid_size": len(self.grid) - 1,
                                   "grid_value": self.grid_value(N),
                                   "residual": residual})
        return Quantizer(np.sort(centers).reshape(-1, 1), N, self.p, err, prov)


def auto_solver(m: Measure, p) -> str:
    """The automatic pipeline: exact "dp" for a density1d at finite p, else "lloyd"."""
    return "dp" if m.kind == "density1d" and not math.isinf(p) else "lloyd"


def dp_optimal_1d(m: Measure, N: int, p, grid_size: int | None = None) -> Quantizer:
    """Exact (grid + refinement) optimal 1D quantizer for a density measure."""
    if N < 1:
        raise ValueError("N must be >= 1")
    return Dp1dSolver(m, p, n_max=N, grid_size=grid_size).solve(N)


# ---------------------------------------------------------------------------
# uniform-interval construction on compact K in [0,1]

def interval_quantizer(K, N: int, p) -> Quantizer:
    """Quantizer from the uniform interval partition of [0,1] restricted to K.

    K is a finite union of closed intervals. Each of the N equal subintervals
    I with positive-length overlap with K contributes the point of K cap I
    minimizing the p-th moment of the whole subinterval I; subintervals
    meeting K in measure zero are dropped, so the returned set may have fewer
    than N points.
    """
    p = check_order(p)
    if math.isinf(p):
        raise ValueError("interval_quantizer handles finite p only")
    comps = sorted((float(a), float(b)) for a, b in K if b > a)
    if not comps or sum(b - a for a, b in comps) <= 0:
        raise ValueError("K has zero length")
    for a, b in comps:
        if a < -1e-12 or b > 1 + 1e-12:
            raise ValueError("K must lie in [0, 1]")

    pts = []
    for k in range(N):
        lo, hi = k / N, (k + 1) / N
        mid = 0.5 * (lo + hi)
        best = None
        for a, b in comps:
            u, v = max(a, lo), min(b, hi)
            if v - u <= 1e-15:
                continue
            cand = min(max(mid, u), v)  # moment is strictly convex: projected min
            val = ((hi - cand) ** (p + 1) + (cand - lo) ** (p + 1)) / (p + 1)
            if best is None or val < best[0] - 1e-18:
                best = (val, cand)
        if best is not None:
            pts.append(best[1])

    pts = np.array(sorted(pts))
    nu = piecewise_uniform(comps, normalize=False)
    err = error_exact_1d(nu, pts, p)
    prov = Provenance("interval-construction", None, 0, True,
                      details={"n_points": len(pts), "budget": N})
    return Quantizer(pts.reshape(-1, 1), N, p, err, prov)


# ---------------------------------------------------------------------------
# covers

def farthest_point_cover(A: PointCloud, N: int, seed=0) -> Quantizer:
    """Greedy k-center cover of the cloud; radius within 2x of optimal."""
    if N < 1:
        raise ValueError("N must be >= 1")
    rng = np.random.default_rng(seed)
    first = int(rng.integers(A.n))
    cols = np.ascontiguousarray(A.points.T)
    dist = _dist(cols, cols[:, first])
    centers = np.concatenate([[first], _farthest(cols, dist, min(N, A.n) - 1)])
    pts = A.points[centers]
    radius = float(dist.max())
    err = ErrorEstimate(radius, 0.0, 0, "sup")
    prov = Provenance("farthest-point", seed, len(centers), True,
                      details={"two_approx": True})
    return Quantizer(pts, N, INF, err, prov)


def random_quantizer(nu: Measure, N: int, seed) -> np.ndarray:
    """N i.i.d. draws from nu, used as a (random) quantizer point set."""
    return sample(nu, N, seed).points


# ---------------------------------------------------------------------------
# exact middle-thirds Cantor covers

def cantor_covering_radius(N: int) -> float:
    """Exact e_{N,inf} of the middle-thirds Cantor set: 3^(-floor(log2 N))/2.

    With fewer than 2^(k+1) points some depth-k cylinder holds at most one
    center, and a single ball needs radius half the cylinder width.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    k = int(N).bit_length() - 1
    return 3.0 ** (-k) / 2.0


def cantor_cover(N: int):
    """Optimal cover points (cylinder midpoints) and exact covering radius."""
    if N < 1:
        raise ValueError("N must be >= 1")
    k = int(N).bit_length() - 1
    pts = cantor_cylinders(k) + 3.0 ** (-k) / 2.0
    return pts.reshape(-1, 1), cantor_covering_radius(N)
