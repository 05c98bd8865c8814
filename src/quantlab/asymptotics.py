"""Asymptotic diagnostics: scaled error sequences N^(1/s) e_N, tail estimates
of the lower/upper quantization coefficients, the 1D Zador constant and
functional, optimal point-budget allocation, and spatial distribution checks.

Finite-budget caveat: DP-backed 1D entries are exact optima, while Lloyd
entries are best-found upper bounds on e_N; tail estimates inherit that bias
and the per-entry provenance records which solver produced each value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .error import INF, ErrorEstimate, check_finite_order, check_order
from .measures import Measure, derive_seed, restrict, sample
from .solvers import (Dp1dSolver, Provenance, Quantizer, SolverConfig, cantor_cover,
                      cantor_covering_radius, farthest_point_cover, lloyd)
from .spatial import _as_points


@dataclass(frozen=True)
class CoeffSeries:
    """(N, e_N, N^(1/s) e_N) rows for one measure, order and dimension."""

    budgets: np.ndarray
    errors: np.ndarray
    p: float
    s: float
    provenance: tuple = ()

    def __post_init__(self):
        N = np.asarray(self.budgets, dtype=float)
        if np.any(np.diff(N) <= 0):
            raise ValueError("budgets must be strictly increasing")
        object.__setattr__(self, "budgets", np.asarray(self.budgets, dtype=int))
        object.__setattr__(self, "errors", np.asarray(self.errors, dtype=float))

    @property
    def scaled(self) -> np.ndarray:
        return self.budgets.astype(float) ** (1.0 / self.s) * self.errors

    @property
    def monotone(self) -> bool:
        return bool(np.all(np.diff(self.errors) <= 1e-12))

    def rows(self):
        return list(zip(self.budgets.tolist(), self.errors.tolist(),
                        self.scaled.tolist()))


def make_series(budgets, errors, p, s, provenance=()) -> CoeffSeries:
    return CoeffSeries(budgets, errors, float(p), float(s), tuple(provenance))


def solver_for(m: Measure, p, solver: str = "auto", n_max: int = 1,
               cfg: SolverConfig | None = None, grid_size: int | None = None):
    """The one solver table: the resolved name and solve(N, seed) -> Quantizer.

    "auto" is "cantor" for an IFS at p = inf, "dp" at finite p for a measure
    with a 1D law and no curve (a density1d), else "lloyd" (with cfg). "dp"
    is one exact `Dp1dSolver` build for every N <= n_max. "cantor" (the
    middle-thirds IFS: exact covers) and "farthest-point" (the greedy cover
    of cfg.sample_size(d) draws, Lloyd's working sample) serve p = inf only.
    Any other case raises ValueError.
    """
    p = check_order(p)
    if solver == "auto":
        solver = ("cantor" if math.isinf(p) and m.kind == "ifs" else
                  "dp" if m.law is not None and m.curve is None and not math.isinf(p)
                  else "lloyd")
    if solver == "dp":
        dp = Dp1dSolver(m, p, n_max=n_max, grid_size=grid_size)
        return solver, lambda N, seed: dp.solve(N)
    if solver == "lloyd":
        return solver, lambda N, seed: lloyd(m, N, p, cfg=cfg, seed=seed)
    if solver not in ("cantor", "farthest-point"):
        raise ValueError(f"unknown solver pipeline '{solver}'")
    if not math.isinf(p) or solver == "cantor" and m.label != "cantor":
        raise ValueError("cantor (the Cantor measure only) and farthest-point serve p = inf only")
    if solver == "cantor":
        return solver, lambda N, seed: Quantizer(
            cantor_cover(N)[0], N, INF, ErrorEstimate(cantor_covering_radius(N), 0.0, 0, "sup"),
            Provenance("cantor-exact", None, 0, True))
    n = (cfg or SolverConfig()).sample_size(m.ambient_dim)
    return solver, lambda N, seed: farthest_point_cover(
        sample(m, n, derive_seed(seed, "fpc-sample")), N, seed=derive_seed(seed, "fpc"))


def coeff_sequence(m: Measure, p, s: float, budgets, solver: str = "auto",
                   seed=0, cfg: SolverConfig | None = None,
                   grid_size: int | None = None) -> CoeffSeries:
    """One scaled-error entry per budget from `solver_for`'s table, which says
    what each solver and "auto" is; each provenance names its solver. A Lloyd
    entry that raises ValueError (a budget above the working sample) is
    recorded as a gap (NaN) with the message in the provenance; any other
    exception propagates.
    """
    p = check_order(p)
    budgets = [int(n) for n in budgets]
    if any(b <= a for a, b in zip(budgets[:-1], budgets[1:])):
        raise ValueError("budgets must be strictly increasing")
    name, solve = solver_for(m, p, solver, max(budgets), cfg, grid_size)
    errors, prov = [], []
    for n in budgets:
        try:
            q = solve(n, derive_seed(seed, "coeff", n))
            errors.append(q.error.value)
            prov.append((q.provenance.solver, n))
        except ValueError as exc:  # per-entry gap flag, for Lloyd only
            if name != "lloyd":
                raise
            errors.append(float("nan"))
            prov.append(("gap", n, str(exc)))
    return make_series(budgets, errors, p, s, prov)


@dataclass(frozen=True)
class CoefficientEstimate:
    lower: float
    upper: float
    fitted: float
    tail_size: int


def estimate_coefficients(series: CoeffSeries, tail_fraction: float = 0.5
                          ) -> CoefficientEstimate:
    """Tail-window min/max of the scaled sequence, plus a 1/N-corrected fit.

    The min/max pair estimates the liminf/limsup; the fit of
    scaled ~ Q (1 + c/N) on the tail is advisory only. The window is at
    least 4 entries wide, so series shorter than 4 entries are rejected.
    """
    n = len(series.budgets)
    k = min(n, max(int(math.ceil(tail_fraction * n)), 4))
    if k < 4:
        raise ValueError("need at least 4 tail entries")
    tail_N = series.budgets[-k:].astype(float)
    tail_v = series.scaled[-k:]
    if np.any(~np.isfinite(tail_v)):
        raise ValueError("tail contains gap entries")
    A = np.column_stack([np.ones(k), 1.0 / tail_N])
    coef, *_ = np.linalg.lstsq(A, tail_v, rcond=None)
    return CoefficientEstimate(float(tail_v.min()), float(tail_v.max()),
                               float(coef[0]), k)


def zador_constant_1d(p) -> float:
    """C_{p,1} = (1 / (2^p (p+1)))^(1/p), the interval quantization constant."""
    p = check_finite_order(p)
    return (1.0 / (2.0 ** p * (p + 1.0))) ** (1.0 / p)


def zador_functional(m: Measure, m_dim: int, p, n_mc: int = 1 << 16, seed=0) -> float:
    """Density functional (integral of rho^(m/(m+p)))^((m+p)/(mp)).

    Declared densities only: a measure with a law (1D and curve measures)
    integrates it exactly, and a measure with a density (boxes and
    restrictions included) uses the Monte Carlo form E_mu[rho^(-p/(d+p))],
    exact to rounding on a constant density. A measure with neither
    contributes zero when its intrinsic dimension is below m_dim (singular
    to H^m: empirical, the Cantor IFS); any other is an error.
    """
    p = check_finite_order(p)
    exponent = m_dim / (m_dim + p)
    outer = (m_dim + p) / (m_dim * p)

    if m.law is not None:
        if m_dim != 1:
            raise ValueError("1D density declared; m_dim must be 1")
        law = m.law
        total = 0.0
        for a, b in zip(law.breakpoints[:-1], law.breakpoints[1:]):
            val, _ = quad(lambda t: float(law.pdf(np.array([t]))[0]) ** exponent,
                          a, b, epsabs=1e-12, epsrel=1e-12, limit=200)
            total += val
        return total ** outer

    if m.density is None:
        if m.intrinsic_dim < m_dim:
            return 0.0
        raise ValueError(f"measure of kind '{m.kind}' has no declared density "
                         f"and is not singular to H^{m_dim}")

    # generic a.c. measure: integral rho^(m/(m+p)) d(ref) = E_mu[rho^(-p/(m+p))]
    if m_dim != m.ambient_dim:
        raise ValueError("Monte Carlo functional needs m_dim = ambient_dim")
    cloud = sample(m, n_mc, derive_seed(seed, "zador-functional"))
    rho = np.asarray(m.density(cloud.points), dtype=float)
    est = m.total_mass * float(np.mean(rho ** (-p / (m_dim + p))))
    return est ** outer


def zador_prediction(m: Measure, m_dim: int, p) -> float:
    """C_{p,1} times the density functional; only m_dim = 1 has a known constant."""
    if m_dim != 1:
        raise ValueError("constant unknown for m_dim != 1")
    return zador_constant_1d(p) * zador_functional(m, 1, p)


@dataclass(frozen=True)
class AllocationResult:
    beta: np.ndarray
    value: float
    p_prime: float
    defined: bool = True


def p_prime(p, s: float) -> float:
    """Exponent with 1/p' = 1/p + 1/s (p' = s at p = inf)."""
    p = check_order(p)
    if s <= 0:
        raise ValueError("s must be positive")
    if math.isinf(p):
        return float(s)
    return s * p / (s + p)


def optimal_allocation(alpha, p, s: float) -> AllocationResult:
    """Minimize the p-sum of beta_i^(-1/s) alpha_i over the probability simplex.

    The unique minimizer is beta_i = alpha_i^p' / sum alpha_j^p', with minimal
    value the p'-sum of the alpha_i; components with alpha_i = 0 get no budget.
    """
    a = np.asarray(alpha, dtype=float).ravel()
    if np.any(a < 0):
        raise ValueError("alpha must be nonnegative")
    pp = p_prime(p, s)
    if np.all(a == 0):
        return AllocationResult(np.full(a.size, np.nan), 0.0, pp, defined=False)
    powed = a ** pp
    beta = powed / powed.sum()
    value = float(powed.sum() ** (1.0 / pp))
    return AllocationResult(beta, value, pp)


def spatial_histogram(points, regions) -> np.ndarray:
    """Fraction of quantizer points in each of a list of disjoint regions."""
    pts = _as_points(points)
    counts = np.zeros(len(regions))
    for x in pts:
        hits = [i for i, reg in enumerate(regions) if bool(reg(x))]
        if len(hits) > 1:
            raise ValueError("regions overlap at point %s" % x)
        if hits:
            counts[hits[0]] += 1
    return counts / pts.shape[0]


@dataclass(frozen=True)
class ProbeRow:
    fraction: float
    mass: float
    q_upper_est: float


def quantizability_probe(m: Measure, p, s: float, mass_fractions,
                         budgets=(16, 23, 32, 45, 64), seed=0,
                         cfg: SolverConfig | None = None) -> list:
    """Upper-coefficient estimates on shrinking tail sub-measures.

    For each fraction, the measure is restricted to the points farthest from
    a base point holding roughly that much mass, and the tail maximum of
    `solver_for`'s Lloyd pipeline estimates the upper coefficient. A
    decreasing column is consistent with (p, s)-quantizability; this
    diagnostic can falsify but never certify it.
    """
    p = check_order(p)
    rows = []
    base_cloud = sample(m, 4096, derive_seed(seed, "probe-base"))
    x0 = base_cloud.points.mean(axis=0)
    c0 = x0.tolist()  # Python floats: math.dist then converts no numpy scalars
    dists = np.linalg.norm(base_cloud.points - x0, axis=1)
    cfg = cfg or SolverConfig(restarts=3, max_iters=80)
    for frac in mass_fractions:
        if not 0 < frac <= 1:
            raise ValueError("fractions must lie in (0, 1]")
        if frac == 1.0:
            sub = m
        else:
            r_cut = float(np.quantile(dists, 1.0 - frac))
            sub = restrict(m, lambda x, _r=r_cut: math.dist(x.tolist(), c0) >= _r)
        _, solve = solver_for(sub, p, "lloyd", cfg=cfg)
        errs = [solve(n, derive_seed(seed, "probe", frac, n)).error.value for n in budgets]
        series = make_series(list(budgets), errs, p, s)
        tail = series.scaled[-max(len(budgets) // 2, 1):]
        rows.append(ProbeRow(float(frac), sub.total_mass, float(tail.max())))
    return rows
