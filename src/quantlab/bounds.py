"""Closed-form bounds on quantization coefficients and their empirical checks.

Two theta conventions coexist and are both exposed (mixing them silently is
the main foot-gun):

* raw concentration constants, nu(B_r(x)) compared against theta * r^s,
  feed the concentration and packing bounds below;
* density-normalized constants, nu(B_r(x)) / (omega_s r^s) near theta,
  feed the sandwich constants C1, C2.

`theta_raw_from_density` converts the latter into the former.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad

from .asymptotics import p_prime
from .error import check_order
from .measures import _GL_NODES, _GL_WEIGHTS, Measure, derive_seed, sample
from .spatial import omega


@dataclass(frozen=True)
class BoundReport:
    name: str
    value: float
    side: str  # "lower" | "upper"
    inputs: dict = field(default_factory=dict)
    compared_to: dict | None = None

    def to_json(self) -> dict:
        out = {"name": self.name, "value": self.value, "side": self.side,
               "inputs": dict(self.inputs)}
        if self.compared_to is not None:
            out["compared_to"] = dict(self.compared_to)
        return out


def density_bound_constants(p, s: float):
    """Sandwich constants (C1, C2, p') for density-normalized theta values.

    C1 = 2^(-p') omega_s^(-p/(s+p)) (s/(s+p))^(s/(s+p)) multiplies the lower
    integral, C2 = 2^(p') omega_s^(-p/(s+p)) the upper one.
    """
    p = check_order(p)
    if math.isinf(p):
        raise ValueError("constants defined for finite p")
    if s <= 0:
        raise ValueError("s must be positive")
    pp = p_prime(p, s)
    w = omega(s) ** (-p / (s + p))
    c1 = 2.0 ** (-pp) * w * (s / (s + p)) ** (s / (s + p))
    c2 = 2.0 ** pp * w
    return c1, c2, pp


def theta_raw_from_density(theta_density: float, s: float) -> float:
    """Convert a density-normalized theta into the raw theta*r^s convention."""
    return omega(s) * theta_density


def conc_lower_bound(theta: float, s: float, p, mass: float) -> BoundReport:
    """Lower bound on the lower coefficient from nu(A cap B_r) <= theta r^s."""
    p = check_order(p)
    if math.isinf(p):
        raise ValueError("finite p only")
    if theta <= 0:
        raise ValueError("theta must be positive")
    if mass < 0:
        raise ValueError("mass must be nonnegative")
    pp = p_prime(p, s)
    raw = (s / (s + p)) ** (s / (s + p)) * theta ** (-p / (s + p)) * mass
    return BoundReport("concentration-lower", raw ** (1.0 / pp), "lower",
                       inputs={"theta": theta, "s": s, "p": p, "mass": mass,
                               "p_prime": pp})


def conc_upper_bound(theta: float, s: float, p, mass: float) -> BoundReport:
    """Upper bound on the upper coefficient from nu(B_r(x)) >= theta r^s."""
    p = check_order(p)
    if theta <= 0:
        raise ValueError("theta must be positive")
    if mass < 0:
        raise ValueError("mass must be nonnegative")
    if math.isinf(p):
        value = (2.0 ** s * mass / theta) ** (1.0 / s)
        pp = s
    else:
        pp = p_prime(p, s)
        value = (2.0 ** pp * theta ** (-p / (s + p)) * mass) ** (1.0 / pp)
    return BoundReport("concentration-upper", value, "upper",
                       inputs={"theta": theta, "s": s, "p": p, "mass": mass,
                               "p_prime": pp})


def packing_bound(theta: float, s: float, m: float, content: float) -> BoundReport:
    """Covering-coefficient bound [2^m omega_{s-m} content / theta]^(1/m).

    `content` is the m-dimensional upper Minkowski content of the set under
    the ambient measure; omega_0 := 1 covers the m = s case.
    """
    if theta <= 0:
        raise ValueError("theta must be positive")
    if m > s:
        raise ValueError("content dimension m may not exceed s")
    if m <= 0:
        raise ValueError("m must be positive")
    if content < 0:
        raise ValueError("content must be nonnegative")
    w = 1.0 if m == s else omega(s - m)
    value = (2.0 ** m * w * content / theta) ** (1.0 / m)
    return BoundReport("packing-upper", value, "upper",
                       inputs={"theta": theta, "s": s, "m": m, "content": content})


# ---------------------------------------------------------------------------
# random quantizer bound

def rand_quant_integrand(ball_fn, p, s: float, N: int, breakpoints=()) -> float:
    """F(x) = p N^(p/s) int_0^rmax (1 - nu(B_r(x)))^N r^(p-1) dr.

    `ball_fn` maps an array of radii r (or one float r, for `quad`) to
    nu(B_r(x)); `breakpoints` are the kink radii of r -> nu(B_r(x)), |x - b|
    over a 1D law's breakpoints b (support ends included). The cutoff rmax is
    the first of 1, 2, 4, ..., 2^79 with (1 - nu(B_rmax))^N < 1e-14, which
    bounds the truncated tail by rmax^p * 1e-14; if none is, ValueError.

    [0, rmax] is cut at the breakpoints and at the halvings rmax 2^-k down to
    where N nu(B_r) < 1e-3, which resolve the O(1/N)-wide transition of
    (1 - nu(B_r))^N. Each piece takes the 16-node Gauss-Legendre rule whole
    and as two halves; the halves' sum, on the scale of F, stands unless the
    two differ by more than 1e-13 + 1e-10 |sum|, and then adaptive `quad`
    integrates the piece.
    """
    p = check_order(p)
    if math.isinf(p):
        raise ValueError("finite p only")
    if N < 1:
        raise ValueError("N must be >= 1")

    rs = 2.0 ** np.arange(80)
    dead = np.flatnonzero((1.0 - ball_fn(rs)) ** N < 1e-14)
    if dead.size == 0:
        raise ValueError("heavy tail: no cutoff radius up to 2^79")
    r_max = float(rs[dead[0]])

    halves = r_max * 0.5 ** np.arange(1, 61)
    halves = halves[:np.argmax((N * ball_fn(halves) < 1e-3) | (halves < 1e-18 * r_max)) + 1]
    kinks = np.asarray(breakpoints, dtype=float).ravel()
    cuts = np.unique(np.concatenate([[0.0, r_max], halves,
                                     kinks[(kinks > 0) & (kinks < r_max)]]))
    a, b = cuts[:-1], cuts[1:]
    # each piece whole, then its left and its right half
    lo, hi = np.stack([a, a, 0.5 * (a + b)], 1), np.stack([b, 0.5 * (a + b), b], 1)
    half = 0.5 * (hi - lo)
    f = lambda r: np.maximum(1.0 - ball_fn(r), 0.0) ** N * r ** (p - 1.0)
    scale = p * N ** (p / s)
    nodes = (lo + half)[..., None] + half[..., None] * _GL_NODES
    q = scale * half * (f(nodes) @ _GL_WEIGHTS)
    vals = q[:, 1] + q[:, 2]
    for i in np.flatnonzero(np.abs(vals - q[:, 0]) > 1e-13 + 1e-10 * np.abs(vals)):
        vals[i] = scale * quad(f, a[i], b[i], epsabs=1e-13 / scale, epsrel=1e-10, limit=200)[0]
    return float(vals.sum())


def measure_ball_fn(nu: Measure, x):
    """r -> nu(B_r(x)) over an array of radii, from the measure's exact ball
    function: one `cdf` pass for a 1D law, else the ball function per radius."""
    if nu.ball_measure is None:
        raise ValueError("measure has no exact ball function")
    x = np.asarray(x, dtype=float).ravel()
    if x.size != nu.ambient_dim:
        raise ValueError(f"x has {x.size} coordinates, the measure {nu.ambient_dim}")
    if nu.law is not None:
        return lambda r, _x=x: nu.ball_measure(_x, r)
    return np.vectorize(lambda r, _x=x: nu.ball_measure(_x, float(r)), otypes=[float])


def rand_quant_bound(m: Measure, nu: Measure, p, s: float, N: int,
                     n_mc: int = 128, seed=0, empirical: float | None = None
                     ) -> BoundReport:
    """Monte Carlo estimate of int F_nu,N dmu with a paired empirical check.

    Draws x from mu, evaluates the integrand through nu's exact ball
    function, and reports mean, standard error, and whether the supplied (or
    best-found) empirical N^(p/s) V_N,p sits below the bound.
    """
    p = check_order(p)
    if n_mc < 2:
        raise ValueError("n_mc must be >= 2 for a standard error")
    cloud = sample(m, n_mc, derive_seed(seed, "rand-quant-bound"))
    vals = np.array([rand_quant_integrand(
        measure_ball_fn(nu, x), p, s, N,
        breakpoints=() if nu.law is None else np.abs(x[0] - nu.law.breakpoints))
        for x in cloud.points])
    mean = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(len(vals)))

    if empirical is None:
        from .solvers import SolverConfig, auto_solver, dp_optimal_1d, lloyd
        if auto_solver(m, p) == "dp":
            q = dp_optimal_1d(m, N, p)
        else:
            # Lloyd's sample and error draws: 2048 per point, up to the default
            n = min(2048 * N, SolverConfig.eval_samples)
            q = lloyd(m, N, p, cfg=SolverConfig(working_sample=n, eval_samples=n),
                      seed=derive_seed(seed, "emp"))
        empirical = N ** (p / s) * q.error.value ** p
    ok = empirical <= mean + 3.0 * se
    return BoundReport("random-quantizer", mean, "upper",
                       inputs={"p": p, "s": s, "N": N, "n_mc": n_mc,
                               "std_err": se},
                       compared_to={"empirical": float(empirical),
                                    "passes": bool(ok)})


# ---------------------------------------------------------------------------
# decaying annuli mixture

class RadialMeasure:
    """Locally finite measure seen through its radial structure around x0.

    `ball_mass(r)` is nu(B_r(x0)); `sample_annulus(rng, n, r_in, r_out)`
    draws from the normalized restriction to B_r_out \\ B_r_in.
    """

    def __init__(self, ball_mass, sample_annulus, ambient_dim=1, x0=0.0):
        self.ball_mass = ball_mass
        self.sample_annulus = sample_annulus
        self.ambient_dim = ambient_dim
        self.x0 = np.atleast_1d(np.asarray(x0, dtype=float))


def lebesgue_halfline() -> RadialMeasure:
    """Lebesgue measure on [0, inf) around x0 = 0."""
    return RadialMeasure(
        ball_mass=lambda r: max(float(r), 0.0),
        sample_annulus=lambda rng, n, a, b: rng.uniform(a, b, size=(n, 1)),
        ambient_dim=1, x0=0.0)


@dataclass(frozen=True)
class DecayingMixture:
    """Normalized annuli mixture with the power-law tail guarantee."""

    measure: Measure
    x0: np.ndarray
    alpha: float
    beta: float
    R0: float
    q: float
    weights: np.ndarray
    annuli: tuple  # (r_in, r_out, mass_in, mass_out) per kept annulus
    dropped: tuple

    def tail(self, R: float) -> float:
        """Exact 1 - nu_hat(B_R(x0)), from the mixture's own ball function."""
        return 1.0 - self.measure.ball_measure(self.x0, R)


_TAIL_EPS = 1e-16  # decaying_mixture keeps annuli until q^K falls below this


def decaying_mixture(nu: RadialMeasure, x0, alpha: float, beta: float,
                     R0: float) -> DecayingMixture:
    """Probability mixture of normalized annuli restrictions of nu.

    Annuli A_0 = B_{sqrt(beta) R0} and A_k = B_{beta^((k+1)/2) R0} minus
    B_{beta^((k-1)/2) R0} carry normalized geometric weights
    lambda_k = (1-q) q^k with q = beta^(-alpha/2), which reproduces the tail
    identity sum_{l >= k-1} lambda_l = q^(k-1). So 1 - nu_hat(B_R(x0)) is at
    most (R/R0)^(-alpha) at R = R0 beta^(k/2), k >= 0, and at most
    beta^(alpha/2) (R/R0)^(-alpha) for every R >= R0 (alpha = 2, beta = 4,
    R0 = 1: 0.1171875 > 1/9 at R = 3). Zero-mass annuli are dropped with
    renormalization and flagged.
    """
    if beta <= 1:
        raise ValueError("beta must exceed 1")
    if alpha <= 0 or R0 <= 0:
        raise ValueError("alpha and R0 must be positive")
    q = beta ** (-alpha / 2.0)
    K = max(int(math.ceil(math.log(_TAIL_EPS) / math.log(q))) + 2, 8)

    radii_in = [0.0] + [beta ** ((k - 1) / 2.0) * R0 for k in range(1, K + 1)]
    radii_out = [math.sqrt(beta) * R0] + [beta ** ((k + 1) / 2.0) * R0
                                          for k in range(1, K + 1)]
    lam = np.array([(1.0 - q) * q ** k for k in range(K + 1)])

    masses_in = np.array([nu.ball_mass(r) for r in radii_in])
    masses_out = np.array([nu.ball_mass(r) for r in radii_out])
    ann_mass = masses_out - masses_in
    keep = ann_mass > 0
    dropped = tuple(int(i) for i in np.nonzero(~keep)[0])
    lam_kept = lam[keep] / lam[keep].sum()
    idx_kept = np.nonzero(keep)[0]

    x0v = np.atleast_1d(np.asarray(x0, dtype=float))

    def sampler(rng, n, _nu=nu, _lam=lam_kept, _idx=idx_kept):
        ks = rng.choice(len(_lam), size=n, p=_lam)
        out = np.empty((n, _nu.ambient_dim))
        for pos, k in enumerate(_idx):
            rows = np.nonzero(ks == pos)[0]
            if rows.size:
                out[rows] = _nu.sample_annulus(rng, rows.size,
                                               radii_in[k], radii_out[k])
        return out

    annuli = tuple((radii_in[i], radii_out[i], masses_in[i], masses_out[i])
                   for i in idx_kept)

    def ball(x, r, _x0=x0v):
        if not np.allclose(np.atleast_1d(np.asarray(x, dtype=float)), _x0):
            raise ValueError("mixture ball measure is exact only at its center")
        total = 0.0
        for w, (r_in, r_out, m_in, m_out) in zip(lam_kept, annuli):
            mass = m_out - m_in
            cov = (nu.ball_mass(min(r, r_out)) - m_in) / mass
            cov = min(max(cov, 0.0), 1.0) if r > r_in else 0.0
            total += w * cov
        return total

    measure = Measure(kind="mixture", ambient_dim=nu.ambient_dim,
                      intrinsic_dim=float(nu.ambient_dim), total_mass=1.0,
                      sampler=sampler, ball_measure=ball, label="annuli-mixture")
    return DecayingMixture(measure, x0v, alpha, beta, R0, q, lam_kept, annuli, dropped)


def sandwich_check(estimates, lower: BoundReport, upper: BoundReport,
                   slack: float = 0.0) -> dict:
    """Pass iff lower - slack <= every estimate <= upper + slack.

    `estimates` is a scalar or (lower_est, upper_est) pair; the bounds must
    carry matching (p, s) inputs.
    """
    for key in ("p", "s"):
        if lower.inputs.get(key) != upper.inputs.get(key):
            raise ValueError(f"bound parameter mismatch on '{key}'")
    vals = np.atleast_1d(np.asarray(estimates, dtype=float))
    ok = bool(np.all(vals >= lower.value - slack)
              and np.all(vals <= upper.value + slack))
    return {"passes": ok, "lower": lower.value, "upper": upper.value,
            "estimates": vals.tolist(), "slack": slack}
