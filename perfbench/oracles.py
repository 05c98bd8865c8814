"""Independent oracles the benchmark checks quantlab's outputs against.

Nothing here imports quantlab: every value is a closed form, an exact
piecewise integral, or a Gauss-Legendre rule that is exact for the
polynomial it integrates.
"""

import math

import numpy as np


def linear_density_cell(l, r, a, p):
    """Closed-form integral of 2x |x - a|^p over [l, r] (density 2x on [0, 1]).

    With u = x - a the integrand is 2 (u + a) |u|^p, whose antiderivative
    from 0 is H(u) = 2|u|^(p+2)/(p+2) + 2a sgn(u) |u|^(p+1)/(p+1).
    """
    l, r, a = (np.asarray(v, dtype=float) for v in (l, r, a))

    def H(u):
        au = np.abs(u)
        return (2.0 * au ** (p + 2) / (p + 2)
                + 2.0 * a * np.sign(u) * au ** (p + 1) / (p + 1))

    return H(r - a) - H(l - a)


def linear_density_error(points, p):
    """V_p = e_p^p of sites on [0, 1] under density 2x, over Voronoi cells."""
    s = np.unique(np.asarray(points, dtype=float).ravel())
    edges = np.concatenate([[0.0], np.clip(0.5 * (s[:-1] + s[1:]), 0.0, 1.0), [1.0]])
    return float(np.sum(linear_density_cell(edges[:-1], edges[1:], s, p)))


def _segment_envelope(A, u, ell, sites):
    """Pieces (t0, t1, j) of [0, ell] on which site j is nearest to A + t u.

    |A + t u - s_j|^2 = t^2 + b_j t + c_j, so the nearest site minimises the
    line b_j t + c_j. Every site is compared at every split point (no tree);
    a line that is lowest at both ends of an interval is lowest on all of it.
    """
    diff = A[None, :] - sites
    b = 2.0 * diff @ u
    c = np.einsum("ij,ij->i", diff, diff)
    pieces = []
    stack = [(0.0, ell)]
    while stack:
        t0, t1 = stack.pop()
        j0 = int(np.argmin(b * t0 + c))
        j1 = int(np.argmin(b * t1 + c))
        if j0 == j1 or b[j0] == b[j1] or t1 - t0 <= 1e-15 * max(ell, 1.0):
            pieces.append((t0, t1, j0))
            continue
        # the lines of j0 and j1 cross strictly inside (t0, t1)
        tx = (c[j1] - c[j0]) / (b[j0] - b[j1])
        tx = min(max(tx, t0), t1)
        low = b * tx + c
        jx = int(np.argmin(low))
        if low[jx] >= low[j0] - 1e-15 * (abs(low[j0]) + 1.0):
            pieces.append((t0, tx, j0))
            pieces.append((tx, t1, j1))
        else:
            stack.append((t0, tx))
            stack.append((tx, t1))
    return pieces, b, c


def curve_error_p2(vertices, sites):
    """e_2 of the arc-length (Hausdorff) measure on a polyline, exactly.

    Each segment is split where its nearest site changes, and the quadratic
    t^2 + b t + c is integrated in closed form on every piece.
    """
    V = np.atleast_2d(np.asarray(vertices, dtype=float))
    S = np.atleast_2d(np.asarray(sites, dtype=float))
    total = 0.0
    for A, B in zip(V[:-1], V[1:]):
        ell = float(np.linalg.norm(B - A))
        if ell == 0.0:
            continue
        u = (B - A) / ell
        pieces, b, c = _segment_envelope(A, u, ell, S)
        for t0, t1, j in pieces:
            total += ((t1 ** 3 - t0 ** 3) / 3.0 + b[j] * (t1 ** 2 - t0 ** 2) / 2.0
                      + c[j] * (t1 - t0))
    return math.sqrt(total)


def quarter_circle_vertices(segments):
    """Vertices of the polyline through equally spaced points of the unit arc."""
    theta = np.linspace(0.0, math.pi / 2, segments + 1)
    return np.column_stack([np.cos(theta), np.sin(theta)])


def _gl(a, b, n):
    x, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (b - a)
    return 0.5 * (b + a) + half * x, half * w


def linear_density_ball(x, r):
    """mu(B_r(x)) for the density 2x on [0, 1]: CDF(y) = y^2."""
    return np.clip(x + r, 0.0, 1.0) ** 2 - np.clip(x - r, 0.0, 1.0) ** 2


def rand_quant_F(x, p, N):
    """F(x) = p N^p int_0^inf (1 - mu(B_r(x)))^N r^(p-1) dr, mu = 2x dx, s = 1.

    The ball mass is quadratic in r between the breakpoints min(x, 1-x) and
    max(x, 1-x) and equals 1 beyond, so for integer p the integrand is a
    polynomial of degree 2N + p - 1 on each piece, which N + p + 1
    Gauss-Legendre nodes integrate exactly.
    """
    nodes = N + int(math.ceil(p)) + 1
    x = float(x)
    cuts = [0.0, min(x, 1.0 - x), max(x, 1.0 - x)]
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        if b <= a:
            continue
        r, w = _gl(a, b, nodes)
        total += float(np.sum(w * (1.0 - linear_density_ball(x, r)) ** N * r ** (p - 1)))
    return p * N ** p * total


def rand_quant_F_integral(p, N):
    """int F dmu for mu = 2x dx on [0, 1].

    F is a polynomial in x on [0, 1/2] and on [1/2, 1] (degree 2N + p), so
    N + p + 2 Gauss-Legendre nodes per half integrate F(x) 2x exactly.
    """
    nodes = N + int(math.ceil(p)) + 2
    total = 0.0
    for a, b in ((0.0, 0.5), (0.5, 1.0)):
        xs, w = _gl(a, b, nodes)
        total += sum(wi * 2.0 * xi * rand_quant_F(xi, p, N)
                     for xi, wi in zip(xs, w))
    return float(total)


def random_quantizer_spread(p, N, n=200000, seed=20250318):
    """Standard deviation of N^p V_p over quantizers of N i.i.d. points of 2x dx.

    Simulated with the closed-form error: points are sqrt(U) for uniform U.
    """
    S = np.sort(np.sqrt(np.random.default_rng(seed).uniform(size=(n, N))), axis=1)
    mids = 0.5 * (S[:, :-1] + S[:, 1:])
    lo = np.concatenate([np.zeros((n, 1)), mids], axis=1)
    hi = np.concatenate([mids, np.ones((n, 1))], axis=1)
    vals = N ** p * linear_density_cell(lo, hi, S, p).sum(axis=1)
    return float(vals.std(ddof=1))
