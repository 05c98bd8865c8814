"""The benchmark's own oracles against hand computations and scipy quad."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

import oracles


@pytest.mark.parametrize("p", [1.0, 2.0, 2.5, 3.0])
@pytest.mark.parametrize("l,r,a", [(0.0, 0.3, 0.1), (0.2, 0.9, 0.5),
                                   (0.4, 0.6, 0.75), (0.0, 1.0, 0.0),
                                   (0.5, 1.0, 1.0)])
def test_linear_density_cell_matches_quad(l, r, a, p):
    f = lambda x: 2.0 * x * abs(x - a) ** p
    pts = [a] if l < a < r else None
    expect, _ = quad(f, l, r, points=pts, epsabs=1e-14, epsrel=1e-13)
    assert oracles.linear_density_cell(l, r, a, p) == pytest.approx(expect, rel=1e-11, abs=1e-15)


def test_linear_density_error_sums_voronoi_cells():
    s = np.array([0.7, 0.2, 0.45])
    expect = sum(quad(lambda x: 2 * x * min(abs(x - a) for a in s) ** 3, lo, hi,
                      epsabs=1e-14)[0]
                 for lo, hi in [(0, 0.325), (0.325, 0.575), (0.575, 1)])
    assert oracles.linear_density_error(s, 3) == pytest.approx(expect, rel=1e-11)


def test_curve_error_single_site_at_segment_end():
    # int_0^1 t^2 dt = 1/3
    assert oracles.curve_error_p2([[0, 0], [1, 0]], [[0, 0]]) == pytest.approx(
        1 / math.sqrt(3), rel=1e-14)


def test_curve_error_two_sites_and_offset_site():
    seg = [[0, 0], [0.5, 0], [1, 0]]
    # nearest site switches at t = 1/2: 2 int_0^(1/2) t^2 dt = 1/12
    assert oracles.curve_error_p2(seg, [[0, 0], [1, 0]]) == pytest.approx(
        1 / math.sqrt(12), rel=1e-14)
    h = 0.3  # int_0^1 (t - 1/2)^2 + h^2 dt
    assert oracles.curve_error_p2(seg, [[0.5, h]]) == pytest.approx(
        math.sqrt(1 / 12 + h * h), rel=1e-14)


def test_curve_error_matches_dense_sampling():
    verts = oracles.quarter_circle_vertices(16)
    sites = np.array([[1.0, 0.1], [0.6, 0.7], [0.05, 1.1]])
    total = 0.0
    for A, B in zip(verts[:-1], verts[1:]):
        ell = np.linalg.norm(B - A)
        g = lambda t: np.min(np.sum((A + t * (B - A) / ell - sites) ** 2, axis=1))
        total += quad(g, 0, ell, epsabs=1e-14, limit=200)[0]
    assert oracles.curve_error_p2(verts, sites) == pytest.approx(math.sqrt(total), rel=1e-9)


@pytest.mark.parametrize("x", [0.0, 0.2, 0.5, 0.85])
def test_rand_quant_F_matches_quad(x):
    N, p = 6, 3
    f = lambda r: (1 - oracles.linear_density_ball(x, r)) ** N * r ** (p - 1)
    pts = sorted({min(x, 1 - x), max(x, 1 - x)})
    expect = p * N ** p * quad(f, 0, 1, points=pts, epsabs=1e-14, epsrel=1e-13)[0]
    assert oracles.rand_quant_F(x, p, N) == pytest.approx(expect, rel=1e-10)


def test_rand_quant_F_integral_matches_quad():
    N, p = 6, 3
    f = lambda x: oracles.rand_quant_F(x, p, N) * 2 * x
    expect = sum(quad(f, a, b, epsabs=1e-13, epsrel=1e-12)[0] for a, b in ((0, .5), (.5, 1)))
    assert oracles.rand_quant_F_integral(p, N) == pytest.approx(expect, rel=1e-10)
