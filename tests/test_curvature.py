import numpy as np

from g2lab.curvature import (christoffel, curvature_operator, ricci, riemann,
                             riemann_lowered, scalar_curvature)
from g2lab.fields import StencilConfig


def flat(p):
    return np.eye(len(p))


def stereographic_sphere(p):
    # round unit 2-sphere in stereographic coordinates
    f = 2.0 / (1.0 + p @ p)
    return f * f * np.eye(2)


def polar_flat(p):
    # flat R^2 in polar coordinates (r, theta): nontrivial Gamma, zero curvature
    return np.diag([1.0, p[0] ** 2])


def test_flat_metric_everything_vanishes():
    cfg = StencilConfig(h=1e-2)
    p = np.array([0.3, -0.2, 0.5])
    assert np.max(np.abs(christoffel(flat, p, cfg))) < 1e-12
    assert np.max(np.abs(riemann(flat, p, cfg))) < 1e-12
    assert np.max(np.abs(ricci(flat, p, cfg))) < 1e-12


def test_sphere_scalar_curvature():
    cfg = StencilConfig(h=1e-3)
    for pt in ([0.2, 0.1], [0.5, -0.4], [0.0, 0.0]):
        s = scalar_curvature(stereographic_sphere, np.array(pt), cfg)
        assert abs(s - 2.0) < 1e-4


def test_polar_flat_has_christoffels_but_no_curvature():
    cfg = StencilConfig(h=1e-3)
    p = np.array([1.3, 0.7])
    gam = christoffel(polar_flat, p, cfg)
    assert abs(gam[0, 1, 1] + p[0]) < 1e-6          # Gamma^r_{tt} = -r
    assert abs(gam[1, 0, 1] - 1.0 / p[0]) < 1e-6    # Gamma^t_{rt} = 1/r
    assert np.max(np.abs(riemann(polar_flat, p, cfg))) < 1e-6


def test_ricci_symmetry_and_operator_skewness():
    rng = np.random.default_rng(3)

    def warped(p):
        g = np.eye(3)
        g[0, 0] = 1.0 + 0.3 * np.sin(p[1])
        g[1, 1] = 1.0 + 0.2 * p[2] ** 2
        g[2, 2] = 1.0 + 0.1 * np.cos(p[0])
        g[0, 1] = g[1, 0] = 0.05 * p[2]
        return g

    cfg = StencilConfig(h=1e-3)
    p = np.array([0.4, 0.2, -0.3])
    ric = ricci(warped, p, cfg)
    assert np.max(np.abs(ric - ric.T)) < 1e-5
    x, y = rng.normal(size=3), rng.normal(size=3)
    op = curvature_operator(warped, p, x, y, cfg)
    g0 = warped(p)
    lowered = g0 @ op
    assert np.max(np.abs(lowered + lowered.T)) < 1e-5


def test_algebraic_bianchi():
    def warped(p):
        g = np.eye(3)
        g[0, 0] = 1.0 + 0.2 * p[1] ** 2
        g[1, 1] = 1.0 + 0.2 * p[2] ** 2
        g[2, 2] = 1.0 + 0.2 * p[0] ** 2
        return g

    cfg = StencilConfig(h=1e-2)
    p = np.array([0.3, 0.4, 0.5])
    r = riemann_lowered(warped, p, cfg)
    cyc = r + np.einsum('acdb->abcd', r) + np.einsum('adbc->abcd', r)
    assert np.max(np.abs(cyc)) < 1e-6
