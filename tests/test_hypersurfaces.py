import numpy as np
import pytest

from g2lab.fields import Domain, StencilConfig, sample_points
from g2lab.hypersurfaces import (Immersion, _j_matrix, _normal, _tangent,
                                 affine_plane, ellipsoid, hypersurface_checks,
                                 unit_sphere)

CFG = StencilConfig(h=1e-3)


def pts_of(imm, n=8, seed=4):
    return sample_points(imm.domain, n, CFG, seed=seed)


def test_plane_is_geodesic_and_parallel():
    imm = affine_plane()
    r = hypersurface_checks(imm, pts_of(imm), CFG)
    assert r["geodesic"] <= 1e-8
    assert r["kahler"] <= 1e-8
    assert r["nearly_kahler"] <= 1e-8


def test_sphere_umbilical_nearly_kahler_not_kahler():
    imm = unit_sphere()
    r = hypersurface_checks(imm, pts_of(imm), CFG)
    assert r["umbilic"] <= 1e-5
    assert r["nearly_kahler"] <= 1e-5
    # measured 0.983 by the h=1e-4 Richardson oracle run
    assert r["kahler"] >= 0.8
    # the shape operator of the unit sphere has norm sqrt(6)
    assert abs(r["geodesic"] - np.sqrt(6.0)) <= 1e-4


def test_ellipsoid_fails_both():
    imm = ellipsoid()
    r = hypersurface_checks(imm, pts_of(imm), CFG)
    assert r["umbilic"] >= 0.01
    assert r["nearly_kahler"] >= 0.01


def test_j_squared_is_minus_identity():
    for imm in (affine_plane(), unit_sphere(), ellipsoid()):
        t = _tangent(imm, CFG, np.array(pts_of(imm, n=3)))
        jmat = _j_matrix(t, _normal(t))
        assert np.max(np.abs(jmat @ jmat + np.eye(6))) <= 1e-8


def test_degenerate_immersion_rejected():
    def chart(y):
        out = np.zeros(7)
        out[0] = y[0]
        out[1] = y[1]
        out[2] = y[2] + y[3]
        out[3] = y[2] + y[3]   # rank drops: directions 2 and 3 collapse
        out[4] = y[4]
        out[5] = y[5]
        return out

    imm = Immersion(chart, Domain(lo=(-0.4,) * 6, hi=(0.4,) * 6))
    with pytest.raises(ValueError):
        hypersurface_checks(imm, pts_of(imm, n=1), CFG)
