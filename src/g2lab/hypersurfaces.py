"""Almost-Hermitian geometry of hypersurfaces in flat 7-space.

The almost complex structure on a nondegenerate hypersurface is J(X) = n x X
with n the unit normal and x the certified 7-dimensional cross product.  The
checks report, from stencils only: the nearly-Kahler defect sup |(nabla_X J) X|,
the full defect sup |nabla J|, and the umbilic/geodesic defects of the shape
operator.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .curvature import christoffel
from .fields import (STACK_BLOCK, Domain, StencilConfig, _at_offsets, _shifts,
                     _star_differences, blocks, fd_gradient, sup)
from .modeldata import cross7


@dataclass(frozen=True)
class Immersion:
    """A parametrized hypersurface patch y -> F(y) in R^7, at a point or a
    block of points."""

    chart: Callable[[np.ndarray], np.ndarray]
    domain: Domain


def affine_plane() -> Immersion:
    """The hyperplane spanned by slots (1, 2, 3, 5, 6, 7): geodesic, so its
    induced structure is parallel."""
    cols = np.zeros((7, 6))
    for j, slot in enumerate((0, 1, 2, 4, 5, 6)):
        cols[slot, j] = 1.0

    def chart(y: np.ndarray) -> np.ndarray:
        return np.matvec(cols, y)

    return Immersion(chart, Domain(lo=(-0.5,) * 6, hi=(0.5,) * 6))


def unit_sphere() -> Immersion:
    """Graph chart of the unit 6-sphere over a patch away from the equator."""
    def chart(y: np.ndarray) -> np.ndarray:
        r2 = np.vecdot(y, y)
        if np.any(r2 >= 1.0):
            raise ValueError("chart leaves the hemisphere")
        return np.concatenate([y, np.sqrt(1.0 - r2)[..., None]], axis=-1)

    return Immersion(chart, Domain(lo=(-0.28,) * 6, hi=(0.28,) * 6))


def ellipsoid() -> Immersion:
    """The sphere chart stretched by 2 along the last slot: neither
    umbilical nor nearly-Kahler."""
    sphere = unit_sphere()

    def chart(y: np.ndarray) -> np.ndarray:
        p = sphere.chart(y)
        p[..., 6] *= 2.0
        return p

    return Immersion(chart, sphere.domain)


def _tangent(imm: Immersion, cfg: StencilConfig, y: np.ndarray) -> np.ndarray:
    """Columns = the coordinate tangent vectors d_a F at y, by stencils."""
    return fd_gradient(imm.chart, y, cfg).mT


def _normal(t: np.ndarray) -> np.ndarray:
    """Unit normal completing the tangent frame `t` (columns) to a positive
    basis of R^7."""
    _, s, vt = np.linalg.svd(t.mT, full_matrices=True)
    if np.any(s[..., -1] < 1e-8):
        raise ValueError("degenerate induced metric")
    n = vt[..., -1, :]
    negative = np.linalg.det(np.concatenate([t, n[..., None]], axis=-1)) < 0
    return np.where(negative[..., None], -n, n)


def _j_matrix(t: np.ndarray, n: np.ndarray) -> np.ndarray:
    """J(X) = n x X in coordinate components of the tangent space spanned by
    the columns of `t`, with `n` its unit normal (`_normal(t)`): n x X is
    tangent, so it solves [t | n] (J; 0) = n x t exactly."""
    basis = np.concatenate([t, n[..., None]], axis=-1)
    return np.linalg.solve(basis, cross7(n[..., None, :], t.mT).mT)[..., :6, :]


def hypersurface_checks(imm: Immersion, samples, cfg: StencilConfig) -> dict:
    """Residual report at the samples; all derivatives by stencils.  The
    tangent frame is evaluated once per block, on the first-order star, and
    the induced metric, J and the second fundamental form are read from it."""
    def at(y):
        ts = _at_offsets(functools.partial(_tangent, imm, cfg), y,
                         _shifts(y.shape[-1], cfg.h, tuple(range(y.shape[-1])), star=True))
        _, ddf, _ = _star_differences(ts, y, cfg.h)
        g, dg, _ = _star_differences(ts.mT @ ts, y, cfg.h)
        if np.any(np.linalg.det(g) < 1e-10):
            raise ValueError("degenerate induced metric")
        normals = _normal(ts)
        n = normals[..., 0, :]
        jmat, dj, _ = _star_differences(_j_matrix(ts, normals), y, cfg.h)
        gam = christoffel(g, dg)
        # (nabla_c J)^a_b
        ndj = dj + np.einsum('...acd,...db->...cab', gam, jmat) \
            - np.einsum('...dcb,...ad->...cab', gam, jmat)

        e6 = np.linalg.cholesky(g).mT     # coframe rows
        f6 = np.linalg.inv(e6)            # frame columns
        # by the path that optimize=True finds at every block size
        ndj_f = np.einsum('...cg,...ae,...ceb,...bf->...gaf', f6, e6, ndj, f6,
                          optimize=['einsum_path', (0, 2), (0, 2), (0, 1)])
        # nearly-Kahler defect: symmetrization over the direction and argument slots
        sym = ndj_f + np.swapaxes(ndj_f, -3, -1)

        # second fundamental form and shape operator
        ii = np.einsum('...k,...ckb->...cb', n, ddf)
        shape_f = e6 @ np.linalg.solve(g, ii) @ f6
        trace = np.trace(shape_f, axis1=-2, axis2=-1)[..., None, None]
        traceless = shape_f - trace / 6.0 * np.eye(6)
        return {"nearly_kahler": np.abs(sym) / 2.0,
                "kahler": np.abs(ndj_f),
                "umbilic": np.linalg.norm(traceless, axis=(-2, -1)),
                "geodesic": np.linalg.norm(shape_f, axis=(-2, -1))}
    return sup(blocks(samples, STACK_BLOCK), at)
