"""Christoffel symbols, Riemann and Ricci tensors of a metric field, from
finite-difference jets at a query point or a block of points.

Conventions: Gamma^c_{ab} = 1/2 g^{cd} (d_a g_bd + d_b g_ad - d_d g_ab),
R^a_{b cd} = d_c Gamma^a_{db} - d_d Gamma^a_{cb} + Gamma^a_{ce} Gamma^e_{db}
- Gamma^a_{de} Gamma^e_{cb},  Ric_{bd} = R^a_{b ad}.
Every result carries the point axes of the query first, as `fields.fd_gradient`
does: R[..., a, b, c, d].

A metric handed to `metric_jet`, and so to `riemann` and what is built on
it, is a field in the sense of `fields`: on an (m, dim) array of rows it
returns (m, n, n).  The jet reads it through the stencil engine
`fields._at_offsets`, on the star and corners of the coordinates it reads:
19 rows a point for 3 of them, 99 for all 7.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np

from .fields import (Point, StencilConfig, _at_offsets, _on_axes, _shifts,
                     _star_differences, read_axes)


def metric_jet(g: Callable, p: Point, cfg: StencilConfig):
    """(g, dg, ddg, axes): `axes` the coordinates g reads, dg[..., a, :, :] =
    d_a g and ddg[..., i, a, :, :] = d_c d_a g, c = axes[i], both exact zeros
    where a is not read, by the standard second-order 3- and 4-point
    stencils: the star p, p +- h e_c and the corners p +- h e_c +- h e_a of
    the read pairs c < a.  To bound the stack g is called on the star and on
    the corners of each row c but the last.  Each difference is taken term
    for term, so the jet keeps the bits of one call per offset."""
    h, n = cfg.h, p.shape[-1]
    axes = read_axes(g, n)
    g0, dg, diagonal = _star_differences(_at_offsets(g, p, _shifts(n, h, axes, star=True)), p, h)
    ddg = np.zeros(dg.shape[:-3] + (len(axes), n) + dg.shape[-2:])
    ddg[..., range(len(axes)), axes, :, :] = diagonal
    for i in range(len(axes) - 1):
        pp, pm, mp, mm = np.split(_at_offsets(g, p, _corners(n, h, axes, i)), 4, axis=p.ndim - 1)
        ddg[..., i, axes[i + 1:], :, :] = ddg[..., i + 1:, axes[i], :, :] = \
            (pp - pm - mp + mm) / (4 * h**2)
    return g0, _on_axes(dg, p, axes), ddg, axes


@functools.lru_cache(maxsize=256)
def _corners(n: int, h: float, axes: tuple, i: int) -> np.ndarray:
    """The read-only offsets of the corners ++, +-, -+, -- of the pairs
    (axes[i], axes[j > i]), in that order."""
    eye = (h * np.eye(n))[list(axes)]
    out = np.concatenate([sa * eye[i] + sb * eye[i + 1:]
                          for sa, sb in ((1, 1), (1, -1), (-1, 1), (-1, -1))])
    out.flags.writeable = False
    return out


def christoffel(g0: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """Gamma[..., c, a, b] from the metric g0 and dg[..., a, b, d] = d_a g_bd,
    as the first-order star of `fields.star_jet` gives them."""
    return 0.5 * _raise(_inverse(g0), _symmetrized(dg))


def _symmetrized(dg):
    """d_a g_bd + d_b g_ad - d_d g_ab at [..., a, b, d], from dg[..., a, b, d]
    (or a derivative of it along leading axes)."""
    out = dg + dg.swapaxes(-3, -2)
    out -= np.moveaxis(dg, -3, -1)
    return out


def _raise(ginv, s):
    """sum_d ginv[..., c, d] s[..., a, b, d] at [..., c, a, b], as one matmul
    over the flattened (a, b); leading axes broadcast."""
    n = s.shape[-1]
    flat = s.reshape(s.shape[:-3] + (n * n, n)).mT
    out = ginv @ flat
    return out.reshape(out.shape[:-1] + (n, n))


def _inverse(g0):
    if np.any(np.abs(np.linalg.det(g0)) < 1e-14):
        raise ValueError("singular metric")
    return np.linalg.inv(g0)


def riemann(g: Callable, p: Point, cfg: StencilConfig) -> np.ndarray:
    """R^a_{b cd} at p.  Each contraction is one matmul: the symmetrized
    derivatives of g are raised with g^-1 (and with d g^-1 = -g^-1 dg g^-1),
    and Gamma Gamma is one (..., n, n, n) @ (..., 1, n, n^2) product.  With
    Q[a, c, d, b] = d_c Gamma^a_db + Gamma^a_ce Gamma^e_db, R[a, b, c, d] =
    Q[a, c, d, b] - Q[a, d, c, b], with d Gamma formed along the r read
    coordinates only, as (..., r, n, n, n).  Each large operand is dropped
    once read."""
    g0, dg, ddg, axes = metric_jet(g, p, cfg)
    n = g0.shape[-1]
    ginv = _inverse(g0)
    s = _symmetrized(dg)
    gam = 0.5 * _raise(ginv, s)
    dginv = -(ginv[..., None, :, :] @ dg[..., axes, :, :] @ ginv[..., None, :, :])
    del dg
    # dgam[..., i, c, a, b] = d_e Gamma^c_ab, e = axes[i]
    sym = _symmetrized(ddg)
    del ddg
    dgam = _raise(ginv[..., None, :, :], sym)
    del sym
    dgam += _raise(dginv, s[..., None, :, :, :])
    dgam *= 0.5
    # q[..., a, c, d, b] = Gamma^a_ce Gamma^e_db + d_c Gamma^a_db
    q = (gam @ gam.reshape(gam.shape[:-3] + (1, n, n * n))).reshape(gam.shape[:-3] + (n,) * 4)
    for i, c in enumerate(axes):      # in place: a fancy index would copy
        q[..., c, :, :] += dgam[..., i, :, :, :]
    del dgam
    q = np.einsum('...acdb->...abcd', q)
    return q - q.swapaxes(-2, -1)


def ricci(g: Callable, p: Point, cfg: StencilConfig) -> np.ndarray:
    return np.einsum('...abad->...bd', riemann(g, p, cfg))


def riemann_lowered(g: Callable, p: Point, cfg: StencilConfig) -> np.ndarray:
    g0 = np.asarray(g(p), dtype=float)
    return np.einsum('...ae,...ebcd->...abcd', g0, riemann(g, p, cfg))
