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
`fields._at_offsets`, in n calls in place of one per stencil offset.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np

from .fields import Point, StencilConfig, _at_offsets, star_jet


def metric_jet(g: Callable, p: Point, cfg: StencilConfig):
    """(g, dg, ddg) with dg[..., a, :, :] = d_a g and ddg[..., a, b, :, :] =
    d_a d_b g, from the standard second-order 3- and 4-point stencils: the
    star p, p +- h e_a of `fields.star_jet` and the cross points
    p +- h e_a +- h e_b.  The metric is called n times, to bound the stack:
    on the star and on the cross points of each row a < n - 1, whose offsets
    are built once per (n, h).  Each difference is taken term for term, so
    the jet keeps the bits of one call per offset."""
    h, n = cfg.h, p.shape[-1]
    g0, dg, diagonal = star_jet(g, p, cfg)
    ddg = np.empty(dg.shape[:-3] + (n,) + dg.shape[-3:])
    ddg[..., np.arange(n), np.arange(n), :, :] = diagonal
    for a in range(n - 1):
        m = n - 1 - a
        at = _at_offsets(g, p, _corners(n, h, a))
        cross = (at[..., :m, :, :] - at[..., m:2 * m, :, :] - at[..., 2 * m:3 * m, :, :]
                 + at[..., 3 * m:, :, :]) / (4 * h**2)
        ddg[..., a, a + 1:, :, :] = cross
        ddg[..., a + 1:, a, :, :] = cross
    return g0, dg, ddg


@functools.lru_cache(maxsize=256)
def _corners(n: int, h: float, a: int) -> np.ndarray:
    """The read-only offsets of the corners ++, +-, -+, -- of the pairs
    (a, b > a), in that order."""
    eye = h * np.eye(n)
    out = np.concatenate([sa * eye[a] + sb * eye[a + 1:]
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
    Q[a, c, d, b] - Q[a, d, c, b].  Each (..., n, n, n, n) operand is dropped
    once read."""
    g0, dg, ddg = metric_jet(g, p, cfg)
    n = g0.shape[-1]
    ginv = _inverse(g0)
    s = _symmetrized(dg)
    gam = 0.5 * _raise(ginv, s)
    dginv = -(ginv[..., None, :, :] @ dg @ ginv[..., None, :, :])
    del dg
    # dgam[..., e, c, a, b] = d_e Gamma^c_ab
    sym = _symmetrized(ddg)
    del ddg
    dgam = _raise(ginv[..., None, :, :], sym)
    del sym
    dgam += _raise(dginv, s[..., None, :, :, :])
    dgam *= 0.5
    # q[..., a, c, d, b] = Gamma^a_ce Gamma^e_db + d_c Gamma^a_db
    q = (gam @ gam.reshape(gam.shape[:-3] + (1, n, n * n))).reshape(dgam.shape)
    q += dgam.swapaxes(-4, -3)
    del dgam
    q = np.einsum('...acdb->...abcd', q)
    return q - q.swapaxes(-2, -1)


def ricci(g: Callable, p: Point, cfg: StencilConfig) -> np.ndarray:
    return np.einsum('...abad->...bd', riemann(g, p, cfg))


def riemann_lowered(g: Callable, p: Point, cfg: StencilConfig) -> np.ndarray:
    g0 = np.asarray(g(p), dtype=float)
    return np.einsum('...ae,...ebcd->...abcd', g0, riemann(g, p, cfg))
