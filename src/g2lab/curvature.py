"""Christoffel symbols, Riemann, Ricci and curvature operators of a metric
field, from finite-difference jets at a query point or a block of points.

Conventions: Gamma^c_{ab} = 1/2 g^{cd} (d_a g_bd + d_b g_ad - d_d g_ab),
R^a_{b cd} = d_c Gamma^a_{db} - d_d Gamma^a_{cb} + Gamma^a_{ce} Gamma^e_{db}
- Gamma^a_{de} Gamma^e_{cb},  Ric_{bd} = R^a_{b ad}.
Every result carries the point axes of the query first, as `fields.fd_gradient`
does: R[..., a, b, c, d].
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .fields import Point, StencilConfig, star_jet


def metric_jet(g: Callable, p: Point, cfg: StencilConfig):
    """(g, dg, ddg) with dg[..., a, :, :] = d_a g and ddg[..., a, b, :, :] =
    d_a d_b g, from the standard second-order 3- and 4-point stencils: the
    first-order star of `fields.star_jet` and the cross stencils."""
    h = cfg.h
    n = p.shape[-1]
    g0, dg, diag = star_jet(g, p, cfg)
    ddg = np.zeros(dg.shape[:-3] + (n,) + dg.shape[-3:])
    idx = np.arange(n)
    ddg[..., idx, idx, :, :] = diag
    for a in range(n):
        for b in range(a + 1, n):
            pa, pb, pc, pd = p.copy(), p.copy(), p.copy(), p.copy()
            pa.T[a] += h; pa.T[b] += h     # .T leads with the coordinate axis
            pb.T[a] += h; pb.T[b] -= h     # at a point and at a block alike
            pc.T[a] -= h; pc.T[b] += h
            pd.T[a] -= h; pd.T[b] -= h
            cross = (np.asarray(g(pa), float) - np.asarray(g(pb), float)
                     - np.asarray(g(pc), float) + np.asarray(g(pd), float)) / (4 * h**2)
            ddg[..., a, b, :, :] = cross
            ddg[..., b, a, :, :] = cross
    return g0, dg, ddg


def christoffel(g: Callable, p: Point, cfg: StencilConfig) -> np.ndarray:
    """Gamma[..., c, a, b] from the first-order star alone."""
    g0, dg, _ = star_jet(g, p, cfg)
    return _christoffel_from_jet(g0, dg)


def _christoffel_from_jet(g0, dg):
    ginv = _inverse(g0)
    return 0.5 * (np.einsum('...cd,...abd->...cab', ginv, dg)
                  + np.einsum('...cd,...bad->...cab', ginv, dg)
                  - np.einsum('...cd,...dab->...cab', ginv, dg))


def _inverse(g0):
    if np.any(np.abs(np.linalg.det(g0)) < 1e-14):
        raise ValueError("singular metric")
    return np.linalg.inv(g0)


def riemann(g: Callable, p: Point, cfg: StencilConfig) -> np.ndarray:
    """R^a_{b cd} at p.  The sums of (..., n, n, n, n) terms accumulate in
    place, in the order of the formula, and each operand is dropped once
    read, so a block holds about three such arrays at a time."""
    g0, dg, ddg = metric_jet(g, p, cfg)
    ginv = _inverse(g0)
    gam = _christoffel_from_jet(g0, dg)
    dginv = -np.einsum('...ab,...ebc,...cd->...ead', ginv, dg, ginv)
    # d_e Gamma^c_ab, its second-derivative part first
    second = np.einsum('...cd,...eabd->...ecab', ginv, ddg)
    second += np.einsum('...cd,...ebad->...ecab', ginv, ddg)
    second -= np.einsum('...cd,...edab->...ecab', ginv, ddg)
    second *= 0.5
    del ddg
    dgam = np.einsum('...ecd,...abd->...ecab', dginv, dg)
    dgam += np.einsum('...ecd,...bad->...ecab', dginv, dg)
    dgam -= np.einsum('...ecd,...dab->...ecab', dginv, dg)
    dgam *= 0.5
    dgam += second
    del second
    r = np.einsum('...cadb->...abcd', dgam) - np.einsum('...dacb->...abcd', dgam)
    del dgam
    r += np.einsum('...ace,...edb->...abcd', gam, gam)
    r -= np.einsum('...ade,...ecb->...abcd', gam, gam)
    return r


def ricci(g: Callable, p: Point, cfg: StencilConfig) -> np.ndarray:
    return np.einsum('...abad->...bd', riemann(g, p, cfg))


def scalar_curvature(g: Callable, p: Point, cfg: StencilConfig):
    g0 = np.asarray(g(p), dtype=float)
    return np.einsum('...bd,...bd->...', _inverse(g0), ricci(g, p, cfg))


def curvature_operator(g: Callable, p: Point, x: np.ndarray, y: np.ndarray,
                       cfg: StencilConfig) -> np.ndarray:
    """The endomorphism R(x, y): v -> R^a_{b cd} x^c y^d v^b; skew w.r.t. g."""
    r = riemann(g, p, cfg)
    return np.einsum('...abcd,...c,...d->...ab', r, x, y)


def riemann_lowered(g: Callable, p: Point, cfg: StencilConfig) -> np.ndarray:
    g0 = np.asarray(g(p), dtype=float)
    return np.einsum('...ae,...ebcd->...abcd', g0, riemann(g, p, cfg))
