"""Christoffel symbols, Riemann, Ricci and curvature operators of a metric
field, from finite-difference jets at query points.

Conventions: Gamma^c_{ab} = 1/2 g^{cd} (d_a g_bd + d_b g_ad - d_d g_ab),
R^a_{b cd} = d_c Gamma^a_{db} - d_d Gamma^a_{cb} + Gamma^a_{ce} Gamma^e_{db}
- Gamma^a_{de} Gamma^e_{cb},  Ric_{bd} = R^a_{b ad}.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .fields import Point, StencilConfig


def metric_jet(g: Callable, p: Point, cfg: StencilConfig):
    """(g, dg, ddg) with dg[a] = d_a g and ddg[a, b] = d_a d_b g, from the
    standard second-order 3- and 4-point stencils."""
    h = cfg.h
    n = len(p)
    g0 = np.asarray(g(p), dtype=float)
    gp, gm = {}, {}
    for a in range(n):
        pp, pm = p.copy(), p.copy()
        pp[a] += h
        pm[a] -= h
        gp[a] = np.asarray(g(pp), dtype=float)
        gm[a] = np.asarray(g(pm), dtype=float)
    dg = np.array([(gp[a] - gm[a]) / (2 * h) for a in range(n)])
    ddg = np.zeros((n, n) + g0.shape)
    for a in range(n):
        ddg[a, a] = (gp[a] - 2 * g0 + gm[a]) / h**2
        for b in range(a + 1, n):
            pa, pb, pc, pd = p.copy(), p.copy(), p.copy(), p.copy()
            pa[a] += h; pa[b] += h
            pb[a] += h; pb[b] -= h
            pc[a] -= h; pc[b] += h
            pd[a] -= h; pd[b] -= h
            cross = (np.asarray(g(pa), float) - np.asarray(g(pb), float)
                     - np.asarray(g(pc), float) + np.asarray(g(pd), float)) / (4 * h**2)
            ddg[a, b] = cross
            ddg[b, a] = cross
    return g0, dg, ddg


def christoffel(g: Callable, p: Point, cfg: StencilConfig) -> np.ndarray:
    g0, dg, _ = metric_jet(g, p, cfg)
    return _christoffel_from_jet(g0, dg)


def _christoffel_from_jet(g0, dg):
    ginv = _inverse(g0)
    return 0.5 * (np.einsum('cd,abd->cab', ginv, dg)
                  + np.einsum('cd,bad->cab', ginv, dg)
                  - np.einsum('cd,dab->cab', ginv, dg))


def _inverse(g0):
    if abs(np.linalg.det(g0)) < 1e-14:
        raise ValueError("singular metric")
    return np.linalg.inv(g0)


def riemann(g: Callable, p: Point, cfg: StencilConfig) -> np.ndarray:
    """R^a_{b cd} at p."""
    g0, dg, ddg = metric_jet(g, p, cfg)
    ginv = _inverse(g0)
    gam = _christoffel_from_jet(g0, dg)
    dginv = -np.einsum('ab,ebc,cd->ead', ginv, dg, ginv)
    dgam = 0.5 * (np.einsum('ecd,abd->ecab', dginv, dg)
                  + np.einsum('ecd,bad->ecab', dginv, dg)
                  - np.einsum('ecd,dab->ecab', dginv, dg))
    dgam += 0.5 * (np.einsum('cd,eabd->ecab', ginv, ddg)
                   + np.einsum('cd,ebad->ecab', ginv, ddg)
                   - np.einsum('cd,edab->ecab', ginv, ddg))
    return (np.einsum('cadb->abcd', dgam) - np.einsum('dacb->abcd', dgam)
            + np.einsum('ace,edb->abcd', gam, gam)
            - np.einsum('ade,ecb->abcd', gam, gam))


def ricci(g: Callable, p: Point, cfg: StencilConfig) -> np.ndarray:
    return np.einsum('abad->bd', riemann(g, p, cfg))


def scalar_curvature(g: Callable, p: Point, cfg: StencilConfig) -> float:
    g0 = np.asarray(g(p), dtype=float)
    return float(np.einsum('bd,bd->', _inverse(g0), ricci(g, p, cfg)))


def curvature_operator(g: Callable, p: Point, x: np.ndarray, y: np.ndarray,
                       cfg: StencilConfig) -> np.ndarray:
    """The endomorphism R(x, y): v -> R^a_{b cd} x^c y^d v^b; skew w.r.t. g."""
    r = riemann(g, p, cfg)
    return np.einsum('abcd,c,d->ab', r, x, y)


def riemann_lowered(g: Callable, p: Point, cfg: StencilConfig) -> np.ndarray:
    g0 = np.asarray(g(p), dtype=float)
    return np.einsum('ae,ebcd->abcd', g0, riemann(g, p, cfg))
