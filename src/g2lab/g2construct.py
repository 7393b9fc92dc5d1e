"""The warped-product G2-metric builder and its verifiers.

A bundle is a 7-metric on coordinates (t, x1..x6) together with an adapted
orthonormal coframe ordered into the model slots (plus-block | axis | minus-
block), and the 3-form field assembled from the exactly certified model
constants in that coframe.  Torsion-freeness is read off the coframe's
structure functions (Cartan's first structure equation) and curvature
containment off the metric's Riemann tensor, both by finite differences at
sample points, with convergence orders reported under step halving.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .curvature import riemann
from .fields import (MINUS6, MM, PLUS6, PM, PP, STACK_BLOCK, Domain, StencilConfig,
                     blocks, hat, star_jet, sup, transform_form)
from .modeldata import (cross_tensor, h6, off_g2_fraction, phi_constants,
                        star_phi_constants)
from .rational import combinations_index, sort_with_sign

@dataclass(frozen=True)
class MonopoleData:
    """A pair (v, A) on the 6-dimensional base.  v and A must be basic:
    constant along the plus block and, for A, annihilating it."""

    v: Callable[[np.ndarray], np.ndarray]
    a: Callable[[np.ndarray], np.ndarray]          # 6 components


@dataclass(frozen=True)
class G2MetricBundle:
    """A 7-metric with its coframe; both, and the fields below, take a point
    (7,) or a block of points (k, 7)."""

    metric: Callable[[np.ndarray], np.ndarray]
    coframe: Callable[[np.ndarray], np.ndarray]    # rows = 7 coframe covectors
    domain: Domain

    def phi_field(self, p: np.ndarray) -> np.ndarray:
        return transform_form(phi_constants(), 3, 7, self.coframe(p))

    def orthonormality_residual(self, samples) -> float:
        def at(p):
            e = self.coframe(p)
            return {"orthonormality": np.abs(e.mT @ e - self.metric(p))}
        return sup(blocks(samples), at)["orthonormality"]


def weak_monopole_residual(mono: MonopoleData, samples, cfg: StencilConfig) -> dict:
    """Blockwise monopole residuals on the flat base, (dA)++, (dA)+- and
    (dA)-- + *_- dv, plus basicness (v and A constant along the plus block,
    and A annihilating it).  On an orthonormal 3-block the star of a 1-form
    is -hat.  The flat base's twist alpha is 0, so these are the weak monopole
    equations, and together the monopole equation dA = -*_H dv."""
    def at(x):
        a0, grad_a, _ = star_jet(mono.a, x, cfg)
        _, dv, _ = star_jet(mono.v, x, cfg)
        da = grad_a - grad_a.mT
        return {"plus_plus": np.abs(da[PP]),
                "mixed": np.abs(da[PM]),
                "minus_minus": np.abs(da[MM] - hat(dv[..., MINUS6])),
                "basic_v": np.abs(dv[..., PLUS6]),
                "basic_a": np.maximum(np.max(np.abs(grad_a[..., PLUS6, :]), axis=(-2, -1)),
                                      np.max(np.abs(a0[..., PLUS6]), axis=-1))}
    return sup(blocks(samples), at)


def g2_build_thm1(mono: MonopoleData, domain6: Domain) -> G2MetricBundle:
    """Warped product bundle k_+ + v k_- + v^-1 (dt + A)^2 over the flat
    6-base, k_+ and k_- the identity on each block.

    Both constructions assemble this metric from a pair (v, A) that satisfies
    the weak monopole equations (`weak_monopole_residual`), whose twist is 0
    on the flat base, so that the three blocks together are the monopole
    equation dA = -*_H dv.  The builder only assembles: the
    suites sample the hypothesis on a run's points.  The bundle lives over t
    in [-1, 1]; its metric and coframe take a point or a block of points, as
    must the fields of `mono`.
    """

    def positive_v(x: np.ndarray) -> np.ndarray:
        """v at x, with a trailing axis; raises unless positive at every point."""
        v = np.asarray(mono.v(x), dtype=float)
        if np.any(v <= 0):
            raise ValueError(f"v must be positive, got {np.min(v)}")
        return v[..., None]

    def metric7(p: np.ndarray) -> np.ndarray:
        x = p[..., 1:]
        v = positive_v(x)[..., None]
        w = np.empty(p.shape[:-1] + (7,))
        w[..., 0] = 1.0
        w[..., 1:] = mono.a(x)
        # w w^T / v, then the k_+ and v k_- blocks, in place
        g = np.einsum('...i,...j->...ij', w, w)
        g /= v
        g[..., 1:4, 1:4] += np.eye(3)
        g[..., 4:, 4:] += v * np.eye(3)
        return g

    def coframe(p: np.ndarray) -> np.ndarray:
        x = p[..., 1:]
        v = positive_v(x)
        e = np.zeros(p.shape[:-1] + (7, 7))
        e[..., :3, 1:4] = np.eye(3)
        u = np.power(v, -0.5)
        e[..., 3, :1] = u
        e[..., 3, 1:] = u * np.asarray(mono.a(x), dtype=float)
        e[..., 4:, 4:] = np.sqrt(v)[..., None] * np.eye(3)
        return e

    return G2MetricBundle(metric=metric7, coframe=coframe, domain=domain6.lift_t())


def planted_twist(alpha, samples) -> float:
    """sup |h(S(X))| over the six frame vectors X of the flat base, for the
    twist S(X+, X-) = (a X-, a X+), a = 1/4 hat(alpha).

    The flat base's Levi-Civita form vanishes, so its h-part, the twist the
    base itself carries, is 0, and this is the whole mismatch between that
    twist and the one alpha plants.
    """
    def at(x):
        a = 0.25 * np.cross(np.asarray(alpha(x), float), np.eye(3))   # row j: a e_j
        s = np.zeros((6, 6))      # row X of S(X), X = e_0 .. e_5
        s[:3, 3:], s[3:, :3] = a, a
        return {"planted_twist": np.abs(h6(s))}
    return sup(samples, at)["planted_twist"]


@functools.lru_cache(maxsize=None)
def _structure_table(constants: Callable[[], np.ndarray], k: int) -> np.ndarray:
    """The (7 * 21, C(7, k + 1)) map that takes the structure functions
    C[a, b < c] of a coframe to the frame components of d(sum_I w_I e^I),
    w = constants() over the sorted k-tuples I.  With de^a = sum_{b<c}
    C[a, b, c] e^b ^ e^c,
        d e^I = sum_m (-1)^m e^{I<m} ^ de^{I_m} ^ e^{I>m},
    and each term is read at its sorted (k+1)-tuple with the sign of the sort."""
    combos, _ = combinations_index(7, k)
    pairs, _ = combinations_index(7, 2)
    _, out_index = combinations_index(7, k + 1)
    table = np.zeros((7, len(pairs), len(out_index)))
    for w, word in zip(constants(), combos):
        if w == 0:
            continue
        for m, a in enumerate(word):
            for bc, pair in enumerate(pairs):
                term, sign = sort_with_sign(word[:m] + pair + word[m + 1:])
                if sign:
                    table[a, bc, out_index[term]] += (-1) ** m * sign * w
    return table.reshape(-1, len(out_index))


_PAIRS = np.triu_indices(7, 1)   # (b, c) of the 21 pairs b < c, in sorted order


def torsion_forms(coframe: Callable[[np.ndarray], np.ndarray], p: np.ndarray,
                  cfg: StencilConfig) -> tuple:
    """(d phi, d *phi) in the frame components of a coframe field (rows e^a)
    at a point or a block, from one coframe call on the star p, p +- h e_i.

    Cartan's first structure equation: de^a = sum_{b<c} C[a, b, c] e^b ^ e^c
    with C[a] = F^T (de^a) F, F = E^-1 and (de^a)[i, j] = d_i E_aj - d_j E_ai
    by central differences; d phi and d *phi are then constant linear images
    of the C[a, b < c] (`_structure_table`)."""
    e, de, _ = star_jet(coframe, p, cfg)
    de = np.moveaxis(de, -3, -2)              # de[..., a, i, j] = d_i E_aj
    fr = np.linalg.inv(e)[..., None, :, :]
    c = (fr.mT @ (de - de.mT) @ fr)[..., _PAIRS[0], _PAIRS[1]].reshape(p.shape[:-1] + (-1,))
    # vecmat, not c @ table: a (k, 147) matmul takes another BLAS path than a
    # point's (147,) and moves the last bits of a block's rows
    return (np.vecmat(c, _structure_table(phi_constants, 3)),
            np.vecmat(c, _structure_table(star_phi_constants, 4)))


def torsionfree_residual(bundle: G2MetricBundle, samples, cfg: StencilConfig) -> dict:
    """sup |d phi| and sup |d *phi| in orthonormal-frame components, from the
    coframe's structure functions (`torsion_forms`) on each block."""
    def at(p):
        dphi, dstarphi = torsion_forms(bundle.coframe, p, cfg)
        return {"sup_dphi": np.abs(dphi), "sup_dstarphi": np.abs(dstarphi)}
    return sup(blocks(samples, STACK_BLOCK), at)


def estimate_order(h_list: Sequence[float], residuals: Sequence[float]):
    """Least-squares slope of log residual vs log h; 'exact' when all residuals
    sit at the 1e-13 floor (an identically-zero discrepancy converges at any
    order)."""
    if all(r <= 1e-13 for r in residuals):
        return "exact"
    logs_h = np.log(np.asarray(h_list, dtype=float))
    logs_r = np.log(np.maximum(np.asarray(residuals, dtype=float), 1e-300))
    slope = np.polyfit(logs_h, logs_r, 1)[0]
    return float(slope)


# Points per block of `holonomy_residual`.  A block of 7-dimensional
# `riemann` holds a few (k, 7, 7, 7, 7) arrays: on 200 points at three
# steps the tracemalloc peak was 500 KiB at 8-point blocks, 939 KiB at 16,
# 1,860 KiB at 32 and 3,710 KiB at 64 (NumPy 2.4.6), against at most 1.1 MiB
# for every other blocked verifier at `fields.BLOCK`.
CURVATURE_BLOCK = 16


def holonomy_residual(bundle: G2MetricBundle, samples, cfg: StencilConfig) -> dict:
    """sup fraction of sampled curvature operators outside the model algebra
    (expressed in the adapted coframe) and sup Ricci norm."""
    def at(p):
        r = riemann(bundle.metric, p, cfg)
        ric = np.einsum('...abad->...bd', r)
        e = bundle.coframe(p)
        fr = np.linalg.inv(e)
        ric_f = fr.mT @ ric @ fr
        # R(f_a, f_b) for the 21 pairs a < b, in the coframe, by the path that
        # optimize=True finds at every block size, without its search
        r_f = np.einsum('...ijcd,...ca,...db->...abij', r, fr, fr,
                        optimize=['einsum_path', (0, 1), (0, 1)])
        del r
        a, b = np.triu_indices(7, 1)
        m = e[..., None, :, :] @ r_f[..., a, b, :, :] @ fr[..., None, :, :]
        return {"off_g2_fraction": off_g2_fraction(0.5 * (m - m.mT)),
                "ricci_norm": np.linalg.norm(ric_f, axis=(-2, -1)),
                "curvature_norm": np.linalg.norm(m, axis=(-2, -1))}
    return sup(blocks(samples, CURVATURE_BLOCK), at)


COORD_TO_SLOT = (3, 0, 1, 2, 4, 5, 6)   # bundle coordinates (t, x1..x6) -> model slots


def model_phi_check(bundle: G2MetricBundle, samples) -> float:
    """Deviation of the assembled 3-form from the constant model form (read
    through the coordinate-to-slot identification); zero for the trivial flat
    build."""
    slots = np.array(COORD_TO_SLOT)[np.array(combinations_index(7, 3)[0])]
    target = cross_tensor()[slots[:, 0], slots[:, 1], slots[:, 2]]
    return sup(blocks(samples),
               lambda p: {"phi": np.abs(bundle.phi_field(p) - target)})["phi"]
