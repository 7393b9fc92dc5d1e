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

from .curvature import christoffel, riemann
from .fields import (MINUS6, MM, PLUS6, PM, PP, STACK_BLOCK, Domain, StencilConfig,
                     _at_offsets, _shifts, _star_differences,
                     adapted_frame, blocks, frame_derivatives,
                     hodge_restricted, star_jet, sup, transform_form)
from .modeldata import (cross_tensor, h6, h_image_basis, off_g2_fraction,
                        phi_constants, star_phi_constants)
from .rational import combinations_index, sort_with_sign

@dataclass(frozen=True)
class MonopoleData:
    """A pair (v, A) on the 6-dimensional base, with the optional twist form
    of the weak case.  v and A must be basic: constant along the plus block
    and, for A, annihilating it."""

    v: Callable[[np.ndarray], np.ndarray]
    a: Callable[[np.ndarray], np.ndarray]          # 6 components
    alpha: Callable[[np.ndarray], np.ndarray] | None = None   # minus-block 1-form, 3 comps

    def alpha_or_zero(self, x: np.ndarray) -> np.ndarray:
        if self.alpha is None:
            return np.zeros(np.shape(x)[:-1] + (3,))
        return np.asarray(self.alpha(x), float)


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


def _chol_coframe(gblock: np.ndarray) -> np.ndarray:
    """Rows = coframe covectors of a positive block metric (Cholesky transpose)."""
    return np.linalg.cholesky(gblock).mT


def weak_monopole_residual(mono: MonopoleData, k6, samples,
                           cfg: StencilConfig) -> dict:
    """Blockwise weak monopole residuals:
    (dA)++ - u^-1 *_+ alpha,  (dA)+-,  (dA)-- + *^1_- (dv - v alpha),
    plus basicness (v and A constant along the plus block, and A annihilating
    it), with u = v^(-1/2) and the base metric playing the role of the
    rescaled pairing.  Without twist the three blocks are those of the
    monopole equation dA = -*_H dv."""
    def at(x):
        g = np.asarray(k6(x), float)
        alpha = mono.alpha_or_zero(x)
        a0, grad_a, _ = star_jet(mono.a, x, cfg)
        v, dv, _ = star_jet(mono.v, x, cfg)
        da = grad_a - grad_a.mT
        v = v[..., None]
        # alpha is carried to the plus block by the positional identification;
        # u^-1 = v^(1/2)
        rhs_pp = np.sqrt(v)[..., None] * hodge_restricted(alpha, g[PP])
        rhs_mm = hodge_restricted(dv[..., MINUS6] - v * alpha, g[MM])
        return {"plus_plus": np.abs(da[PP] - rhs_pp), "mixed": np.abs(da[PM]),
                "minus_minus": np.abs(da[MM] + rhs_mm),
                "basic_v": np.abs(dv[..., PLUS6]),
                "basic_a": np.maximum(np.max(np.abs(grad_a[..., PLUS6, :]), axis=(-2, -1)),
                                      np.max(np.abs(a0[..., PLUS6]), axis=-1))}
    return sup(blocks(samples), at)


def g2_build_thm1(k6: Callable[[np.ndarray], np.ndarray], mono: MonopoleData,
                  domain6: Domain) -> G2MetricBundle:
    """Warped product bundle k_+ + v k_- + v^-1 (dt + A)^2 over a 6-base.

    Both constructions assemble this metric from a pair (v, A) that satisfies
    the weak monopole equations (`weak_monopole_residual`); the first is the
    case without twist (`mono.alpha` None), where the three blocks together
    are the monopole equation dA = -*_H dv.  The builder only assembles: the
    suites sample the hypothesis on a run's points.  The bundle lives over t
    in [-1, 1]; its metric and coframe take a point or a block of points, as
    must `k6` and the fields of `mono`.
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
        k = np.asarray(k6(x), dtype=float)
        w = np.empty(p.shape[:-1] + (7,))
        w[..., 0] = 1.0
        w[..., 1:] = mono.a(x)
        # w w^T / v, then the k_+ and v k_- blocks, in place
        g = np.einsum('...i,...j->...ij', w, w)
        g /= v
        g[..., 1:4, 1:4] += k[PP]
        g[..., 4:, 4:] += v * k[MM]
        return g

    def coframe(p: np.ndarray) -> np.ndarray:
        x = p[..., 1:]
        v = positive_v(x)
        k = np.asarray(k6(x), dtype=float)
        e = np.zeros(p.shape[:-1] + (7, 7))
        e[..., :3, 1:4] = _chol_coframe(k[PP])
        u = np.power(v, -0.5)
        e[..., 3, :1] = u
        e[..., 3, 1:] = u * np.asarray(mono.a(x), dtype=float)
        e[..., 4:, 4:] = np.sqrt(v)[..., None] * _chol_coframe(k[MM])
        return e

    return G2MetricBundle(metric=metric7, coframe=coframe, domain=domain6.lift_t())


def weak_sl3_consistency(k6, alpha, samples, cfg: StencilConfig) -> dict:
    """Decompose the Levi-Civita form of the base in the adapted frame and
    compare its complement part with the twist prescribed by alpha.

    Reports the mismatch between the h-part and h(S) for S(X+, X-)
    = (a X-, a X+), a = 1/4 hat(alpha#), with the sharp taken in the base
    metric.
    """
    def at(x):
        metrics = _at_offsets(k6, x, _shifts(6, cfg.h, star=True))
        g, dg, _ = _star_differences(metrics, x, cfg.h)
        fr, dframe, _ = _star_differences(adapted_frame(metrics), x, cfg.h)
        # connection form in the frame: omega(f_c)[k, b] = <f^k, nabla_{f_c} f_b>
        _, nabla = frame_derivatives(fr, dframe, christoffel(g, dg))
        e = np.linalg.inv(fr)
        sharp = np.linalg.solve(g[MM], np.asarray(alpha(x), float))
        omega = e @ nabla.mT      # the six omega(f_c) at once
        omega = 0.5 * (omega - omega.mT)
        target = h6(_s_alpha(fr.T, e, sharp))
        return {"twist_mismatch": np.abs(_h_component(omega) - target)}
    return sup(samples, at)


def _s_alpha(xvec, e, sharp) -> np.ndarray:
    """S(X) = (a X_-, a X_+) in frame components for each row X of `xvec`, a = 1/4 hat(sharp) x."""
    xf = np.matvec(e, xvec)
    xp, xm = xf[..., :3], xf[..., 3:]
    a_of = lambda w: 0.25 * np.cross(sharp, w)
    return np.concatenate([a_of(xm), a_of(xp)], axis=-1)


def _h_component(omega: np.ndarray) -> np.ndarray:
    """Orthogonal projection of skew 6x6 matrices onto the h-image, as matrices."""
    q = h_image_basis()
    v = omega.reshape(omega.shape[:-2] + (36,))
    return np.matvec(q.T, np.matvec(q, v)).reshape(omega.shape)


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


def flat_product_metric(x: np.ndarray) -> np.ndarray:
    return np.broadcast_to(np.eye(6), np.shape(x)[:-1] + (6, 6))


COORD_TO_SLOT = (3, 0, 1, 2, 4, 5, 6)   # bundle coordinates (t, x1..x6) -> model slots


def model_phi_check(bundle: G2MetricBundle, samples) -> float:
    """Deviation of the assembled 3-form from the constant model form (read
    through the coordinate-to-slot identification); zero for the trivial flat
    build."""
    slots = np.array(COORD_TO_SLOT)[np.array(combinations_index(7, 3)[0])]
    target = cross_tensor()[slots[:, 0], slots[:, 1], slots[:, 2]]
    return sup(blocks(samples),
               lambda p: {"phi": np.abs(bundle.phi_field(p) - target)})["phi"]
