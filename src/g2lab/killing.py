"""Condition checkers for the quotient data of a symmetry-reduced 7-metric.

Given a 6-metric with an adapted split, a nowhere-zero function u, a potential
1-form A and the block section b, the checkers evaluate, in an adapted
orthonormal frame at blocks of sample points:

  (a) torsion of the supplied compatible connection against the h-twist,
  (b) dA(X, Y) = 2 u^-1 <gamma X, Y>,
  (c) metricity and torsion-freeness of (connection + h o gamma),

together with the blockwise forms of (b) and their rescaled-metric variants,
all in one pass (`quotient_conditions`).  The paper's second block section B
is 0 in every data set here, and the code fixes it at 0.  Where two
algebraically equivalent expressions exist they are computed through
numerically distinct routes (separate stencil targets, or directional versus
coordinate stencils), so each pair serves as its own oracle.

The block section b is supplied in adapted-frame components; the frame is the
blockwise Cholesky frame of the metric, which fixes the plus/minus
identification positionally.

The oracle pair `rho_torsion_check` checks that the flat connection is
torsion-free on sections.  The anchored connection's twist, a section gamma
of Hom(E, TM), is not sampled: it enters both routes of the torsion as the
same expression and cancels.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .fields import (MM, PM, PP, STACK_BLOCK, Domain, StencilConfig,
                     _at_offsets, _central, _shifts, adapted_frame, blocks,
                     d_one_form, fd_gradient, frame_derivatives, hat, star_jet,
                     sup)
from .modeldata import h6


@dataclass(frozen=True)
class KillingData:
    """Quotient data on a 6-dimensional box.

    Every field takes a point or a block of points.  connection returns the
    Christoffel symbols Gamma[c, a, b] of the supplied compatible connection
    in coordinates.  b_plus is the block section b in adapted-frame
    components.
    """

    metric: Callable[[np.ndarray], np.ndarray]
    u: Callable[[np.ndarray], np.ndarray]
    a_form: Callable[[np.ndarray], np.ndarray]
    b_plus: Callable[[np.ndarray], np.ndarray]
    domain: Domain
    connection: Callable[[np.ndarray], np.ndarray]

    def gamma_info(self, x: np.ndarray, cfg: StencilConfig) -> dict:
        """Frame-component data entering the twist endomorphism at a point or
        a block of points."""
        frame = adapted_frame(np.asarray(self.metric(x), dtype=float))
        u = np.asarray(self.u(x), dtype=float)
        if np.any(u == 0.0):
            raise ValueError(f"u vanishes at {x}")
        # u at x +- h e_a, read once for grad u here and grad u^-2 in
        # _minus_block_routes
        u_shifted = _at_offsets(self.u, x, _shifts(x.shape[-1], cfg.h))
        # frame components of the gradient
        grad_frame = np.vecmat(_central(u_shifted, x, cfg.h), frame)
        return {"frame": frame, "u": u, "u_shifted": u_shifted, "grad_frame": grad_frame,
                "b": np.asarray(self.b_plus(x), dtype=float)}


def gamma_expanded(info: dict) -> np.ndarray:
    """Blockwise twist endomorphism in frame components:
    gamma(X)_+ = b x X_+ - (1/2) u^-1 (grad u)_- x X_+ - (1/2) u^-1 (grad u)_+ x X_-,
    gamma(X)_- = b x X_- - (1/2) u^-1 (grad u)_+ x X_+ + (1/2) u^-1 (grad u)_- x X_-.
    """
    u = info["u"][..., None, None]
    gp, gm = info["grad_frame"][..., :3], info["grad_frame"][..., 3:]
    b = info["b"]
    out = np.zeros(b.shape[:-1] + (6, 6))
    out[..., :3, :3] = hat(b) - 0.5 / u * hat(gm)
    out[..., :3, 3:] = out[..., 3:, :3] = -0.5 / u * hat(gp)
    out[..., 3:, 3:] = hat(b) + 0.5 / u * hat(gm)
    return out


def gamma_unexpanded(info: dict) -> np.ndarray:
    """The same endomorphism assembled as the adjoint-bundle section
    diag(hat(b), hat(b)) minus u^-1 h(grad u), through the exactly certified
    h constants."""
    u = info["u"][..., None, None]
    b = info["b"]
    bcal = np.zeros(b.shape[:-1] + (6, 6))
    bcal[..., :3, :3] = bcal[..., 3:, 3:] = hat(b)
    return bcal - h6(info["grad_frame"]) / u


def gamma_pair_residual(data: KillingData, samples, cfg: StencilConfig) -> float:
    def at(x):
        info = data.gamma_info(x, cfg)
        return {"pair": np.abs(gamma_expanded(info) - gamma_unexpanded(info))}
    return sup(blocks(samples), at)["pair"]


def _minus_block_routes(info: dict, x: np.ndarray, cfg: StencilConfig) -> tuple:
    """alpha = <2b - u^-1 (grad u)_-, .> and the right-hand side of (dA)-- by
    the plain and by the rescaled pairing (see quotient_conditions).  The
    rescaled metric on the minus block is u^2 I, so minus its star of a
    1-form a is the closed form u hat(a)."""
    fr, u = info["frame"], info["u"][..., None]
    gm = info["grad_frame"][..., 3:]
    alpha = 2.0 * info["b"] - gm / u

    rhs_mm_plain = -1.0 / u[..., None] * hat(alpha + 2.0 / u * gm)

    du2 = _central(info["u_shifted"] ** -2, x, cfg.h)
    du2_frame = np.vecmat(du2, fr)[..., 3:]
    rhs_mm_resc = u[..., None] * hat(du2_frame - alpha / u ** 2)
    return alpha, rhs_mm_plain, rhs_mm_resc


def quotient_conditions(data: KillingData, samples, cfg: StencilConfig) -> dict:
    """Residuals of the structure conditions and of the blockwise potential
    equations at the samples, on adapted-frame pairs with honest frame-field
    brackets.  Each block evaluates gamma_info, the frame-field stencil and
    dA once.

    torsion_vs_twist:     (a); the torsion of (connection + h o gamma) is
        T(X, Y) + h(gamma X) Y - h(gamma Y) X, on frame pairs exactly this
        sum, so it is (c)'s torsion too.
    potential_equation:   (b) on every ordered frame pair.
    corrected_metricity:  (c), the frame connection form of
        (connection + h o gamma) is skew.
    plus_plus:   (dA)++ = u^-1 *_+ alpha
    minus_minus: (dA)-- = u^-1 *_- (alpha + 2 u^-1 du)      [plain pairing]
    minus_minus_rescaled: (dA)-- = -*^1_- (d(u^-2) - u^-2 alpha)  [rescaled]
    mixed:       dA(X+, Y-) = -u^-2 det((grad u)+, X+, Y-)
    with alpha = <2b - u^-1 (grad u)_-, .> .  route_agreement is |plain -
    rescaled| of the two minus-block right-hand sides (see route_agreement).
    """
    def frame_field(q: np.ndarray) -> np.ndarray:
        return adapted_frame(np.asarray(data.metric(q), dtype=float))

    def at(x):
        info = data.gamma_info(x, cfg)
        fr = info["frame"]
        e = np.linalg.inv(fr)
        gamma_f = gamma_expanded(info)
        # d_{f_a} f_b and nabla_{f_a} f_b, in coordinates
        d_along, nabla = frame_derivatives(fr, fd_gradient(frame_field, x, cfg),
                                           np.asarray(data.connection(x), dtype=float))

        da_mat = d_one_form(data.a_form, x, cfg)
        u = info["u"]
        h_cols = h6(gamma_f.mT)       # h_cols[..., a, :, :] = h(gamma f_a)

        out = {"torsion_vs_twist": [], "potential_equation": [],
               "corrected_metricity": []}
        # t_frame + hterm is skew in (a, b) bit for bit (each term changes
        # sign exactly under the swap), so the entry of (b, a) repeats that
        # of (a, b) and each unordered pair is taken once.
        for a, b in itertools.combinations(range(6), 2):
            lie_ab = d_along[..., a, :, b] - d_along[..., b, :, a]     # [f_a, f_b]
            t_frame = np.matvec(e, nabla[..., a, b, :] - nabla[..., b, a, :] - lie_ab)
            hterm = h_cols[..., a, :, b] - h_cols[..., b, :, a]
            out["torsion_vs_twist"].append(np.abs(t_frame + hterm))
        del d_along   # the brackets are taken: free the block's frame derivatives
        for a, b in itertools.permutations(range(6), 2):
            da_ab = np.vecdot(np.vecmat(fr[..., :, a], da_mat), fr[..., :, b])
            rhs = 2.0 / u * gamma_f[..., b, a]
            out["potential_equation"].append(np.abs(da_ab - rhs))
        for a in range(6):
            # metricity of (nabla + h o gamma): its frame connection form is skew
            omega = np.matvec(e[..., None, :, :], nabla[..., a, :, :]).mT
            omega = omega + h_cols[..., a, :, :]
            out["corrected_metricity"].append(np.abs(omega + omega.mT))

        alpha, rhs_mm_plain, rhs_mm_resc = _minus_block_routes(info, x, cfg)
        da_f = fr.mT @ da_mat @ fr   # frame components
        u = u[..., None, None]
        rhs_mixed = 2.0 / u * (0.5 / u * hat(info["grad_frame"][..., :3]))
        out.update(plus_plus=np.abs(da_f[PP] + 1.0 / u * hat(alpha)),
                   minus_minus=np.abs(da_f[MM] - rhs_mm_plain),
                   minus_minus_rescaled=np.abs(da_f[MM] - rhs_mm_resc),
                   mixed=np.abs(da_f[PM] - rhs_mixed),
                   route_agreement=np.abs(rhs_mm_plain - rhs_mm_resc))
        return out
    return sup(blocks(samples, STACK_BLOCK), at)


def route_agreement(data: KillingData, samples, cfg: StencilConfig) -> float:
    """sup |plain - rescaled| of the two (dA)-- right-hand sides.  They
    differentiate u and u^-2 through separate stencils, so their agreement is
    a genuine mutual oracle with an O(h^2) discrepancy."""
    def at(x):
        _, plain, resc = _minus_block_routes(data.gamma_info(x, cfg), x, cfg)
        return {"route_agreement": np.abs(plain - resc)}
    return sup(blocks(samples), at)["route_agreement"]


def rho_torsion_check(u: Callable[[np.ndarray], np.ndarray], sections: Sequence,
                      samples, cfg: StencilConfig) -> dict:
    """The flat connection is torsion-free on sections, by two independent
    stencil routes.

    Tangent pairs: |nabla_X Y - nabla_Y X - [X, Y]|, the covariant derivatives
    by directional stencils along the section values, the bracket by
    coordinate stencils.  Axis pairs: |X(u) - X . du| / |u|, the directional
    stencil of u against its coordinate gradient.  Both read the stencil
    truncation alone, so the discrepancy decreases at the stencil order.  The
    anchored twist h(gamma X) Y - h(gamma Y) X enters both routes of a
    tangent pair as the same expression and cancels, so it is not sampled.
    """
    def at(x):
        u_x, du, _ = star_jet(u, x, cfg)
        values, jacobians = zip(*(star_jet(s, x, cfg)[:2] for s in sections))
        # (f(x + h v) - f(x - h v)) / 2h of u and the sections along each section
        # value v: not assembled from coordinate partials, so independent of them
        along = cfg.h * np.stack(values, axis=-2)
        offsets = np.concatenate([along, -along], axis=-2)     # they move with x
        u_along, *sections_along = (_central(_at_offsets(f, x, offsets), x, cfg.h)
                                    for f in (u, *sections))

        out = {"tangent_pairs": [], "axis_pairs": []}
        for si, xv in enumerate(values):
            for sj in range(si + 1, len(sections)):
                yv = values[sj]
                lie = np.vecmat(xv, jacobians[sj]) - np.vecmat(yv, jacobians[si])
                torsion = sections_along[sj][..., si, :] - sections_along[si][..., sj, :] - lie
                out["tangent_pairs"].append(np.abs(torsion))
            xu_dir, xu_coord = u_along[..., si], np.vecdot(xv, du)
            out["axis_pairs"].append(np.abs(xu_dir - xu_coord) / np.abs(u_x))
        return out
    return sup(blocks(samples), at)
