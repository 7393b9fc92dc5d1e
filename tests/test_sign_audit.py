"""Orientation audit for the warped-product assembly.

Constant sign flips of coframe legs act by a fixed orthogonal map, so they can
never change the torsion-free residuals; what they can change is (i) whether
the flat build reproduces the model form literally, and (ii) whether sampled
curvature stays inside the model algebra.  The audit pins the conventions:
exactly one of the eight flips matches the model form, the relative
axis/minus-block orientation is forced by the curvature containment, and the
sign of the block star in the pairing hypothesis is forced by convergence.
"""

import dataclasses
import itertools

import numpy as np

from g2lab.fields import StencilConfig, sample_points
from g2lab.g2construct import (MonopoleData, estimate_order, holonomy_residual,
                               model_phi_check, torsionfree_residual,
                               weak_monopole_residual, g2_build_thm1)
from g2lab.gallery import (base_domain6, monopole_potential6, taub_nut_v6,
                           thm1_flat_bundle, thm1_taub_nut_bundle)

# signs of the plus, axis and minus legs: coframe rows 0, 3 and 4
ALL_SIGNS = list(itertools.product((1.0, -1.0), repeat=3))


def flipped(bundle, signs):
    """The bundle with coframe rows 0, 3 and 4 multiplied by `signs`."""
    s = np.ones(7)
    s[[0, 3, 4]] = signs
    return dataclasses.replace(bundle, coframe=lambda p, e=bundle.coframe: s[:, None] * e(p))


def test_exactly_one_flip_matches_the_model_form():
    matches, base = [], thm1_flat_bundle()
    for signs in ALL_SIGNS:
        bundle = flipped(base, signs)
        pts = sample_points(bundle.domain, 4, StencilConfig(h=1e-2), seed=3)
        matches.append(model_phi_check(bundle, pts) == 0.0)
    assert matches.count(True) == 1
    assert matches[0]   # the canonical (+, +, +) choice


def test_curvature_containment_forces_relative_orientation():
    cfg = StencilConfig(h=1e-2)
    small, large, base = [], [], thm1_taub_nut_bundle()
    for signs in ALL_SIGNS:
        bundle = flipped(base, signs)
        pts = sample_points(bundle.domain, 4, cfg, seed=9)
        frac = holonomy_residual(bundle, pts, cfg)["off_g2_fraction"]
        (small if frac < 0.01 else large).append((signs, frac))
    # flips acting trivially on the curved block, or preserving the block's
    # anti-self-dual forms, keep the curvature inside the algebra; the four
    # choices reversing the axis/minus relative orientation are all caught
    assert len(small) == 4
    assert all(axis * minus > 0 for (_, axis, minus), _ in small)
    assert all(frac > 0.5 for _, frac in large)


def test_star_sign_in_pairing_hypothesis_is_forced():
    cfg = StencilConfig(h=1e-3)
    pts6 = sample_points(base_domain6(), 8, cfg, seed=5)
    good = MonopoleData(v=taub_nut_v6, a=monopole_potential6())
    flipped = MonopoleData(v=taub_nut_v6,
                           a=lambda x: -monopole_potential6()(x))
    res_good = weak_monopole_residual(good, pts6, cfg)
    res_flip = weak_monopole_residual(flipped, pts6, cfg)
    assert res_good["minus_minus"] <= 1e-4
    assert res_flip["minus_minus"] >= 0.1

    # the wrong-sign pair builds a metric that is not torsion-free
    bundle = g2_build_thm1(flipped, base_domain6())
    pts7 = sample_points(bundle.domain, 5, StencilConfig(h=2e-2), seed=6)
    h_list = (2e-2, 1e-2, 5e-3)
    vals = [torsionfree_residual(bundle, pts7, StencilConfig(h=h))["sup_dphi"]
            for h in h_list]
    assert vals[-1] >= 0.05
    order = estimate_order(h_list, vals)
    assert -0.2 <= order <= 0.2
