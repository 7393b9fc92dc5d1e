"""The registered check suites behind the command-line front end.

Each check is a function of the shared context returning its verdict, a
CheckReport.  `SUITES` names the checks: a function listed under two ids is
an alias, and the runner (`cli.main`) runs it once per run and stamps each
line with its id and the run's seed.  Exact certifications carry tolerance
0; finite-difference checks carry the tolerance or order band stated with
them.  Negative controls pass when the expected violation is observed.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction

import numpy as np

from . import embeddings as emb
from . import gallery
from .curvature import ricci, riemann, riemann_lowered
from .fields import Domain, StencilConfig, blocks, sample_points, sup
from .g2construct import (MonopoleData, estimate_order, holonomy_residual,
                          model_phi_check, planted_twist, torsionfree_residual,
                          weak_monopole_residual)
from .gibbons import GHData, gh_build
from .hypersurfaces import (affine_plane, ellipsoid, hypersurface_checks,
                            unit_sphere)
from .killing import (gamma_pair_residual, quotient_conditions, rho_torsion_check,
                      route_agreement)
from .octonions import (NORM_PAIRS, alternativity_certificate, associative_test,
                        calibration_gap, dot, norm_multiplicativity_certificate,
                        standard_cross, standard_octonions, torsion_cross)
from .rational import ExactMatrix, bracket, combination, exact_json, unit
from .reports import (CheckReport, SuiteContext, control_report, shortfall,
                      simple_report)
from .spin8 import clifford_certificate, so8_intersection_report
from .threeform import (dense, invariant_threeform, norm_sq, stabilizer_in_so7,
                        star_phi, wedge_3_4)

ORDER_BAND = (1.8, 2.2)
GH_H_LIST = (2e-2, 1e-2, 5e-3)
ORACLE_H_LIST = (2e-3, 1e-3, 5e-4)
ORACLE_BAND = (1.9, 2.5)


def _points(ctx: SuiteContext, domain: Domain, n: int, cfg: StencilConfig) -> list:
    """The run's draw of `n` (scaled) sample points, padded for `cfg`."""
    return sample_points(domain, ctx.scaled_samples(n), cfg, seed=ctx.seed)


def _order_study(ctx: SuiteContext, check_id: str, domain: Domain, n: int,
                 h_list, measure) -> tuple[dict, dict]:
    """Step-halving order study: `measure(pts, cfg)` -> {series: residual}
    at each step of `h_list`, on one draw of `n` (scaled) points padded for
    the largest step.  Returns ({series: {h: residual}}, {series: estimated
    order}); the h,<series...> table goes to --dump-samples."""
    pts = _points(ctx, domain, n, StencilConfig(h=max(h_list)))
    rows = [measure(pts, StencilConfig(h=h)) for h in h_list]
    names = list(rows[0])
    ctx.record_samples(check_id, ["h", *names],
                       [[h, *(row[s] for s in names)] for h, row in zip(h_list, rows)])
    by_h = {s: {h: row[s] for h, row in zip(h_list, rows)} for s in names}
    return by_h, {s: estimate_order(h_list, list(v.values())) for s, v in by_h.items()}


def _final(by_h: dict) -> dict:
    """Each series of an order study at its finest step."""
    return {s: list(v.values())[-1] for s, v in by_h.items()}


def _over_truncation(by_h: dict, order: dict) -> CheckReport:
    """Richardson test of an order-2 oracle pair's discrepancy series: its
    value at the second step beyond ten times the truncation estimate
    |r1 - r2| / 3 of the first two steps, with its order in `ORACLE_BAND`."""
    vals = by_h["discrepancy"]
    r1, r2 = list(vals.values())[:2]
    trunc_est = abs(r1 - r2) / 3.0 + 1e-13
    return simple_report({"discrepancy_over_truncation": shortfall(r2, 10 * trunc_est)}, 0.0,
                         params={"discrepancy_by_h": vals, "truncation_estimate": trunc_est},
                         order_estimate=order["discrepancy"], order_band=ORACLE_BAND)


def _tag(name: str, extra: dict | None = None) -> dict:
    entry = gallery.GALLERY[name]
    out = {"gallery": name, "builder": entry["builder"],
           "verdict": entry["verdict"]}
    out.update(extra or {})
    return out


# ----------------------------------------------------------------- algebra

def check_algebra_dimension(ctx: SuiteContext) -> CheckReport:
    dim = emb.g2_basis().span.dim
    res = {"dim_defect": float(abs(dim - 14))}
    return simple_report(res, 0.0, params={"dim": dim})


def check_algebra_closure(ctx: SuiteContext) -> CheckReport:
    b = emb.g2_basis()
    i, j = emb.PAIRS
    defect = (bracket(b.elements[i], b.elements[j])
              - combination(b.structure_constants, b.elements))
    return simple_report({"closure": float(defect.max_abs())}, 0.0,
                         params={"pairs": len(b.structure_constants)})


def check_algebra_reductive(ctx: SuiteContext) -> CheckReport:
    ok = emb.reductivity_certificate()
    witness = emb.non_symmetry_witness()
    res = {"reductivity": 0.0 if ok else 1.0,
           "non_symmetry_witness_missing": 0.0 if witness is not None else 1.0}
    return simple_report(res, 0.0,
                         params={"witness_pair": list(witness) if witness else None})


def check_algebra_orthogonality(ctx: SuiteContext) -> CheckReport:
    ok = emb.orthogonality_certificate()
    return simple_report({"trace_pairing": 0.0 if ok else 1.0}, 0.0)


def check_algebra_equivariance(ctx: SuiteContext) -> CheckReport:
    ok = emb.h_equivariance_certificate()
    return simple_report({"equivariance": 0.0 if ok else 1.0}, 0.0)


def check_algebra_scales(ctx: SuiteContext) -> CheckReport:
    s1 = emb.h_scale_certificate()
    s2 = emb.lift_scale_certificate()
    res = {"h_scale_inconsistency": float(s1 is None),
           "lift_scale_inconsistency": float(s2 is None),
           "scales_differ": 0.0 if s1 == s2 else 1.0}
    return simple_report(res, 0.0, params={"scale": None if s1 is None else exact_json(s1)})


def check_algebra_rep_equivalence(ctx: SuiteContext) -> CheckReport:
    res = emb.intertwiner_solve(emb.adjoint_rep_on_m(), emb.canonical_rep6())
    ok = res.equivalent
    return simple_report({"no_invertible_intertwiner": 0.0 if ok else 1.0}, 0.0,
                         params={"solution_space_dim": len(res.kernel)})


def check_algebra_rep_dual(ctx: SuiteContext) -> CheckReport:
    rep = emb.sl3_canonical_rep3()
    res = emb.intertwiner_solve(rep, emb.dual_rep(rep))
    bad = 1.0 if (res.equivalent or len(res.kernel) != 0) else 0.0
    return simple_report({"unexpected_intertwiner": bad}, 0.0,
                         params={"solution_space_dim": len(res.kernel)})


def check_algebra_clifford(ctx: SuiteContext) -> CheckReport:
    return simple_report({"anticommutation": 0.0 if clifford_certificate() else 1.0}, 0.0)


def check_algebra_so8(ctx: SuiteContext) -> CheckReport:
    rep = so8_intersection_report()
    res = {"sum_dim_defect": float(abs(rep.sum_dim - 28)),
           "intersection_dim_defect": float(abs(rep.intersection_dim - 14)),
           "intersection_mismatch": 0.0 if rep.intersection_is_g2 else 1.0}
    return simple_report(res, 0.0,
                         params={"sum_dim": rep.sum_dim,
                                 "intersection_dim": rep.intersection_dim})


# ---------------------------------------------------------------- octonion

def check_octonion_kernel(ctx: SuiteContext) -> CheckReport:
    phi = invariant_threeform()
    res = {"norm_defect": float(abs(norm_sq(phi) - 7))}
    return simple_report(res, 0.0,
                         params={"kernel_dim": 1,
                                 "components": int(np.count_nonzero(phi.num))})


def check_octonion_stabilizer(ctx: SuiteContext) -> CheckReport:
    stab = stabilizer_in_so7(invariant_threeform())
    res = {"dim_defect": float(abs(stab.dim - 14)),
           "span_mismatch": 0.0 if stab == emb.g2_basis().span else 1.0}
    return simple_report(res, 0.0)


def check_octonion_torsion(ctx: SuiteContext) -> CheckReport:
    tc = torsion_cross()
    res = {"ratio_zero": 0.0 if tc.proportionality != 0 else 1.0,
           "complement_dim_defect": float(abs(tc.complement_dim - 7))}
    return simple_report(res, 0.0, params={"ratio": exact_json(tc.proportionality)})


def check_octonion_table(ctx: SuiteContext) -> CheckReport:
    table = standard_octonions()
    res = {"norm_multiplicativity":
           0.0 if norm_multiplicativity_certificate(table, ctx.seed) else 1.0,
           "alternativity":
           0.0 if alternativity_certificate(table, ctx.seed) else 1.0}
    return simple_report(res, 0.0, params={"random_pairs": NORM_PAIRS})


def check_octonion_cross_identities(ctx: SuiteContext) -> CheckReport:
    cross = standard_cross()
    rng = random.Random(ctx.seed)
    # 20 integer pairs, x then y, as two stacks of rows (20, 1, 7)
    xy = ExactMatrix(np.array([rng.randint(-6, 6) for _ in range(280)])
                     .reshape(20, 2, 1, 7), 1)
    x, y = xy[:, 0], xy[:, 1]
    # |x X (x X y) - (-|x|^2 y + <x, y> x)|
    defect = cross(x, cross(x, y)) - (dot(x, y) @ x - dot(x, x) @ y)
    return simple_report({"double_cross": float(defect.max_abs())}, 0.0)


def check_octonion_planes(ctx: SuiteContext) -> CheckReport:
    e = [unit(7, i) for i in range(7)]
    plus_ok = associative_test(e[0], e[1], e[2])
    minus_assoc = associative_test(e[4], e[5], e[6])
    phi = invariant_threeform()
    res = {"plus_block_defect": 0.0 if plus_ok else 1.0,
           "minus_block_form_value": float(abs(dense(phi, 7, 3)[4, 5, 6]))}
    rng = random.Random(ctx.seed)
    x, y, z = (tuple(Fraction(rng.randint(-4, 4)) for _ in range(7)) for _ in range(3))
    v2, det = calibration_gap(x, y, z)
    res["generic_plane_defect"] = 0.0 if v2 < det else 1.0
    closure = associative_test(x, y, standard_cross()(x, y))
    res["closure_plane_defect"] = 0.0 if closure else 1.0
    return simple_report(res, 0.0, params={"minus_block_associative": minus_assoc})


def check_octonion_star(ctx: SuiteContext) -> CheckReport:
    phi = invariant_threeform()
    sp = star_phi(phi)
    res = {"star_norm_defect": float(abs(norm_sq(sp) - 7)),
           "wedge_defect": float(abs(wedge_3_4(phi, sp) - 7))}
    return simple_report(res, 0.0)


# ---------------------------------------------------------------------- gh

def check_gh_flat_trivial(ctx: SuiteContext) -> CheckReport:
    data = GHData(v=lambda x: 1.0, a=lambda x: np.zeros(3),
                  domain=Domain(lo=(-1.0,) * 3, hi=(1.0,) * 3))
    g = gh_build(data)
    cfg = StencilConfig(h=1e-2)
    pts = _points(ctx, data.domain.lift_t(), 20, cfg)
    res = sup(blocks(pts), lambda p: {"riemann": np.abs(riemann(g, p, cfg))})
    return simple_report(res, 1e-12)


def check_gh_flat_quotient(ctx: SuiteContext) -> CheckReport:
    data = gallery.gh_flat_example()
    g = gh_build(data)
    by_h, order = _order_study(
        ctx, "gh.flat-quotient", data.domain.lift_t(), 100, GH_H_LIST,
        lambda pts, cfg: sup(blocks(pts),
                             lambda p: {"sup_riemann": np.abs(riemann(g, p, cfg))}))
    return simple_report({"final_riemann": _final(by_h)["sup_riemann"]}, 5e-3,
                         params=_tag("gh-flat-quotient",
                                     {"residuals_by_h": by_h["sup_riemann"]}),
                         order_estimate=order["sup_riemann"], order_band=ORDER_BAND)


def check_gh_taub_nut(ctx: SuiteContext) -> CheckReport:
    data = gallery.gh_taub_nut_example()
    g = gh_build(data)
    by_h, order = _order_study(
        ctx, "gh.taub-nut", data.domain.lift_t(), 100, GH_H_LIST,
        lambda pts, cfg: sup(blocks(pts),
                             lambda p: {"sup_ricci": np.abs(ricci(g, p, cfg))}))
    cfg = StencilConfig(h=5e-3)
    min_riemann = float(np.min([np.linalg.norm(riemann_lowered(g, p, cfg))
                                for p in gallery.GH_REFERENCE_POINTS]))
    res = {"final_ricci": _final(by_h)["sup_ricci"],
           "riemann_floor_shortfall": shortfall(0.01, min_riemann)}
    return simple_report(res, 5e-3,
                         params=_tag("gh-taub-nut",
                                     {"residuals_by_h": by_h["sup_ricci"],
                                      "min_riemann_norm": min_riemann}),
                         order_estimate=order["sup_ricci"], order_band=ORDER_BAND)


def check_gh_consistency(ctx: SuiteContext) -> CheckReport:
    data = gallery.gh_taub_nut_example()
    cfg = StencilConfig(h=1e-3)
    pts = _points(ctx, data.domain, 100, cfg)
    res = data.consistency_residuals(pts, cfg)
    return simple_report(res, 1e-3)


def check_gh_nonharmonic(ctx: SuiteContext) -> CheckReport:
    data = gallery.gh_nonharmonic_example()
    g = gh_build(data)
    cfg = StencilConfig(h=5e-3)
    pts = _points(ctx, data.domain.lift_t(), 30, cfg)
    measured = sup(blocks(pts), lambda p: {"ricci": np.abs(ricci(g, p, cfg))})
    return control_report(measured, 0.01, params=_tag("gh-nonharmonic"))


# ------------------------------------------------------------------ g2-thm1

def check_thm1_flat(ctx: SuiteContext) -> CheckReport:
    bundle = gallery.thm1_flat_bundle()
    cfg = StencilConfig(h=1e-3)
    pts = _points(ctx, bundle.domain, 20, cfg)
    tf = torsionfree_residual(bundle, pts, cfg)
    res = {"sup_dphi": tf["sup_dphi"], "sup_dstarphi": tf["sup_dstarphi"],
           "model_phi_deviation": model_phi_check(bundle, pts),
           "orthonormality": bundle.orthonormality_residual(pts)}
    return simple_report(res, 1e-10, params=_tag("thm1-flat"))


def check_thm1_torsionfree(ctx: SuiteContext) -> CheckReport:
    bundle = gallery.thm1_taub_nut_bundle()
    by_h, orders = _order_study(ctx, "g2-thm1.torsion-free", bundle.domain, 100,
                                GH_H_LIST, functools.partial(torsionfree_residual, bundle))
    order = min(orders.values()) if "exact" not in orders.values() else "exact"
    return simple_report(_final(by_h), 1e-3,
                         params=_tag("thm1-taub-nut",
                                     {"dphi_by_h": by_h["sup_dphi"],
                                      "dstarphi_by_h": by_h["sup_dstarphi"]}),
                         order_estimate=order, order_band=(1.8, 2.5))


def check_thm1_einstein(ctx: SuiteContext) -> CheckReport:
    bundle = gallery.thm1_taub_nut_bundle()
    by_h, orders = _order_study(ctx, "g2-thm1.curvature", bundle.domain, 50,
                                GH_H_LIST, functools.partial(holonomy_residual, bundle))
    final = _final(by_h)
    order_ric, order_off = orders["ricci_norm"], orders["off_g2_fraction"]
    res = {"final_ricci": final["ricci_norm"],
           "final_off_fraction": final["off_g2_fraction"]}
    ok_orders = all(o == "exact" or o >= 1.8 for o in (order_ric, order_off))
    rep = simple_report(res, 1e-2,
                        params=_tag("thm1-taub-nut",
                                    {"ricci_by_h": by_h["ricci_norm"],
                                     "off_fraction_by_h": by_h["off_g2_fraction"],
                                     "order_off_g2": order_off,
                                     "curvature_norm": final["curvature_norm"]}),
                        order_estimate=order_ric, order_band=(1.8, 2.5))
    if not ok_orders:
        rep.status = "fail"
    return rep


# ------------------------------------------------------------------ g2-thm2

def check_thm2_agrees(ctx: SuiteContext) -> CheckReport:
    """The Taub-NUT bundle's metric, and its coframe through e^T e, against
    k_+ + v k_- + v^-1 (dt + A)^2 assembled here from the gallery's fields,
    by no code of the builder."""
    bundle = gallery.thm1_taub_nut_bundle()
    a6 = gallery.monopole_potential6()

    def at(p):
        x = p[..., 1:]
        v = gallery.taub_nut_v6(x)[..., None, None]
        w = np.concatenate([np.ones(p.shape[:-1] + (1,)), a6(x)], axis=-1)
        g = w[..., :, None] * w[..., None, :] / v
        g[..., 1:4, 1:4] += np.eye(3)
        g[..., 4:, 4:] += v * np.eye(3)
        e = bundle.coframe(p)
        return {"metric": np.abs(bundle.metric(p) - g), "coframe": np.abs(e.mT @ e - g)}

    pts = _points(ctx, bundle.domain, 100, StencilConfig(h=1e-2))
    return simple_report(sup(blocks(pts), at), 1e-12, params=_tag("thm1-taub-nut"))


def check_thm2_weak_monopole(ctx: SuiteContext) -> CheckReport:
    """The monopole hypothesis of both constructions: the weak monopole
    equations of the Taub-NUT pair, without twist, on the run's points."""
    # the h^2 truncation of dA near the string standoff reads up to 1.4e-4 at
    # h = 1e-3 on some seeds; it falls by about 3.8 per halving of h
    cfg = StencilConfig(h=2.5e-4)
    pts = _points(ctx, gallery.base_domain6(), 50, cfg)
    res = weak_monopole_residual(gallery.taub_nut_monopole(), pts, cfg)
    return simple_report(res, 1e-4)


# -------------------------------------------------------------- hypersurface

def check_hyp_plane(ctx: SuiteContext) -> CheckReport:
    imm = affine_plane()
    cfg = StencilConfig(h=1e-3)
    pts = _points(ctx, imm.domain, 15, cfg)
    r = hypersurface_checks(imm, pts, cfg)
    res = {"kahler": r["kahler"], "geodesic": r["geodesic"]}
    return simple_report(res, 1e-8, params=_tag("plane"))


SPHERE_KAHLER_FLOOR = 0.8   # measured 0.983 by the h=1e-4 Richardson oracle run


def check_hyp_sphere(ctx: SuiteContext) -> CheckReport:
    imm = unit_sphere()
    cfg = StencilConfig(h=1e-3)
    pts = _points(ctx, imm.domain, 15, cfg)
    r = hypersurface_checks(imm, pts, cfg)
    res = {"nearly_kahler": r["nearly_kahler"],
           "umbilic": r["umbilic"],
           "kahler_floor_shortfall": shortfall(SPHERE_KAHLER_FLOOR, r["kahler"])}
    return simple_report(res, 1e-5,
                         params=_tag("sphere", {"kahler_defect": r["kahler"],
                                                "kahler_floor": SPHERE_KAHLER_FLOOR}))


def check_hyp_ellipsoid(ctx: SuiteContext) -> CheckReport:
    imm = ellipsoid()
    cfg = StencilConfig(h=1e-3)
    pts = _points(ctx, imm.domain, 10, cfg)
    r = hypersurface_checks(imm, pts, cfg)
    return control_report({"umbilic": r["umbilic"],
                           "nearly_kahler": r["nearly_kahler"]}, 0.01,
                          params=_tag("ellipsoid"))


# -------------------------------------------------------------- oracle pairs

def check_oracle_torsion(ctx: SuiteContext) -> CheckReport:
    u, domain = gallery.rho_polynomial_setup(ctx.seed)
    secs = gallery.polynomial_sections(ctx.seed + 1)

    def measure(pts, cfg):
        r = rho_torsion_check(u, secs, pts, cfg)
        return {"discrepancy": float(np.maximum(r["tangent_pairs"], r["axis_pairs"]))}

    by_h, order = _order_study(ctx, "oracle-pairs.torsion", domain, 200,
                               ORACLE_H_LIST, measure)
    return _over_truncation(by_h, order)


def check_oracle_gamma(ctx: SuiteContext) -> CheckReport:
    data = gallery.killing_taub_nut_data()
    by_h, order = _order_study(
        ctx, "oracle-pairs.twist-assembly", data.domain, 200, ORACLE_H_LIST,
        lambda pts, cfg: {"discrepancy": gamma_pair_residual(data, pts, cfg)})
    return simple_report(_final(by_h), 1e-10,
                         params={"discrepancy_by_h": by_h["discrepancy"]},
                         order_estimate=order["discrepancy"], order_band=ORACLE_BAND)


def check_oracle_potential(ctx: SuiteContext) -> CheckReport:
    data = gallery.killing_taub_nut_data()
    by_h, order = _order_study(
        ctx, "oracle-pairs.potential-routes", data.domain, 200, ORACLE_H_LIST,
        lambda pts, cfg: {"discrepancy": route_agreement(data, pts, cfg)})
    return _over_truncation(by_h, order)


def check_oracle_blocks(ctx: SuiteContext) -> CheckReport:
    """The positive quotient data satisfies every structure condition."""
    data = gallery.killing_taub_nut_data()
    cfg = StencilConfig(h=1e-3)
    pts = _points(ctx, data.domain, 100, cfg)
    return simple_report(quotient_conditions(data, pts, cfg), 1e-4,
                         params=_tag("killing-taub-nut"))


# ---------------------------------------------------------- negative controls

def check_neg_perturbed_potential(ctx: SuiteContext) -> CheckReport:
    data = gallery.killing_perturbed_data(0.2)
    cfg = StencilConfig(h=1e-3)
    pts = _points(ctx, data.domain, 40, cfg)
    res = quotient_conditions(data, pts, cfg)
    return control_report({"potential_equation": res["potential_equation"]}, 0.05,
                          params=_tag("killing-perturbed"))


def check_neg_broken_monopole(ctx: SuiteContext) -> CheckReport:
    """Both symptoms of v off the monopole equation: the hypothesis residual
    (its minus block reads at least eps (v + x4 d4 v) >= eps in closed form)
    and the torsion of the built bundle."""
    bundle, mono = gallery.thm1_broken_monopole_bundle(0.1)
    by_h, order = _order_study(ctx, "negative.broken-monopole", bundle.domain, 10,
                               GH_H_LIST, functools.partial(torsionfree_residual, bundle))
    cfg = StencilConfig(h=1e-3)
    pts = _points(ctx, gallery.base_domain6(), 10, cfg)
    hyp = weak_monopole_residual(mono, pts, cfg)
    return control_report({"sup_dphi": _final(by_h)["sup_dphi"],
                           "monopole_residual": hyp["minus_minus"]}, 0.01,
                          params=_tag("thm1-broken-monopole", {"dphi_by_h": by_h["sup_dphi"]}),
                          order_estimate=order["sup_dphi"], order_band=(-0.2, 0.2))


def check_neg_mismatched_twist(ctx: SuiteContext) -> CheckReport:
    bundle, mono, alpha = gallery.thm2_mismatched_alpha_bundle(0.1)
    cfg = StencilConfig(h=1e-3)
    dom = gallery.base_domain6()
    # the sampler is prefix-stable: the twist witness is always the same
    # first six points, whatever the budget
    pts6 = sample_points(dom, max(6, ctx.scaled_samples(15)), cfg, seed=ctx.seed)
    weak = weak_monopole_residual(mono, pts6, cfg)
    pts7 = _points(ctx, bundle.domain, 10, StencilConfig(h=1e-2))
    tf = torsionfree_residual(bundle, pts7, StencilConfig(h=1e-2))
    return control_report({"weak_residual_vs_true_base": weak["plus_plus"],
                           "planted_twist": planted_twist(alpha, pts6[:6]),
                           "sup_dphi": tf["sup_dphi"]}, 0.01,
                          params=_tag("thm2-mismatched-alpha"))


def check_neg_nonbasic(ctx: SuiteContext) -> CheckReport:
    def v(x):
        return gallery.taub_nut_v6(x) + 0.2 * x[..., 0]
    mono = MonopoleData(v=v, a=gallery.monopole_potential6())
    cfg = StencilConfig(h=1e-3)
    pts = _points(ctx, gallery.base_domain6(), 15, cfg)
    res = weak_monopole_residual(mono, pts, cfg)
    return control_report({"basic_v": res["basic_v"]}, 0.01)


def check_neg_warped(ctx: SuiteContext) -> CheckReport:
    bundle = gallery.warped_control_bundle()
    pts = _points(ctx, bundle.domain, 8, StencilConfig(h=1e-2))
    hol = holonomy_residual(bundle, pts, StencilConfig(h=1e-2))
    return control_report({"off_g2_fraction": hol["off_g2_fraction"]}, 0.1,
                          params=_tag("warped-control"))


SUITES = {
    "algebra": [
        ("algebra.dimension", check_algebra_dimension),
        ("algebra.closure", check_algebra_closure),
        ("algebra.reductive", check_algebra_reductive),
        ("algebra.orthogonality", check_algebra_orthogonality),
        ("algebra.h-equivariance", check_algebra_equivariance),
        ("algebra.embedding-scales", check_algebra_scales),
        ("algebra.rep-equivalence", check_algebra_rep_equivalence),
        ("algebra.rep-dual-inequivalent", check_algebra_rep_dual),
        ("algebra.clifford", check_algebra_clifford),
        ("algebra.so8", check_algebra_so8),
    ],
    "octonion": [
        ("octonion.invariant-kernel", check_octonion_kernel),
        ("octonion.stabilizer-roundtrip", check_octonion_stabilizer),
        ("octonion.torsion-proportional", check_octonion_torsion),
        ("octonion.table", check_octonion_table),
        ("octonion.cross-identities", check_octonion_cross_identities),
        ("octonion.associative-planes", check_octonion_planes),
        ("octonion.star-wedge", check_octonion_star),
    ],
    "gh": [
        ("gh.flat-trivial", check_gh_flat_trivial),
        ("gh.flat-quotient", check_gh_flat_quotient),
        ("gh.taub-nut", check_gh_taub_nut),
        ("gh.data-consistency", check_gh_consistency),
        ("gh.nonharmonic-control", check_gh_nonharmonic),
    ],
    "g2-thm1": [
        ("g2-thm1.flat", check_thm1_flat),
        ("g2-thm1.torsion-free", check_thm1_torsionfree),
        ("g2-thm1.curvature", check_thm1_einstein),
        ("g2-thm1.monopole-hypothesis", check_thm2_weak_monopole),
    ],
    "g2-thm2": [
        ("g2-thm2.agrees-with-thm1", check_thm2_agrees),
        ("g2-thm2.torsion-free", check_thm1_torsionfree),
        ("g2-thm2.weak-monopole", check_thm2_weak_monopole),
    ],
    "hypersurface": [
        ("hypersurface.plane", check_hyp_plane),
        ("hypersurface.sphere", check_hyp_sphere),
        ("hypersurface.ellipsoid-control", check_hyp_ellipsoid),
    ],
    "oracle-pairs": [
        ("oracle-pairs.torsion", check_oracle_torsion),
        ("oracle-pairs.twist-assembly", check_oracle_gamma),
        ("oracle-pairs.potential-routes", check_oracle_potential),
        ("oracle-pairs.quotient-conditions", check_oracle_blocks),
    ],
    "negative-controls": [
        ("negative.perturbed-potential", check_neg_perturbed_potential),
        ("negative.nonharmonic-pole", check_gh_nonharmonic),
        ("negative.broken-monopole", check_neg_broken_monopole),
        ("negative.mismatched-twist", check_neg_mismatched_twist),
        ("negative.nonbasic-pole", check_neg_nonbasic),
        ("negative.warped-holonomy", check_neg_warped),
        ("negative.ellipsoid", check_hyp_ellipsoid),
    ],
}

SUITE_NAMES = tuple(SUITES) + ("all",)


def suite_checks(name: str):
    """The (check id, check) pairs of a suite; KeyError for an unknown one."""
    if name == "all":
        return [entry for checks in SUITES.values() for entry in checks]
    return SUITES[name]
