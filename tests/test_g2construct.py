import dataclasses

import numpy as np
import pytest

from g2lab import suites
from g2lab.curvature import christoffel
from g2lab.fields import (MM, STACK_BLOCK, Domain, StencilConfig, adapted_frame,
                          fd_gradient, frame_derivatives, hat, sample_points,
                          star_jet, sup)
from g2lab.g2construct import (MonopoleData, estimate_order, g2_build_thm1,
                               holonomy_residual, model_phi_check, planted_twist,
                               torsion_forms, torsionfree_residual,
                               weak_monopole_residual)
from g2lab.modeldata import h6, h_tensors, phi_constants, star_phi_constants
from g2lab.gallery import (base_domain6, constant_field, monopole_potential6,
                           taub_nut_monopole, taub_nut_v6,
                           thm1_broken_monopole_bundle, thm1_flat_bundle,
                           thm1_taub_nut_bundle, thm2_mismatched_alpha_bundle,
                           warped_control_bundle)
from g2lab.reports import SuiteContext

H_LIST = (2e-2, 1e-2, 5e-3)


def bundle_points(bundle, n=8, seed=5, h=2e-2):
    return sample_points(bundle.domain, n, StencilConfig(h=h), seed=seed)


def hypothesis_residual(mono, domain6, seed=5):
    """The largest of the three block residuals of the weak monopole
    equations of `mono` on the flat base, at 10 points and h = 1e-3."""
    cfg = StencilConfig(h=1e-3)
    res = weak_monopole_residual(mono, sample_points(domain6, 10, cfg, seed=seed), cfg)
    return max(res["plus_plus"], res["mixed"], res["minus_minus"])


def test_flat_bundle_is_exactly_torsion_free():
    b = thm1_flat_bundle()
    pts = bundle_points(b)
    cfg = StencilConfig(h=1e-3)
    res = torsionfree_residual(b, pts, cfg)
    assert res["sup_dphi"] <= 1e-10
    assert res["sup_dstarphi"] <= 1e-10
    assert model_phi_check(b, pts) == 0.0
    assert b.orthonormality_residual(pts) <= 1e-12
    flat = MonopoleData(v=constant_field(1.0), a=constant_field(np.zeros(6)))
    assert hypothesis_residual(flat, Domain(lo=(-1.0,) * 6, hi=(1.0,) * 6)) <= 1e-4


def test_monopole_hypothesis_holds_for_pole_pair():
    mono = MonopoleData(v=taub_nut_v6, a=monopole_potential6())
    cfg = StencilConfig(h=1e-3)
    pts = sample_points(base_domain6(), 10, cfg, seed=7)
    res = weak_monopole_residual(mono, pts, cfg)
    assert max(res["plus_plus"], res["mixed"], res["minus_minus"]) <= 1e-4
    assert res["basic_v"] <= 1e-12
    assert res["basic_a"] <= 1e-12


def test_taub_nut_bundle_torsion_free_second_order():
    b = thm1_taub_nut_bundle()
    pts = bundle_points(b, n=10)
    rows = [torsionfree_residual(b, pts, StencilConfig(h=h)) for h in H_LIST]
    for name in ("sup_dphi", "sup_dstarphi"):
        vals = [r[name] for r in rows]
        assert estimate_order(H_LIST, vals) >= 1.8, (name, vals)
    assert hypothesis_residual(taub_nut_monopole(), base_domain6()) <= 1e-4


def test_taub_nut_bundle_einstein_and_in_algebra():
    b = thm1_taub_nut_bundle()
    pts = bundle_points(b, n=6)
    rows = [holonomy_residual(b, pts, StencilConfig(h=h)) for h in H_LIST]
    ric = [r["ricci_norm"] for r in rows]
    off = [r["off_g2_fraction"] for r in rows]
    assert estimate_order(H_LIST, ric) >= 1.8, ric
    assert estimate_order(H_LIST, off) >= 1.8, off
    assert rows[-1]["curvature_norm"] >= 0.01   # genuinely curved


def test_broken_monopole_detected_and_not_convergent():
    b, mono = thm1_broken_monopole_bundle(0.1)
    assert hypothesis_residual(mono, base_domain6()) > 1e-4
    pts = bundle_points(b, n=6)
    vals = [torsionfree_residual(b, pts, StencilConfig(h=h))["sup_dphi"]
            for h in H_LIST]
    assert vals[-1] >= 0.01
    order = estimate_order(H_LIST, vals)
    assert -0.2 <= order <= 0.2, (order, vals)


def test_nan_hypothesis_residual_fails_the_hypothesis_check(monkeypatch):
    monkeypatch.setattr(suites, "weak_monopole_residual",
                        lambda mono, pts, cfg: {"plus_plus": float("nan"), "mixed": 0.0,
                                                "minus_minus": 0.0, "basic_v": 0.0,
                                                "basic_a": 0.0})
    check = dict(suites.suite_checks("all"))["g2-thm1.monopole-hypothesis"]
    rep = check(SuiteContext(seed=42, samples=25, dump_dir=None))
    assert rep.status == "fail"


# (*w)[i, j] = eps[i, j, k] w_k on an orthonormal 3-block: *dx4 = dx5 ^ dx6
LEVI_CIVITA = np.zeros((3, 3, 3))
for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    LEVI_CIVITA[i, j, k], LEVI_CIVITA[j, i, k] = 1.0, -1.0


def product_monopole_residual(v, a, pts, cfg):
    """sup over the points of |dA + *_H dv|, the monopole equation of the first
    construction as one 6x6 matrix on the flat base: dA[i, j] = d_i A_j - d_j A_i
    and the star of dv on the minus block."""
    worst = 0.0
    for x in pts:
        _, grad_a, _ = star_jet(a, x, cfg)
        _, dv, _ = star_jet(v, x, cfg)
        res = grad_a - grad_a.T
        res[3:, 3:] += np.einsum('ijk,k->ij', LEVI_CIVITA, dv[3:])
        worst = max(worst, float(np.max(np.abs(res))))
    return worst


MONOPOLE_V = {"pole": taub_nut_v6,
              "broken": lambda x: taub_nut_v6(x) * (1.0 + 0.1 * x[..., 3]),
              "nonbasic": lambda x: taub_nut_v6(x) + 0.2 * x[..., 0]}


@pytest.mark.parametrize("h", [1e-3, 1e-2])
@pytest.mark.parametrize("case", sorted(MONOPOLE_V))
def test_weak_residual_without_twist_is_the_monopole_equation(case, h):
    """At alpha = 0 the largest of the three block residuals is the residual
    of dA = -*_H dv, to the bit."""
    mono = MonopoleData(v=MONOPOLE_V[case], a=monopole_potential6())
    cfg = StencilConfig(h=h)
    pts = sample_points(base_domain6(), 10, cfg, seed=911)
    res = weak_monopole_residual(mono, pts, cfg)
    assert max(res["plus_plus"], res["mixed"], res["minus_minus"]) == \
        product_monopole_residual(mono.v, mono.a, pts, cfg)


def test_weak_monopole_residuals_zero_twist():
    mono = MonopoleData(v=taub_nut_v6, a=monopole_potential6())
    cfg = StencilConfig(h=1e-3)
    pts = sample_points(base_domain6(), 10, cfg, seed=8)
    res = weak_monopole_residual(mono, pts, cfg)
    assert res["plus_plus"] <= 1e-10
    assert res["mixed"] <= 1e-10
    assert res["minus_minus"] <= 1e-4


def _planted_pair(key, eps):
    """The Taub-NUT pair with a term of size eps that the weak monopole key
    `key` must read, by a plain closure that declares no read set."""
    pair = taub_nut_monopole()

    def plus_a(slot, at):
        """A + eps x_at dx_slot (0-based slots)."""
        def a(x):
            out = pair.a(x).copy()
            out[..., slot] += eps * x[..., at]
            return out
        return MonopoleData(v=pair.v, a=a)

    return {"basic_v": MonopoleData(v=lambda x: pair.v(x) + eps * x[..., 0], a=pair.a),
            "plus_plus": plus_a(2, 1),      # A + eps x2 dx3
            "mixed": plus_a(4, 0),          # A + eps x1 dx5
            "basic_a": plus_a(0, 0)}[key]   # A_+ = eps x1 dx1, which is closed


@pytest.mark.parametrize("key", ["plus_plus", "mixed", "basic_v", "basic_a"])
def test_weak_monopole_keys_read_a_planted_term(key):
    """The Taub-NUT pair reads only x4..x6 and A has no plus part, so these
    four keys read exactly 0.0 on it: its declared route writes the zero
    derivatives along x1..x3.  A term eps on the plus block, planted by a
    closure that reads every coordinate, reads eps in its key."""
    cfg = StencilConfig(h=1e-3)
    pts = sample_points(base_domain6(), 10, cfg, seed=8)
    eps = 0.01
    assert weak_monopole_residual(taub_nut_monopole(), pts, cfg)[key] == 0.0
    planted = weak_monopole_residual(_planted_pair(key, eps), pts, cfg)
    assert planted[key] == pytest.approx(eps, rel=1e-6)


def test_flat_base_has_no_twist():
    cfg = StencilConfig(h=1e-3)
    pts = sample_points(base_domain6(), 5, cfg, seed=10)
    assert planted_twist(constant_field(np.zeros(3)), pts) == 0.0


def _block(a, b, c):
    return np.moveaxis(np.array([[1.0 + 0.3 * a * a, 0.4 * b, 0.2 * a * c],
                                 [0.4 * b, 1.0 + 0.2 * c, 0.3 * a * b],
                                 [0.2 * a * c, 0.3 * a * b, 1.2 + 0.1 * b * c]]),
                       (0, 1), (-2, -1))


def curved_base(x):
    """A non-flat 6-metric, block diagonal for the split, with non-diagonal
    blocks, so the adapted frame and its derivatives are not symmetric."""
    c = x.T      # .T leads with the coordinate axis at a point and on rows alike
    g = np.zeros(x.shape[:-1] + (6, 6))
    g[..., :3, :3] = _block(c[0] + 0.5 * c[3], c[1] - c[4], c[2])
    g[..., 3:, 3:] = _block(c[3] - c[1], c[4] + 0.3 * c[0], c[5] * c[2])
    return g


def _koszul_connection_form(x, cfg):
    """omega[c][k, b] = <nabla_{f_c} f_b, f_k> of the curved base from frame
    brackets alone (Koszul formula for an orthonormal frame), no Christoffel
    symbols: 2 omega = <[f_c, f_b], f_k> - <[f_c, f_k], f_b> - <[f_b, f_k], f_c>."""
    g = curved_base(x)
    fr = adapted_frame(g)
    dframe = fd_gradient(lambda q: adapted_frame(curved_base(q)), x, cfg)
    along = np.einsum('da,dkb->akb', fr, dframe)          # along[a][:, b] = d_{f_a} f_b

    def pair(a, b, k):     # <[f_a, f_b], f_k>
        return fr[:, k] @ g @ (along[a][:, b] - along[b][:, a])

    return [np.array([[0.5 * (pair(c, b, k) - pair(c, k, b) - pair(b, k, c))
                       for b in range(6)] for k in range(6)]) for c in range(6)]


def test_frame_derivatives_give_a_metric_connection_form():
    """The Levi-Civita connection form read in an orthonormal frame is skew."""
    cfg = StencilConfig(h=1e-3)
    x = np.array([0.1, -0.2, 0.3, 0.15, -0.1, 0.25])
    fr = adapted_frame(curved_base(x))
    dframe = fd_gradient(lambda q: adapted_frame(curved_base(q)), x, cfg)
    _, nabla = frame_derivatives(fr, dframe, christoffel(*star_jet(curved_base, x, cfg)[:2]))
    for c in range(6):
        omega = np.linalg.inv(fr) @ nabla[c].T
        assert np.max(np.abs(omega + omega.T)) <= 1e-6
        np.testing.assert_allclose(omega, _koszul_connection_form(x, cfg)[c], atol=1e-6)


def flat_base(x):
    return np.broadcast_to(np.eye(6), np.shape(x)[:-1] + (6, 6))


def reference_weak_sl3_consistency(k6, alpha, samples, cfg):
    """The twist check of a base metric k6 by its loop over the six frame
    vectors of a point: the h-part of the Levi-Civita form against h(S) for
    S(X+, X-) = (a X-, a X+), a = 1/4 hat(alpha#), the sharp taken in k6,
    with the h-image basis from the QR of the h tensors."""
    q_h = np.linalg.qr(h_tensors().reshape(6, 36).T)[0].T

    def at(x):
        g, dg, _ = star_jet(k6, x, cfg)
        fr = adapted_frame(g)
        _, nabla = frame_derivatives(fr, fd_gradient(lambda q: adapted_frame(k6(q)), x, cfg),
                                     christoffel(g, dg))
        e = np.linalg.inv(fr)
        sharp = np.linalg.solve(g[MM], np.asarray(alpha(x), float))
        out = {"twist_mismatch": []}
        for c in range(6):
            omega = e @ nabla[c].T
            omega = 0.5 * (omega - omega.T)
            xf = e @ fr[:, c]
            s_alpha = 0.25 * np.concatenate([np.cross(sharp, xf[3:]), np.cross(sharp, xf[:3])])
            h_part = (q_h.T @ (q_h @ omega.reshape(-1))).reshape(6, 6)
            out["twist_mismatch"].append(np.abs(h_part - h6(s_alpha)))
        return out
    return sup(samples, at)


@pytest.mark.parametrize("twisted", [True, False])
def test_planted_twist_equals_the_connection_route_on_the_flat_base(twisted):
    """On the flat base the Levi-Civita form is 0, and the twist read off
    alpha alone carries the bits of the route through the connection."""
    cfg = StencilConfig(h=1e-3)
    pts = sample_points(base_domain6(), 6, cfg, seed=3)
    alpha = ((lambda x: np.array([0.3, -0.2 * x[0], 0.1 + x[4]])) if twisted
             else constant_field(np.zeros(3)))
    ref = reference_weak_sl3_consistency(flat_base, alpha, pts, cfg)["twist_mismatch"]
    assert planted_twist(alpha, pts) == ref
    assert (ref >= 0.05) if twisted else (ref == 0.0)


def test_minus_hat_is_the_block_star_of_the_flat_base():
    """-hat(a) equals the solve and determinant star on I byte for byte, at
    a point and on a block: the solve by I and the factor sqrt(det I) = 1
    are exact."""
    from test_fields import reference_block_star
    a = np.random.default_rng(6).normal(size=(9, 3))
    for x in (a[0], a):
        assert (-hat(x)).tobytes() == reference_block_star(x, np.eye(3)).tobytes()


def cholesky_coframe(mono, p):
    """The builder's coframe with the Cholesky factor of each block of the
    flat base in place of the literal identity blocks."""
    x = p[..., 1:]
    v = np.asarray(mono.v(x), dtype=float)[..., None]
    k = flat_base(x)
    e = np.zeros(p.shape[:-1] + (7, 7))
    e[..., :3, 1:4] = np.linalg.cholesky(k[..., :3, :3]).mT
    u = np.power(v, -0.5)
    e[..., 3, :1] = u
    e[..., 3, 1:] = u * np.asarray(mono.a(x), dtype=float)
    e[..., 4:, 4:] = np.sqrt(v)[..., None] * np.linalg.cholesky(k[..., 3:, 3:]).mT
    return e


def test_coframe_equals_the_cholesky_coframe():
    """The identity blocks of the Taub-NUT coframe carry the bits of the
    Cholesky factors of the flat base's blocks, on a block of points."""
    bundle = thm1_taub_nut_bundle()
    p = np.asarray(bundle_points(bundle, n=20, seed=8))
    assert bundle.coframe(p).tobytes() == cholesky_coframe(taub_nut_monopole(), p).tobytes()


def test_mismatched_twist_flagged_everywhere():
    bundle, mono, alpha = thm2_mismatched_alpha_bundle(0.1)
    cfg = StencilConfig(h=1e-3)
    pts6 = sample_points(base_domain6(), 8, cfg, seed=11)
    weak = weak_monopole_residual(mono, pts6, cfg)
    assert weak["plus_plus"] >= 0.01          # the pair fails the true equations
    assert planted_twist(alpha, pts6[:4]) >= 0.01   # alpha disagrees with the base
    pts7 = bundle_points(bundle, n=5, h=1e-2)
    tf = torsionfree_residual(bundle, pts7, StencilConfig(h=1e-2))
    assert tf["sup_dphi"] >= 0.01             # and the build is not torsion-free


def test_warped_control_leaves_algebra():
    b = warped_control_bundle()
    pts = bundle_points(b, n=5, h=1e-2)
    hol = holonomy_residual(b, pts, StencilConfig(h=1e-2))
    assert hol["off_g2_fraction"] >= 0.1


def test_nonbasic_pole_detected():
    def v(x):
        return taub_nut_v6(x) + 0.2 * x[..., 0]
    mono = MonopoleData(v=v, a=monopole_potential6())
    cfg = StencilConfig(h=1e-3)
    pts = sample_points(base_domain6(), 6, cfg, seed=13)
    res = weak_monopole_residual(mono, pts, cfg)
    assert res["basic_v"] >= 0.01


def test_estimate_order_exact_path():
    assert estimate_order((1e-2, 5e-3), (0.0, 1e-14)) == "exact"
    order = estimate_order((2e-2, 1e-2, 5e-3), (4e-4, 1e-4, 2.5e-5))
    assert 1.9 <= order <= 2.1


def test_builder_rejects_nonpositive_v():
    """The built metric and coframe raise where v is not positive."""
    mono = MonopoleData(v=lambda x: -1.0, a=lambda x: np.zeros(6))
    b = g2_build_thm1(mono, Domain(lo=(-1.0,) * 6, hi=(1.0,) * 6))
    for field in (b.metric, b.coframe):
        with pytest.raises(ValueError):
            field(np.zeros(7))


def test_flat_bundle_holonomy_zero_over_zero_convention():
    b = thm1_flat_bundle()
    pts = bundle_points(b, n=4)
    hol = holonomy_residual(b, pts, StencilConfig(h=1e-2))
    assert hol["off_g2_fraction"] == 0.0
    assert hol["curvature_norm"] <= 1e-10


def _coframe_rows(declared: bool) -> list:
    """The rows of each coframe call of `torsionfree_residual` on two blocks
    of Taub-NUT points, through a counting coframe that carries the
    coframe's read set when `declared`, per point of its block."""
    bundle = thm1_taub_nut_bundle()
    cfg = StencilConfig(h=1e-2)
    pts = sample_points(bundle.domain, STACK_BLOCK + 3, cfg, seed=4)
    rows = []

    def counted(p):
        rows.append(len(p))
        return bundle.coframe(p)
    if declared:
        counted.reads = bundle.coframe.reads
    counted_bundle = dataclasses.replace(bundle, coframe=counted)
    assert torsionfree_residual(counted_bundle, pts, cfg) == torsionfree_residual(bundle, pts, cfg)
    return [rows[0] / STACK_BLOCK, rows[1] / 3]


def test_torsion_reads_the_coframe_once_per_block_for_its_stencil():
    """One coframe call on the star p, p +- h e_i of every block point, along
    the coordinates x4..x6 that the Taub-NUT coframe reads (7 rows a point):
    d phi and d *phi both come from its structure functions."""
    assert _coframe_rows(declared=True) == [7, 7]


def test_torsion_reads_an_undeclared_coframe_on_the_whole_star():
    """A coframe that declares nothing is stepped along all seven
    coordinates: 15 rows a point, by the same route."""
    assert _coframe_rows(declared=False) == [15, 15]


def differenced_forms_route(coframe, pts, h):
    """(d phi, d *phi) in frame components by the route of the definition:
    phi and *phi in coordinate components on each shifted coframe (the
    per-minor loop), their exterior derivatives by the per-J loop over
    central differences, read on the frame E^-1 by the per-minor loop."""
    from test_fields import reference_exterior_d, reference_transform_form
    cfg = StencilConfig(h=h)
    p = np.asarray(pts)
    fr = np.linalg.inv(coframe(p))
    out = []
    for constants, k in ((phi_constants(), 3), (star_phi_constants(), 4)):
        form = lambda q: reference_transform_form(constants, k, 7, coframe(q))
        out.append(reference_transform_form(reference_exterior_d(form, p, k, cfg),
                                            k + 1, 7, fr))
    return out


GENERIC_WAVES = np.random.default_rng(12).normal(size=(7, 49))


def generic_coframe(p):
    """A coframe field with every structure function nonzero, so that every
    entry of the two tables reaches d phi or d *phi."""
    return np.eye(7) + 0.2 * np.sin(p @ GENERIC_WAVES).reshape(p.shape[:-1] + (7, 7))


def _cross_route_cases():
    box = Domain(lo=(-0.5,) * 7, hi=(0.5,) * 7)
    return {name: (b.coframe, bundle_points(b, n=20, seed=11)) for name, b in (
        ("broken-monopole", thm1_broken_monopole_bundle(0.1)[0]),
        ("taub-nut", thm1_taub_nut_bundle()))} | {
        "generic": (generic_coframe, sample_points(box, 20, StencilConfig(h=2e-2), seed=11))}


CROSS_ROUTE_CASES = _cross_route_cases()


@pytest.mark.parametrize("case", sorted(CROSS_ROUTE_CASES))
def test_structure_functions_and_differenced_forms_agree_at_second_order(case):
    """Both routes are central differences of the same d phi and d *phi: one
    differences the coframe and applies exact algebra, the other differences
    the forms' coordinate components.  They part by O(h^2), so the gap falls
    by 4 at each halving of h."""
    coframe, pts = CROSS_ROUTE_CASES[case]
    gaps = []
    for h in (2e-2, 1e-2, 5e-3):
        new = torsion_forms(coframe, np.asarray(pts), StencilConfig(h=h))
        old = differenced_forms_route(coframe, pts, h)
        gaps.append(max(float(np.max(np.abs(a - b))) for a, b in zip(new, old)))
    ratios = [gaps[0] / gaps[1], gaps[1] / gaps[2]]
    assert all(3.8 <= r <= 4.2 for r in ratios), (gaps, ratios)
