import dataclasses
import random
import tracemalloc

import numpy as np
import pytest

from g2lab.fields import (STACK_BLOCK, Domain, StencilConfig, _at_offsets, _central,
                          adapted_frame, blocks, d_one_form, fd_gradient,
                          frame_derivatives, hat, sample_points, star_jet, sup)
from g2lab.g2construct import estimate_order
from g2lab.gallery import (_powers, _uniform, constant_field, killing_perturbed_data,
                           killing_taub_nut_data, polynomial_sections,
                           rho_polynomial_setup)
from g2lab.killing import (KillingData, gamma_pair_residual, quotient_conditions,
                           rho_torsion_check, route_agreement)
from g2lab.modeldata import h6
from g2lab.suites import ORACLE_H_LIST
from test_fields import reference_block_star

CFG = StencilConfig(h=1e-3)


def killing_flat_data() -> KillingData:
    """Flat quotient data on the 6-box: every structure residual vanishes."""
    dom = Domain(lo=(-1.0,) * 6, hi=(1.0,) * 6)
    return KillingData(metric=constant_field(np.eye(6)), u=constant_field(1.0),
                       a_form=constant_field(np.zeros(6)),
                       b_plus=constant_field(np.zeros(3)), domain=dom, connection=constant_field(np.zeros((6, 6, 6))))


def rho_flat_setup() -> tuple:
    """(u, domain): constant u on the flat 6-box."""
    return constant_field(1.0), Domain(lo=(-1.0,) * 6, hi=(1.0,) * 6)


def pts_of(data, n=10, seed=11, h=2e-3):
    return sample_points(data.domain, n, StencilConfig(h=h), seed=seed)


BLOCK_KEYS = ("plus_plus", "minus_minus", "minus_minus_rescaled", "mixed",
              "route_agreement")


def test_flat_data_all_residuals_vanish():
    data = killing_flat_data()
    res = quotient_conditions(data, pts_of(data), CFG)
    assert all(v <= 1e-10 for v in res.values()), res


def test_flat_data_block_equations_vanish():
    data = killing_flat_data()
    res = quotient_conditions(data, pts_of(data), CFG)
    # u constant, twist zero: every right-hand side and dA vanish
    assert all(res[k] <= 1e-12 for k in BLOCK_KEYS), res


def test_pole_data_satisfies_conditions():
    data = killing_taub_nut_data()
    res = quotient_conditions(data, pts_of(data), CFG)
    assert all(v <= 1e-4 for v in res.values()), res


def test_pole_data_block_equations():
    data = killing_taub_nut_data()
    res = quotient_conditions(data, pts_of(data), CFG)
    # the plain route realizes dA = 2 u^-2 *_- du, the rescaled route
    # dA = -*^1_- d(u^-2); both must hold and agree
    assert res["minus_minus"] <= 1e-4
    assert res["minus_minus_rescaled"] <= 1e-4
    assert res["plus_plus"] <= 1e-6
    assert res["mixed"] <= 1e-6
    assert res["route_agreement"] <= 1e-5


def test_mixed_reads_a_planted_mixed_term():
    """The shipped data's u depends on the minus block alone and its dA has
    no mixed block, so `mixed` reads 0.0 there.  eps x1 dx5 added to A plants
    dA(f_1, f_5) = eps u, which `mixed` must read."""
    good = killing_taub_nut_data()
    eps = 0.01

    def a_form(x):
        out = good.a_form(x).copy()
        out[..., 4] += eps * x[..., 0]
        return out

    pts = pts_of(good)
    assert quotient_conditions(good, pts, CFG)["mixed"] == 0.0
    planted = quotient_conditions(dataclasses.replace(good, a_form=a_form), pts, CFG)
    assert planted["mixed"] == pytest.approx(eps * max(float(good.u(p)) for p in pts),
                                             rel=1e-9, abs=0.0)


def test_route_agreement_is_second_order():
    data = killing_taub_nut_data()
    pts = pts_of(data, n=8)
    h_list = (2e-3, 1e-3, 5e-4)
    vals = [route_agreement(data, pts, StencilConfig(h=h)) for h in h_list]
    order = estimate_order(h_list, vals)
    assert order == "exact" or order >= 1.9, (order, vals)


def test_gamma_two_assemblies_agree_to_machine_precision():
    data = killing_taub_nut_data()
    assert gamma_pair_residual(data, pts_of(data), CFG) <= 1e-10


def test_perturbed_potential_detected():
    data = killing_perturbed_data(0.1)
    good = killing_taub_nut_data()
    pts = pts_of(data)
    res = quotient_conditions(data, pts, CFG)
    ref = quotient_conditions(good, pts, CFG)
    assert res["potential_equation"] >= 0.05
    # only the potential equation is affected
    assert res["torsion_vs_twist"] <= ref["torsion_vs_twist"] + 1e-10


def test_rho_torsion_flat_exact_on_constant_sections():
    u, domain = rho_flat_setup()
    consts = [constant_field(v) for v in (np.eye(6)[0], np.eye(6)[3], np.ones(6) / 2)]
    pts = sample_points(domain, 6, CFG, seed=13)
    res = rho_torsion_check(u, consts, pts, CFG)
    assert res["tangent_pairs"] <= 1e-12
    assert res["axis_pairs"] <= 1e-12


def test_rho_torsion_polynomial_small_and_second_order():
    u, domain = rho_polynomial_setup(42)
    secs = polynomial_sections(43)
    pts = sample_points(domain, 8, StencilConfig(h=4e-3), seed=14)
    h_list = (2e-3, 1e-3, 5e-4)
    vals = []
    for h in h_list:
        r = rho_torsion_check(u, secs, pts, StencilConfig(h=h))
        vals.append(max(r["tangent_pairs"], r["axis_pairs"]))
    assert vals[1] <= 1e-5
    order = estimate_order(h_list, vals)
    assert order >= 1.9, (order, vals)


def test_minus_block_equation_reproduces_determinant_form():
    # on flat blocks with a pole depending only on minus coordinates, the
    # minus-block right-hand side must equal 2 u^-2 det((grad u)_-, X, Y)
    # computed independently from the raw components
    for expo in ((1, 0, 0), (2, 1, 0)):
        def u(x, expo=expo):
            return 2.0 + np.prod([x[..., 3 + i] ** e for i, e in enumerate(expo)], axis=0)

        def du_minus(x, expo=expo):
            out = np.zeros(x.shape[:-1] + (3,))
            for i, e in enumerate(expo):
                if e:
                    parts = [x[..., 3 + j] ** ee for j, ee in enumerate(expo)]
                    parts[i] = e * x[..., 3 + i] ** (e - 1)
                    out[..., i] = np.prod(parts, axis=0)
            return out

        # the potential plays no role: only the right-hand-side formula is
        # certified against the raw determinant expression
        data = KillingData(
            metric=lambda x: np.eye(6), u=u, a_form=lambda x: np.zeros(6),
            b_plus=lambda x: 0.5 / u(x) * du_minus(x),
            domain=Domain(lo=(-0.6,) * 6, hi=(0.6,) * 6),
            connection=lambda x: np.zeros((6, 6, 6)))
        cfg = StencilConfig(h=1e-4)
        pts = sample_points(data.domain, 5, StencilConfig(h=1e-3), seed=19)
        for p in pts:
            info = data.gamma_info(p, cfg)
            alpha = 2.0 * info["b"] - info["grad_frame"][3:] / info["u"]
            eps = np.zeros((3, 3, 3))
            for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
                eps[i, j, k] = 1.0
                eps[i, k, j] = -1.0
            rhs = np.einsum('m,mij->ij', alpha + 2.0 / info["u"] * info["grad_frame"][3:],
                            eps) / info["u"]
            g = du_minus(p)
            uu = u(p)
            for i in range(3):
                for j in range(3):
                    det_form = 2.0 / uu ** 2 * float(
                        np.linalg.det(np.column_stack([
                            g, np.eye(3)[:, i], np.eye(3)[:, j]])))
                    assert abs(rhs[i, j] - det_form) <= 1e-7


# ------------------------------------------------ pointwise reference bodies
#
# The verifiers evaluate their fields once per stencil offset per block of
# points.  These are the per-point bodies they replaced, run through the same
# `sup` one point at a time.

def reference_gamma_info(data, x, cfg):
    g = np.asarray(data.metric(x), dtype=float)
    frame = adapted_frame(g)
    u = float(data.u(x))
    du = fd_gradient(data.u, x, cfg)
    return {"frame": frame, "u": u, "grad_frame": frame.T @ du,
            "b": np.asarray(data.b_plus(x), dtype=float)}


def reference_gamma_expanded(info):
    u = info["u"]
    gp, gm = info["grad_frame"][:3], info["grad_frame"][3:]
    b = info["b"]
    out = np.zeros((6, 6))
    out[:3, :3] = hat(b) - 0.5 / u * hat(gm)
    out[:3, 3:] = -0.5 / u * hat(gp)
    out[3:, :3] = -0.5 / u * hat(gp)
    out[3:, 3:] = hat(b) + 0.5 / u * hat(gm)
    return out


def reference_gamma_unexpanded(info):
    u = info["u"]
    b = info["b"]
    bcal = np.zeros((6, 6))
    bcal[:3, :3] = hat(b)
    bcal[3:, 3:] = hat(b)
    return bcal - h6(info["grad_frame"]) / u


def reference_gamma_pair(data, pts, cfg):
    def at(x):
        info = reference_gamma_info(data, x, cfg)
        return {"pair": np.abs(reference_gamma_expanded(info)
                               - reference_gamma_unexpanded(info))}
    return sup(pts, at)["pair"]


def reference_killing_conditions(data, pts, cfg):
    def frame_field(q):
        return adapted_frame(np.asarray(data.metric(q), dtype=float))

    def at(x):
        info = reference_gamma_info(data, x, cfg)
        fr = info["frame"]
        e = np.linalg.inv(fr)
        gam = np.asarray(data.connection(x), dtype=float)
        gamma_f = reference_gamma_expanded(info)
        d_along, nabla = frame_derivatives(fr, fd_gradient(frame_field, x, cfg), gam)
        da_mat = d_one_form(data.a_form, x, cfg)
        u = info["u"]
        out = {"torsion_vs_twist": [], "potential_equation": [],
               "corrected_metricity": []}
        for a in range(6):
            for b in range(6):
                if a == b:
                    continue
                lie_ab = d_along[a][:, b] - d_along[b][:, a]
                t_frame = e @ (nabla[a, b] - nabla[b, a] - lie_ab)
                hterm = h6(gamma_f[:, a])[:, b] - h6(gamma_f[:, b])[:, a]
                out["torsion_vs_twist"].append(np.abs(t_frame + hterm))
                da_ab = float(fr[:, a] @ da_mat @ fr[:, b])
                rhs = 2.0 / u * gamma_f[b, a]
                out["potential_equation"].append(abs(da_ab - rhs))
            omega = np.zeros((6, 6))
            for b in range(6):
                omega[:, b] = e @ nabla[a, b]
            omega = omega + h6(gamma_f[:, a])
            out["corrected_metricity"].append(np.abs(omega + omega.T))
        return out
    return sup(pts, at)


def reference_minus_block_routes(data, info, x, cfg):
    fr, u = info["frame"], info["u"]
    gm = info["grad_frame"][3:]
    alpha = 2.0 * info["b"] - gm / u
    rhs_mm_plain = -1.0 / u * hat(alpha + 2.0 / u * gm)
    du2 = fd_gradient(lambda q: np.asarray(data.u(q), float) ** -2, x, cfg)
    du2_frame = (fr.T @ du2)[3:]
    rhs_mm_resc = -reference_block_star(du2_frame - alpha / u ** 2, u ** 2 * np.eye(3))
    return alpha, rhs_mm_plain, rhs_mm_resc


def reference_da_conditions(data, pts, cfg):
    def at(x):
        info = reference_gamma_info(data, x, cfg)
        fr, u = info["frame"], info["u"]
        gp = info["grad_frame"][:3]
        alpha, plain, resc = reference_minus_block_routes(data, info, x, cfg)
        da_f = fr.T @ d_one_form(data.a_form, x, cfg) @ fr
        rhs_pp = -1.0 / u * hat(alpha)
        rhs_mixed = 2.0 / u * (0.5 / u * hat(gp))
        return {"plus_plus": np.abs(da_f[:3, :3] - rhs_pp),
                "minus_minus": np.abs(da_f[3:, 3:] - plain),
                "minus_minus_rescaled": np.abs(da_f[3:, 3:] - resc),
                "mixed": np.abs(da_f[:3, 3:] - rhs_mixed),
                "route_agreement": np.abs(plain - resc)}
    return sup(pts, at)


def reference_route_agreement(data, pts, cfg):
    def at(x):
        info = reference_gamma_info(data, x, cfg)
        _, plain, resc = reference_minus_block_routes(data, info, x, cfg)
        return {"route_agreement": np.abs(plain - resc)}
    return sup(pts, at)["route_agreement"]


def _directional(f, x, v, h):
    return (np.asarray(f(x + h * v), float) - np.asarray(f(x - h * v), float)) / (2 * h)


def reference_rho_torsion(u, sections, pts, cfg):
    """The per-point body: a section's directional stencil at each shifted
    point, the bracket and du from per-point coordinate gradients."""
    def at(x):
        du = fd_gradient(u, x, cfg)
        out = {"tangent_pairs": [], "axis_pairs": []}
        for si in range(len(sections)):
            xs = sections[si]
            xv = np.asarray(xs(x), float)
            for sj in range(si + 1, len(sections)):
                ys = sections[sj]
                yv = np.asarray(ys(x), float)
                nab_xy = _directional(ys, x, xv, cfg.h)
                nab_yx = _directional(xs, x, yv, cfg.h)
                lie = xv @ fd_gradient(ys, x, cfg) - yv @ fd_gradient(xs, x, cfg)
                out["tangent_pairs"] += [*np.abs(nab_xy - nab_yx - lie)]
            xu_dir = float(_directional(u, x, xv, cfg.h))
            out["axis_pairs"].append(abs(xu_dir - float(xv @ du)) / abs(float(u(x))))
        return out
    return sup(pts, at)


def twisted_gamma(seed):
    """(gamma_tm, gamma_one): the two components of a section gamma of
    Hom(E, TM), cubic on the flat 6-box, drawn after u's coefficients from
    `random.Random(seed)`."""
    rng = random.Random(seed)
    _uniform(rng, 0.2, (3, 6))                   # u's coefficients
    c_g = _uniform(rng, 0.4, (6, 6, 3, 6))
    c_1 = _uniform(rng, 0.4, (6, 3, 6))
    return (lambda x: np.einsum('ijdm,...dm->...ij', c_g, _powers(x)),
            lambda x: np.einsum('idm,...dm->...i', c_1, _powers(x)))


def zero_gamma():
    return constant_field(np.zeros((6, 6))), constant_field(np.zeros(6))


def twisted_rho_torsion(u, gamma_tm, gamma_one, sections, samples, cfg):
    """The torsion oracle of the anchored connection nabla + h o gamma: the
    direct route carries the twist h(gamma X) Y - h(gamma Y) X and the
    gamma_one term, and the closed route is that twist alone."""
    def at(x):
        gtm = np.asarray(gamma_tm(x), float)
        g1 = np.asarray(gamma_one(x), float)
        u_x, du, _ = star_jet(u, x, cfg)
        values, jacobians = zip(*(star_jet(s, x, cfg)[:2] for s in sections))
        along = cfg.h * np.stack(values, axis=-2)
        offsets = np.concatenate([along, -along], axis=-2)
        u_along, *sections_along = (_central(_at_offsets(f, x, offsets), x, cfg.h)
                                    for f in (u, *sections))
        out = {"tangent_pairs": [], "axis_pairs": []}
        for si, xv in enumerate(values):
            gx = np.matvec(gtm, xv)
            for sj in range(si + 1, len(sections)):
                yv = values[sj]
                gy = np.matvec(gtm, yv)
                nab_xy = sections_along[sj][..., si, :]
                nab_yx = sections_along[si][..., sj, :]
                lie = np.vecmat(xv, jacobians[sj]) - np.vecmat(yv, jacobians[si])
                direct_tm = ((nab_xy + np.matvec(h6(gx), yv))
                             - (nab_yx + np.matvec(h6(gy), xv)) - lie)
                closed_tm = np.matvec(h6(gx), yv) - np.matvec(h6(gy), xv)
                out["tangent_pairs"].append(np.abs(direct_tm - closed_tm))
            direct_ax = u_along[..., si] / u_x + np.vecdot(g1, xv)
            closed_ax = np.vecdot(xv, du) / u_x + np.vecdot(g1, xv)
            out["axis_pairs"].append(np.abs(direct_ax - closed_ax))
        return out
    return sup(blocks(samples), at)


@pytest.mark.parametrize("twisted", [True, False])
def test_the_anchored_twist_cancels_from_the_torsion_oracle(twisted):
    """The oracle without gamma equals the anchored connection's twisted
    route, for a drawn gamma and for gamma = 0, at each step of the check:
    the twist enters both routes as the same expression."""
    u, domain = rho_polynomial_setup(42)
    secs = polynomial_sections(43)
    gamma = twisted_gamma(42) if twisted else zero_gamma()
    pts = sample_points(domain, 200, StencilConfig(h=max(ORACLE_H_LIST)), seed=42)
    for h in ORACLE_H_LIST:
        cfg = StencilConfig(h=h)
        _assert_close(rho_torsion_check(u, secs, pts, cfg),
                      twisted_rho_torsion(u, *gamma, secs, pts, cfg), 1e-9)


def _assert_close(new, ref, rtol):
    if isinstance(ref, dict):
        assert new.keys() == ref.keys()
        for name in ref:
            _assert_close(new[name], ref[name], rtol)
    else:
        assert new == pytest.approx(ref, rel=rtol, abs=0.0), (new, ref)


QUOTIENT_DATA = {"taub-nut": killing_taub_nut_data,
                 "perturbed": lambda: killing_perturbed_data(0.1),
                 "flat": killing_flat_data}


@pytest.mark.parametrize("name", sorted(QUOTIENT_DATA))
def test_quotient_verifiers_match_their_pointwise_references(name):
    data = QUOTIENT_DATA[name]()
    pts = sample_points(data.domain, 70, StencilConfig(h=2e-3), seed=29)
    _assert_close(gamma_pair_residual(data, pts, CFG),
                  reference_gamma_pair(data, pts, CFG), 1e-9)
    _assert_close(quotient_conditions(data, pts, CFG),
                  {**reference_killing_conditions(data, pts, CFG),
                   **reference_da_conditions(data, pts, CFG)}, 1e-9)
    _assert_close(route_agreement(data, pts, CFG),
                  reference_route_agreement(data, pts, CFG), 1e-9)


@pytest.mark.parametrize("flat", [False, True])
def test_rho_torsion_matches_its_pointwise_reference(flat):
    u, domain = rho_flat_setup() if flat else rho_polynomial_setup(42)
    secs = polynomial_sections(43)
    pts = sample_points(domain, 70, StencilConfig(h=2e-3), seed=31)
    # the discrepancy is a stencil truncation, which amplifies the roundoff
    # of reordered sums
    _assert_close(rho_torsion_check(u, secs, pts, CFG),
                  reference_rho_torsion(u, secs, pts, CFG), 1e-5)


def test_quotient_conditions_read_each_field_on_the_rows_of_one_pass():
    """Per block of k points: metric on the points and on the frame
    stencil, u on the points and on the stencil of its gradient, whose values
    give grad u^-2 too, a_form on the stencil of dA, and b_plus and
    connection on the points, each once (12 k rows a stencil)."""
    data = killing_taub_nut_data()
    pts = sample_points(data.domain, STACK_BLOCK + 3, StencilConfig(h=2e-3), seed=4)
    rows = {name: [] for name in ("metric", "u", "a_form", "b_plus", "connection")}

    def counting(name):
        field = getattr(data, name)
        return lambda p: rows[name].append(len(p)) or field(p)

    counted = dataclasses.replace(data, **{name: counting(name) for name in rows})
    assert quotient_conditions(counted, pts, CFG) == quotient_conditions(data, pts, CFG)

    def one_pass(k):
        return {"metric": [k, 12 * k], "u": [k, 12 * k], "a_form": [12 * k],
                "b_plus": [k], "connection": [k]}
    assert rows == {name: one_pass(STACK_BLOCK)[name] + one_pass(3)[name] for name in rows}


# ------------------------------------------------------ broadcasting fields

QUOTIENT_FIELDS = ("metric", "u", "a_form", "b_plus", "connection")


def _block_fields() -> dict:
    """{name: (domain, field)} for every field of the quotient layer, and
    the gamma fields that the twisted torsion reference evaluates on blocks."""
    out = {}
    for tag, obj, names in (("taub-nut", killing_taub_nut_data(), QUOTIENT_FIELDS),
                            ("perturbed", killing_perturbed_data(0.1), QUOTIENT_FIELDS),
                            ("flat", killing_flat_data(), QUOTIENT_FIELDS)):
        out.update({f"{tag}.{name}": (obj.domain, getattr(obj, name)) for name in names})
    for tag, (u, domain), gamma in (("rho", rho_polynomial_setup(42), twisted_gamma(42)),
                                    ("rho-flat", rho_flat_setup(), zero_gamma())):
        fields = zip(("u", "gamma_tm", "gamma_one"), (u, *gamma))
        out.update({f"{tag}.{name}": (domain, field) for name, field in fields})
    domain = rho_polynomial_setup(42)[1]
    out.update({f"section{i}": (domain, s) for i, s in enumerate(polynomial_sections(43))})
    return out


BLOCK_FIELDS = _block_fields()


@pytest.mark.parametrize("name", sorted(BLOCK_FIELDS))
def test_quotient_field_on_a_block_equals_row_by_row(name):
    domain, field = BLOCK_FIELDS[name]
    block = np.array(sample_points(domain, 40, StencilConfig(h=1e-3), seed=37))
    rows = np.array([np.asarray(field(p), float) for p in block])
    assert np.array_equal(np.asarray(field(block), float), rows)


# --------------------------------------------------------------- memory guard

# The verifiers run block by block, so a block's temporaries bound the peak.
# Measured with NumPy 2.4.6 on 800 points: 64-392 KiB, the top being
# rho_torsion_check (64-point blocks, fields.BLOCK; its stars and directional
# stencils stack 78 rows per point), 77% of this bound.  Its frame field
# stacked on 12 rows per point, quotient_conditions reads 329 KiB at
# 32-point blocks (fields.STACK_BLOCK) and 644 KiB at 64.  tracemalloc
# counts NumPy's temporaries, so another NumPy version or a reshuffle of that
# check can move the margin: re-measure before changing the bound.
PEAK_BOUND = 512 * 1024


def _peak_bytes(run) -> int:
    run()                      # warm the model-data caches outside the trace
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _memory_runs():
    data = killing_taub_nut_data()
    u, domain = rho_polynomial_setup(42)
    secs = polynomial_sections(43)
    pts = sample_points(data.domain, 800, StencilConfig(h=2e-3), seed=7)
    rho_pts = sample_points(domain, 800, StencilConfig(h=2e-3), seed=7)
    return {
        "gamma_pair_residual": lambda: gamma_pair_residual(data, pts, CFG),
        "quotient_conditions": lambda: quotient_conditions(data, pts, CFG),
        "route_agreement": lambda: route_agreement(data, pts, CFG),
        "rho_torsion_check": lambda: rho_torsion_check(u, secs, rho_pts, CFG),
    }


def test_verifiers_stay_within_the_block_memory_bound():
    peaks = {name: _peak_bytes(run) for name, run in _memory_runs().items()}
    over = {name: peak for name, peak in peaks.items() if peak > PEAK_BOUND}
    assert not over, f"tracemalloc peaks over {PEAK_BOUND} bytes: {over}"
