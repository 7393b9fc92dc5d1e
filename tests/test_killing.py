import numpy as np

from g2lab.fields import StencilConfig, sample_points
from g2lab.g2construct import estimate_order
from g2lab.gallery import (killing_flat_data, killing_perturbed_data,
                           killing_taub_nut_data, polynomial_sections,
                           rho_flat_setup, rho_polynomial_setup)
from g2lab.killing import (da_conditions_check, gamma_pair_residual,
                           killing_conditions_check, rho_torsion_check)

CFG = StencilConfig(h=1e-3)


def pts_of(data, n=10, seed=11, h=2e-3):
    return sample_points(data.domain, n, StencilConfig(h=h), seed=seed)


def test_flat_data_all_residuals_vanish():
    data = killing_flat_data()
    res = killing_conditions_check(data, pts_of(data), CFG)
    assert all(v <= 1e-10 for v in res.values()), res


def test_flat_data_block_equations_vanish():
    data = killing_flat_data()
    res = da_conditions_check(data, pts_of(data), CFG)
    # u constant, twist zero: every right-hand side and dA vanish
    assert all(v <= 1e-12 for v in res.values()), res


def test_pole_data_satisfies_conditions():
    data = killing_taub_nut_data()
    res = killing_conditions_check(data, pts_of(data), CFG)
    assert all(v <= 1e-4 for v in res.values()), res


def test_pole_data_block_equations():
    data = killing_taub_nut_data()
    res = da_conditions_check(data, pts_of(data), CFG)
    # the plain route realizes dA = 2 u^-2 *_- du, the rescaled route
    # dA = -*^1_- d(u^-2); both must hold and agree
    assert res["minus_minus"] <= 1e-4
    assert res["minus_minus_rescaled"] <= 1e-4
    assert res["plus_plus"] <= 1e-6
    assert res["mixed"] <= 1e-6
    assert res["route_agreement"] <= 1e-5


def test_route_agreement_is_second_order():
    data = killing_taub_nut_data()
    pts = pts_of(data, n=8)
    h_list = (2e-3, 1e-3, 5e-4)
    vals = [da_conditions_check(data, pts, StencilConfig(h=h))["route_agreement"]
            for h in h_list]
    order = estimate_order(h_list, vals)
    assert order == "exact" or order >= 1.9, (order, vals)


def test_gamma_two_assemblies_agree_to_machine_precision():
    data = killing_taub_nut_data()
    assert gamma_pair_residual(data, pts_of(data), CFG) <= 1e-10


def test_perturbed_potential_detected():
    data = killing_perturbed_data(0.1)
    good = killing_taub_nut_data()
    pts = pts_of(data)
    res = killing_conditions_check(data, pts, CFG)
    ref = killing_conditions_check(good, pts, CFG)
    assert res["potential_equation"] >= 0.05
    # only the potential equation is affected
    assert res["torsion_vs_twist"] <= ref["torsion_vs_twist"] + 1e-10


def test_rho_torsion_flat_exact_on_constant_sections():
    setup = rho_flat_setup()
    consts = [lambda x, v=v: np.asarray(v, float)
              for v in (np.eye(6)[0], np.eye(6)[3], np.ones(6) / 2)]
    pts = sample_points(setup.domain, 6, CFG, seed=13)
    res = rho_torsion_check(setup, consts, pts, CFG)
    assert res["tangent_pairs"] <= 1e-12
    assert res["axis_pairs"] <= 1e-12


def test_rho_torsion_polynomial_small_and_second_order():
    setup = rho_polynomial_setup()
    secs = polynomial_sections()
    pts = sample_points(setup.domain, 8, StencilConfig(h=4e-3), seed=14)
    h_list = (2e-3, 1e-3, 5e-4)
    vals = []
    for h in h_list:
        r = rho_torsion_check(setup, secs, pts, StencilConfig(h=h))
        vals.append(max(r["tangent_pairs"], r["axis_pairs"]))
    assert vals[1] <= 1e-5
    order = estimate_order(h_list, vals)
    assert order >= 1.9, (order, vals)


def test_minus_block_equation_reproduces_determinant_form():
    # on flat blocks with a pole depending only on minus coordinates, the
    # minus-block right-hand side must equal 2 u^-2 det((grad u)_-, X, Y)
    # computed independently from the raw components
    from g2lab.fields import Domain
    from g2lab.killing import KillingData, da_conditions_check

    for expo in ((1, 0, 0), (2, 1, 0)):
        def u(x, expo=expo):
            return 2.0 + float(np.prod([x[3 + i] ** e for i, e in enumerate(expo)]))

        def du_minus(x, expo=expo):
            out = np.zeros(3)
            for i, e in enumerate(expo):
                if e:
                    parts = [x[3 + j] ** ee for j, ee in enumerate(expo)]
                    parts[i] = e * x[3 + i] ** (e - 1)
                    out[i] = float(np.prod(parts))
            return out

        # the potential plays no role: only the right-hand-side formula is
        # certified against the raw determinant expression
        data = KillingData(
            metric=lambda x: np.eye(6), u=u, a_form=lambda x: np.zeros(6),
            b_plus=lambda x: 0.5 / u(x) * du_minus(x),
            b_hom=lambda x: np.zeros((3, 3)),
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
