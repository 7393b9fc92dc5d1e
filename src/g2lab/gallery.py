"""Named example registry: concrete data sets with known verdicts, consumed
by the check suites and the tests.

The positive 7-dimensional family is built around one coherent data set: the
harmonic pole v = 1 + 1/(2r) on the minus block with its string potential.
That single pair satisfies both the weak monopole equations with vanishing
twist, which are the monopole hypothesis of the first construction, and the
blockwise potential equations of the quotient data.
"""

from __future__ import annotations

import math
import random
from typing import Callable

import numpy as np

from .fields import MM, Domain, hat
from .g2construct import G2MetricBundle, MonopoleData, g2_build_thm1
from .gibbons import (CENTER_MARGIN, STRING_MARGIN, GHData, dirac_potential,
                      dirac_string_exclusion, margined,
                      monopole_center_exclusion, radius, spatial_domain,
                      v_flat_quotient, v_nonharmonic, v_taub_nut)
from .killing import KillingData
from .modeldata import h6


def base_domain6() -> Domain:
    """6-box, [-1, 1] on the plus block and [-1.2, 1.2] on the minus block,
    with the monopole center and string removed from the minus block."""
    center = margined(monopole_center_exclusion, CENTER_MARGIN)
    string = margined(dirac_string_exclusion, STRING_MARGIN)
    return Domain(lo=(-1.0,) * 3 + (-1.2,) * 3,
                  hi=(1.0,) * 3 + (1.2,) * 3,
                  exclusions=(lambda x: center(x[..., 3:]), lambda x: string(x[..., 3:])))


def monopole_potential6() -> Callable[[np.ndarray], np.ndarray]:
    """The pair potential on the 6-base: minus-block components with
    dA = -*_minus dv for the pole functions below."""
    def a(x: np.ndarray) -> np.ndarray:
        out = np.zeros(np.shape(x))
        out[..., 3:] = -dirac_potential(x[..., 3:])
        return out

    return a


def taub_nut_v6(x: np.ndarray) -> np.ndarray:
    return v_taub_nut(x[..., 3:])


# ---------------------------------------------------------------- classical GH

def gh_flat_example() -> GHData:
    """V = 1/(2r): the build is locally flat."""
    return GHData(v=v_flat_quotient, a=dirac_potential, domain=spatial_domain())


def gh_taub_nut_example() -> GHData:
    """V = 1 + 1/(2r): Ricci-flat with curvature bounded away from zero."""
    return GHData(v=v_taub_nut, a=dirac_potential, domain=spatial_domain())


def gh_nonharmonic_example() -> GHData:
    """V = 1 + r^2: not harmonic, so the build is not Ricci-flat."""
    return GHData(v=v_nonharmonic, a=dirac_potential, domain=spatial_domain())


GH_REFERENCE_POINTS = [np.array([0.1, 0.55, 0.35, 0.4]),
                       np.array([-0.3, 0.45, -0.5, 0.5]),
                       np.array([0.2, -0.6, 0.4, 0.45])]


# ------------------------------------------------------------------ 7-bundles

# The fields below take a point or a block of points.  A power of a value
# that is a numpy scalar at a point (r, v) is np.power, not **: on a scalar **
# takes the C library's pow, whose last bit can differ from the array loop's,
# and the rows of a block must carry the bits of its points.  A cube of a value
# that can be negative is a product (`_powers`): numpy's pow leaves its SIMD
# loop on a negative base: 69 ns per element on [-0.8, 0.8], 2 ns as a product.

def constant_field(value) -> Callable[[np.ndarray], np.ndarray]:
    """The field x -> value, at a point or at every point of a block."""
    value = np.asarray(value, dtype=float)
    return lambda x: np.broadcast_to(value, np.shape(x)[:-1] + value.shape)


def thm1_flat_bundle() -> G2MetricBundle:
    mono = MonopoleData(v=constant_field(1.0), a=constant_field(np.zeros(6)))
    dom = Domain(lo=(-1.0,) * 6, hi=(1.0,) * 6)
    return g2_build_thm1(mono, dom)


def taub_nut_monopole() -> MonopoleData:
    """The pole pair (v, A) of the Taub-NUT bundle, without twist."""
    return MonopoleData(v=taub_nut_v6, a=monopole_potential6())


def thm1_taub_nut_bundle() -> G2MetricBundle:
    return g2_build_thm1(taub_nut_monopole(), base_domain6())


def thm1_broken_monopole_bundle(eps: float):
    """v perturbed off the monopole equation by a factor (1 + eps x4).

    Returns (bundle, monopole data), so that a check can sample the broken
    hypothesis as well as the built torsion.
    """
    def v(x: np.ndarray) -> np.ndarray:
        return taub_nut_v6(x) * (1.0 + eps * x[..., 3])

    mono = MonopoleData(v=v, a=monopole_potential6())
    return g2_build_thm1(mono, base_domain6()), mono


def thm2_mismatched_alpha_bundle(eps: float):
    """A potential carrying a plus-block piece consistent only with a nonzero
    twist, over a flat product base whose true twist vanishes.

    Returns (bundle, monopole data, the planted twist alpha); the weak
    residual of the pair on the flat base, whose twist is 0, and the built
    torsion both stay bounded below.
    """
    base_a = monopole_potential6()

    def a(x: np.ndarray) -> np.ndarray:
        out = base_a(x)
        out[..., 1] += eps * x[..., 2]   # adds eps dx2(x3) -> (dA)++ = -eps dx2^dx3
        return out

    def fake_alpha(x: np.ndarray) -> np.ndarray:
        # the twist that the ++ equation would require of this potential
        out = np.zeros(np.shape(x)[:-1] + (3,))
        out[..., 0] = -eps * np.power(taub_nut_v6(x), -0.5)
        return out

    mono = MonopoleData(v=taub_nut_v6, a=a)
    return g2_build_thm1(mono, base_domain6()), mono, fake_alpha


def warped_control_bundle() -> G2MetricBundle:
    """A generic warped 7-metric: curvature operators leave the model algebra."""
    def metric(p: np.ndarray) -> np.ndarray:
        g = np.zeros(p.shape[:-1] + (7, 7))
        g[..., range(7), range(7)] = 1.0
        g[..., 0, 0] += 0.4 * np.sin(p[..., 1]) ** 2
        g[..., 1, 1] += 0.4 * p[..., 2] ** 2
        g[..., 2, 2] += 0.4 * np.cos(p[..., 3]) ** 2
        g[..., 4, 4] += 0.3 * p[..., 5] ** 2
        g[..., 0, 4] = g[..., 4, 0] = 0.15 * p[..., 6]
        return g

    def coframe(p: np.ndarray) -> np.ndarray:
        return np.linalg.cholesky(metric(p)).mT

    dom = Domain(lo=(-1.0,) * 7, hi=(1.0,) * 7)
    return G2MetricBundle(metric=metric, coframe=coframe, domain=dom)


# ------------------------------------------------------------- quotient data

def _pole(x3: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """v = 1 + 1/(2r) and its gradient on the minus block."""
    r = radius(x3)
    v = 1.0 + 0.5 / r
    dv = -0.5 * x3 / np.power(r, 3)[..., None]
    return v, dv


def killing_taub_nut_data() -> KillingData:
    """The quotient data of the positive 7-bundle: metric dx_+^2 + V dx_-^2,
    u = V^(-1/2), the string potential, b = -(1/4) V^(-3/2) dV in frame
    components, B = 0, and the explicit compatible connection (Levi-Civita
    minus the h-twist, both in closed form)."""
    a6 = monopole_potential6()

    def metric(x: np.ndarray) -> np.ndarray:
        v, _ = _pole(x[..., 3:])
        g = np.tile(np.eye(6), np.shape(v) + (1, 1))
        g[MM] *= v[..., None, None]
        return g

    def u(x: np.ndarray) -> np.ndarray:
        v, _ = _pole(x[..., 3:])
        return np.power(v, -0.5)

    def b_plus(x: np.ndarray) -> np.ndarray:
        v, dv = _pole(x[..., 3:])
        return -0.25 * np.power(v, -1.5)[..., None] * dv

    def connection(x: np.ndarray) -> np.ndarray:
        v, dv = _pole(x[..., 3:])
        # Levi-Civita of dx_+^2 + v dx_-^2, on the minus block:
        # (dv_i delta_jk + dv_j delta_ik - dv_k delta_ij) / 2v at [k, i, j]
        delta = np.eye(3)
        levi_civita = (np.einsum('...i,kj->...kij', dv, delta)
                       + np.einsum('...j,ki->...kij', dv, delta)
                       - np.einsum('...k,ij->...kij', dv, delta)) / (2 * v)[..., None, None, None]
        # subtract the h-twist of the closed-form gamma: only the minus block
        # of the twist endomorphism is nonzero, gamma_f = u^-1 hat(g_minus)
        gm = -0.5 * np.power(v, -2.0)[..., None] * dv   # frame components of (grad u)_minus
        u_val = np.power(v, -0.5)
        scale = np.ones(np.shape(x))                     # the diagonal frame
        scale[..., 3:] = u_val[..., None]
        cof = 1.0 / scale
        gamma_f = np.zeros(np.shape(x)[:-1] + (6, 6))
        gamma_f[MM] = hat(gm) / u_val[..., None, None]
        # minus the twist along f_a, in coordinates: [a, c, b] holds
        # -scale_c h6(gamma_f f_a)[c, b] cof_b, and gam is its [c, a, b] view
        twist = h6(gamma_f.mT * cof[..., :, None])
        twist *= scale[..., None, :, None]
        twist *= -cof[..., None, None, :]
        gam = np.swapaxes(twist, -3, -2)
        gam[..., 3:, 3:, 3:] += levi_civita
        return gam

    return KillingData(metric=metric, u=u, a_form=a6, b_plus=b_plus,
                       domain=base_domain6(), connection=connection)


def killing_perturbed_data(eps: float) -> KillingData:
    """The positive quotient data with the potential polluted by eps x5 dx6."""
    good = killing_taub_nut_data()

    def a_form(x: np.ndarray) -> np.ndarray:
        out = good.a_form(x).copy()
        out[..., 5] += eps * x[..., 4]
        return out

    return KillingData(metric=good.metric, u=good.u, a_form=a_form,
                       b_plus=good.b_plus, domain=good.domain,
                       connection=good.connection)


# ------------------------------------------------------------------- registry

GALLERY = {
    "gh-flat-quotient": {"builder": "gh_flat_example",
                         "verdict": "locally flat: Riemann converges to zero"},
    "gh-taub-nut": {"builder": "gh_taub_nut_example",
                    "verdict": "Ricci-flat, curvature bounded away from zero"},
    "gh-nonharmonic": {"builder": "gh_nonharmonic_example",
                       "verdict": "control: Ricci bounded below"},
    "thm1-flat": {"builder": "thm1_flat_bundle",
                  "verdict": "model form, exactly parallel"},
    "thm1-taub-nut": {"builder": "thm1_taub_nut_bundle",
                      "verdict": "torsion-free and Ricci-flat at second order"},
    "thm1-broken-monopole": {"builder": "thm1_broken_monopole_bundle",
                             "verdict": "control: monopole equation and torsion bounded below"},
    "thm2-mismatched-alpha": {"builder": "thm2_mismatched_alpha_bundle",
                              "verdict": "control: twist inconsistent, torsion bounded below"},
    "warped-control": {"builder": "warped_control_bundle",
                       "verdict": "control: curvature leaves the algebra"},
    "killing-taub-nut": {"builder": "killing_taub_nut_data",
                         "verdict": "structure conditions hold at second order"},
    "killing-perturbed": {"builder": "killing_perturbed_data",
                          "verdict": "control: potential equation bounded below"},
    "plane": {"builder": "affine_plane", "verdict": "geodesic and parallel"},
    "sphere": {"builder": "unit_sphere",
               "verdict": "umbilical, nearly parallel, not parallel"},
    "ellipsoid": {"builder": "ellipsoid",
                  "verdict": "control: neither umbilical nor nearly parallel"},
}


# ------------------------------------------------------ anchored-torsion data

def _powers(x: np.ndarray) -> np.ndarray:
    """The stacked powers (x, x^2, x^3), of shape (..., 3, dim): a cubic
    polynomial without constant term is one contraction with them."""
    x2 = x * x
    return np.stack([x, x2, x2 * x], axis=-2)


def _uniform(rng: random.Random, bound: float, shape: tuple) -> np.ndarray:
    """An array of `shape` filled row-major with draws uniform on
    [-bound, bound]."""
    return np.array([rng.uniform(-bound, bound)
                     for _ in range(math.prod(shape))]).reshape(shape)


def rho_polynomial_setup(seed: int) -> tuple:
    """(u, domain): a cubic-coefficient function u on the flat 6-box, smooth,
    with nonvanishing third derivatives so stencil errors scale honestly."""
    c_u = _uniform(random.Random(seed), 0.2, (3, 6))

    def u(x):
        return 2.0 + np.einsum('dm,...dm->...', c_u, _powers(x))

    return u, Domain(lo=(-0.8,) * 6, hi=(0.8,) * 6)


def polynomial_sections(seed: int) -> list:
    """Three cubic-coefficient vector fields on the flat 6-box."""
    coefs = _uniform(random.Random(seed), 0.5, (3, 6, 3, 6))

    def make(c):
        def section(x):
            return np.einsum('idm,...dm->...i', c, _powers(x))
        return section

    return [make(c) for c in coefs]
