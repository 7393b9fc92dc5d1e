"""The classical Gibbons-Hawking 4-metric V (dx^2 + dy^2 + dz^2) + V^-1 (dt + A)^2
from a positive harmonic V and a potential with dA = *dV.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fields import Domain, StencilConfig, blocks, d_one_form, hat, star_jet, sup


def dirac_string_exclusion(p3: np.ndarray) -> np.ndarray:
    """Regularity gauge for the string along {x = y = 0, z <= 0}: the factor
    r + z that controls every derivative of the potential (bounded above by
    the Euclidean distance to the string where z <= 0), over the last axis."""
    return radius(p3) + p3[..., 2]


def monopole_center_exclusion(p3: np.ndarray) -> np.ndarray:
    return radius(p3)


def radius(p3: np.ndarray):
    """|p3| over the last axis.  sqrt(vecdot) carries the bits of
    np.linalg.norm at a point and row by row on a block; norm(axis=-1) and
    einsum do not."""
    return np.sqrt(np.vecdot(p3, p3))


DIRAC_CHARGE = 0.5   # the charge of the potential, matching the 1/(2r) of the V below


def dirac_potential(p3: np.ndarray) -> np.ndarray:
    """The potential with dA = *dV for V = DIRAC_CHARGE / r, smooth away from
    the string along the negative z-axis:
    A = DIRAC_CHARGE (y dx - x dy) / (r (r + z)), at a point or a block of
    points."""
    x, y, z = p3.T            # .T leads with the coordinate axis at a point
    r = radius(p3)            # and at a block alike
    den = r * (r + z)
    out = np.zeros(p3.shape)
    out.T[0] = DIRAC_CHARGE * y / den
    out.T[1] = -DIRAC_CHARGE * x / den
    return out


CENTER_MARGIN = 0.3
STRING_MARGIN = 0.25


def margined(excl, margin: float):
    """Shrink an exclusion distance by a safety margin: derivatives of the
    pole fields grow fast near the singular sets, so samplers must keep a
    fixed standoff on top of the sampler's 10 h pad."""
    return lambda p: excl(p) - margin


def spatial_domain() -> Domain:
    """The 3-box [-1.2, 1.2]^3 avoiding the monopole center and the string."""
    return Domain(lo=(-1.2, -1.2, -1.2), hi=(1.2, 1.2, 1.2),
                  exclusions=(margined(monopole_center_exclusion, CENTER_MARGIN),
                              margined(dirac_string_exclusion, STRING_MARGIN)))


@dataclass(frozen=True)
class GHData:
    """Harmonic positive V and potential A on a 3-box minus exclusions.  The
    metric of `gh_build` evaluates them on blocks of points."""

    v: Callable[[np.ndarray], np.ndarray]
    a: Callable[[np.ndarray], np.ndarray]
    domain: Domain

    def consistency_residuals(self, samples, cfg: StencilConfig) -> dict:
        """Harmonicity of V and the dA = *dV equation, on blocks of sample
        points.  The gradient and Laplacian of V come from its first-order
        star p, p +- h e_a (`fields.star_jet`), one call of V per block."""
        def at(p):
            _, dv, lap = star_jet(self.v, p, cfg)
            # *dV on the flat 3-space is -hat(dV)
            return {"harmonicity": np.abs(np.sum(lap, axis=-1)),
                    "potential": np.abs(d_one_form(self.a, p, cfg) + hat(dv))}
        return sup(blocks(samples), at)


def gh_build(data: GHData):
    """Metric field on (t, x, y, z), at a point or a block of points; raises
    if V is not positive at any of them."""
    def metric(p: np.ndarray) -> np.ndarray:
        x = p[..., 1:4]
        v = np.asarray(data.v(x), dtype=float)
        if np.any(v <= 0):
            raise ValueError(f"V must be positive, got {np.min(v)}")
        w = np.empty(p.shape[:-1] + (4,))
        w[..., 0] = 1.0
        w[..., 1:] = data.a(x)
        # w w^T / V, then V on the spatial diagonal, in place
        g = np.einsum('...i,...j->...ij', w, w)
        g /= v[..., None, None]
        g[..., range(1, 4), range(1, 4)] += v[..., None]
        return g
    return metric


def v_flat_quotient(p3: np.ndarray) -> np.ndarray:
    """V = 1/(2r): the build is locally flat."""
    return 0.5 / radius(p3)


def v_taub_nut(p3: np.ndarray) -> np.ndarray:
    """V = 1 + 1/(2r): Ricci-flat with curvature bounded away from zero."""
    return 1.0 + 0.5 / radius(p3)


def v_nonharmonic(p3: np.ndarray) -> np.ndarray:
    """V = 1 + r^2: fails harmonicity, a negative control."""
    return 1.0 + np.vecdot(p3, p3)
