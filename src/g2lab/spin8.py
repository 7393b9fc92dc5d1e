"""The two copies of so(7) inside so(8) and their intersection.

so(7)_0 fixes the unit axis of the octonions (slot 0); so(7)_1 is spanned by
the products gamma_i gamma_j of left-multiplication operators by imaginary
units.  Their sum is all of so(8) and their intersection is the 14-dimensional
algebra certified in `embeddings`, re-identified here on the imaginary slots.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .embeddings import g2_basis
from .octonions import standard_octonions
from .rational import ExactMatrix, Q, bracket, skew_basis, unit_rows
from .subspaces import Subspace


@functools.lru_cache(maxsize=1)
def gamma_matrices() -> ExactMatrix:
    """Left multiplication by the 7 imaginary units, as a stack of 8x8 exact
    matrices: column j of gamma_i is e_i e_j."""
    e = unit_rows(8)
    products = standard_octonions().multiply(e[1:, None], e)   # [i, j, 0, k]
    return products.reshape(7, 8, 8).transpose()


def clifford_certificate() -> bool:
    """gamma_i gamma_j + gamma_j gamma_i = -2 delta_ij, exactly."""
    gammas = gamma_matrices()
    g_i, g_j = gammas[:, None], gammas
    expected = np.eye(7, dtype=np.int64)[:, :, None, None] * np.eye(8, dtype=np.int64)
    return g_i @ g_j + g_j @ g_i == ExactMatrix(-2 * expected, 1)


def spin7_basis() -> ExactMatrix:
    """The stack of 21 generators (1/2)[gamma_i, gamma_j] = gamma_i gamma_j, i < j."""
    gammas = gamma_matrices()
    i, j = np.triu_indices(7, 1)
    return bracket(gammas[i], gammas[j]).scale(Q(1, 2))


def so7_canonical_basis() -> ExactMatrix:
    """so(7) fixing the unit axis: E_ij - E_ji on slots 1..7 of so(8)."""
    return skew_basis(8, range(1, 8))


@dataclass(frozen=True)
class So8IntersectionReport:
    sum_dim: int
    intersection_dim: int
    intersection_is_g2: bool       # restricted to the imaginary slots


def imaginary_block(sub: Subspace) -> Subspace:
    """A subspace of so(8) whose elements kill slot 0, restricted to the
    imaginary slots 1..7.  Its reduced rows stay reduced once the zero row
    and column of slot 0 are dropped, so the pivots are only relabelled,
    8 i + j -> 7 (i - 1) + j - 1, with no elimination."""
    mats = sub.basis.num.reshape(sub.dim, 8, 8)
    if mats[:, 0].any() or mats[:, :, 0].any():
        raise ValueError("element does not fix the unit axis")
    return Subspace(ExactMatrix(mats[:, 1:, 1:].reshape(sub.dim, 49), sub.basis.den),
                    tuple(7 * (p // 8 - 1) + p % 8 - 1 for p in sub.pivots))


@functools.lru_cache(maxsize=1)
def so8_intersection_report() -> So8IntersectionReport:
    total, inter = Subspace.sum_and_intersection(spin7_basis().reshape(21, 64),
                                                 so7_canonical_basis().reshape(21, 64))

    return So8IntersectionReport(
        sum_dim=total.dim,
        intersection_dim=inter.dim,
        intersection_is_g2=(imaginary_block(inter) == g2_basis().span),
    )
