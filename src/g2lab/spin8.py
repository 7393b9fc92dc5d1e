"""The two copies of so(7) inside so(8) and their intersection.

so(7)_0 fixes the unit axis of the octonions (slot 0); so(7)_1 is spanned by
the products gamma_i gamma_j of left-multiplication operators by imaginary
units.  Their sum is all of so(8) and their intersection is the 14-dimensional
algebra certified in `embeddings`, re-identified here on the imaginary slots.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .embeddings import g2_basis
from .octonions import standard_octonions
from .rational import ExactMatrix, Q, bracket, skew_basis, unflatten_rows, unit
from .subspaces import Subspace


@functools.lru_cache(maxsize=1)
def gamma_matrices() -> tuple[ExactMatrix, ...]:
    """Left multiplication by the 7 imaginary units, as 8x8 exact matrices."""
    table = standard_octonions()
    out = []
    for i in range(1, 8):
        cols = [table.multiply(unit(8, i), unit(8, j)) for j in range(8)]
        out.append(ExactMatrix.from_rows(
            [[cols[j][k] for j in range(8)] for k in range(8)]))
    return tuple(out)


def clifford_certificate() -> bool:
    """gamma_i gamma_j + gamma_j gamma_i = -2 delta_ij, exactly."""
    gammas = gamma_matrices()
    ident = ExactMatrix.identity(8)
    for i in range(7):
        for j in range(7):
            anti = gammas[i] @ gammas[j] + gammas[j] @ gammas[i]
            expected = ident.scale(-2) if i == j else ExactMatrix.zeros(8)
            if anti != expected:
                return False
    return True


def spin7_basis() -> list[ExactMatrix]:
    """21 generators (1/2)[gamma_i, gamma_j] = gamma_i gamma_j, i < j."""
    gammas = gamma_matrices()
    out = []
    for i in range(7):
        for j in range(i + 1, 7):
            out.append(bracket(gammas[i], gammas[j]).scale(Q(1, 2)))
    return out


def so7_canonical_basis() -> list[ExactMatrix]:
    """so(7) fixing the unit axis: E_ij - E_ji on slots 1..7 of so(8)."""
    return skew_basis(8, range(1, 8))


@dataclass(frozen=True)
class So8IntersectionReport:
    sum_dim: int
    intersection_dim: int
    intersection_is_g2: bool       # restricted to the imaginary slots
    clifford_ok: bool


@functools.lru_cache(maxsize=1)
def so8_intersection_report() -> So8IntersectionReport:
    if not clifford_certificate():
        raise ValueError("gamma anticommutation failed: octonion table corrupt")
    spin = Subspace.span_matrices(spin7_basis())
    canon = Subspace.span_matrices(so7_canonical_basis())
    total = spin.sum(canon)
    inter = spin.intersect(canon)

    # restrict intersection elements (which kill slot 0) to the imaginary block
    restricted = []
    for m in unflatten_rows(inter.basis, 8, 8):
        if any(m[0, j] != 0 or m[j, 0] != 0 for j in range(8)):
            raise ValueError("intersection element does not fix the unit axis")
        restricted.append(m.submatrix(range(1, 8), range(1, 8)))
    inter7 = Subspace.span_matrices(restricted) if restricted else Subspace.span([], 49)
    return So8IntersectionReport(
        sum_dim=total.dim,
        intersection_dim=inter.dim,
        intersection_is_g2=(inter7 == g2_basis().span),
        clifford_ok=True,
    )
