"""Exact alternating forms on Q^7: the invariant 3-form of the certified
algebra, its Hodge dual, the induced cross product, and wedge identities.

Components are stored on sorted index tuples in lexicographic order, so a
3-form is a 35-tuple and a 4-form a 35-tuple over the complementary quads.
Sign bookkeeping goes through `perm_sign` everywhere.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .embeddings import g2_basis
from .rational import Bilinear, ExactMatrix, Q, _fit, skew_basis
from .subspaces import Subspace, kernel_basis

TRIPLES = tuple(itertools.combinations(range(7), 3))
QUADS = tuple(itertools.combinations(range(7), 4))
TRIPLE_INDEX = {t: i for i, t in enumerate(TRIPLES)}
QUAD_INDEX = {q: i for i, q in enumerate(QUADS)}


def perm_sign(p: Sequence[int]) -> int:
    s = 1
    p = list(p)
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                s = -s
    return s


def sort_with_sign(idx: Sequence[int]) -> tuple[tuple, int]:
    if len(set(idx)) != len(idx):
        return tuple(sorted(idx)), 0
    return tuple(sorted(idx)), perm_sign(idx)


def _rational_sqrt(x: Fraction) -> Fraction | None:
    if x < 0:
        return None
    n, d = x.numerator, x.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


@dataclass(frozen=True)
class _AlternatingForm:
    """Alternating form on Q^7 with components on the sorted index tuples
    `INDICES` of its degree."""

    components: tuple  # 35 Fractions, INDICES order

    def norm_sq(self) -> Fraction:
        return sum((c * c for c in self.components), Q(0))

    def nonzero_items(self):
        return [(t, c) for t, c in zip(self.INDICES, self.components) if c != 0]


class ThreeForm(_AlternatingForm):
    """Totally antisymmetric 3-tensor on Q^7, components on sorted triples."""

    INDICES = TRIPLES

    def value(self, i: int, j: int, k: int) -> Fraction:
        t, s = sort_with_sign((i, j, k))
        return Q(0) if s == 0 else s * self.components[TRIPLE_INDEX[t]]

    def __call__(self, x: Sequence, y: Sequence, z: Sequence) -> Fraction:
        out = Q(0)
        for (i, j, k), c in zip(TRIPLES, self.components):
            if c == 0:
                continue
            out += c * _det3(x, y, z, i, j, k)
        return out

    def normalize(self) -> "ThreeForm":
        """Scale so that the squared norm is 7 and the first nonzero component
        (lexicographic triple order) is positive."""
        n2 = self.norm_sq()
        if n2 == 0:
            raise ValueError("cannot normalize the zero form")
        s = _rational_sqrt(Q(7) / n2)
        if s is None:
            raise ValueError("norm cannot be scaled to 7 over the rationals")
        first = next(c for c in self.components if c != 0)
        if first < 0:
            s = -s
        return ThreeForm(tuple(s * c for c in self.components))


class FourForm(_AlternatingForm):
    """Totally antisymmetric 4-tensor on Q^7, components on sorted quads."""

    INDICES = QUADS


def _det3(x, y, z, i, j, k) -> Fraction:
    return (x[i] * (y[j] * z[k] - y[k] * z[j])
            - x[j] * (y[i] * z[k] - y[k] * z[i])
            + x[k] * (y[i] * z[j] - y[j] * z[i]))


@functools.lru_cache(maxsize=1)
def _threeform_action_terms() -> tuple:
    """The nonzero terms of (A.phi)_ijk = -sum_m (A_mi phi_mjk + A_mj phi_imk
    + A_mk phi_ijm) as index arrays (row, column, sign, m, i): the entry
    sign * A[m, i] adds to the 35x35 action at (row, column)."""
    terms = []
    for row, triple in enumerate(TRIPLES):
        for slot, i in enumerate(triple):
            for m in range(7):
                t, s = sort_with_sign(triple[:slot] + (m,) + triple[slot + 1:])
                if s != 0:
                    terms.append((row, TRIPLE_INDEX[t], -s, m, i))
    return tuple(np.array(col) for col in zip(*terms))


def action_on_threeforms(a: ExactMatrix) -> ExactMatrix:
    """35x35 matrix of the so(7) action (A.phi)(x,y,z) = -phi(Ax,y,z) - ... ;
    a stack (..., 35, 35) for a stack of matrices (..., 7, 7)."""
    if a.rows != 7 or a.cols != 7:
        raise ValueError("expected a 7x7 matrix")
    row, col, sign, m, i = _threeform_action_terms()
    num, = _fit(3 * a.bound, a.num)     # at most three terms meet in an entry
    flat = num.reshape(-1, 7, 7)
    out = np.zeros((len(flat), 35, 35), dtype=num.dtype)
    np.add.at(out, (slice(None), row, col), sign * flat[:, m, i])
    return ExactMatrix(out.reshape(*num.shape[:-2], 35, 35), a.den)


@functools.lru_cache(maxsize=1)
def invariant_threeform() -> ThreeForm:
    """The unique (up to scale) 3-form annihilated by the whole algebra,
    normalized to squared norm 7 with the fixed sign convention."""
    ker = kernel_basis(action_on_threeforms(g2_basis().elements).reshape(-1, 35))
    if len(ker) != 1:
        raise ValueError(f"invariance kernel has dimension {len(ker)}, not 1: "
                         "the basis does not span a copy of the 14-dim algebra")
    return ThreeForm(ker.row(0)).normalize()


def so7_basis() -> ExactMatrix:
    """Elementary skew basis E_ij - E_ji, i < j, of so(7): a stack of 21."""
    return skew_basis(7, range(7))


def stabilizer_in_so7(phi: ThreeForm) -> Subspace:
    """{A in so(7) : A.phi = 0} as a subspace of flattened 7x7 matrices."""
    basis = so7_basis()
    phi_col = ExactMatrix.from_rows([phi.components]).transpose()
    # row c = action of basis[c] applied to phi; the kernel is of the transpose
    images = (action_on_threeforms(basis) @ phi_col).reshape(len(basis), 35)
    return Subspace.span(kernel_basis(images.transpose()) @ basis.reshape(len(basis), 49), 49)


def star_phi(phi: ThreeForm) -> FourForm:
    """Hodge dual w.r.t. the Euclidean metric and the orientation e1^...^e7."""
    comps = [Q(0)] * 35
    for q in QUADS:
        comp = tuple(i for i in range(7) if i not in q)
        c = phi.components[TRIPLE_INDEX[comp]]
        if c:
            comps[QUAD_INDEX[q]] = perm_sign(comp + q) * c
    return FourForm(tuple(comps))


def wedge_3_4(alpha: ThreeForm, beta: FourForm) -> Fraction:
    """Coefficient of the volume form e1^...^e7 in alpha ^ beta."""
    out = Q(0)
    for t, c in alpha.nonzero_items():
        comp = tuple(i for i in range(7) if i not in t)
        out += perm_sign(t + comp) * c * beta.components[QUAD_INDEX[comp]]
    return out


@dataclass(frozen=True)
class CrossProduct7:
    """Structure constants of the 7-dimensional cross product: (x X y)_k
    = sum_{ij} lambda_ijk x_i y_j with lambda_ijk = phi_ijk."""

    phi: ThreeForm

    @functools.cached_property
    def cross(self) -> Bilinear:
        """The map (x, y) -> x X y.  All six orderings of each triple
        contribute, with the sign of the permutation."""
        return Bilinear([(a, b, c, s * v) for (i, j, k), v in self.phi.nonzero_items()
                         for (a, b, c), s in (((i, j, k), 1), ((j, k, i), 1), ((k, i, j), 1),
                                              ((j, i, k), -1), ((i, k, j), -1), ((k, j, i), -1))],
                        7)


def phi_cross_duality(phi: ThreeForm) -> CrossProduct7:
    """The cross product with <x X y, z> = phi(x, y, z)."""
    return CrossProduct7(phi)
