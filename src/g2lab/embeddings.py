"""Explicit matrix models of sl(3) in so(6), its 14-dimensional extension inside
so(7), the equivariant h-map, and the lift of algebra elements to so(n+1).

Index convention on R^7: blocks (1..3 | 4 | 5..7), zero-based (0,1,2 | 3 | 4,5,6).
Slot 4 (index 3) is the distinguished axis; the two 3-blocks carry the split
used by all downstream constructions.  All identities exposed here are
certified exactly, never assumed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .rational import (ExactMatrix, Q, _as_q, bracket, common_ratio, flat_rows,
                       trace_form, unflatten_rows)
from .subspaces import Coordinates, Subspace, kernel_basis, rref

PLUS = (0, 1, 2)
AXIS = 3
MINUS = (4, 5, 6)


def hat3(x: Sequence) -> ExactMatrix:
    """3x3 skew matrix of the cross product: hat3(x) @ y = x x y (e1 x e2 = e3)."""
    x0, x1, x2 = (_as_q(v) for v in x)
    return ExactMatrix.from_rows([
        [0, -x2, x1],
        [x2, 0, -x0],
        [-x1, x0, 0],
    ])


def cross3(x: Sequence, y: Sequence) -> tuple:
    return hat3(x).apply(y)


@dataclass(frozen=True)
class Sl3Param:
    """Parameters (x, y) of an sl(3) element: x a 3-vector, y symmetric trace-free."""

    x: tuple
    y: ExactMatrix

    def __post_init__(self):
        if len(self.x) != 3 or self.y.rows != 3 or self.y.cols != 3:
            raise ValueError("Sl3Param needs a 3-vector and a 3x3 matrix")
        if not self.y.is_symmetric():
            raise ValueError("y must be symmetric")
        if self.y.trace() != 0:
            raise ValueError("y must be trace-free")

    @staticmethod
    def make(x=(0, 0, 0), y=None) -> "Sl3Param":
        y = ExactMatrix.zeros(3) if y is None else y
        return Sl3Param(tuple(_as_q(v) for v in x), y)


@dataclass(frozen=True)
class MVector:
    """A point (a, b) of the 6-dimensional complement of sl(3), a, b in Q^3."""

    a: tuple
    b: tuple

    @staticmethod
    def make(a=(0, 0, 0), b=(0, 0, 0)) -> "MVector":
        return MVector(tuple(_as_q(t) for t in a), tuple(_as_q(t) for t in b))

    def as_vector6(self) -> tuple:
        return self.a + self.b

    @staticmethod
    def from_vector6(v: Sequence) -> "MVector":
        return MVector.make(tuple(v[:3]), tuple(v[3:]))


def sl3_embed(p: Sl3Param) -> ExactMatrix:
    """The 6x6 block matrix [[hat(x), -y], [y, hat(x)]] realizing sl(3) in so(6)."""
    hx = hat3(p.x)
    rows = []
    for i in range(3):
        rows.append(list(hx.row(i)) + [-v for v in p.y.row(i)])
    for i in range(3):
        rows.append(list(p.y.row(i)) + list(hx.row(i)))
    return ExactMatrix.from_rows(rows)


def so6_to_so7(m: ExactMatrix) -> ExactMatrix:
    """Embed so(6) into so(7) with the 4th row and column zero."""
    if m.rows != 6 or m.cols != 6:
        raise ValueError("expected a 6x6 matrix")
    idx = list(PLUS) + list(MINUS)
    ent = [[Q(0)] * 7 for _ in range(7)]
    for i6, i7 in enumerate(idx):
        for j6, j7 in enumerate(idx):
            ent[i7][j7] = m[i6, j6]
    return ExactMatrix.from_rows(ent)


def so7_to_so6(m: ExactMatrix) -> ExactMatrix:
    """Restrict a 7x7 matrix to the two 3-blocks (drops the axis row/column)."""
    idx = list(PLUS) + list(MINUS)
    return m.submatrix(idx, idx)


def m_embed(v: MVector) -> ExactMatrix:
    """The skew 7x7 image {a}^1 + {b}^2 of (a, b); the axis column holds 2a, 2b."""
    ha, hb = hat3(v.a), hat3(v.b)
    ent = [[Q(0)] * 7 for _ in range(7)]
    for i in range(3):
        for j in range(3):
            ent[i][j] = hb[i, j]
            ent[i][4 + j] = ha[i, j]
            ent[4 + i][j] = ha[i, j]
            ent[4 + i][4 + j] = -hb[i, j]
        ent[i][3] = 2 * v.a[i]
        ent[3][i] = -2 * v.a[i]
        ent[4 + i][3] = 2 * v.b[i]
        ent[3][4 + i] = -2 * v.b[i]
    return ExactMatrix.from_rows(ent)


def h_map(v: MVector) -> ExactMatrix:
    """The equivariant map into so(6):  h(a, b) = 1/2 [[hat(b), hat(a)], [hat(a), -hat(b)]]."""
    ha, hb = hat3(v.a), hat3(v.b)
    half = Q(1, 2)
    rows = []
    for i in range(3):
        rows.append([half * t for t in hb.row(i)] + [half * t for t in ha.row(i)])
    for i in range(3):
        rows.append([half * t for t in ha.row(i)] + [-half * t for t in hb.row(i)])
    return ExactMatrix.from_rows(rows)


def lift_gtilde(a6: ExactMatrix, x: MVector) -> ExactMatrix:
    """Lift (A, x) to so(7) with the distinguished slot last:
    [[A + h(x), x], [-x^T, 0]]."""
    if a6.rows != 6 or a6.cols != 6:
        raise ValueError("expected a 6x6 algebra part")
    top = a6 + h_map(x)
    xv = x.as_vector6()
    rows = []
    for i in range(6):
        rows.append(list(top.row(i)) + [xv[i]])
    rows.append([-t for t in xv] + [Q(0)])
    return ExactMatrix.from_rows(rows)


def sl3_param_basis() -> list[Sl3Param]:
    """Fixed 8-element basis: 3 rotation parameters, then 5 symmetric trace-free."""
    e = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    ys = [
        ExactMatrix.from_rows([[1, 0, 0], [0, -1, 0], [0, 0, 0]]),
        ExactMatrix.from_rows([[0, 0, 0], [0, 1, 0], [0, 0, -1]]),
        ExactMatrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 0]]),
        ExactMatrix.from_rows([[0, 0, 1], [0, 0, 0], [1, 0, 0]]),
        ExactMatrix.from_rows([[0, 0, 0], [0, 0, 1], [0, 1, 0]]),
    ]
    return [Sl3Param.make(x=v) for v in e] + [Sl3Param.make(y=y) for y in ys]


def m_vector_basis() -> list[MVector]:
    e = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    return [MVector.make(a=v) for v in e] + [MVector.make(b=v) for v in e]


H_SLOTS = slice(0, 8)     # the sl(3) images among the 14 basis elements
M_SLOTS = slice(8, 14)    # the complement images


@dataclass(frozen=True)
class G2Basis:
    """14 certified skew 7x7 matrices: 8 sl(3) images then 6 complement images.

    `coordinates` maps a flattened matrix of their span to its exact
    coefficients in this basis; construction fails loudly if independence,
    skewness or bracket closure does not certify.
    """

    elements: tuple
    structure_constants: dict     # (i, j) i<j -> coefficient tuple, exact
    coordinates: Coordinates

    @property
    def span(self) -> Subspace:
        """The span of the elements in flattened 7x7 matrices."""
        return self.coordinates.span

    @property
    def h_elements(self):
        return list(self.elements[H_SLOTS])

    @property
    def m_elements(self):
        return list(self.elements[M_SLOTS])

    def expand(self, m: ExactMatrix) -> tuple | None:
        """Exact coefficients of m in the basis, or None if m is outside the span."""
        return self.coordinates(m)


@functools.lru_cache(maxsize=1)
def g2_basis() -> G2Basis:
    """Build and certify the 14-dimensional algebra spanned by the sl(3) and
    complement images inside so(7)."""
    els = [so6_to_so7(sl3_embed(p)) for p in sl3_param_basis()]
    els += [m_embed(v) for v in m_vector_basis()]
    for m in els:
        if not m.is_skew():
            raise AssertionError("basis element is not skew")
    coords = Coordinates.of(flat_rows(els))   # raises unless independent
    probe = G2Basis(tuple(els), {}, coords)
    sc = {}
    for i in range(14):
        for j in range(i + 1, 14):
            c = probe.expand(bracket(els[i], els[j]))
            if c is None:
                raise AssertionError(f"bracket of basis elements {i},{j} escapes the span")
            sc[(i, j)] = c
    return G2Basis(tuple(els), sc, coords)


def reductivity_certificate() -> bool:
    """[h, m] lies in m, exactly, for every pair of basis elements."""
    basis = g2_basis()
    msub = Subspace.span_matrices(basis.m_elements)
    return all(msub.contains(bracket(a, x))
               for a in basis.h_elements for x in basis.m_elements)


def non_symmetry_witness():
    """A pair of complement elements whose bracket has a nonzero sl(3) part."""
    basis = g2_basis()
    msub = Subspace.span_matrices(basis.m_elements)
    for i, x in enumerate(basis.m_elements):
        for j, y in enumerate(basis.m_elements):
            if i < j and not msub.contains(bracket(x, y)):
                return (i, j)
    return None


def orthogonality_certificate() -> bool:
    """trace_form(h-block, m-block) = 0 on all basis pairs."""
    basis = g2_basis()
    return all(trace_form(a, x) == 0
               for a in basis.h_elements for x in basis.m_elements)


def h_equivariance_certificate() -> bool:
    """[A, h(x)] = h(Ax) for all sl(3) basis A (6x6) and complement basis x."""
    for p in sl3_param_basis():
        a6 = sl3_embed(p)
        for v in m_vector_basis():
            lhs = bracket(a6, h_map(v))
            rhs = h_map(MVector.from_vector6(a6.apply(v.as_vector6())))
            if lhs != rhs:
                return False
    return True


def h_scale_certificate() -> Fraction:
    """The single scale s with so(6)-part of m_embed(v) = s * h_map(v), all basis v."""
    scales = []
    for v in m_vector_basis():
        s = common_ratio(so7_to_so6(m_embed(v)).flatten(), h_map(v).flatten())
        if s is None:
            raise AssertionError("so(6)-part is not proportional to h_map")
        scales.append(s)
    if len(set(scales)) != 1:
        raise AssertionError("scale differs between basis vectors")
    return scales[0]


AXIS_TO_LAST = (0, 1, 2, 4, 5, 6, 3)  # permutation moving the axis slot to slot 7


def permute_matrix(m: ExactMatrix, perm: Sequence[int]) -> ExactMatrix:
    return ExactMatrix.from_rows([[m[perm[i], perm[j]] for j in range(len(perm))]
                                  for i in range(len(perm))])


def lift_scale_certificate() -> Fraction:
    """m_embed agrees with the lift after moving the axis slot last, up to one scale."""
    scales = []
    for v in m_vector_basis():
        lhs = permute_matrix(m_embed(v), AXIS_TO_LAST)
        rhs = lift_gtilde(ExactMatrix.zeros(6), v)
        s = common_ratio(lhs.flatten(), rhs.flatten())
        if s is None:
            raise AssertionError("permuted m_embed not proportional to the lift")
        scales.append(s)
    if len(set(scales)) != 1:
        raise AssertionError("lift scale differs between basis vectors")
    return scales[0]


@dataclass(frozen=True)
class IntertwinerResult:
    """Solution space of T rep1[i] = rep2[i] T, with an invertible witness if any."""

    kernel: tuple                 # basis of the solution space, each an ExactMatrix
    invertible: ExactMatrix | None

    @property
    def equivalent(self) -> bool:
        return self.invertible is not None


def _full_rank(m: ExactMatrix) -> bool:
    return len(rref(m)[1]) == m.rows


def intertwiner_solve(rep1: Sequence[ExactMatrix], rep2: Sequence[ExactMatrix]) -> IntertwinerResult:
    """Solve T rep1[i] = rep2[i] T for all i over the rationals.

    rep1 acts on Q^n, rep2 on Q^m; T is m x n.  The kernel basis is canonical;
    an invertible combination is searched deterministically (basis elements,
    then pairwise integer combinations).
    """
    if len(rep1) != len(rep2):
        raise ValueError("representations must list images of the same basis")
    n = rep1[0].rows
    m = rep2[0].rows
    for r1, r2 in zip(rep1, rep2):
        if r1.rows != n or r2.rows != m:
            raise ValueError("inconsistent representation dimensions")
    # Over the unknowns T_kl, row-major, the rows (i, j) of T r1 - r2 T are
    # kron(I_m, r1^T) - kron(r2, I_n).
    system = ExactMatrix.stack(
        [ExactMatrix(np.kron(np.eye(m, dtype=np.int64), r1.num.T), r1.den)
         - ExactMatrix(np.kron(r2.num, np.eye(n, dtype=np.int64)), r2.den)
         for r1, r2 in zip(rep1, rep2)])
    mats = unflatten_rows(kernel_basis(system), m, n)
    witness = None
    if m == n:
        for t in mats:
            if _full_rank(t):
                witness = t
                break
        if witness is None and len(mats) > 1:
            for i in range(len(mats)):
                for j in range(i + 1, len(mats)):
                    for c in (1, -1, 2, -2, 3):
                        t = mats[i] + mats[j].scale(c)
                        if _full_rank(t):
                            witness = t
                            break
                    if witness is not None:
                        break
                if witness is not None:
                    break
    return IntertwinerResult(tuple(mats), witness)


def adjoint_rep_on_m() -> list[ExactMatrix]:
    """Matrices of ad(A)|_m in the complement basis, for the 8 sl(3) basis elements."""
    basis = g2_basis()
    out = []
    for a in basis.h_elements:
        cols = []
        for x in basis.m_elements:
            c = basis.expand(bracket(a, x))
            if c is None or any(c[H_SLOTS]):
                raise AssertionError("adjoint action leaves the complement block")
            cols.append(c[M_SLOTS])
        out.append(ExactMatrix.from_rows([[cols[j][i] for j in range(6)] for i in range(6)]))
    return out


def canonical_rep6() -> list[ExactMatrix]:
    """The defining 6-dimensional action of the sl(3) basis."""
    return [sl3_embed(p) for p in sl3_param_basis()]


def sl3_canonical_rep3() -> list[ExactMatrix]:
    """The split form: 8 trace-free 3x3 matrices hat(x) + y on the same basis order."""
    out = []
    for p in sl3_param_basis():
        out.append(hat3(p.x) + p.y)
    return out


def dual_rep(rep: Sequence[ExactMatrix]) -> list[ExactMatrix]:
    return [(-m).transpose() for m in rep]
