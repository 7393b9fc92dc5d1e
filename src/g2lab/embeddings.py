"""Explicit matrix models of sl(3) in so(6), its 14-dimensional extension inside
so(7), the equivariant h-map, and the lift of algebra elements to so(n+1).

Index convention on R^7: blocks (1..3 | 4 | 5..7), zero-based (0,1,2 | 3 | 4,5,6).
Slot 4 (index 3) is the distinguished axis; the two 3-blocks carry the split
used by all downstream constructions.  All identities exposed here are
certified exactly, never assumed.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

import numpy as np

from .rational import (ExactMatrix, _fit, _over_common_den, alternating_table,
                       bracket, common_ratio, trace_form, unit_rows)
from .subspaces import Coordinates, Subspace, kernel_basis, rref

PLUS = (0, 1, 2)
AXIS = 3
MINUS = (4, 5, 6)


@functools.lru_cache(maxsize=1)
def _sl3_tables() -> tuple[np.ndarray, np.ndarray]:
    """The fixed sl(3) basis as its parameters (x, y), two read-only (8, 3, 3)
    integer stacks: hat(x), the skew matrix of the cross product with x
    (hat(x) y = x X y, e1 X e2 = e3), and the symmetric trace-free y.  The
    first three elements are x = e_0, e_1, e_2, the other five are y."""
    hat = np.zeros((8, 3, 3), dtype=np.int64)
    hat[:3] = -alternating_table(3, 3).reshape(3, 3, 3)    # hat(e_k)_ij = -eps_kij
    y = np.zeros((8, 3, 3), dtype=np.int64)
    y[3:] = [[[1, 0, 0], [0, -1, 0], [0, 0, 0]],
             [[0, 0, 0], [0, 1, 0], [0, 0, -1]],
             [[0, 1, 0], [1, 0, 0], [0, 0, 0]],
             [[0, 0, 1], [0, 0, 0], [1, 0, 0]],
             [[0, 0, 0], [0, 0, 1], [0, 1, 0]]]
    hat.flags.writeable = y.flags.writeable = False
    return hat, y


def so6_to_so7(m: ExactMatrix) -> ExactMatrix:
    """Embed so(6) into so(7) with the 4th row and column zero (each
    member of a stack)."""
    if m.rows != 6 or m.cols != 6:
        raise ValueError("expected a 6x6 matrix")
    idx = np.array(PLUS + MINUS)
    num = np.zeros((*m.shape[:-2], 7, 7), dtype=m.num.dtype)
    num[..., idx[:, None], idx] = m.num
    return ExactMatrix(num, m.den)


def so7_to_so6(m: ExactMatrix) -> ExactMatrix:
    """Restrict a 7x7 matrix to the two 3-blocks (drops the axis row/column)."""
    idx = list(PLUS) + list(MINUS)
    return m.submatrix(idx, idx)


@functools.lru_cache(maxsize=1)
def _m_table() -> ExactMatrix:
    """m_embed(e_t) flattened row-major, one row per coordinate t of (a, b):
    the a coordinates fill the blocks PLUS x MINUS and MINUS x PLUS with
    hat(e_t), the b coordinates PLUS x PLUS with hat(e_t) and MINUS x MINUS
    with -hat(e_t); the axis column holds 2 e_t.  Laid out on its own, not
    from _h_table, so that h_scale_certificate compares two constructions."""
    hat = _sl3_tables()[0][:3]
    m = np.zeros((6, 7, 7), dtype=np.int64)
    m[:3, 0:3, 4:7] = m[:3, 4:7, 0:3] = hat
    m[3:, 0:3, 0:3], m[3:, 4:7, 4:7] = hat, -hat
    t, idx = np.arange(6), np.array(PLUS + MINUS)
    m[t, idx, AXIS], m[t, AXIS, idx] = 2, -2
    return ExactMatrix(m.reshape(6, 49), 1)


@functools.lru_cache(maxsize=1)
def _h_table() -> ExactMatrix:
    """h(e_t) flattened row-major, one row per coordinate t of (a, b): the
    a coordinates fill the off-diagonal blocks with hat(e_t), the b
    coordinates the diagonal blocks with hat(e_t) and -hat(e_t), over 2."""
    hat = _sl3_tables()[0][:3]
    h = np.zeros((6, 6, 6), dtype=np.int64)
    h[:3, :3, 3:] = h[:3, 3:, :3] = hat
    h[3:, :3, :3], h[3:, 3:, 3:] = hat, -hat
    return ExactMatrix(h.reshape(6, 36), 2)


def _linear_image(v, table: ExactMatrix, n: int) -> ExactMatrix:
    """The n x n matrix (a stack of them for a stack of rows) of the linear
    map whose values on the six coordinates of (a, b) are `table`'s rows."""
    out = v @ table
    return out.reshape(*out.shape[:-2], n, n)


def m_embed(v) -> ExactMatrix:
    """The skew 7x7 image {a}^1 + {b}^2 of (a, b); the axis column holds 2a, 2b.

    v is a row (1, 6) of (a, b) or a stack of them (..., 1, 6), as for h_map."""
    return _linear_image(v, _m_table(), 7)


def h_map(v) -> ExactMatrix:
    """The equivariant map into so(6):  h(a, b) = 1/2 [[hat(b), hat(a)], [hat(a), -hat(b)]].

    v is a row (1, 6) of (a, b) (a 6x6 matrix comes back) or a stack of
    rows (..., 1, 6) (a stack of 6x6 matrices comes back)."""
    return _linear_image(v, _h_table(), 6)


def lift_gtilde(a6: ExactMatrix, x) -> ExactMatrix:
    """Lift (A, x) to so(7) with the distinguished slot last:
    [[A + h(x), x], [-x^T, 0]].  x is a row (1, 6) of (a, b) or a stack of
    rows (..., 1, 6), and a stack of lifts comes back for a stack."""
    if a6.rows != 6 or a6.cols != 6:
        raise ValueError("expected a 6x6 algebra part")
    (top, col), den = _over_common_den([a6 + h_map(x), x])
    num = np.zeros((*top.shape[:-2], 7, 7), dtype=np.result_type(top, col))
    num[..., :6, :6] = top
    num[..., :6, 6] = col[..., 0, :]
    num[..., 6, :6] = -col[..., 0, :]
    return ExactMatrix(num, den)


H_SLOTS = slice(0, 8)     # the sl(3) images among the 14 basis elements
M_SLOTS = slice(8, 14)    # the complement images
PAIRS = np.triu_indices(14, 1)   # the 91 pairs i < j, in lexicographic order


@dataclass(frozen=True)
class G2Basis:
    """14 certified skew 7x7 matrices: 8 sl(3) images then 6 complement images.

    `coordinates` maps a matrix of their span, or each member of a stack, to
    its exact coefficients in this basis; construction fails loudly if
    independence, skewness or bracket closure does not certify.
    """

    elements: ExactMatrix         # the stack (14, 7, 7)
    structure_constants: ExactMatrix   # row k: [e_i, e_j] in the basis, (i, j) the k-th of PAIRS
    coordinates: Coordinates

    @property
    def span(self) -> Subspace:
        """The span of the elements in flattened 7x7 matrices."""
        return self.coordinates.span

    @property
    def h_elements(self) -> ExactMatrix:
        return self.elements[H_SLOTS]

    @property
    def m_elements(self) -> ExactMatrix:
        return self.elements[M_SLOTS]

    @functools.cached_property
    def m_span(self) -> Subspace:
        """The span of the complement elements, built on first use."""
        return Subspace.span_matrices(self.m_elements)


@functools.lru_cache(maxsize=1)
def g2_basis() -> G2Basis:
    """Build and certify the 14-dimensional algebra spanned by the sl(3) and
    complement images inside so(7)."""
    els = ExactMatrix.stack([*so6_to_so7(canonical_rep6()), *m_embed(unit_rows(6))])
    if not els.is_skew():
        raise AssertionError("basis element is not skew")
    coords = Coordinates.of(els.reshape(14, 49))   # raises unless independent
    i, j = PAIRS
    brackets = bracket(els[i], els[j])
    sc = coords(brackets)
    if sc is None:
        k = int(np.argmin(coords.span.contains(brackets)))
        raise AssertionError(f"bracket of basis elements {i[k]},{j[k]} escapes the span")
    return G2Basis(els, sc.reshape(len(i), 14), coords)


def reductivity_certificate() -> bool:
    """[h, m] lies in m, exactly, for every pair of basis elements."""
    basis = g2_basis()
    m = basis.m_elements
    return bool(np.all(basis.m_span.contains(bracket(basis.h_elements[:, None], m))))


def non_symmetry_witness():
    """The first pair i < j of complement elements whose bracket has a
    nonzero sl(3) part, or None."""
    m = g2_basis().m_elements
    i, j = np.triu_indices(len(m), 1)
    outside = np.flatnonzero(~g2_basis().m_span.contains(bracket(m[i], m[j])))
    return (int(i[outside[0]]), int(j[outside[0]])) if outside.size else None


def orthogonality_certificate() -> bool:
    """trace_form(h-block, m-block) = 0 on all basis pairs."""
    basis = g2_basis()
    return trace_form(basis.h_elements[:, None], basis.m_elements).is_zero()


def h_equivariance_certificate() -> bool:
    """[A, h(x)] = h(Ax) for all sl(3) basis A (6x6) and complement basis x."""
    a = canonical_rep6()[:, None]
    x = unit_rows(6)
    ax = (a @ x.transpose()).transpose()      # each A x, as a row
    return bracket(a, h_map(x)) == h_map(ax)


def h_scale_certificate() -> Fraction | None:
    """The single scale s with so(6)-part of m_embed(v) = s * h_map(v), all
    basis v, or None if there is none."""
    v = unit_rows(6)
    return common_ratio(so7_to_so6(m_embed(v)), h_map(v))


AXIS_TO_LAST = (0, 1, 2, 4, 5, 6, 3)  # permutation moving the axis slot to slot 7


def lift_scale_certificate() -> Fraction | None:
    """The single scale s with m_embed(v), its axis slot moved last, = s *
    the lift of v, all basis v, or None if there is none."""
    v = unit_rows(6)
    return common_ratio(m_embed(v).submatrix(AXIS_TO_LAST, AXIS_TO_LAST),
                        lift_gtilde(ExactMatrix.zeros(6), v))


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


def _intertwiner_system(rep1: ExactMatrix, rep2: ExactMatrix) -> ExactMatrix:
    """The linear system of T rep1[i] = rep2[i] T for two stacks (N, n, n)
    and (N, m, m), over the unknowns T_kl row-major: the rows (i, j) of
    T r1 - r2 T are kron(I_m, r1^T) - kron(r2, I_n), so entry ((i, j),
    (k, l)) is [i = k] r1_lj - r2_ik [j = l].  All members are written over
    one denominator into one array."""
    n, m = rep1.rows, rep2.rows
    den = lcm(rep1.den, rep2.den)
    f1, f2 = den // rep1.den, den // rep2.den
    r1, r2 = _fit(max(rep1.bound * f1 + rep2.bound * f2, f1, f2), rep1.num, rep2.num)
    system = np.zeros((len(rep1), m, n, m, n), dtype=np.result_type(r1, r2))
    diag_m, diag_n = np.arange(m), np.arange(n)
    system[:, diag_m, :, diag_m, :] = np.swapaxes(r1, -1, -2) * f1
    system[:, :, diag_n, :, diag_n] -= r2 * f2
    return ExactMatrix(system.reshape(-1, m * n), den)


def intertwiner_solve(rep1: Sequence[ExactMatrix], rep2: Sequence[ExactMatrix]) -> IntertwinerResult:
    """Solve T rep1[i] = rep2[i] T for all i over the rationals.  Each
    representation is a stack or a sequence of matrices.

    rep1 acts on Q^n, rep2 on Q^m; T is m x n.  The kernel basis is canonical;
    an invertible combination is searched deterministically (basis elements,
    then pairwise integer combinations).
    """
    rep1, rep2 = ExactMatrix.stack(rep1), ExactMatrix.stack(rep2)
    if len(rep1) != len(rep2):
        raise ValueError("representations must list images of the same basis")
    n, m = rep1.rows, rep2.rows
    if rep1.cols != n or rep2.cols != m:
        raise ValueError("inconsistent representation dimensions")
    system = _intertwiner_system(rep1, rep2)
    kernel = kernel_basis(system)
    mats = list(kernel.reshape(len(kernel), m, n)) if len(kernel) else []
    pairs = (mats[i] + mats[j].scale(c)
             for i, j in itertools.combinations(range(len(mats)), 2)
             for c in (1, -1, 2, -2, 3))
    candidates = itertools.chain(mats, pairs) if m == n else ()
    witness = next((t for t in candidates if _full_rank(t)), None)
    return IntertwinerResult(tuple(mats), witness)


def adjoint_rep_on_m() -> ExactMatrix:
    """The stack of matrices of ad(A)|_m in the complement basis, for the 8
    sl(3) basis elements A."""
    basis = g2_basis()
    c = basis.coordinates(bracket(basis.h_elements[:, None], basis.m_elements))
    if c is None or not c[..., H_SLOTS].is_zero():
        raise AssertionError("adjoint action leaves the complement block")
    # row j of each member holds the coordinates of [A, x_j]: its column j
    return c[..., 0, M_SLOTS].transpose()


@functools.lru_cache(maxsize=1)
def canonical_rep6() -> ExactMatrix:
    """The defining 6-dimensional action of the sl(3) basis, as a stack of
    the block matrices [[hat(x), -y], [y, hat(x)]]."""
    hat, y = _sl3_tables()
    num = np.zeros((8, 6, 6), dtype=np.int64)
    num[:, :3, :3] = num[:, 3:, 3:] = hat
    num[:, :3, 3:], num[:, 3:, :3] = -y, y
    return ExactMatrix(num, 1)


def sl3_canonical_rep3() -> ExactMatrix:
    """The split form: the stack of 8 trace-free 3x3 matrices hat(x) + y on
    the same basis order."""
    hat, y = _sl3_tables()
    return ExactMatrix(hat + y, 1)


def dual_rep(rep: ExactMatrix) -> ExactMatrix:
    """The dual representation of a stack: each member's negative transpose."""
    return (-rep).transpose()
