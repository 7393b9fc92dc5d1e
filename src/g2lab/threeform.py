"""Exact alternating forms on Q^7: the invariant 3-form of the certified
algebra, its Hodge dual, the induced cross product, and wedge identities.

A k-form is an `ExactMatrix` row (1, C(7, k)) of its components on the
sorted k-tuples in lexicographic order (`rational.combinations_index`), so a
3-form and a 4-form are both 35 wide.  Every sign comes from `rational`: the
dense tensor of a form is its row times `alternating_table`, and the Hodge
star and the wedge pairing share one signed complement table.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from .embeddings import g2_basis
from .rational import (Bilinear, ExactMatrix, Q, _fit, alternating_table,
                       combinations_index, skew_basis, sort_with_sign)
from .subspaces import Subspace, kernel_basis


def _rational_sqrt(x: Fraction) -> Fraction | None:
    if x < 0:
        return None
    n, d = x.numerator, x.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def norm_sq(form: ExactMatrix) -> Fraction:
    """The sum of the squared components of a form row."""
    return (form @ form.transpose())[0, 0]


def normalize(form: ExactMatrix) -> ExactMatrix:
    """The form row scaled to squared norm 7, with its first nonzero
    component (lexicographic tuple order) positive."""
    n2 = norm_sq(form)
    if n2 == 0:
        raise ValueError("cannot normalize the zero form")
    s = _rational_sqrt(Q(7) / n2)
    if s is None:
        raise ValueError("norm cannot be scaled to 7 over the rationals")
    if next(c for c in form.row(0) if c != 0) < 0:
        s = -s
    return form.scale(s)


def dense(form: ExactMatrix, n: int, k: int) -> ExactMatrix:
    """The dense antisymmetric tensor of a k-form row (1, C(n, k)) on Q^n,
    k >= 2: a stack of shape (n,) * k."""
    return (form @ ExactMatrix(alternating_table(n, k), 1)).reshape(*(n,) * k)


@functools.lru_cache(maxsize=1)
def _threeform_action_terms() -> tuple:
    """The nonzero terms of (A.phi)_ijk = -sum_m (A_mi phi_mjk + A_mj phi_imk
    + A_mk phi_ijm) as index arrays (row, column, sign, m, i): the entry
    sign * A[m, i] adds to the 35x35 action at (row, column).  Each word, a
    sorted triple with one slot replaced by m, reads its sorted triple and
    its sign off its column of `alternating_table(7, 3)`, in one gather."""
    triples = np.array(combinations_index(7, 3)[0])
    words = np.broadcast_to(triples[:, None, None], (35, 3, 7, 3)).copy()
    slot, m = np.arange(3)[:, None], np.arange(7)
    words[:, slot, m, slot] = m              # words[row, slot, m]
    table = alternating_table(7, 3)
    flat = (words @ 7 ** np.arange(2, -1, -1)).ravel()    # each word's column
    hit = (table != 0).argmax(axis=0)[flat]               # its sorted triple
    sign = table[hit, flat]
    term = np.flatnonzero(sign)              # in (row, slot, m) order
    row, slot, m = np.unravel_index(term, (35, 3, 7))
    return row, hit[term], -sign[term], m, triples[row, slot]


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
def invariant_threeform() -> ExactMatrix:
    """The unique (up to scale) 3-form annihilated by the whole algebra, as
    a row (1, 35), normalized to squared norm 7 with the fixed sign
    convention."""
    ker = kernel_basis(action_on_threeforms(g2_basis().elements).reshape(-1, 35))
    if len(ker) != 1:
        raise ValueError(f"invariance kernel has dimension {len(ker)}, not 1: "
                         "the basis does not span a copy of the 14-dim algebra")
    return normalize(ker[:1])


def so7_basis() -> ExactMatrix:
    """Elementary skew basis E_ij - E_ji, i < j, of so(7): a stack of 21."""
    return skew_basis(7, range(7))


def stabilizer_in_so7(phi: ExactMatrix) -> Subspace:
    """{A in so(7) : A.phi = 0} as a subspace of flattened 7x7 matrices."""
    basis = so7_basis()
    # row c = action of basis[c] applied to phi; the kernel is of the transpose
    images = (action_on_threeforms(basis) @ phi.transpose()).reshape(len(basis), 35)
    return Subspace.span(kernel_basis(images.transpose()) @ basis.reshape(len(basis), 49), 49)


@functools.lru_cache(maxsize=1)
def _complement_table() -> ExactMatrix:
    """S (35 x 35): S[t, q] is the sign of the word t q for each sorted
    triple t and its complementary sorted quad q, and 0 elsewhere."""
    triples, _ = combinations_index(7, 3)
    _, quad_index = combinations_index(7, 4)
    num = np.zeros((35, 35), dtype=np.int64)
    for row, t in enumerate(triples):
        q = tuple(i for i in range(7) if i not in t)
        num[row, quad_index[q]] = sort_with_sign(t + q)[1]
    return ExactMatrix(num, 1)


def star_phi(phi: ExactMatrix) -> ExactMatrix:
    """Hodge dual of a 3-form row w.r.t. the Euclidean metric and the
    orientation e1^...^e7: the 4-form row phi S."""
    return phi @ _complement_table()


def wedge_3_4(alpha: ExactMatrix, beta: ExactMatrix) -> Fraction:
    """Coefficient of the volume form e1^...^e7 in alpha ^ beta, for a
    3-form row and a 4-form row: alpha S beta^T."""
    return (alpha @ _complement_table() @ beta.transpose())[0, 0]


def phi_cross_duality(phi: ExactMatrix) -> Bilinear:
    """The cross product with <x X y, z> = phi(x, y, z): (x X y)_k
    = sum_ij phi_ijk x_i y_j over the dense tensor of phi."""
    return Bilinear(dense(phi, 7, 3).reshape(49, 7))
