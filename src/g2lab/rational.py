"""Dense exact-rational matrices and stacks of them: the carrier for all
algebraic certification.

An `ExactMatrix` is an integer numpy array of numerators over one positive
common denominator, kept in lowest terms (no factor divides the denominator
and every numerator), so equality of matrices is literal equality of the pair;
FLINT's `fmpq_mat` is the same design.  The array has shape (..., rows, cols):
leading axes make a stack of matrices over the one denominator, and `@`, `+`,
`-`, `scale`, `transpose`, `equal`, `bracket`, `trace_form` and `Bilinear`
broadcast over them as numpy does, so a certificate checks all its cases in
one call.  A single matrix is a stack with no leading axes.  A stack with a
zero-length axis is refused (`ValueError`), so no stacked check passes on no
cases.  A vector is a 1 x n matrix and a stack of vectors has shape
(..., 1, n).

Arithmetic is numpy integer arithmetic.  Before each product or sum the bound
on the entries of the result (for a product, max|A| * max|B| * k, over the
whole stack) is checked against 2^62; when it is not below, the same
expression runs on Python integers (`dtype=object`).  The result is exact
either way, and the check is the certificate.  Numerators are held as int64
exactly when all of them lie below 2^62.  The constructor divides out the
gcd of the denominator and the numerators, except at denominator 1, which
is in lowest terms already; `reshape`, `transpose` and `-` move or negate
entries, which keeps the gcd and the bound, so they reuse both.

`fractions.Fraction` appears only at the boundary.  `_as_q` reads scalars in
(an int or a Fraction; a float is a TypeError, so no floating point ever
enters), and `__getitem__`, `row`, iteration and `exact_json` hand them
out.  The functions that take vectors (`Bilinear`, and `dot` in
`octonions`) take either one sequence of exact scalars, and return a tuple,
or a stack of rows, and return a stack.

The bookkeeping of alternating forms lives here once, for the exact forms
(rows of an `ExactMatrix`) and the float ones alike: `combinations_index`
orders the sorted k-tuples that hold a k-form's components, `sort_with_sign`
is the one inversion count, and `alternating_table` the one sign table from
components to the dense antisymmetric tensor.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

import numpy as np

Q = Fraction
LIMIT = 1 << 62   # int64 numerators and bounds of int64 results stay below this


def _as_q(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"exact scalar expected (int or Fraction), got {type(x).__name__}")


def exact_json(q: Fraction) -> dict:
    """The JSON form of an exact scalar: numerator and denominator as strings."""
    return {"num": str(q.numerator), "den": str(q.denominator)}


def _fit(bound: int, *arrays) -> tuple:
    """`arrays` as they are when `bound`, a bound on every entry of the
    result to be computed from them, is below 2^62; else as Python ints."""
    if bound < LIMIT:
        return arrays
    return tuple(a.astype(object) for a in arrays)


def _refuse_empty(num: np.ndarray):
    if 0 in num.shape[:-2]:
        raise ValueError(f"empty stack of shape {num.shape}: a stacked "
                         "check would hold on no cases")


def _magnitude(num: np.ndarray) -> int:
    """max |entry| of an integer array, 0 when it is empty."""
    return int(max(num.max(), -num.min())) if num.size else 0


def _over_common_den(mats: Sequence["ExactMatrix"]) -> tuple[list, int]:
    """The numerator arrays of `mats` over their least common denominator."""
    den = lcm(*(m.den for m in mats))
    parts = []
    for m in mats:
        f = den // m.den
        a, = _fit(max(m.bound * f, f), m.num)
        parts.append(a if f == 1 else a * f)
    return parts, den


class ExactMatrix:
    """Immutable rational matrix, or stack of matrices, of shape
    (..., rows, cols): integer numerators `num` over one positive
    denominator `den`, in lowest terms, with `bound` = max |num|.

    Indexing is numpy's: it gives a matrix while two or more axes are left,
    a row as a tuple of Fractions, or an entry as a Fraction.  `len` and
    iteration run over the first axis, so a matrix iterates over its rows
    and a stack over its matrices."""

    __slots__ = ("num", "den", "bound")

    def __init__(self, num: np.ndarray, den: int):
        _refuse_empty(num)
        if den != 1:        # gcd(1, anything) = 1: already in lowest terms
            g = gcd(den, int(np.gcd.reduce(num, axis=None)))
            if g > 1:
                num = num // g
                den //= g
        bound = _magnitude(num)
        dtype = object if bound >= LIMIT else np.int64
        if num.dtype != dtype:
            num = num.astype(dtype)
        num.flags.writeable = False
        self.num, self.den, self.bound = num, den, bound

    def _unchecked(self, num: np.ndarray) -> "ExactMatrix":
        """`num`, the entries of this matrix moved or negated, over its `den`:
        such a change keeps the gcd, the bound and the dtype, so neither is
        computed again.  Only this module calls it."""
        _refuse_empty(num)
        num.flags.writeable = False
        out = ExactMatrix.__new__(ExactMatrix)
        out.num, out.den, out.bound = num, self.den, self.bound
        return out

    @staticmethod
    def from_rows(rows) -> "ExactMatrix":
        """The matrix of a sequence of equal-length rows of exact scalars (a
        matrix is returned as it is)."""
        if isinstance(rows, ExactMatrix):
            return rows
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise ValueError("ragged rows")
        fracs = [_as_q(x) for x in itertools.chain.from_iterable(rows)]
        den = lcm(*(f.denominator for f in fracs))
        nums = [f.numerator * (den // f.denominator) for f in fracs]
        dtype = object if max(map(abs, nums), default=0) >= LIMIT else np.int64
        return ExactMatrix(np.array(nums, dtype=dtype).reshape(len(rows), width), den)

    @staticmethod
    def zeros(rows: int, cols: int | None = None) -> "ExactMatrix":
        cols = rows if cols is None else cols
        return ExactMatrix(np.zeros((rows, cols), dtype=np.int64), 1)

    @staticmethod
    def identity(n: int) -> "ExactMatrix":
        return ExactMatrix(np.eye(n, dtype=np.int64), 1)

    @staticmethod
    def stack(mats) -> "ExactMatrix":
        """The matrices of a sequence as one stack along a new first axis,
        over their common denominator (a stack is returned as it is)."""
        if isinstance(mats, ExactMatrix):
            return mats
        parts, den = _over_common_den(mats)
        return ExactMatrix(np.stack(parts), den)

    @staticmethod
    def concatenate(mats: Sequence["ExactMatrix"]) -> "ExactMatrix":
        """The rows of `mats`, each matrix under the last, over their common
        denominator."""
        parts, den = _over_common_den(mats)
        return ExactMatrix(np.concatenate(parts, axis=-2), den)

    @property
    def shape(self) -> tuple:
        return self.num.shape

    @property
    def rows(self) -> int:
        return self.num.shape[-2]

    @property
    def cols(self) -> int:
        return self.num.shape[-1]

    def __getitem__(self, key):
        sub = self.num[key]
        if np.ndim(sub) >= 2:
            return ExactMatrix(sub, self.den)
        if np.ndim(sub) == 1:
            return tuple(Fraction(x, self.den) for x in sub.tolist())
        return Fraction(int(sub), self.den)

    def row(self, i: int) -> tuple:
        return tuple(Fraction(x, self.den) for x in self.num[i].tolist())

    def __len__(self) -> int:
        return self.num.shape[0]

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def reshape(self, *shape: int) -> "ExactMatrix":
        """The entries read row-major into `shape`."""
        return self._unchecked(self.num.reshape(shape))

    def _combine(self, other: "ExactMatrix", sign: int) -> "ExactMatrix":
        """self + sign * other over the least common denominator."""
        if self.shape[-2:] != other.shape[-2:]:
            raise ValueError("shape mismatch")
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        a, b = _fit(max(self.bound * fa + other.bound * fb, fa, fb), self.num, other.num)
        return ExactMatrix(a * fa + b * (sign * fb), den)

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._combine(other, 1)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._combine(other, -1)

    def __neg__(self) -> "ExactMatrix":
        return self._unchecked(-self.num)

    def scale(self, s) -> "ExactMatrix":
        s = _as_q(s)
        a, = _fit(max(self.bound, 1) * abs(s.numerator), self.num)
        return ExactMatrix(a * s.numerator, self.den * s.denominator)

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        a, b = _fit(self.bound * other.bound * self.cols, self.num, other.num)
        return ExactMatrix(a @ b, self.den * other.den)

    def transpose(self) -> "ExactMatrix":
        """Each matrix of the stack transposed."""
        return self._unchecked(np.swapaxes(self.num, -1, -2))

    def max_abs(self) -> Fraction:
        """max |entry| over the whole stack."""
        return Fraction(self.bound, self.den)

    def is_zero(self) -> bool:
        return self.bound == 0

    def is_skew(self) -> bool:
        return self.rows == self.cols and np.array_equal(self.num, -self.transpose().num)

    def equal(self, other: "ExactMatrix") -> np.ndarray:
        """Member-wise equality of two stacks, broadcast: a bool array of
        their stack shape (a bool for two matrices)."""
        return ~((self - other).num != 0).any(axis=(-2, -1))

    def submatrix(self, row_idx: Iterable[int], col_idx: Iterable[int]) -> "ExactMatrix":
        return ExactMatrix(self.num[..., list(row_idx), :][..., list(col_idx)], self.den)

    def __eq__(self, other) -> bool:
        return (isinstance(other, ExactMatrix) and self.den == other.den
                and self.num.shape == other.num.shape
                and np.array_equal(self.num, other.num))

    def __hash__(self):
        return hash((self.num.shape, self.den, tuple(self.num.ravel().tolist())))

    def __repr__(self):
        return f"ExactMatrix({'x'.join(map(str, self.num.shape))})"


class Bilinear:
    """An exact bilinear map on Q^n, B(x, y)_k = sum_ij x_i y_j T[i n + j, k],
    held as its n^2 x n matrix T: a dense tensor T[i, j, k] reshaped.  A
    call multiplies the outer products of its operand rows by T, so it
    broadcasts over stacks of rows (..., n) and checks its bounds as `@`
    does: int64 below 2^62, Python ints past it."""

    __slots__ = ("table",)

    def __init__(self, table: ExactMatrix):
        self.table = table

    def __call__(self, x, y):
        """B(x, y): a tuple for two sequences, a stack of rows for two
        stacks of rows."""
        if not isinstance(x, ExactMatrix):
            return self(ExactMatrix.from_rows([x]), ExactMatrix.from_rows([y])).row(0)
        a, b = _fit(x.bound * y.bound, x.num, y.num)
        outer = a[..., :, None] * b[..., None, :]
        outer = ExactMatrix(outer.reshape(*outer.shape[:-2], -1), x.den * y.den)
        return outer @ self.table


def unit(n: int, i: int) -> tuple:
    """The i-th standard unit vector of Q^n."""
    return tuple(Q(1) if s == i else Q(0) for s in range(n))


def unit_rows(n: int) -> ExactMatrix:
    """The n standard unit vectors of Q^n as a stack of rows (n, 1, n)."""
    return ExactMatrix.identity(n).reshape(n, 1, n)


@functools.lru_cache(maxsize=None)
def combinations_index(n: int, k: int) -> tuple:
    """The sorted k-tuples of range(n) in lexicographic order, and the
    position of each: the slots of a k-form's components on Q^n."""
    combos = tuple(itertools.combinations(range(n), k))
    return combos, {c: i for i, c in enumerate(combos)}


def sort_with_sign(word: Sequence[int]) -> tuple[tuple, int]:
    """(sorted word, sign of the permutation that sorts it); the sign is 0
    when an index repeats."""
    ordered = tuple(sorted(word))
    if len(set(ordered)) < len(ordered):
        return ordered, 0
    inversions = sum(a > b for a, b in itertools.combinations(word, 2))
    return ordered, -1 if inversions % 2 else 1


@functools.lru_cache(maxsize=None)
def alternating_table(n: int, k: int) -> np.ndarray:
    """The read-only integer (C(n, k), n^k) matrix that takes a k-form's
    components on the sorted k-tuples to its dense antisymmetric tensor,
    flattened row-major: the sign of the permutation at every ordering of
    each sorted tuple, 0 elsewhere.  One assignment per ordering of the k
    slots fills the whole column set of that ordering."""
    words = np.array(combinations_index(n, k)[0], dtype=np.intp)
    place = n ** np.arange(k - 1, -1, -1)      # row-major weight of each slot
    table = np.zeros((len(words), n ** k), dtype=np.int64)
    for perm in itertools.permutations(range(k)):
        table[np.arange(len(words)), words[:, list(perm)] @ place] = sort_with_sign(perm)[1]
    table.flags.writeable = False
    return table


def skew_basis(n: int, slots: Sequence[int]) -> ExactMatrix:
    """The stack of elementary skew n x n matrices E_ij - E_ji for i < j in
    `slots`, in lexicographic order of (i, j)."""
    i, j = np.array(list(itertools.combinations(slots, 2))).T
    num = np.zeros((len(i), n, n), dtype=np.int64)
    k = np.arange(len(i))
    num[k, i, j], num[k, j, i] = 1, -1
    return ExactMatrix(num, 1)


def bracket(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Commutator [a, b] = ab - ba of square matrices of equal size, member
    by member over broadcast stacks."""
    if a.rows != a.cols or b.rows != b.cols or a.rows != b.rows:
        raise ValueError("bracket requires square matrices of equal size")
    return a @ b - b @ a


def trace_form(a: ExactMatrix, b: ExactMatrix):
    """tr(ab): the invariant symmetric pairing used for all orthogonality claims.

    Proportional to the Killing form on each simple piece; negative definite on
    real skew matrices.  A Fraction for two matrices; for stacks, member by
    member over their broadcast shape, a stack of 1 x 1 matrices.
    """
    if a.rows != a.cols or b.rows != b.cols or a.rows != b.rows:
        raise ValueError("trace_form requires square matrices of equal size")
    x, y = _fit(a.bound * b.bound * a.rows * a.rows, a.num, b.num)
    t = (x * np.swapaxes(y, -1, -2)).sum(axis=(-2, -1))
    if np.ndim(t) == 0:
        return Fraction(int(t), a.den * b.den)
    return ExactMatrix(t[..., None, None], a.den * b.den)


def combination(coeffs: ExactMatrix, mats) -> ExactMatrix:
    """sum_i c_i mats[i] for each row c of `coeffs` (..., n): the rows times
    the n matrices flattened row-major, read back as a stack of matrices."""
    mats = ExactMatrix.stack(mats)
    total = coeffs @ mats.reshape(len(mats), -1)
    return total.reshape(*total.shape[:-1], mats.rows, mats.cols)


def common_ratio(x: ExactMatrix, y: ExactMatrix) -> Fraction | None:
    """The single r with x = r y entrywise, for two stacks of one shape, or
    None if there is none (or if y is all zero, so that r is not
    determined).  r is read off the first nonzero entry of y and checked on
    the numerators: x den_y r_den = y den_x r_num."""
    nonzero = np.flatnonzero(y.num)
    if not nonzero.size:
        return None
    k = nonzero[0]
    r = Fraction(int(x.num.flat[k]) * y.den, int(y.num.flat[k]) * x.den)
    fx, fy = y.den * r.denominator, x.den * r.numerator
    a, b = _fit(max(max(x.bound, 1) * fx, max(y.bound, 1) * abs(fy)), x.num, y.num)
    return r if np.array_equal(a * fx, b * fy) else None
