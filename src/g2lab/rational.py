"""Dense exact-rational matrices: the carrier for all algebraic certification.

An `ExactMatrix` is an integer numpy array of numerators over one positive
common denominator, kept in lowest terms (no factor divides the denominator
and every numerator), so equality of matrices is literal equality of the pair;
FLINT's `fmpq_mat` is the same design.  Arithmetic is numpy integer
arithmetic.  Before each product or sum the bound on the entries of the result
(for a product, max|A| * max|B| * k) is checked against 2^62; when it is not
below, the same expression runs on Python integers (`dtype=object`).  The
result is exact either way, and the check is the certificate.  Numerators are
held as int64 exactly when all of them lie below 2^62.

`fractions.Fraction` appears only at the boundary.  `_as_q` reads scalars in
(an int or a Fraction; a float is a TypeError, so no floating point ever
enters), and `__getitem__`, `row`, `flatten`, iteration over rows and
`exact_json` hand them out.
"""

from __future__ import annotations

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


def numerators(xs: Iterable) -> tuple[list, int]:
    """The exact scalars `xs` as Python-int numerators over their least
    common denominator."""
    fracs = [_as_q(x) for x in xs]
    den = lcm(*(f.denominator for f in fracs))
    return [f.numerator * (den // f.denominator) for f in fracs], den


def _magnitude(num: np.ndarray) -> int:
    """max |entry| of an integer array, 0 when it is empty."""
    return int(max(num.max(), -num.min())) if num.size else 0


class ExactMatrix:
    """Immutable rows x cols rational matrix: integer numerators `num` over
    one positive denominator `den`, in lowest terms, with `bound` = max |num|.

    A matrix is also the sequence of its rows: `len` counts them and
    iteration yields each as a tuple of Fractions."""

    __slots__ = ("num", "den", "bound")

    def __init__(self, num: np.ndarray, den: int):
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

    @staticmethod
    def from_rows(rows) -> "ExactMatrix":
        """The matrix of a sequence of equal-length rows of exact scalars (a
        matrix is returned as it is)."""
        if isinstance(rows, ExactMatrix):
            return rows
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise ValueError("ragged rows")
        nums, den = numerators(itertools.chain.from_iterable(rows))
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
    def stack(mats: Sequence["ExactMatrix"]) -> "ExactMatrix":
        """The rows of `mats`, each matrix under the last, over their common
        denominator."""
        den = lcm(*(m.den for m in mats))
        parts = []
        for m in mats:
            f = den // m.den
            a, = _fit(max(m.bound * f, f), m.num)
            parts.append(a if f == 1 else a * f)
        return ExactMatrix(np.concatenate(parts), den)

    @property
    def rows(self) -> int:
        return self.num.shape[0]

    @property
    def cols(self) -> int:
        return self.num.shape[1]

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return Fraction(int(self.num[i, j]), self.den)

    def row(self, i: int) -> tuple:
        return tuple(Fraction(x, self.den) for x in self.num[i].tolist())

    def __len__(self) -> int:
        return self.rows

    def __iter__(self):
        return (self.row(i) for i in range(self.rows))

    def reshape(self, rows: int, cols: int) -> "ExactMatrix":
        """The entries read row-major into a rows x cols matrix."""
        return ExactMatrix(self.num.reshape(rows, cols), self.den)

    def _combine(self, other: "ExactMatrix", sign: int) -> "ExactMatrix":
        """self + sign * other over the least common denominator."""
        self._check_same_shape(other)
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        a, b = _fit(max(self.bound * fa + other.bound * fb, fa, fb), self.num, other.num)
        return ExactMatrix(a * fa + b * (sign * fb), den)

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._combine(other, 1)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._combine(other, -1)

    def __neg__(self) -> "ExactMatrix":
        return ExactMatrix(-self.num, self.den)

    def scale(self, s) -> "ExactMatrix":
        s = _as_q(s)
        a, = _fit(max(self.bound, 1) * abs(s.numerator), self.num)
        return ExactMatrix(a * s.numerator, self.den * s.denominator)

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        a, b = _fit(self.bound * other.bound * self.cols, self.num, other.num)
        return ExactMatrix(a @ b, self.den * other.den)

    def apply(self, v: Sequence) -> tuple:
        """Matrix-vector product, v given as a plain sequence of rationals."""
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return (self @ ExactMatrix.from_rows([v]).transpose()).flatten()

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(self.num.T, self.den)

    def trace(self) -> Fraction:
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        return Fraction(sum(np.diagonal(self.num).tolist()), self.den)

    def flatten(self) -> tuple:
        return self.reshape(1, -1).row(0)

    def is_zero(self) -> bool:
        return self.bound == 0

    def is_skew(self) -> bool:
        return self.rows == self.cols and np.array_equal(self.num, -self.num.T)

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and np.array_equal(self.num, self.num.T)

    def submatrix(self, row_idx: Iterable[int], col_idx: Iterable[int]) -> "ExactMatrix":
        return ExactMatrix(self.num[np.ix_(list(row_idx), list(col_idx))], self.den)

    def to_floats(self):
        return [[float(self[i, j]) for j in range(self.cols)] for i in range(self.rows)]

    def _check_same_shape(self, other: "ExactMatrix"):
        if self.num.shape != other.num.shape:
            raise ValueError("shape mismatch")

    def __eq__(self, other) -> bool:
        return (isinstance(other, ExactMatrix) and self.den == other.den
                and self.num.shape == other.num.shape
                and np.array_equal(self.num, other.num))

    def __hash__(self):
        return hash((self.num.shape, self.den, tuple(self.num.ravel().tolist())))

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols})"


class Bilinear:
    """An exact bilinear map B(x, y)_k = sum of c x_i y_j over its nonzero
    terms (i, j, k, c), held as index arrays and one row of coefficients.  A
    call runs on the integer numerators of x and y: the terms are gathered by
    index, multiplied and scattered to their slots, as int64 when the bound on
    every sum is below 2^62 and as Python ints past it."""

    __slots__ = ("i", "j", "k", "coef", "size")

    def __init__(self, terms: Iterable[tuple], size: int):
        terms = list(terms)
        i, j, k, coef = zip(*terms) if terms else ((),) * 4
        self.i, self.j, self.k = (np.array(v, dtype=np.intp) for v in (i, j, k))
        self.coef = ExactMatrix.from_rows([coef])
        self.size = size

    def __call__(self, x: Sequence, y: Sequence) -> tuple:
        (a, da), (b, db) = numerators(x), numerators(y)
        bound = (len(self.k) * max(self.coef.bound, 1)
                 * max([1, *map(abs, a)]) * max([1, *map(abs, b)]))
        dtype = object if bound >= LIMIT else np.int64
        a, b = np.array(a, dtype=dtype), np.array(b, dtype=dtype)
        out = np.zeros(self.size, dtype=dtype)
        np.add.at(out, self.k, self.coef.num[0].astype(dtype) * a[self.i] * b[self.j])
        den = da * db * self.coef.den
        return tuple(Fraction(v, den) for v in out.tolist())


def flat_rows(mats: Sequence[ExactMatrix]) -> ExactMatrix:
    """The matrices flattened row-major (the fixed convention), one per row."""
    return ExactMatrix.stack([m.reshape(1, -1) for m in mats])


def unflatten_rows(m: ExactMatrix, rows: int, cols: int) -> list[ExactMatrix]:
    """Each row of `m` read row-major into a rows x cols matrix."""
    return [ExactMatrix(r.reshape(rows, cols), m.den) for r in m.num]


def unit(n: int, i: int) -> tuple:
    """The i-th standard unit vector of Q^n."""
    return tuple(Q(1) if s == i else Q(0) for s in range(n))


def skew_basis(n: int, slots: Sequence[int]) -> list[ExactMatrix]:
    """Elementary skew n x n matrices E_ij - E_ji for i < j in `slots`, in
    lexicographic order of (i, j)."""
    out = []
    for i, j in itertools.combinations(slots, 2):
        num = np.zeros((n, n), dtype=np.int64)
        num[i, j], num[j, i] = 1, -1
        out.append(ExactMatrix(num, 1))
    return out


def bracket(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Commutator [a, b] = ab - ba of square matrices of equal size."""
    if a.rows != a.cols or b.rows != b.cols or a.rows != b.rows:
        raise ValueError("bracket requires square matrices of equal size")
    return a @ b - b @ a


def trace_form(a: ExactMatrix, b: ExactMatrix) -> Fraction:
    """tr(ab): the invariant symmetric pairing used for all orthogonality claims.

    Proportional to the Killing form on each simple piece; negative definite on
    real skew matrices.
    """
    if a.rows != a.cols or b.rows != b.cols or a.rows != b.rows:
        raise ValueError("trace_form requires square matrices of equal size")
    x, y = _fit(a.bound * b.bound * a.rows * a.rows, a.num, b.num)
    return Fraction(int((x * y.T).sum()), a.den * b.den)


def combination(coeffs: Sequence, mats: Sequence[ExactMatrix]) -> ExactMatrix:
    """sum_i coeffs[i] * mats[i]: one row of coefficients times the matrices
    flattened into rows."""
    total = ExactMatrix.from_rows([coeffs]) @ flat_rows(mats)
    return total.reshape(mats[0].rows, mats[0].cols)


def common_ratio(xs: Sequence, ys: Sequence) -> Fraction | None:
    """The single r with xs = r * ys entrywise, or None if there is none (or
    if ys is all zero, so that r is not determined)."""
    r = None
    for x, y in zip(xs, ys):
        if y != 0:
            if r is None:
                r = x / y
            elif x / y != r:
                return None
        elif x != 0:
            return None
    return r
