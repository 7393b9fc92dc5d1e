"""Dense exact-rational matrices: the carrier for all algebraic certification.

Everything in this module is a pure function of immutable values; scalars are
`fractions.Fraction` throughout and no floating point ever enters.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

Q = Fraction


def _as_q(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"exact scalar expected (int or Fraction), got {type(x).__name__}")


def exact_json(q: Fraction) -> dict:
    """The JSON form of an exact scalar: numerator and denominator as strings."""
    return {"num": str(q.numerator), "den": str(q.denominator)}


@dataclass(frozen=True)
class ExactMatrix:
    """Immutable rows x cols matrix of rationals, stored row-major."""

    rows: int
    cols: int
    entries: tuple  # length rows*cols, Fraction

    def __post_init__(self):
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError("matrix dimensions must be positive")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match shape")

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "ExactMatrix":
        r = len(rows)
        c = len(rows[0])
        ent = []
        for row in rows:
            if len(row) != c:
                raise ValueError("ragged rows")
            ent.extend(_as_q(x) for x in row)
        return ExactMatrix(r, c, tuple(ent))

    @staticmethod
    def zeros(rows: int, cols: int | None = None) -> "ExactMatrix":
        cols = rows if cols is None else cols
        return ExactMatrix(rows, cols, (Q(0),) * (rows * cols))

    @staticmethod
    def identity(n: int) -> "ExactMatrix":
        ent = [Q(0)] * (n * n)
        for i in range(n):
            ent[i * n + i] = Q(1)
        return ExactMatrix(n, n, tuple(ent))

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_same_shape(other)
        return ExactMatrix(self.rows, self.cols,
                           tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_same_shape(other)
        return ExactMatrix(self.rows, self.cols,
                           tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "ExactMatrix":
        return ExactMatrix(self.rows, self.cols, tuple(-a for a in self.entries))

    def scale(self, s) -> "ExactMatrix":
        s = _as_q(s)
        return ExactMatrix(self.rows, self.cols, tuple(s * a for a in self.entries))

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        n, m, k = self.rows, other.cols, self.cols
        a, b = self.entries, other.entries
        out = []
        for i in range(n):
            arow = a[i * k:(i + 1) * k]
            for j in range(m):
                out.append(sum((arow[t] * b[t * m + j] for t in range(k)), Q(0)))
        return ExactMatrix(n, m, tuple(out))

    def apply(self, v: Sequence) -> tuple:
        """Matrix-vector product, v given as a plain sequence of rationals."""
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        vq = [_as_q(x) for x in v]
        return tuple(sum((self[i, j] * vq[j] for j in range(self.cols)), Q(0))
                     for i in range(self.rows))

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(self.cols, self.rows,
                           tuple(self[i, j] for j in range(self.cols) for i in range(self.rows)))

    def trace(self) -> Fraction:
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        return sum((self[i, i] for i in range(self.rows)), Q(0))

    def flatten(self) -> tuple:
        return self.entries

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.entries)

    def is_skew(self) -> bool:
        return self.rows == self.cols and all(
            self[i, j] == -self[j, i] for i in range(self.rows) for j in range(i, self.cols))

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and all(
            self[i, j] == self[j, i] for i in range(self.rows) for j in range(i + 1, self.cols))

    def submatrix(self, row_idx: Iterable[int], col_idx: Iterable[int]) -> "ExactMatrix":
        ri, ci = list(row_idx), list(col_idx)
        return ExactMatrix.from_rows([[self[i, j] for j in ci] for i in ri])

    def to_floats(self):
        return [[float(self[i, j]) for j in range(self.cols)] for i in range(self.rows)]

    def _check_same_shape(self, other: "ExactMatrix"):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols})"


def unit(n: int, i: int) -> tuple:
    """The i-th standard unit vector of Q^n."""
    return tuple(Q(1) if s == i else Q(0) for s in range(n))


def skew_basis(n: int, slots: Sequence[int]) -> list[ExactMatrix]:
    """Elementary skew n x n matrices E_ij - E_ji for i < j in `slots`, in
    lexicographic order of (i, j)."""
    out = []
    for i, j in itertools.combinations(slots, 2):
        ent = [Q(0)] * (n * n)
        ent[i * n + j], ent[j * n + i] = Q(1), Q(-1)
        out.append(ExactMatrix(n, n, tuple(ent)))
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
    n = a.rows
    return sum((a[i, j] * b[j, i] for i in range(n) for j in range(n)), Q(0))


def combination(coeffs: Sequence, mats: Sequence[ExactMatrix]) -> ExactMatrix:
    """sum_i coeffs[i] * mats[i], skipping zero coefficients."""
    out = ExactMatrix.zeros(mats[0].rows, mats[0].cols)
    for c, m in zip(coeffs, mats):
        if c:
            out = out + m.scale(c)
    return out


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
