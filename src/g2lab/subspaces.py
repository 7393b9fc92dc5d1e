"""Exact subspace arithmetic: canonical echelon forms, spans, kernels, inverses.

Elimination runs on the integer numerator rows of an `ExactMatrix` and is
fraction-free (Bareiss-style): each column is scanned for nonzeros once, and
each step combines the pivot row with the rows it touches and divides out
each new row's content, so coefficient growth stays polynomial.  Before each
step the bound on the new entries, read from those rows alone, is checked
against 2^62, as in `rational`, and past it the rows continue as Python
integers.  The reduced echelon form comes out once, at the end, as an
`ExactMatrix` over the least common multiple of the pivots.  Every subspace
is held in its reduced row-echelon basis, which makes equality of subspaces
literal equality of bases.  One elimination of [[a, a], [b, 0]] gives the
sum and the intersection of two spans (Zassenhaus), and one of [A | I] the
span of A and its coordinates.

Membership and coordinates take stacks: each member of a matrix or stack
(..., rows, cols) is read row-major as one vector, so `Subspace.contains`
answers a whole stack with one product and one comparison, and
`Coordinates` gives the coefficients of every member as a stack of rows
(..., 1, dim).  Fractions appear only where a caller reads rows or
coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

import numpy as np

from .rational import ExactMatrix, _fit, _magnitude


def _divide_content(rows: np.ndarray) -> np.ndarray:
    """Each integer row divided by the gcd of its entries, in place: only the
    rows whose gcd exceeds 1 are touched (zero rows kept)."""
    g = np.gcd.reduce(rows, axis=1)
    big = g > 1
    rows[big] //= g[big, None]
    return rows


def rref(rows) -> tuple[ExactMatrix, list[int]]:
    """Reduced row echelon form with unit pivots; zero rows dropped.

    `rows` is a matrix or a sequence of rows of exact scalars.  Returns
    (the reduced rows as a matrix, pivot_columns).  Forward elimination is
    integer fraction-free; the reduction to unit pivots happens once at the
    end.
    """
    m = ExactMatrix.from_rows(rows)
    work = _divide_content(m.num[(m.num != 0).any(axis=1)])
    pivots: list[int] = []
    r = 0
    for c in range(m.cols):
        if r == len(work):
            break
        nz = work[:, c].nonzero()[0]
        below = nz[nz >= r]
        if not below.size:
            continue
        piv = int(below[0])
        if piv != r:
            work[[r, piv]] = work[[piv, r]]
        hit = nz[nz != piv]   # after the swap, row piv holds a zero of column c
        if hit.size:
            # |p * w - q * w_r| <= 2 max(|w_r|, |w|)^2 over the touched rows w
            touched = work[hit]
            work, touched = _fit(2 * max(_magnitude(work[r]), _magnitude(touched)) ** 2, work, touched)
            work[hit] = _divide_content(work[r, c] * touched - touched[:, c, None] * work[r])
        pivots.append(c)
        r += 1
    lead = [int(x) for x in work[np.arange(r), pivots]]
    den = lcm(*(abs(p) for p in lead))
    top, = _fit(_magnitude(work) * den, work[:r])
    scale = np.array([den // p for p in lead], dtype=top.dtype)
    return ExactMatrix(top * scale[:, None], den), pivots


def kernel_basis(a: ExactMatrix) -> ExactMatrix:
    """Canonical basis of {x : a x = 0}, one row per free column: 1 at the
    free column and minus that column of the reduced form at the pivots."""
    red, pivots = rref(a)
    free = [c for c in range(a.cols) if c not in pivots]
    num = np.zeros((len(free), a.cols), dtype=red.num.dtype)
    num[np.arange(len(free)), free] = red.den
    num[:, pivots] = -red.num[:, free].T
    return ExactMatrix(num, red.den)


def _side_by_side(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """[a | b] for matrices with the same number of rows."""
    return ExactMatrix.concatenate([a.transpose(), b.transpose()]).transpose()


def inverse(m: ExactMatrix) -> ExactMatrix:
    """Exact inverse of a square matrix: the coordinates of the unit vectors
    in its rows."""
    if m.cols != m.rows:
        raise ValueError("inverse of a non-square matrix")
    return Coordinates.of(m).pivot_inverse


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of Q^n held in canonical reduced-echelon basis."""

    basis: ExactMatrix   # the reduced row-echelon rows, one per basis vector
    pivots: tuple        # the pivot column of each basis row

    @staticmethod
    def span(vectors, ambient_dim: int | None = None) -> "Subspace":
        """Span of the rows of a matrix, which may have none, or of a
        nonempty sequence of vectors of exact scalars."""
        rows = ExactMatrix.from_rows(vectors)
        if ambient_dim is not None and rows.cols != ambient_dim:
            raise ValueError("ambient dimension mismatch")
        basis, pivots = rref(rows)
        return Subspace(basis, tuple(pivots))

    @staticmethod
    def sum_and_intersection(a, b) -> tuple["Subspace", "Subspace"]:
        """The sum and the intersection of the spans of rows a and b, not
        necessarily independent: the reduced form of [[a, a], [b, 0]] holds
        the sum's reduced basis in the first half of its rows with a pivot
        there, and the intersection's in the second half of the rest."""
        a, b = ExactMatrix.from_rows(a), ExactMatrix.from_rows(b)
        n = a.cols
        red, pivots = rref(ExactMatrix.concatenate(
            [_side_by_side(a, a), _side_by_side(b, ExactMatrix.zeros(b.rows, n))]))
        k = sum(p < n for p in pivots)
        return (Subspace(red.submatrix(range(k), range(n)), tuple(pivots[:k])),
                Subspace(red.submatrix(range(k, red.rows), range(n, 2 * n)),
                         tuple(p - n for p in pivots[k:])))

    @staticmethod
    def span_matrices(mats) -> "Subspace":
        """Span of a stack, or a nonempty sequence, of matrices flattened
        row-major (the fixed convention)."""
        mats = ExactMatrix.stack(mats)
        return Subspace.span(mats.reshape(len(mats), -1))

    @property
    def ambient_dim(self) -> int:
        return self.basis.cols

    @property
    def dim(self) -> int:
        return self.basis.rows

    def _coefficients(self, v) -> tuple[ExactMatrix, np.ndarray]:
        """The coefficients of each vector of v as rows (..., 1, dim), and
        whether each vector lies in the subspace.  v is a sequence of exact
        scalars (one vector) or a stack whose members are each read
        row-major as one vector.  The basis rows have unit pivots and zeros
        at each other's pivots, so the coefficients are v at the pivot
        columns; reconstruction checks them."""
        v = ExactMatrix.from_rows([v]) if not isinstance(v, ExactMatrix) else v
        v = v.reshape(*v.shape[:-2], 1, -1)
        if v.cols != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        c = v[..., list(self.pivots)]
        return c, (c @ self.basis).equal(v)

    def contains(self, v):
        """Whether v lies in the subspace: a bool for one vector, a bool
        array of the stack's shape for a stack."""
        inside = self._coefficients(v)[1]
        return inside if np.ndim(inside) else bool(inside)

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


@dataclass(frozen=True)
class Coordinates:
    """Exact coordinates in a basis of independent vectors: the reduced-echelon
    coordinates in their span, times the inverse of the basis read at the
    pivot columns."""

    span: Subspace
    pivot_inverse: ExactMatrix

    @staticmethod
    def of(vectors) -> "Coordinates":
        """Coordinates in the rows A (k x n) of a matrix, or of a sequence of
        vectors: [A | I] reduces to [R | T] with T A = R, the reduced basis
        of the span, so T inverts A's pivot columns; [A | I] has rank k, so A
        is dependent exactly when a pivot falls in I."""
        rows = ExactMatrix.from_rows(vectors)
        k, n = rows.shape
        red, pivots = rref(_side_by_side(rows, ExactMatrix.identity(k)))
        if any(p >= n for p in pivots):
            raise ValueError("vectors are linearly dependent")
        return Coordinates(Subspace(red.submatrix(range(k), range(n)), tuple(pivots)),
                           red.submatrix(range(k), range(n, n + k)))

    def __call__(self, v) -> ExactMatrix | None:
        """Coefficients in the basis of each vector of v, as rows
        (..., 1, dim), or None if any of them is outside the span."""
        c, inside = self.span._coefficients(v)
        return c @ self.pivot_inverse if np.all(inside) else None
