"""Exact subspace arithmetic: canonical echelon forms, spans, kernels, inverses.

Elimination runs on the integer numerator rows of an `ExactMatrix` and is
fraction-free (Bareiss-style): each step combines integer rows and divides
out each new row's content, so coefficient growth stays polynomial.  Before
each step the bound on the new entries is checked against 2^62, as in
`rational`, and past it the rows continue as Python integers.  The reduced
echelon form comes out once, at the end, as an `ExactMatrix` over the least
common multiple of the pivots.  Every subspace is held in its reduced
row-echelon basis, which makes equality of subspaces literal equality of
bases.

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
from typing import Sequence

import numpy as np

from .rational import ExactMatrix, _fit, _magnitude


def _divide_content(rows: np.ndarray) -> np.ndarray:
    """Each integer row divided by the gcd of its entries (zero rows kept)."""
    g = np.gcd.reduce(rows, axis=1)
    g[g == 0] = 1
    return rows // g[:, None]


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
        nz = np.flatnonzero(work[r:, c])
        if not nz.size:
            continue
        piv = r + int(nz[0])
        if piv != r:
            work[[r, piv]] = work[[piv, r]]
        hit = np.flatnonzero(work[:, c])
        hit = hit[hit != r]
        if hit.size:
            # |p * w - q * w_r| <= 2 max|w|^2
            work, = _fit(2 * _magnitude(work) ** 2, work)
            work[hit] = _divide_content(work[r, c] * work[hit] - work[hit, c, None] * work[r])
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
    """Exact inverse of a square matrix, read off the reduced form of [m | I]."""
    n = m.rows
    if m.cols != n:
        raise ValueError("inverse of a non-square matrix")
    red, pivots = rref(_side_by_side(m, ExactMatrix.identity(n)))
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix not invertible")
    return red.submatrix(range(n), range(n, 2 * n))


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of Q^n held in canonical reduced-echelon basis."""

    basis: ExactMatrix   # the reduced row-echelon rows, one per basis vector
    pivots: tuple        # the pivot column of each basis row

    @staticmethod
    def span(vectors, ambient_dim: int | None = None) -> "Subspace":
        """Span of the rows of a matrix, or of a sequence of vectors of exact
        scalars."""
        if not isinstance(vectors, ExactMatrix) and not vectors:
            if ambient_dim is None:
                raise ValueError("ambient dimension required for an empty span")
            vectors = ExactMatrix.zeros(0, ambient_dim)
        rows = ExactMatrix.from_rows(vectors)
        if ambient_dim is not None and rows.cols != ambient_dim:
            raise ValueError("ambient dimension mismatch")
        basis, pivots = rref(rows)
        return Subspace(basis, tuple(pivots))

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

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return Subspace.span(ExactMatrix.concatenate([self.basis, other.basis]))

    def intersect(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        if self.dim == 0 or other.dim == 0:
            return Subspace.span([], self.ambient_dim)
        # x^T B1 = y^T B2  <=>  [B1^T | -B2^T] (x; y) = 0
        ker = kernel_basis(ExactMatrix.concatenate([self.basis, -other.basis]).transpose())
        x = ker.submatrix(range(ker.rows), range(self.dim))
        return Subspace.span(x @ self.basis)

    def _check_ambient(self, other: "Subspace"):
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")

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
        """Coordinates in the rows of a matrix, or in a sequence of vectors."""
        rows = ExactMatrix.from_rows(vectors)
        span = Subspace.span(rows)
        if span.dim != rows.rows:
            raise ValueError("vectors are linearly dependent")
        return Coordinates(span, inverse(rows.submatrix(range(rows.rows), span.pivots)))

    def __call__(self, v) -> ExactMatrix | None:
        """Coefficients in the basis of each vector of v, as rows
        (..., 1, dim), or None if any of them is outside the span."""
        c, inside = self.span._coefficients(v)
        return c @ self.pivot_inverse if np.all(inside) else None


def gram_matrix(vectors: Sequence[Sequence], pairing) -> ExactMatrix:
    """Matrix of a bilinear pairing evaluated on all pairs of the given vectors."""
    n = len(vectors)
    return ExactMatrix.from_rows([[pairing(vectors[i], vectors[j]) for j in range(n)]
                                  for i in range(n)])
