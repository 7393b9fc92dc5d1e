"""Exact subspace arithmetic: canonical echelon forms, spans, kernels, solving.

The elimination core is fraction-free (Bareiss-style) on integer rows, so
coefficient growth stays polynomial; rows are rescaled to rationals only when
producing the final reduced echelon form.  Every subspace is normalized to its
reduced row-echelon basis, which makes equality of subspaces literal equality
of bases.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .rational import ExactMatrix, Q, _as_q, unit


def _to_int_row(row) -> list[int]:
    fracs = [_as_q(x) for x in row]
    mult = lcm(*(f.denominator for f in fracs)) if fracs else 1
    ints = [int(f * mult) for f in fracs]
    g = 0
    for v in ints:
        g = gcd(g, v)
    if g > 1:
        ints = [v // g for v in ints]
    return ints


def rref(rows: Sequence[Sequence]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form with unit pivots; zero rows dropped.

    Returns (rows, pivot_columns).  Forward elimination is integer
    fraction-free; the reduction to unit pivots happens once at the end.
    """
    work = [_to_int_row(r) for r in rows]
    work = [r for r in work if any(r)]
    if not work:
        return [], []
    ncols = len(work[0])
    if any(len(r) != ncols for r in work):
        raise ValueError("ragged rows")
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        p = work[r][c]
        for i in range(len(work)):
            if i == r or work[i][c] == 0:
                continue
            q = work[i][c]
            work[i] = [p * work[i][j] - q * work[r][j] for j in range(ncols)]
            g = 0
            for v in work[i]:
                g = gcd(g, v)
            if g > 1:
                work[i] = [v // g for v in work[i]]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    out = []
    for i, c in enumerate(pivots):
        p = Fraction(work[i][c])
        out.append([Fraction(v) / p for v in work[i]])
    return out, pivots


def kernel_basis(a: ExactMatrix) -> list[tuple]:
    """Canonical basis of {x : a x = 0}, one vector per free column."""
    rows, pivots = rref([a.row(i) for i in range(a.rows)])
    n = a.cols
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        v = [Q(0)] * n
        v[f] = Q(1)
        for i, c in enumerate(pivots):
            v[c] = -rows[i][f]
        basis.append(tuple(v))
    return basis


def inverse(m: ExactMatrix) -> ExactMatrix:
    """Exact inverse of a square matrix, read off the reduced form of [m | I]."""
    n = m.rows
    if m.cols != n:
        raise ValueError("inverse of a non-square matrix")
    eye = ExactMatrix.identity(n)
    rows, pivots = rref([m.row(i) + eye.row(i) for i in range(n)])
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix not invertible")
    return ExactMatrix.from_rows([r[n:] for r in rows])


@dataclass(frozen=True)
class LinearSolution:
    """General solution of a x = b: a particular solution plus the kernel."""

    particular: tuple | None          # None when the system is inconsistent
    kernel: tuple                     # tuple of kernel basis vectors

    @property
    def consistent(self) -> bool:
        return self.particular is not None

    @property
    def unique(self) -> bool:
        return self.consistent and not self.kernel


def solve_linear(a: ExactMatrix, b: Sequence) -> LinearSolution:
    """Exact general solution of the linear system a x = b."""
    if len(b) != a.rows:
        raise ValueError("right-hand side length mismatch")
    aug = [list(a.row(i)) + [b[i]] for i in range(a.rows)]
    rows, pivots = rref(aug)
    n = a.cols
    if n in pivots:
        return LinearSolution(None, tuple(kernel_basis(a)))
    x = [Q(0)] * n
    for i, c in enumerate(pivots):
        x[c] = rows[i][n]
    return LinearSolution(tuple(x), tuple(kernel_basis(a)))


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of Q^n held in canonical reduced-echelon basis."""

    ambient_dim: int
    basis: tuple  # tuple of tuples of Fraction, RREF rows

    @staticmethod
    def span(vectors: Sequence[Sequence], ambient_dim: int | None = None) -> "Subspace":
        vecs = [tuple(_as_q(x) for x in v) for v in vectors]
        if ambient_dim is None:
            if not vecs:
                raise ValueError("ambient dimension required for an empty span")
            ambient_dim = len(vecs[0])
        if any(len(v) != ambient_dim for v in vecs):
            raise ValueError("ambient dimension mismatch")
        rows, _ = rref(vecs) if vecs else ([], [])
        return Subspace(ambient_dim, tuple(tuple(r) for r in rows))

    @staticmethod
    def span_matrices(mats: Sequence[ExactMatrix]) -> "Subspace":
        """Span of matrices flattened row-major (the fixed convention)."""
        if not mats:
            raise ValueError("need at least one matrix")
        n = mats[0].rows * mats[0].cols
        return Subspace.span([m.flatten() for m in mats], n)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def pivots(self) -> tuple:
        """The pivot column of each reduced-echelon basis row."""
        return tuple(next(i for i, x in enumerate(row) if x) for row in self.basis)

    def coordinates(self, v: Sequence) -> tuple | None:
        """Coefficients of v in this basis, or None if v is outside.  The
        basis rows have unit pivots and zeros at each other's pivots, so the
        coefficients are v at the pivot columns; reconstruction checks them."""
        if len(v) != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        vq = tuple(_as_q(x) for x in v)
        coeffs = tuple(vq[c] for c in self.pivots)
        recon = tuple(sum((c * row[k] for c, row in zip(coeffs, self.basis)
                           if c and row[k]), Q(0)) for k in range(self.ambient_dim))
        return coeffs if recon == vq else None

    def contains(self, v: Sequence) -> bool:
        return self.coordinates(v) is not None

    def contains_matrix(self, m: ExactMatrix) -> bool:
        return self.contains(m.flatten())

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return Subspace.span(list(self.basis) + list(other.basis), self.ambient_dim)

    def intersect(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        if self.dim == 0 or other.dim == 0:
            return Subspace.span([], self.ambient_dim)
        # x^T B1 = y^T B2  <=>  [B1^T | -B2^T] (x; y) = 0
        cols = self.dim + other.dim
        rows = []
        for i in range(self.ambient_dim):
            rows.append([self.basis[j][i] for j in range(self.dim)] +
                        [-other.basis[j][i] for j in range(other.dim)])
        ker = kernel_basis(ExactMatrix.from_rows(rows)) if rows else []
        vecs = []
        for k in ker:
            x = k[:self.dim]
            vecs.append(tuple(sum((x[j] * self.basis[j][i] for j in range(self.dim)), Q(0))
                              for i in range(self.ambient_dim)))
        return Subspace.span(vecs, self.ambient_dim)

    def ortho_complement(self, form: ExactMatrix | None = None) -> "Subspace":
        """Complement w.r.t. a nondegenerate symmetric bilinear form (default: dot)."""
        n = self.ambient_dim
        if form is None:
            form = ExactMatrix.identity(n)
        if form.rows != n or form.cols != n:
            raise ValueError("form has wrong ambient dimension")
        if kernel_basis(form):
            raise ValueError("degenerate form")
        if self.dim == 0:
            return Subspace.span([unit(n, i) for i in range(n)], n)
        rows = []
        for b in self.basis:
            rows.append(form.apply(b))
        return Subspace.span(kernel_basis(ExactMatrix.from_rows(rows)) or [], n)

    def _check_ambient(self, other: "Subspace"):
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subspace) and self.ambient_dim == other.ambient_dim
                and self.basis == other.basis)

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


@dataclass(frozen=True)
class Coordinates:
    """Exact coordinates in a basis of independent vectors: the reduced-echelon
    coordinates in their span, mapped through the inverse of the basis read at
    the pivot columns."""

    span: Subspace
    pivot_inverse: ExactMatrix

    @staticmethod
    def of(vectors: Sequence[Sequence]) -> "Coordinates":
        span = Subspace.span(vectors)
        if span.dim != len(vectors):
            raise ValueError("vectors are linearly dependent")
        return Coordinates(span, inverse(ExactMatrix.from_rows(
            [[v[c] for v in vectors] for c in span.pivots])))

    def __call__(self, v: Sequence) -> tuple | None:
        """Coefficients of v in the basis, or None if v is outside its span."""
        c = self.span.coordinates(v)
        return None if c is None else self.pivot_inverse.apply(c)


def gram_matrix(vectors: Sequence[Sequence], pairing) -> ExactMatrix:
    """Matrix of a bilinear pairing evaluated on all pairs of the given vectors."""
    n = len(vectors)
    return ExactMatrix.from_rows([[pairing(vectors[i], vectors[j]) for j in range(n)]
                                  for i in range(n)])
