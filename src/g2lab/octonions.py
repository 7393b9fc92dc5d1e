"""The 7-dimensional cross product built two independent ways, the octonion
algebra it generates, and exact associativity tests for 3-planes.

Route one: the invariant 3-form of the certified algebra (threeform module).
Route two: the bracket of so(7) projected to the trace-form complement of the
algebra, pulled back through an equivariant identification of Q^7 with that
complement.  The two routes must agree up to a single nonzero rational, which
is computed and reported, never assumed.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .embeddings import g2_basis, intertwiner_solve
from .rational import (Bilinear, ExactMatrix, Q, _as_q, bracket, combination,
                       common_ratio, exact_json, flat_rows, numerators, trace_form,
                       unflatten_rows, unit)
from .subspaces import Coordinates, Subspace, gram_matrix, inverse, kernel_basis
from .threeform import (CrossProduct7, _det3, invariant_threeform,
                        phi_cross_duality, so7_basis)


def dot(x: Sequence, y: Sequence) -> Fraction:
    """sum x_i y_i, on the integer numerators over one denominator each."""
    (a, da), (b, db) = numerators(x), numerators(y)
    return Fraction(sum(map(operator.mul, a, b)), da * db)


@dataclass(frozen=True)
class TorsionCrossResult:
    """Pulled-back complement product and its exact ratio to the 3-form cross."""

    product: dict                  # (i, j), i<j -> 7-tuple (the product e_i * e_j)
    proportionality: Fraction      # product = proportionality * phi-cross
    complement_dim: int

    @functools.cached_property
    def cross(self) -> Bilinear:
        """The map (x, y) -> sum over i < j of (x_i y_j - x_j y_i) e_i e_j."""
        return Bilinear([term for (i, j), v in self.product.items()
                         for k, c in enumerate(v) if c
                         for term in ((i, j, k, c), (j, i, k, -c))], 7)


def torsion_cross() -> TorsionCrossResult:
    """Pull the complement-projected so(7) bracket back to Q^7 and certify it
    is a nonzero rational multiple of the 3-form cross product."""
    basis = g2_basis()

    # trace-form complement of the algebra inside so(7):
    # kernel of C = sum_k c_k E_k  |->  (tr(C A_i))_i over the algebra basis
    so7 = so7_basis()
    cond = ExactMatrix.from_rows(
        [[trace_form(e, a) for e in so7] for a in basis.elements])
    comp_rows = kernel_basis(cond) @ flat_rows(so7)
    comp = unflatten_rows(comp_rows, 7, 7)
    if len(comp) != 7:
        raise ValueError(f"complement has dimension {len(comp)}, expected 7")

    # adjoint action of the algebra on the complement, in complement coordinates
    comp_coords = Coordinates.of(comp_rows)
    adjoint = []
    for a in basis.elements:
        cols = [comp_coords(bracket(a, c)) for c in comp]
        if None in cols:
            raise ValueError("matrix is not in the complement")
        adjoint.append(ExactMatrix.from_rows(cols).transpose())

    # equivariant identification of Q^7 with the complement
    res = intertwiner_solve(list(basis.elements), adjoint)
    if not res.equivalent:
        raise ValueError("no invertible intertwiner between the canonical "
                         "7-dimensional action and the complement action")
    t = res.invertible

    def to_complement(x: Sequence) -> ExactMatrix:
        return combination(t.apply(x), comp)

    t_inv = inverse(t)

    # project the bracket of complement elements back to the complement; the
    # complement and the algebra span so(7), so every bracket has coordinates
    all_coords = Coordinates.of(ExactMatrix.stack([comp_rows, flat_rows(basis.elements)]))

    def project_pullback(m: ExactMatrix) -> tuple:
        return t_inv.apply(all_coords(m)[:7])

    cross_phi = standard_cross()
    product = {}
    pulled, ref = [], []
    for i in range(7):
        ei = unit(7, i)
        for j in range(i + 1, 7):
            ej = unit(7, j)
            product[(i, j)] = project_pullback(bracket(to_complement(ei),
                                                       to_complement(ej)))
            pulled.extend(product[(i, j)])
            ref.extend(cross_phi.cross(ei, ej))
    ratio = common_ratio(pulled, ref)
    if ratio is None:
        raise ValueError("pulled-back product is not proportional "
                         "to the 3-form cross product")
    if ratio == 0:
        raise ValueError("pulled-back product vanishes")
    return TorsionCrossResult(product, ratio, len(comp))


@dataclass(frozen=True, eq=False)
class OctonionTable:
    """8x8 multiplication table over the rationals, slot 0 the unit.

    (a, x)(b, y) = (ab - <x, y>, ay + bx + x X y) for the supplied cross product.
    Every product of basis elements is a signed basis element, so the table is
    held signed-sparse: e_i e_j = sign[i, j] e_index[i, j].
    """

    index: np.ndarray   # (8, 8) slot of the product e_i e_j
    sign: np.ndarray    # (8, 8) its sign, +1 or -1

    @functools.cached_property
    def _map(self) -> Bilinear:
        # e_i e_j = sign[i, j] e_index[i, j]
        return Bilinear([(i, j, int(self.index[i, j]), int(self.sign[i, j]))
                         for i in range(8) for j in range(8)], 8)

    def multiply(self, p: Sequence, q: Sequence) -> tuple:
        """pq: the products of the numerators, signed and scattered by
        index, over the product of the denominators.  A method, not the
        cached map itself, so that per-layer tracing counts its calls."""
        return self._map(p, q)

    def conjugate(self, p: Sequence) -> tuple:
        pq = [_as_q(v) for v in p]
        return (pq[0],) + tuple(-v for v in pq[1:])

    def norm_sq(self, p: Sequence) -> Fraction:
        return dot(p, p)

    def to_json_obj(self) -> dict:
        return {"kind": "octonion_table",
                "products": [[[exact_json(Q(int(self.sign[i, j]) if k == self.index[i, j]
                                            else 0)) for k in range(8)]
                              for j in range(8)] for i in range(8)]}


def octonion_from_cross(cross: CrossProduct7) -> OctonionTable:
    """Build the 8-dimensional algebra and certify that every basis product
    is a signed basis element, and the unit and the basis squares."""
    index = np.zeros((8, 8), dtype=np.int64)
    sign = np.zeros((8, 8), dtype=np.int64)
    for i in range(8):
        for j in range(8):
            prod = _basis_product(cross, i, j)
            slots = [k for k, c in enumerate(prod) if c != 0]
            if len(slots) != 1 or abs(prod[slots[0]]) != 1:
                raise ValueError(f"e_{i} e_{j} is not a signed basis element")
            index[i, j], sign[i, j] = slots[0], int(prod[slots[0]])
    index.flags.writeable = sign.flags.writeable = False
    t = OctonionTable(index, sign)
    for j in range(8):
        ej = unit(8, j)
        if t.multiply(unit(8, 0), ej) != ej or t.multiply(ej, unit(8, 0)) != ej:
            raise ValueError("unit certification failed")
    for i in range(1, 8):
        ei = unit(8, i)
        sq = t.multiply(ei, ei)
        if sq != tuple([Q(-1)] + [Q(0)] * 7):
            raise ValueError(f"imaginary unit {i} does not square to -1")
    return t


def _basis_product(cross: CrossProduct7, i: int, j: int) -> tuple:
    if i == 0:
        return unit(8, j)
    if j == 0:
        return unit(8, i)
    x, y = unit(7, i - 1), unit(7, j - 1)
    real = -dot(x, y)
    imag = cross.cross(x, y)
    return (real,) + tuple(imag)


def associator(table: OctonionTable, p: Sequence, q: Sequence, r: Sequence) -> tuple:
    pq_r = table.multiply(table.multiply(p, q), r)
    p_qr = table.multiply(p, table.multiply(q, r))
    return tuple(a - b for a, b in zip(pq_r, p_qr))


def norm_multiplicativity_certificate(table: OctonionTable, n: int = 100,
                                      seed: int = 42) -> bool:
    """|pq|^2 = |p|^2 |q|^2 exactly on n seeded random rational pairs."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        p = _random_octonion(rng)
        q = _random_octonion(rng)
        if table.norm_sq(table.multiply(p, q)) != table.norm_sq(p) * table.norm_sq(q):
            return False
    return True


def alternativity_certificate(table: OctonionTable, n: int = 50, seed: int = 42) -> bool:
    """[p,p,q] = 0 = [q,p,p] exactly on random pairs, and the associator is
    alternating on all basis triples."""
    rng = np.random.default_rng(seed)
    zero = tuple([Q(0)] * 8)
    for _ in range(n):
        p = _random_octonion(rng)
        q = _random_octonion(rng)
        if associator(table, p, p, q) != zero or associator(table, q, p, p) != zero:
            return False
    basis = [unit(8, i) for i in range(8)]
    for i, j, k in itertools.combinations(range(8), 3):
        a = associator(table, basis[i], basis[j], basis[k])
        b = associator(table, basis[j], basis[i], basis[k])
        if a != tuple(-t for t in b):
            return False
    return True


def _random_octonion(rng) -> tuple:
    nums = rng.integers(-9, 10, size=8)
    dens = rng.integers(1, 7, size=8)
    return tuple(Fraction(int(n), int(d)) for n, d in zip(nums, dens))


def associative_test(p1: Sequence, p2: Sequence, p3: Sequence) -> bool:
    """True iff the span of the three independent vectors is closed under the
    cross product (basis independent, exact)."""
    cross = standard_cross()
    plane = Subspace.span([list(p1), list(p2), list(p3)], 7)
    if plane.dim != 3:
        raise ValueError("vectors do not span a 3-plane")
    vecs = [p1, p2, p3]
    for i in range(3):
        for j in range(i + 1, 3):
            if not plane.contains(list(cross.cross(vecs[i], vecs[j]))):
                return False
    return True


def calibration_gap(p1: Sequence, p2: Sequence,
                    p3: Sequence) -> tuple[Fraction, Fraction]:
    """(phi(v1,v2,v3)^2, Gram determinant): equal iff the plane is associative,
    and the first is strictly smaller otherwise (exact calibration bound)."""
    phi = invariant_threeform()
    val = phi(p1, p2, p3)
    g = gram_matrix([p1, p2, p3], dot)
    return val * val, _det3(g.row(0), g.row(1), g.row(2), 0, 1, 2)


@functools.lru_cache(maxsize=1)
def standard_cross() -> CrossProduct7:
    return phi_cross_duality(invariant_threeform())


@functools.lru_cache(maxsize=1)
def standard_octonions() -> OctonionTable:
    return octonion_from_cross(standard_cross())
