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
import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

import numpy as np

from .embeddings import g2_basis, intertwiner_solve
from .rational import (Bilinear, ExactMatrix, bracket, combination, common_ratio,
                       trace_form, unit_rows)
from .subspaces import Coordinates, Subspace, inverse, kernel_basis
from .threeform import dense, invariant_threeform, phi_cross_duality, so7_basis


def dot(x, y):
    """sum x_i y_i: a Fraction for two sequences; for two stacks of rows
    (..., 1, n), the stack of 1 x 1 products x y^T."""
    if not isinstance(x, ExactMatrix):
        return dot(ExactMatrix.from_rows([x]), ExactMatrix.from_rows([y]))[0, 0]
    return x @ y.transpose()


@dataclass(frozen=True)
class TorsionCrossResult:
    """The exact ratio of the pulled-back complement product to the 3-form
    cross, and the dimension of the complement it was pulled back from."""

    proportionality: Fraction      # product = proportionality * phi-cross
    complement_dim: int


def torsion_cross() -> TorsionCrossResult:
    """Pull the complement-projected so(7) bracket back to Q^7 and certify it
    is a nonzero rational multiple of the 3-form cross product."""
    basis = g2_basis()
    els = basis.elements

    # trace-form complement of the algebra inside so(7):
    # kernel of C = sum_k c_k E_k  |->  (tr(C A_i))_i over the algebra basis
    so7 = so7_basis()
    cond = trace_form(els[:, None], so7).reshape(len(els), len(so7))
    comp_rows = kernel_basis(cond) @ so7.reshape(len(so7), 49)
    if len(comp_rows) != 7:
        raise ValueError(f"complement has dimension {len(comp_rows)}, expected 7")
    comp = comp_rows.reshape(7, 7, 7)

    # adjoint action of the algebra on the complement, in complement
    # coordinates: row c of each member holds those of [A, comp_c]
    adjoint = Coordinates.of(comp_rows)(bracket(els[:, None], comp))
    if adjoint is None:
        raise ValueError("matrix is not in the complement")

    # equivariant identification of Q^7 with the complement
    res = intertwiner_solve(els, adjoint[..., 0, :].transpose())
    if not res.equivalent:
        raise ValueError("no invertible intertwiner between the canonical "
                         "7-dimensional action and the complement action")
    t = res.invertible
    t_inv = inverse(t)
    # the complement images of the unit vectors: row i of t^T is t e_i
    images = combination(t.transpose(), comp)

    # project the bracket of complement elements back to the complement; the
    # complement and the algebra span so(7), so every bracket has coordinates
    all_coords = Coordinates.of(ExactMatrix.concatenate([comp_rows, els.reshape(len(els), 49)]))
    i, j = np.triu_indices(7, 1)
    coords = all_coords(bracket(images[i], images[j]))
    if coords is None:
        raise ValueError("a bracket of complement elements has no coordinates in so(7)")
    pulled = (t_inv @ coords[..., :7].transpose()).transpose()
    e = unit_rows(7)
    ratio = common_ratio(pulled, standard_cross()(e[i], e[j]))
    if ratio is None:
        raise ValueError("pulled-back product is not proportional "
                         "to the 3-form cross product")
    if ratio == 0:
        raise ValueError("pulled-back product vanishes")
    return TorsionCrossResult(ratio, len(comp_rows))


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
        # e_i e_j = sign[i, j] e_index[i, j]: row 8 i + j of the table
        num = np.zeros((64, 8), dtype=np.int64)
        num[np.arange(64), self.index.ravel()] = self.sign.ravel()
        return Bilinear(ExactMatrix(num, 1))

    def multiply(self, p, q):
        """pq: a tuple for two sequences, a stack of rows for two stacks of
        rows (..., 8).  A method, not the cached map itself, so that
        per-layer tracing counts its calls."""
        return self._map(p, q)

    def norm_sq(self, p):
        """|p|^2: a Fraction for a sequence, a stack of 1 x 1 matrices for a
        stack of rows (..., 1, 8)."""
        return dot(p, p)


def octonion_from_cross(cross: Bilinear) -> OctonionTable:
    """Build the 8-dimensional algebra and certify that every basis product
    is a signed basis element, and the unit and the basis squares."""
    products = _basis_products(cross)
    nonzero = products.num != 0
    signed_unit = (nonzero.sum(axis=-1) == 1) & (abs(products.num).max(axis=-1) == products.den)
    if not signed_unit.all():
        i, j = np.argwhere(~signed_unit)[0]
        raise ValueError(f"e_{i} e_{j} is not a signed basis element")
    index = nonzero.argmax(axis=-1)
    sign = (products.num.sum(axis=-1) // products.den).astype(np.int64)
    index.flags.writeable = sign.flags.writeable = False
    t = OctonionTable(index, sign)
    e = unit_rows(8)
    if t.multiply(e[0], e) != e or t.multiply(e, e[0]) != e:
        raise ValueError("unit certification failed")
    squares = t.multiply(e[1:], e[1:]).equal(-e[0])
    if not squares.all():
        raise ValueError(f"imaginary unit {1 + int(np.argmin(squares))} does not square to -1")
    return t


def _basis_products(cross: Bilinear) -> ExactMatrix:
    """The stack (8, 8, 8) of the products e_i e_j, row [i, j]: slot 0 is the
    unit, and (0, x)(0, y) = (-<x, y>, x X y) on the imaginary units."""
    e = unit_rows(7)
    x, y = e[:, None], e
    imag = ExactMatrix.concatenate([(-dot(x, y)).transpose(),
                                    cross(x, y).transpose()]).transpose()
    num = np.zeros((8, 8, 8), dtype=imag.num.dtype)
    num[0] = num[:, 0] = imag.den * np.eye(8, dtype=np.int64)
    num[1:, 1:] = imag.num[:, :, 0]
    return ExactMatrix(num, imag.den)


def associator(table: OctonionTable, p, q, r):
    """[p, q, r] = (pq)r - p(qr) for stacks of rows (..., 8)."""
    return table.multiply(table.multiply(p, q), r) - table.multiply(p, table.multiply(q, r))


NORM_PAIRS = 100          # random pairs of the norm certificate
ALTERNATIVITY_PAIRS = 50  # and of the alternativity certificate


def norm_multiplicativity_certificate(table: OctonionTable, seed: int) -> bool:
    """|pq|^2 = |p|^2 |q|^2 exactly on NORM_PAIRS seeded random rational pairs."""
    p, q = _random_octonion_pairs(NORM_PAIRS, seed)
    return table.norm_sq(table.multiply(p, q)) == table.norm_sq(p) @ table.norm_sq(q)


def alternativity_certificate(table: OctonionTable, seed: int) -> bool:
    """[p,p,q] = 0 = [q,p,p] exactly on ALTERNATIVITY_PAIRS random pairs, and
    the associator is alternating on all basis triples."""
    p, q = _random_octonion_pairs(ALTERNATIVITY_PAIRS, seed)
    if not (associator(table, p, p, q).is_zero() and associator(table, q, p, p).is_zero()):
        return False
    e = unit_rows(8)
    i, j, k = np.array(list(itertools.combinations(range(8), 3))).T
    return associator(table, e[i], e[j], e[k]) == -associator(table, e[j], e[i], e[k])


def _random_octonion_pairs(n: int, seed: int) -> tuple[ExactMatrix, ExactMatrix]:
    """n seeded random rational pairs (p, q) as two stacks of rows (n, 1, 8),
    read from the 32 n bytes of one `random.Random(seed).randbytes`: pair by
    pair p then q, each as eight numerators (byte mod 19, less 9: in
    [-9, 9]), then eight denominators (byte mod 6, plus 1: in [1, 6])."""
    draws = np.frombuffer(random.Random(seed).randbytes(32 * n), dtype=np.uint8)
    draws = draws.astype(np.int64).reshape(n, 2, 2, 1, 8)
    nums, dens = draws[:, :, 0] % 19 - 9, draws[:, :, 1] % 6 + 1
    den = lcm(*dens.ravel().tolist())
    pairs = ExactMatrix(nums * (den // dens), den)
    return pairs[:, 0], pairs[:, 1]


def associative_test(p1: Sequence, p2: Sequence, p3: Sequence) -> bool:
    """True iff the span of the three independent vectors is closed under the
    cross product (basis independent, exact)."""
    vecs = ExactMatrix.from_rows([list(p1), list(p2), list(p3)])
    plane = Subspace.span(vecs, 7)
    if plane.dim != 3:
        raise ValueError("vectors do not span a 3-plane")
    rows = vecs.reshape(3, 1, 7)
    i, j = np.triu_indices(3, 1)
    return bool(np.all(plane.contains(standard_cross()(rows[i], rows[j]))))


def calibration_gap(p1: Sequence, p2: Sequence,
                    p3: Sequence) -> tuple[Fraction, Fraction]:
    """(phi(v1,v2,v3)^2, Gram determinant): equal iff the plane is associative,
    and the first is strictly smaller otherwise (exact calibration bound).
    Both are triple products <x X y, z>: phi's of the vectors, and that of
    the cross product of Q^3 (the dense volume form) of the Gram rows."""
    val = dot(standard_cross()(p1, p2), p3)
    m = ExactMatrix.from_rows([list(p1), list(p2), list(p3)])
    g = dot(m, m)
    cross3 = Bilinear(dense(ExactMatrix.identity(1), 3, 3).reshape(9, 3))
    return val * val, dot(cross3(g.row(0), g.row(1)), g.row(2))


@functools.lru_cache(maxsize=1)
def standard_cross() -> Bilinear:
    return phi_cross_duality(invariant_threeform())


@functools.lru_cache(maxsize=1)
def standard_octonions() -> OctonionTable:
    return octonion_from_cross(standard_cross())
