import pytest

from g2lab.rational import ExactMatrix
from g2lab.spin8 import (clifford_certificate, gamma_matrices, imaginary_block,
                         so7_canonical_basis, so8_intersection_report,
                         spin7_basis)
from g2lab.subspaces import Subspace


def test_gammas_square_to_minus_identity():
    gammas = gamma_matrices()
    minus_id = ExactMatrix.identity(8).scale(-1)
    for g in gammas:
        assert g @ g == minus_id


def test_clifford_relations_exact():
    assert clifford_certificate()


def test_gammas_are_skew():
    for g in gamma_matrices():
        assert g.is_skew()


def test_spin7_dimension():
    assert Subspace.span_matrices(spin7_basis()).dim == 21
    assert Subspace.span_matrices(so7_canonical_basis()).dim == 21


def test_sum_is_so8_and_intersection_is_g2():
    rep = so8_intersection_report()
    assert rep.sum_dim == 28
    assert rep.intersection_dim == 14
    assert rep.intersection_is_g2


def test_imaginary_block_equals_the_span_of_the_restricted_rows():
    """Relabelling the pivots of the restricted rows gives the subspace that
    eliminating them again gives: for the intersection with so(7)_0, for
    so(7)_0 itself, and for a subspace with rows that are not units."""
    _, inter = Subspace.sum_and_intersection(spin7_basis().reshape(21, 64),
                                             so7_canonical_basis().reshape(21, 64))
    so7 = Subspace.span(so7_canonical_basis().reshape(21, 64))
    mixed = Subspace.span(so7_canonical_basis().reshape(21, 64)[[0, 4, 9]]
                          + so7_canonical_basis().reshape(21, 64)[[3, 12, 20]].scale(3))
    for sub in (inter, so7, mixed):
        rows = sub.basis.num.reshape(sub.dim, 8, 8)[:, 1:, 1:].reshape(sub.dim, 49)
        assert imaginary_block(sub) == Subspace.span(ExactMatrix(rows, sub.basis.den))
    assert imaginary_block(inter).dim == 14


def test_imaginary_block_refuses_an_element_moving_the_unit_axis():
    with pytest.raises(ValueError):
        imaginary_block(Subspace.span(spin7_basis().reshape(21, 64)))
