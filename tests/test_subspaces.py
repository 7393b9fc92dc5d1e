import numpy as np
import pytest
from fractions import Fraction

from g2lab.rational import ExactMatrix
from g2lab.subspaces import Coordinates, Subspace, kernel_basis


def test_rref_canonical_under_shuffle_and_rescale():
    rng = np.random.default_rng(5)
    vecs = rng.integers(-4, 5, size=(3, 6)).tolist()
    s1 = Subspace.span(vecs)
    shuffled = [vecs[2], vecs[0], vecs[1]]
    rescaled = [[Fraction(3, 7) * Fraction(x) for x in v] for v in shuffled]
    mixed = list(rescaled)
    mixed[0] = [a + b for a, b in zip(mixed[0], mixed[1])]
    s2 = Subspace.span(mixed)
    assert s1 == s2
    assert s1.basis == s2.basis


def test_axes_sum_and_intersection():
    x = Subspace.span([[1, 0, 0]])
    y = Subspace.span([[0, 1, 0]])
    s = x.sum(y)
    assert s.dim == 2
    assert s.contains([2, -3, 0])
    assert not s.contains([0, 0, 1])
    assert x.intersect(y).dim == 0


def test_intersect_self():
    s = Subspace.span([[1, 2, 3], [0, 1, 1]])
    assert s.intersect(s) == s


def test_grassmann_dimension_formula():
    rng = np.random.default_rng(17)
    for _ in range(8):
        a = Subspace.span(rng.integers(-3, 4, size=(3, 7)).tolist())
        b = Subspace.span(rng.integers(-3, 4, size=(4, 7)).tolist())
        assert a.dim + b.dim == a.sum(b).dim + a.intersect(b).dim


def test_kernel_basis_canonical():
    a = ExactMatrix.from_rows([[1, 2, 3], [2, 4, 6]])
    ker = kernel_basis(a)
    assert len(ker) == 2
    assert (a @ ker.transpose()).is_zero()
    assert kernel_basis(ExactMatrix.zeros(2, 3)) == ExactMatrix.identity(3)


def test_contains_ambient_mismatch():
    s = Subspace.span([[1, 0]])
    with pytest.raises(ValueError):
        s.contains([1, 0, 0])


def test_coordinates_roundtrip():
    basis = ExactMatrix.from_rows([[1, 1, 0], [0, 2, 2]])
    v = [1, 3, 2]
    c = Coordinates.of(basis)(v)
    assert c is not None
    assert c.row(0) == (Fraction(1), Fraction(1))
    assert (c @ basis).row(0) == tuple(Fraction(t) for t in v)
    assert Coordinates.of(basis)([1, 0, 0]) is None
