import numpy as np
import pytest
from fractions import Fraction

from g2lab.embeddings import MVector, Sl3Param, hat3
from g2lab.octonions import (TorsionCrossResult, dot, standard_cross,
                             standard_octonions)
from g2lab.rational import ExactMatrix, Q, bracket, trace_form
from g2lab.subspaces import Subspace, rref
from g2lab.threeform import ThreeForm


def rand_skew(rng, n):
    m = rng.integers(-5, 6, size=(n, n))
    m = m - m.T
    return ExactMatrix.from_rows(m.tolist())


def test_bracket_self_is_zero():
    a = ExactMatrix.from_rows([[1, 2], [3, 4]])
    assert bracket(a, a).is_zero()


def test_bracket_elementary():
    e12 = ExactMatrix.from_rows([[0, 1], [0, 0]])
    e21 = ExactMatrix.from_rows([[0, 0], [1, 0]])
    expected = ExactMatrix.from_rows([[1, 0], [0, -1]])
    assert bracket(e12, e21) == expected


def test_bracket_dimension_mismatch():
    a = ExactMatrix.identity(2)
    b = ExactMatrix.identity(3)
    with pytest.raises(ValueError):
        bracket(a, b)


def test_bracket_antisymmetry_and_jacobi():
    rng = np.random.default_rng(7)
    for _ in range(5):
        a, b, c = (rand_skew(rng, 4) for _ in range(3))
        assert bracket(a, b) == -bracket(b, a)
        jac = (bracket(a, bracket(b, c)) + bracket(b, bracket(c, a))
               + bracket(c, bracket(a, b)))
        assert jac.is_zero()


def test_bracket_preserves_skew():
    rng = np.random.default_rng(3)
    a, b = rand_skew(rng, 5), rand_skew(rng, 5)
    assert bracket(a, b).is_skew()


def test_trace_form_symmetric():
    rng = np.random.default_rng(11)
    for _ in range(5):
        a, b = rand_skew(rng, 5), rand_skew(rng, 5)
        assert trace_form(a, b) == trace_form(b, a)


def test_trace_form_negative_definite_on_skew():
    rng = np.random.default_rng(13)
    for _ in range(10):
        a = rand_skew(rng, 5)
        if not a.is_zero():
            assert trace_form(a, a) < 0


def test_matrix_ops_exact():
    a = ExactMatrix.from_rows([[Fraction(1, 3), 2], [0, Fraction(-1, 7)]])
    s = a.scale(21)
    assert s[0, 0] == 7 and s[1, 1] == -3
    assert (a - a).is_zero()
    assert a.transpose().transpose() == a


def test_apply():
    a = ExactMatrix.from_rows([[1, 2], [3, 4]])
    assert a.apply([1, 1]) == (Q(3), Q(7))


# Each entry point of the exact layer, called with one scalar s in its input.
EXACT_ENTRY_POINTS = {
    "ExactMatrix.from_rows": lambda s: ExactMatrix.from_rows([[s]]),
    "hat3": lambda s: hat3((s, 0, 0)),
    "Sl3Param.make": lambda s: Sl3Param.make(x=(s, 0, 0)),
    "MVector.make": lambda s: MVector.make(b=(0, 0, s)),
    "OctonionTable.multiply":
        lambda s: standard_octonions().multiply([s] + [0] * 7, [1] + [0] * 7),
    "OctonionTable.conjugate": lambda s: standard_octonions().conjugate([s] * 8),
    "dot": lambda s: dot((1, s), (s, 1)),
    "CrossProduct7.cross": lambda s: standard_cross().cross([s] * 7, [1] * 7),
    "TorsionCrossResult.cross":
        lambda s: TorsionCrossResult({(0, 1): (Q(1),) * 7}, Q(1), 7).cross(
            [s] * 7, [1] * 7),
    "ThreeForm.scale": lambda s: ThreeForm((Q(1),) * 35).scale(s),
    "rref": lambda s: rref([[s, 1]]),
    "Subspace.span": lambda s: Subspace.span([[s, 1]]),
    "Subspace.contains": lambda s: Subspace.span([[1, 0]]).contains([s, 0]),
}


@pytest.mark.parametrize("name", sorted(EXACT_ENTRY_POINTS))
def test_exact_layer_rejects_floats(name):
    call = EXACT_ENTRY_POINTS[name]
    with pytest.raises(TypeError):
        call(0.1)
    call(2)
    call(Fraction(1, 3))

