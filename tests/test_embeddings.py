import numpy as np
import pytest
from fractions import Fraction

from g2lab.rational import ExactMatrix, Q, bracket, trace_form, unit_rows
from g2lab.subspaces import Subspace
from g2lab import embeddings as emb

ZERO_ROW = ExactMatrix.zeros(1, 6)   # (a, b) = (0, 0)


def rand_vec3(rng):
    return tuple(Fraction(int(v)) for v in rng.integers(-4, 5, size=3))


def cross3(x, y):
    """x x y, as hat3(x) applied to y."""
    return (emb.hat3(x) @ ExactMatrix.from_rows([y]).transpose()).flatten()


def test_hat3_convention():
    e1, e2, e3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    assert cross3(e1, e2) == (Q(0), Q(0), Q(1))  # e1 x e2 = e3
    rng = np.random.default_rng(2)
    for _ in range(5):
        x = rand_vec3(rng)
        assert all(v == 0 for v in cross3(x, x))


def test_hat3_is_lie_isomorphism():
    rng = np.random.default_rng(4)
    for _ in range(6):
        x, y = rand_vec3(rng), rand_vec3(rng)
        assert bracket(emb.hat3(x), emb.hat3(y)) == emb.hat3(cross3(x, y))


def test_sl3_embed_shapes():
    zero = emb.sl3_embed(emb.Sl3Param.make())
    assert zero.is_zero()
    m = emb.sl3_embed(emb.Sl3Param.make(x=(1, 0, 0)))
    h = emb.hat3((1, 0, 0))
    assert m.submatrix([0, 1, 2], [0, 1, 2]) == h
    assert m.submatrix([3, 4, 5], [3, 4, 5]) == h
    assert m.submatrix([0, 1, 2], [3, 4, 5]).is_zero()


def test_sl3_param_validation():
    bad_y = ExactMatrix.from_rows([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    with pytest.raises(ValueError):
        emb.Sl3Param.make(y=bad_y)
    asym = ExactMatrix.from_rows([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    with pytest.raises(ValueError):
        emb.Sl3Param.make(y=asym)


def test_m_embed_displayed_matrix():
    m = emb.m_embed(unit_rows(6)[0])
    assert m[0, 3] == 2 and m[3, 0] == -2
    h = emb.hat3((1, 0, 0))
    assert m.submatrix([0, 1, 2], [4, 5, 6]) == h
    assert m.submatrix([4, 5, 6], [0, 1, 2]) == h
    assert m.submatrix([0, 1, 2], [0, 1, 2]).is_zero()
    assert emb.m_embed(ZERO_ROW).is_zero()


def test_g2_basis_certifies():
    b = emb.g2_basis()
    assert len(b.elements) == 14
    assert b.span.dim == 14
    assert len(b.structure_constants) == 91
    # closure was certified during construction; spot check an expansion
    c = b.coordinates(bracket(b.elements[0], b.elements[9]))
    assert c is not None


def test_reductivity_and_nonsymmetry():
    assert emb.reductivity_certificate()
    assert emb.non_symmetry_witness() is not None


def test_trace_orthogonality():
    assert emb.orthogonality_certificate()


def test_h_equivariance_exact():
    assert emb.h_equivariance_certificate()


def test_h_scale_is_two():
    assert emb.h_scale_certificate() == 2


def test_lift_trivial_cases():
    z = emb.lift_gtilde(ExactMatrix.zeros(6), ZERO_ROW)
    assert z.is_zero()
    a6 = emb.sl3_embed(emb.Sl3Param.make(x=(0, 1, 0)))
    lifted = emb.lift_gtilde(a6, ZERO_ROW)
    assert lifted.submatrix(range(6), range(6)) == a6
    assert all(lifted[i, 6] == 0 and lifted[6, i] == 0 for i in range(7))


def test_lift_scale_certificate():
    assert emb.lift_scale_certificate() == 2


def test_scale_certificates_catch_a_layout_error_in_h(monkeypatch):
    """m_embed and h_map are laid out independently, so an h table with the
    a and b roles swapped fails both certificates."""
    good = emb._h_table().num.reshape(6, 6, 6)
    swapped = ExactMatrix(np.concatenate([good[3:], good[:3]]).reshape(6, 36), 2)
    monkeypatch.setattr(emb, "_h_table", lambda: swapped)
    with pytest.raises(AssertionError, match="not proportional"):
        emb.h_scale_certificate()
    with pytest.raises(AssertionError, match="not proportional"):
        emb.lift_scale_certificate()


def test_lift_image_spans_complement():
    b = emb.g2_basis()
    perm_m = [m.submatrix(emb.AXIS_TO_LAST, emb.AXIS_TO_LAST) for m in b.m_elements]
    lifts = list(emb.lift_gtilde(ExactMatrix.zeros(6), unit_rows(6)))
    assert Subspace.span_matrices(perm_m) == Subspace.span_matrices(lifts)
    # and together with the (permuted) sl(3) block they span the permuted algebra
    perm_h = [m.submatrix(emb.AXIS_TO_LAST, emb.AXIS_TO_LAST) for m in b.h_elements]
    total = Subspace.span_matrices(perm_h + lifts)
    assert total.dim == 14


def test_intertwiner_identity_case():
    rep = emb.canonical_rep6()
    res = emb.intertwiner_solve(rep, rep)
    assert res.equivalent
    assert any(t == ExactMatrix.identity(6).scale(t[0, 0]) and t[0, 0] != 0
               for t in res.kernel) or res.invertible is not None


def test_adjoint_rep_equivalent_to_canonical():
    ad = emb.adjoint_rep_on_m()
    can = emb.canonical_rep6()
    res = emb.intertwiner_solve(ad, can)
    assert res.equivalent
    t = res.invertible
    for a, c in zip(ad, can):
        assert t @ a == c @ t


def test_intertwiner_witness_from_a_pairwise_combination():
    """diag(A, A) over the split sl(3) form commutes with exactly M_2 (x) I_3.
    Each of its four canonical kernel elements is singular, so the invertible
    witness comes from the search over pairwise combinations."""
    rep = [ExactMatrix(np.kron(np.eye(2, dtype=np.int64), a.num), a.den)
           for a in emb.sl3_canonical_rep3()]
    res = emb.intertwiner_solve(rep, rep)
    assert len(res.kernel) == 4
    assert all(Subspace.span(t).dim < 6 for t in res.kernel)
    assert res.equivalent
    t = res.invertible
    assert Subspace.span(t).dim == 6
    for a in rep:
        assert t @ a == a @ t


def test_canonical3_vs_dual_inequivalent():
    rep = emb.sl3_canonical_rep3()
    res = emb.intertwiner_solve(rep, emb.dual_rep(rep))
    assert not res.equivalent
    assert len(res.kernel) == 0


def test_trace_orthogonality_examples():
    b = emb.g2_basis()
    x = b.h_elements[0]
    assert trace_form(emb.hat3((1, 0, 0)), emb.hat3((1, 0, 0))) == -2
    for m in b.m_elements:
        assert trace_form(x, m) == 0


def test_h_map_zero():
    assert emb.h_map(ZERO_ROW).is_zero()


def test_lift_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        emb.lift_gtilde(ExactMatrix.zeros(5), ZERO_ROW)
