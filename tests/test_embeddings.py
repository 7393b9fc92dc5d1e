import numpy as np
import pytest
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from g2lab.rational import ExactMatrix, Q, bracket, trace_form, unit_rows
from g2lab.subspaces import Subspace
from g2lab import embeddings as emb
from g2lab import octonions

ZERO_ROW = ExactMatrix.zeros(1, 6)   # (a, b) = (0, 0)


def rand_vec3(rng):
    return tuple(Fraction(int(v)) for v in rng.integers(-4, 5, size=3))


def hat3(x):
    """The 3x3 skew matrix of the cross product with x, entry by entry: the
    reference for the hat table of the sl(3) basis."""
    x0, x1, x2 = x
    return ExactMatrix.from_rows([[0, -x2, x1], [x2, 0, -x0], [-x1, x0, 0]])


def cross3(x, y):
    """x x y, as hat3(x) applied to y."""
    return (hat3(x) @ ExactMatrix.from_rows([y]).transpose()).transpose().row(0)


# The parameters (x, y) of the sl(3) basis as the parent code listed them:
# three rotations, then five symmetric trace-free y.
REFERENCE_X = [(1, 0, 0), (0, 1, 0), (0, 0, 1)] + [(0, 0, 0)] * 5
REFERENCE_Y = [[[0] * 3] * 3] * 3 + [
    [[1, 0, 0], [0, -1, 0], [0, 0, 0]],
    [[0, 0, 0], [0, 1, 0], [0, 0, -1]],
    [[0, 1, 0], [1, 0, 0], [0, 0, 0]],
    [[0, 0, 1], [0, 0, 0], [1, 0, 0]],
    [[0, 0, 0], [0, 0, 1], [0, 1, 0]],
]


def reference_sl3_embed(x, y):
    """The 6x6 block matrix [[hat(x), -y], [y, hat(x)]], row by row: the
    deleted `sl3_embed`, kept as the reference."""
    hx, ym = hat3(x), ExactMatrix.from_rows(y)
    rows = [list(hx.row(i)) + [-v for v in ym.row(i)] for i in range(3)]
    rows += [list(ym.row(i)) + list(hx.row(i)) for i in range(3)]
    return ExactMatrix.from_rows(rows)


def test_hat3_convention():
    e1, e2, e3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    assert cross3(e1, e2) == (Q(0), Q(0), Q(1))  # e1 x e2 = e3
    rng = np.random.default_rng(2)
    for _ in range(5):
        x = rand_vec3(rng)
        assert all(v == 0 for v in cross3(x, x))
    # the hat table of the sl(3) basis is hat3 of the unit vectors
    hat, _ = emb._sl3_tables()
    assert not hat.flags.writeable
    for k, e in enumerate((e1, e2, e3)):
        assert ExactMatrix(hat[k], 1) == hat3(e)


def test_hat3_is_lie_isomorphism():
    rng = np.random.default_rng(4)
    for _ in range(6):
        x, y = rand_vec3(rng), rand_vec3(rng)
        assert bracket(hat3(x), hat3(y)) == hat3(cross3(x, y))


def test_sl3_embed_shapes():
    """The rotation member e_0 of the defining action has hat(e_0) on both
    diagonal blocks and zero off them; a y member has -y and y off them and
    zero on them."""
    rep = emb.canonical_rep6()
    assert rep.shape == (8, 6, 6)
    m, h = rep[0], hat3((1, 0, 0))
    assert m.submatrix([0, 1, 2], [0, 1, 2]) == h
    assert m.submatrix([3, 4, 5], [3, 4, 5]) == h
    assert m.submatrix([0, 1, 2], [3, 4, 5]).is_zero()
    y = ExactMatrix.from_rows(REFERENCE_Y[5])
    assert rep[5].submatrix([3, 4, 5], [0, 1, 2]) == y
    assert rep[5].submatrix([0, 1, 2], [3, 4, 5]) == -y
    assert rep[5].submatrix([0, 1, 2], [0, 1, 2]).is_zero()


def test_sl3_param_validation():
    """The parameters the basis is built from are valid: every y is
    symmetric and trace-free, every hat(x) skew, and none is zero."""
    hat, y = emb._sl3_tables()
    assert not y.flags.writeable
    assert np.array_equal(y, np.swapaxes(y, -1, -2))
    assert not np.trace(y, axis1=-2, axis2=-1).any()
    assert np.array_equal(hat, -np.swapaxes(hat, -1, -2))
    assert (hat + y).any(axis=(-2, -1)).all()


def test_sl3_reps_equal_the_sl3_embed_construction():
    """canonical_rep6 and sl3_canonical_rep3, built from the two tables,
    equal the per-parameter construction that they replaced."""
    rep6, rep3 = emb.canonical_rep6(), emb.sl3_canonical_rep3()
    assert rep6.shape == (8, 6, 6) and rep3.shape == (8, 3, 3)
    for k, (x, y) in enumerate(zip(REFERENCE_X, REFERENCE_Y)):
        assert rep6[k] == reference_sl3_embed(x, y)
        assert rep3[k] == hat3(x) + ExactMatrix.from_rows(y)


def test_m_embed_displayed_matrix():
    m = emb.m_embed(unit_rows(6)[0])
    assert m[0, 3] == 2 and m[3, 0] == -2
    h = hat3((1, 0, 0))
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
    a6 = emb.canonical_rep6()[1]      # the rotation member x = e_1
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
    assert emb.h_scale_certificate() is None
    assert emb.lift_scale_certificate() is None


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


def reference_intertwiner_system(rep1, rep2):
    """The per-member kron concatenation that the one array replaced."""
    n, m = rep1[0].rows, rep2[0].rows
    return ExactMatrix.concatenate(
        [ExactMatrix(np.kron(np.eye(m, dtype=np.int64), r1.num.T), r1.den)
         - ExactMatrix(np.kron(r2.num, np.eye(n, dtype=np.int64)), r2.den)
         for r1, r2 in zip(rep1, rep2)])


def test_intertwiner_system_of_each_caller_equals_the_kron_loop(monkeypatch):
    """The reps of the three callers: the two algebra checks, and the
    canonical action of the algebra against its action on the complement,
    recorded from a run of torsion_cross."""
    recorded = []

    def record(rep1, rep2):
        recorded.append((rep1, rep2))
        return emb.intertwiner_solve(rep1, rep2)

    monkeypatch.setattr(octonions, "intertwiner_solve", record)
    octonions.torsion_cross()
    rep3 = emb.sl3_canonical_rep3()
    cases = [(emb.adjoint_rep_on_m(), emb.canonical_rep6()),
             (rep3, emb.dual_rep(rep3)), *recorded]
    assert len(cases) == 3
    for rep1, rep2 in cases:
        system = emb._intertwiner_system(ExactMatrix.stack(rep1), ExactMatrix.stack(rep2))
        assert system == reference_intertwiner_system(rep1, rep2)


@st.composite
def rep_stack(draw, members, n, big):
    """A stack (members, n, n) of integers in [-9, 9] over a drawn
    denominator; with `big` one entry is shifted by 2^70, so the stack
    holds Python ints."""
    num = np.array(draw(st.lists(st.integers(-9, 9), min_size=members * n * n,
                                 max_size=members * n * n)), dtype=object)
    if big:
        num[0] += 1 << 70
    return ExactMatrix(num.reshape(members, n, n), draw(st.integers(1, 12)))


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(1, 3), st.integers(1, 4), st.integers(1, 4), st.booleans())
def test_drawn_intertwiner_systems_equal_the_kron_loop(data, members, n, m, big):
    rep1 = data.draw(rep_stack(members, n, big))
    rep2 = data.draw(rep_stack(members, m, False))
    assert rep1.num.dtype == (object if big else np.int64)
    system = emb._intertwiner_system(rep1, rep2)
    assert system.shape == (members * m * n, m * n)
    assert system == reference_intertwiner_system(rep1, rep2)


def test_canonical3_vs_dual_inequivalent():
    rep = emb.sl3_canonical_rep3()
    res = emb.intertwiner_solve(rep, emb.dual_rep(rep))
    assert not res.equivalent
    assert len(res.kernel) == 0


def test_trace_orthogonality_examples():
    b = emb.g2_basis()
    x = b.h_elements[0]
    assert trace_form(hat3((1, 0, 0)), hat3((1, 0, 0))) == -2
    for m in b.m_elements:
        assert trace_form(x, m) == 0


def test_h_map_zero():
    assert emb.h_map(ZERO_ROW).is_zero()


def test_lift_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        emb.lift_gtilde(ExactMatrix.zeros(5), ZERO_ROW)
