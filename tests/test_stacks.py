"""The exact layer on stacks: stacked operations against the per-matrix loop,
and negative controls that keep every stacked certificate from passing on
no cases or on a broken input."""

import dataclasses
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from g2lab import embeddings as emb
from g2lab import modeldata, octonions, spin8
from g2lab.octonions import (OctonionTable, alternativity_certificate,
                             norm_multiplicativity_certificate, standard_octonions)
from g2lab.rational import (LIMIT, Bilinear, ExactMatrix, Q, bracket,
                            combinations_index, sort_with_sign, trace_form, unit_rows)
from g2lab.reports import SuiteContext
from g2lab.suites import check_algebra_closure
from g2lab.threeform import (_threeform_action_terms, action_on_threeforms,
                             invariant_threeform)
from test_embeddings import hat3
from test_threeform import perm_sign, reference_star

RATIONALS = st.fractions(min_value=-40, max_value=40, max_denominator=12)
BIG = 1 << 40   # shifts the first members' numerators: their products pass 2^62


@st.composite
def stack(draw, members, rows, cols, big=False):
    """A list of `members` matrices (lists of rows of Fractions); with `big`
    the first one is shifted by 2^40."""
    mats = [[[draw(RATIONALS) for _ in range(cols)] for _ in range(rows)]
            for _ in range(members)]
    if big:
        mats[0] = [[x + BIG for x in r] for r in mats[0]]
    return mats


def integer_stack(data, shape):
    """An ExactMatrix of `shape` with integer numerators in [-40, 40] over a
    drawn denominator: cheaper to draw than Fractions entry by entry."""
    size = int(np.prod(shape))
    num = data.draw(st.lists(st.integers(-40, 40), min_size=size, max_size=size))
    return ExactMatrix(np.array(num, dtype=np.int64).reshape(shape),
                       data.draw(st.integers(1, 12)))


def as_stack(mats):
    return ExactMatrix.stack([ExactMatrix.from_rows(m) for m in mats])


def entries(m):
    return [list(row) for row in m]


def fraction_matmul(a, b):
    """The Fraction triple loop, the reference independent of the kernel."""
    return [[sum((a[i][t] * b[t][j] for t in range(len(b))), Fraction(0))
             for j in range(len(b[0]))] for i in range(len(a))]


@settings(max_examples=30, deadline=None)
@given(st.data(), st.integers(1, 3), st.integers(1, 3), st.integers(1, 4),
       st.integers(1, 4), st.booleans())
def test_stacked_operations_equal_the_per_matrix_loop(data, s, t, n, k, big):
    """A (s, 1, n, k) @ B (t, k, n) broadcasts to (s, t, n, n); each member,
    and each bracket and trace form, equals the operation on the two
    matrices alone and the Fraction loop.  With `big` the first members pass 2^62 together, so the
    whole stack runs on Python ints while the other members alone fit int64."""
    a, b = data.draw(stack(s, n, k, big)), data.draw(stack(t, k, n, big))
    sq1, sq2 = data.draw(stack(s, n, n, big)), data.draw(stack(t, n, n, big))
    A, B = as_stack(a), as_stack(b)
    S1, S2 = as_stack(sq1), as_stack(sq2)
    A4, S4 = A.reshape(s, 1, n, k), S1.reshape(s, 1, n, n)

    product, brackets, traces = A4 @ B, bracket(S4, S2), trace_form(S4, S2)
    if big:
        assert A.bound * B.bound * k >= LIMIT and S1.bound * S2.bound * n >= LIMIT
        assert product.num.dtype == object
    assert product.shape == (s, t, n, n) and traces.shape == (s, t, 1, 1)
    for i in range(s):
        for j in range(t):
            x, y = ExactMatrix.from_rows(a[i]), ExactMatrix.from_rows(b[j])
            p, q = ExactMatrix.from_rows(sq1[i]), ExactMatrix.from_rows(sq2[j])
            assert entries(product[i, j]) == entries(x @ y) == fraction_matmul(a[i], b[j])
            assert entries(brackets[i, j]) == entries(bracket(p, q))
            pq = fraction_matmul(sq1[i], sq2[j])
            assert traces[i, j, 0, 0] == trace_form(p, q) == sum(pq[r][r] for r in range(n))
            assert bool(product[i, j].equal(x @ y))


@settings(max_examples=30, deadline=None)
@given(st.data(), st.integers(2, 4), st.integers(1, 4), st.booleans())
def test_stacked_bilinear_equals_the_per_row_loop(data, n, rows, big):
    """A Bilinear on stacks of rows (rows, 1, n) equals its call on each pair
    of rows as sequences, and the Fraction sum over the terms (i, j, k, c)
    its table holds."""
    terms = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                         st.integers(0, n - 1), RATIONALS),
                               min_size=1, max_size=12))
    table = [[Fraction(0)] * n for _ in range(n * n)]
    for i, j, k, c in terms:
        table[i * n + j][k] += c
    bil = Bilinear(ExactMatrix.from_rows(table))
    xs = data.draw(stack(rows, 1, n, big))
    ys = data.draw(stack(rows, 1, n, big))
    x_rows, y_rows = as_stack(xs), as_stack(ys)
    out = bil(x_rows, y_rows)
    if big:     # the outer products, so the stack, run on Python ints
        assert x_rows.bound * y_rows.bound >= LIMIT
    for r in range(rows):
        x, y = xs[r][0], ys[r][0]
        ref = [Fraction(0)] * n
        for i, j, k, c in terms:
            ref[k] += c * x[i] * y[j]
        assert out[r, 0] == bil(x, y) == tuple(ref)


def reference_m_embed(v):
    """The entry-by-entry build of m_embed from the six Fractions (a, b),
    kept as the reference for the table route."""
    a, b = v[:3], v[3:]
    ha, hb = hat3(a), hat3(b)
    ent = [[Q(0)] * 7 for _ in range(7)]
    for i in range(3):
        for j in range(3):
            ent[i][j] = hb[i, j]
            ent[i][4 + j] = ha[i, j]
            ent[4 + i][j] = ha[i, j]
            ent[4 + i][4 + j] = -hb[i, j]
        ent[i][3] = 2 * a[i]
        ent[3][i] = -2 * a[i]
        ent[4 + i][3] = 2 * b[i]
        ent[3][4 + i] = -2 * b[i]
    return ExactMatrix.from_rows(ent)


def reference_lift_gtilde(a6, xv):
    """The row-by-row build of lift_gtilde from the six Fractions (a, b),
    kept as the reference."""
    top = a6 + emb.h_map(ExactMatrix.from_rows([xv]))
    rows = [list(top.row(i)) + [xv[i]] for i in range(6)]
    rows.append([-t for t in xv] + [Q(0)])
    return ExactMatrix.from_rows(rows)


def reference_permute_matrix(m, perm):
    """The old permute_matrix, entry by entry, kept as the reference."""
    return ExactMatrix.from_rows([[m[perm[i], perm[j]] for j in range(len(perm))]
                                  for i in range(len(perm))])


@settings(max_examples=20, deadline=None)
@given(st.data(), st.integers(1, 4))
def test_complement_maps_equal_the_entry_loops(data, k):
    """m_embed, lift_gtilde and the axis permutation equal their old entry loops
    on one row (1, 6), and on a stack of rows (k, 1, 6) member by member."""
    vecs = data.draw(stack(k, 1, 6))
    a6 = integer_stack(data, (6, 6))
    rows = as_stack(vecs)
    embedded, lifts = emb.m_embed(rows), emb.lift_gtilde(a6, rows)
    permuted = embedded.submatrix(emb.AXIS_TO_LAST, emb.AXIS_TO_LAST)
    assert embedded.shape == permuted.shape == lifts.shape == (k, 7, 7)
    for i, v in enumerate(vecs):
        ref = reference_m_embed(v[0])
        assert embedded[i] == emb.m_embed(rows[i]) == ref
        assert lifts[i] == emb.lift_gtilde(a6, rows[i]) == reference_lift_gtilde(a6, v[0])
        assert permuted[i] == reference_permute_matrix(ref, emb.AXIS_TO_LAST)


def test_threeform_action_terms_equal_the_sort_with_sign_loop():
    """The gathered terms, as a set, equal the per-word loop that they
    replaced: each slot of each sorted triple replaced by each m, sorted
    with its sign."""
    triples, index = combinations_index(7, 3)
    reference = set()
    for row, triple in enumerate(triples):
        for slot, i in enumerate(triple):
            for m in range(7):
                t, s = sort_with_sign(triple[:slot] + (m,) + triple[slot + 1:])
                if s != 0:
                    reference.add((row, index[t], -s, m, i))
    terms = list(zip(*(col.tolist() for col in _threeform_action_terms())))
    assert len(terms) == len(set(terms)) == len(reference)
    assert set(terms) == reference


def reference_threeform_action(a):
    """The 35 x 35 action of one 7 x 7 matrix on Python ints, kept as the
    reference for the stacked call."""
    row, col, sign, m, i = _threeform_action_terms()
    out = np.zeros((35, 35), dtype=object)
    np.add.at(out, (row, col), sign * a.num.astype(object)[m, i])
    return ExactMatrix(out, a.den)


@settings(max_examples=20, deadline=None)
@given(st.data(), st.integers(1, 3), st.booleans())
def test_stacked_threeform_action_equals_the_per_matrix_loop(data, k, big):
    """action_on_threeforms on a stack (k, 7, 7) equals the reference on each
    member; with `big` one entry of the first member is 2^61, so the bound
    on three terms meeting in an entry passes 2^62 and the stack runs on
    Python ints."""
    a = integer_stack(data, (k, 7, 7))
    if big:
        num = a.num.copy()
        num[0, 0, 1] = 1 << 61
        a = ExactMatrix(num, 1)
        assert 3 * a.bound >= LIMIT
    out = action_on_threeforms(a)
    assert out.shape == (k, 35, 35)
    for i in range(k):
        assert out[i] == reference_threeform_action(a[i])


def test_float_views_equal_the_entry_loops():
    """modeldata's float views divide the integer numerators by the one
    denominator; they equal float() of each Fraction entry, as the entry
    loops built them."""
    h = np.array([[[float(v) for v in row] for row in emb.h_map(e)]
                  for e in unit_rows(6)])
    g2 = np.array([[float(v) for v in el.reshape(1, 49).row(0)]
                   for el in emb.g2_basis().elements])
    assert np.array_equal(modeldata.h_tensors(), h)
    assert np.array_equal(modeldata.g2_orthonormal_span(), np.linalg.qr(g2.T)[0].T[:14])
    # the model forms: phi, *phi by the per-quad loop, and phi's dense tensor
    # by the sign of every ordering of each triple
    phi = invariant_threeform().row(0)
    assert np.array_equal(modeldata.phi_constants(), [float(c) for c in phi])
    assert np.array_equal(modeldata.star_phi_constants(),
                          [float(c) for c in reference_star(phi)])
    f = np.zeros((7, 7, 7))
    for t, c in zip(combinations_index(7, 3)[0], phi):
        for word in itertools.permutations(t):
            f[word] = perm_sign(word) * float(c)
    assert np.array_equal(modeldata.cross_tensor(), f)


# ------------------------------------------------------- negative controls

def with_flipped_sign(table: OctonionTable, i: int, j: int) -> OctonionTable:
    sign = table.sign.copy()
    sign[i, j] *= -1
    return OctonionTable(table.index, sign)


@pytest.mark.parametrize("i", range(8))
def test_a_flipped_table_sign_fails_a_certificate(i):
    table = standard_octonions()
    for j in range(8):
        bad = with_flipped_sign(table, i, j)
        assert not (norm_multiplicativity_certificate(bad, 42)
                    and alternativity_certificate(bad, 42)), (i, j)


def test_a_nudged_structure_constant_breaks_closure(monkeypatch):
    basis = emb.g2_basis()
    ctx = SuiteContext(seed=42, samples=200, dump_dir=None)
    assert check_algebra_closure(ctx).residuals["closure"] == 0.0
    rows = [list(r) for r in basis.structure_constants]
    rows[40][9] += Q(1, 7)
    nudged = dataclasses.replace(basis, structure_constants=ExactMatrix.from_rows(rows))
    monkeypatch.setattr(emb, "g2_basis", lambda: nudged)
    # the defect is (1/7) e_9, whose largest entry is 2
    assert check_algebra_closure(ctx).residuals["closure"] == 2 / 7


def test_a_flipped_gamma_entry_fails_clifford(monkeypatch):
    gammas = spin8.gamma_matrices()
    assert spin8.clifford_certificate()
    for i, k, j in np.argwhere(gammas.num != 0):
        num = gammas.num.copy()
        num[i, k, j] *= -1
        monkeypatch.setattr(spin8, "gamma_matrices",
                            lambda num=num: ExactMatrix(num, gammas.den))
        assert not spin8.clifford_certificate(), (i, k, j)


def test_a_broken_member_fails_the_scale_certificate(monkeypatch):
    table = emb._h_table()
    assert emb.h_scale_certificate() == 2
    num = table.num.copy()
    num[3] *= 3     # h(e_3) three times over: proportional, at another scale
    monkeypatch.setattr(emb, "_h_table", lambda: ExactMatrix(num.copy(), table.den))
    assert emb.h_scale_certificate() is None
    num[3, 0] += 1   # where h(e_3) is 0: member 3 is no longer proportional
    monkeypatch.setattr(emb, "_h_table", lambda: ExactMatrix(num, table.den))
    assert emb.h_scale_certificate() is None


def test_an_empty_stack_is_refused(monkeypatch):
    with pytest.raises(ValueError):
        ExactMatrix(np.zeros((0, 2, 2), dtype=np.int64), 1)
    with pytest.raises(ValueError):
        ExactMatrix.identity(3).reshape(3, 1, 3)[3:]
    with pytest.raises(ValueError):
        ExactMatrix.stack([])
    table = standard_octonions()
    monkeypatch.setattr(octonions, "NORM_PAIRS", 0)
    monkeypatch.setattr(octonions, "ALTERNATIVITY_PAIRS", 0)
    with pytest.raises(ValueError):
        norm_multiplicativity_certificate(table, 42)
    with pytest.raises(ValueError):
        alternativity_certificate(table, 42)
    # a matrix with no rows is no stack: spans and kernels may be empty
    assert ExactMatrix.zeros(0, 4).rows == 0
