import itertools

import numpy as np
import pytest
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from g2lab.octonions import dot, standard_cross, standard_octonions
from g2lab.rational import (LIMIT, ExactMatrix, alternating_table, bracket,
                            common_ratio, sort_with_sign, trace_form)
from g2lab.subspaces import Subspace, rref
from test_threeform import perm_sign


def rand_skew(rng, n):
    m = rng.integers(-5, 6, size=(n, n))
    m = m - m.T
    return ExactMatrix.from_rows(m.tolist())


def test_sort_with_sign_is_the_sign_of_the_permutation():
    """Every word of up to four letters over range(5): its sorted form, and
    the sign of the swap loop, 0 when a letter repeats."""
    for length in range(5):
        for word in itertools.product(range(5), repeat=length):
            sign = perm_sign(word) if len(set(word)) == length else 0
            assert sort_with_sign(word) == (tuple(sorted(word)), sign)


def reference_alternating_table(n, k):
    """The per-word loop of `ravel_multi_index` that the one table replaced."""
    combos = list(itertools.combinations(range(n), k))
    out = np.zeros((len(combos), n ** k), dtype=np.int64)
    for ci, combo in enumerate(combos):
        for perm in itertools.permutations(range(k)):
            at = np.ravel_multi_index(tuple(combo[i] for i in perm), (n,) * k) if k else 0
            out[ci, at] = perm_sign(perm)
    return out


@pytest.mark.parametrize("n, k", [(7, 0), (7, 1), (7, 2), (7, 3), (7, 4), (3, 3), (5, 5)])
def test_alternating_table_equals_the_per_word_loop(n, k):
    table = alternating_table(n, k)
    assert not table.flags.writeable
    assert np.array_equal(table, reference_alternating_table(n, k))


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


# Each entry point of the exact layer, called with one scalar s in its input.
EXACT_ENTRY_POINTS = {
    "ExactMatrix.from_rows": lambda s: ExactMatrix.from_rows([[s]]),
    "OctonionTable.multiply":
        lambda s: standard_octonions().multiply([s] + [0] * 7, [1] + [0] * 7),
    "dot": lambda s: dot((1, s), (s, 1)),
    "standard_cross": lambda s: standard_cross()([s] * 7, [1] * 7),
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



# ------------------------------------------- the kernel against Fractions

def ref_matmul(a, b):
    """The Fraction triple loop that integer numerators replaced, kept as the
    reference: lists of rows of Fractions in, the same out."""
    return [[sum((a[i][t] * b[t][j] for t in range(len(b))), Fraction(0))
             for j in range(len(b[0]))] for i in range(len(a))]


def ref_rref(rows):
    """Gauss-Jordan elimination on Fraction rows: (nonzero reduced rows, pivots)."""
    rows = [list(r) for r in rows]
    pivots, r = [], 0
    for c in range(len(rows[0])):
        p = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def entries(m):
    return [list(row) for row in m]


# mixed denominators, so every operand carries its own common denominator
RATIONALS = st.fractions(min_value=-40, max_value=40, max_denominator=12)


@st.composite
def rational_rows(draw, rows, cols, scalars=RATIONALS):
    return [[draw(scalars) for _ in range(cols)] for _ in range(rows)]


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))
def test_kernel_matches_the_fraction_reference(data, n, k, m):
    a, c = data.draw(rational_rows(n, k)), data.draw(rational_rows(n, k))
    b = data.draw(rational_rows(k, m))
    sq1, sq2 = data.draw(rational_rows(n, n)), data.draw(rational_rows(n, n))
    s = data.draw(RATIONALS)
    A, B, C = (ExactMatrix.from_rows(x) for x in (a, b, c))
    S1, S2 = ExactMatrix.from_rows(sq1), ExactMatrix.from_rows(sq2)

    assert entries(A @ B) == ref_matmul(a, b)
    assert entries(A + C) == [[x + y for x, y in zip(r, q)] for r, q in zip(a, c)]
    assert entries(A - C) == [[x - y for x, y in zip(r, q)] for r, q in zip(a, c)]
    assert entries(A.scale(s)) == [[s * x for x in r] for r in a]
    lhs, rhs = ref_matmul(sq1, sq2), ref_matmul(sq2, sq1)
    assert entries(bracket(S1, S2)) == [[x - y for x, y in zip(r, q)]
                                        for r, q in zip(lhs, rhs)]
    assert trace_form(S1, S2) == sum(sq1[i][j] * sq2[j][i]
                                     for i in range(n) for j in range(n))
    red, pivots = rref(a)
    assert (entries(red), pivots) == ref_rref(a)


def test_large_entries_take_the_python_int_path():
    """Entries near 2^40 put max|A| max|B| k past 2^62: the product runs on
    Python ints (dtype object) and still equals the Fraction reference entry
    by entry; so do the sum, the bracket and the echelon form."""
    rng = np.random.default_rng(40)

    def big(rows, cols):
        return [[Fraction(int(x) + (1 << 40), int(d)) for x, d in zip(r, q)]
                for r, q in zip(rng.integers(-1000, 1000, size=(rows, cols)),
                                rng.integers(1, 9, size=(rows, cols)))]

    a, b = big(3, 4), big(4, 3)
    A, B = ExactMatrix.from_rows(a), ExactMatrix.from_rows(b)
    assert A.num.dtype == np.int64 and B.num.dtype == np.int64
    assert A.bound * B.bound * A.cols >= 1 << 62
    product = A @ B
    assert product.num.dtype == object
    expected = ref_matmul(a, b)
    for i in range(3):
        for j in range(3):
            assert product[i, j] == expected[i][j]
    assert entries(product + product) == [[2 * x for x in r] for r in expected]
    sq = ExactMatrix.from_rows(expected)
    assert entries(bracket(product, sq)) == [[0] * 3] * 3
    assert (entries(rref(expected)[0]), rref(expected)[1]) == ref_rref(expected)
    # a result that fits again goes back to machine integers
    assert (product - product).num.dtype == np.int64


# ------------------------------- shape-only operations and the common ratio

@st.composite
def exact_stacks(draw):
    """An ExactMatrix of 2 or 3 axes with numerators in [-50, 50] over a
    denominator that is 1 half of the time; with `big` the numerators are
    shifted by 2^70, so they are Python ints (dtype object)."""
    shape = draw(st.lists(st.integers(1, 3), min_size=2, max_size=3))
    size = int(np.prod(shape))
    num = draw(st.lists(st.integers(-50, 50), min_size=size, max_size=size))
    big = draw(st.booleans())
    num = np.array([x + (1 << 70) for x in num] if big else num,
                   dtype=object if big else np.int64).reshape(shape)
    return ExactMatrix(num, draw(st.one_of(st.just(1), st.integers(1, 12))))


@settings(max_examples=60, deadline=None)
@given(exact_stacks(), st.data())
def test_shape_operations_equal_a_full_construction(m, data):
    """reshape, transpose and unary minus keep the denominator, the bound
    and the dtype of their source; each result equals a full construction
    from a copy of its numerators, field by field, and is read-only."""
    size = m.num.size
    shape = data.draw(st.sampled_from([(size, 1, 1), (1, size), m.shape,
                                       (size // m.cols, m.cols)]))
    for out, num in ((m.reshape(*shape), m.num.reshape(shape)),
                     (m.transpose(), np.swapaxes(m.num, -1, -2)),
                     (-m, -m.num)):
        full = ExactMatrix(np.array(num), m.den)
        assert out == full
        assert (out.den, out.bound, out.num.dtype) == (full.den, full.bound, full.num.dtype)
        assert not out.num.flags.writeable
    assert (m.num.dtype == object) == (m.bound >= LIMIT)


def test_a_reshape_to_an_empty_stack_is_refused():
    for cols in (1, 4):
        with pytest.raises(ValueError, match="empty stack"):
            ExactMatrix.zeros(0, cols).reshape(0, 1, cols)


def reference_common_ratio(xs, ys):
    """The Fraction loop over two flat sequences that the check on the
    numerators replaced."""
    r = None
    for x, y in zip(xs, ys):
        if y != 0:
            if r is None:
                r = x / y
            elif x / y != r:
                return None
        elif x != 0:
            return None
    return r


@settings(max_examples=80, deadline=None)
@given(st.data(), st.lists(st.integers(1, 3), min_size=2, max_size=3),
       st.sampled_from(["proportional", "broken", "zero y"]), st.booleans())
def test_common_ratio_equals_the_fraction_loop(data, shape, kind, big):
    """Drawn stacks with zero entries, proportional at a drawn ratio (0
    included), or broken at one entry, or against an all-zero y; with `big`
    y's numerators pass 2^62, so both stacks hold Python ints."""
    size = int(np.prod(shape))
    scale = (1 << 70) if big else 1
    ys = [Fraction(scale * n, d) for n, d in zip(
        data.draw(st.lists(st.integers(-4, 4), min_size=size, max_size=size)),
        data.draw(st.lists(st.integers(1, 6), min_size=size, max_size=size)))]
    r = data.draw(RATIONALS)
    xs = [r * y for y in ys]
    if kind == "broken":
        k = data.draw(st.integers(0, size - 1))
        xs[k] += data.draw(RATIONALS.filter(lambda q: q != 0))
    if kind == "zero y":
        ys = [Fraction(0)] * size
        xs = data.draw(st.lists(RATIONALS, min_size=size, max_size=size))
    x = ExactMatrix.from_rows([xs]).reshape(*shape)
    y = ExactMatrix.from_rows([ys]).reshape(*shape)
    expected = reference_common_ratio(xs, ys)
    assert common_ratio(x, y) == expected
    if kind == "proportional" and any(ys):
        assert expected == r
    if kind == "zero y":
        assert expected is None
    if big and any(ys):
        assert y.num.dtype == object
