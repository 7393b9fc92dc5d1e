import sys
from math import lcm

import numpy as np
import pytest
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from g2lab import embeddings, subspaces
from g2lab.cli import main
from g2lab.rational import ExactMatrix, _fit, _magnitude
from g2lab.subspaces import (Coordinates, Subspace, _divide_content, _side_by_side,
                             inverse, kernel_basis, rref)


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
    s, meet = Subspace.sum_and_intersection([[1, 0, 0]], [[0, 1, 0]])
    assert s.dim == 2
    assert s.contains([2, -3, 0])
    assert not s.contains([0, 0, 1])
    assert meet.dim == 0


def test_intersect_self():
    rows = [[1, 2, 3], [0, 1, 1]]
    s = Subspace.span(rows)
    assert Subspace.sum_and_intersection(rows, rows) == (s, s)


def test_grassmann_dimension_formula():
    rng = np.random.default_rng(17)
    for _ in range(8):
        a = rng.integers(-3, 4, size=(3, 7)).tolist()
        b = rng.integers(-3, 4, size=(4, 7)).tolist()
        total, meet = Subspace.sum_and_intersection(a, b)
        assert Subspace.span(a).dim + Subspace.span(b).dim == total.dim + meet.dim


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


# --------------------------- the eliminations against the routes they replaced

def parent_rref(rows):
    """The elimination that one nonzero scan per column replaced: two scans
    per column, and a bound over the whole work array at every step."""
    m = ExactMatrix.from_rows(rows)
    work = _divide_content(m.num[(m.num != 0).any(axis=1)])
    pivots = []
    r = 0
    for c in range(m.cols):
        if r == len(work):
            break
        nz = np.flatnonzero(work[r:, c])
        if not nz.size:
            continue
        piv = r + int(nz[0])
        if piv != r:
            work[[r, piv]] = work[[piv, r]]
        hit = np.flatnonzero(work[:, c])
        hit = hit[hit != r]
        if hit.size:
            work, = _fit(2 * _magnitude(work) ** 2, work)
            work[hit] = _divide_content(work[r, c] * work[hit] - work[hit, c, None] * work[r])
        pivots.append(c)
        r += 1
    lead = [int(x) for x in work[np.arange(r), pivots]]
    den = lcm(*(abs(p) for p in lead))
    top, = _fit(_magnitude(work) * den, work[:r])
    scale = np.array([den // p for p in lead], dtype=top.dtype)
    return ExactMatrix(top * scale[:, None], den), pivots


def parent_span(rows) -> Subspace:
    red, pivots = parent_rref(rows)
    return Subspace(red, tuple(pivots))


def parent_sum_and_intersection(a: ExactMatrix, b: ExactMatrix):
    """The span of the two concatenated bases, and the kernel of
    [A^T | -B^T] mapped back through A's basis, each by `parent_rref`."""
    sa, sb = parent_span(a), parent_span(b)
    total = parent_span(ExactMatrix.concatenate([sa.basis, sb.basis]))
    if sa.dim == 0 or sb.dim == 0:
        return total, parent_span(ExactMatrix.zeros(0, a.cols))
    # x^T B1 = y^T B2  <=>  [B1^T | -B2^T] (x; y) = 0, solved as kernel_basis does
    system = ExactMatrix.concatenate([sa.basis, -sb.basis]).transpose()
    red, pivots = parent_rref(system)
    free = [c for c in range(system.cols) if c not in pivots]
    num = np.zeros((len(free), system.cols), dtype=red.num.dtype)
    num[np.arange(len(free)), free] = red.den
    num[:, pivots] = -red.num[:, free].T
    x = ExactMatrix(num, red.den).submatrix(range(len(free)), range(sa.dim))
    return total, parent_span(x @ sa.basis)


def parent_inverse(m: ExactMatrix) -> ExactMatrix:
    n = m.rows
    red, pivots = parent_rref(_side_by_side(m, ExactMatrix.identity(n)))
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix not invertible")
    return red.submatrix(range(n), range(n, 2 * n))


def parent_coordinates(rows: ExactMatrix) -> Coordinates:
    """The span, then the inverse of the rows at its pivot columns."""
    span = parent_span(rows)
    if span.dim != rows.rows:
        raise ValueError("vectors are linearly dependent")
    return Coordinates(span, parent_inverse(rows.submatrix(range(rows.rows), span.pivots)))


@st.composite
def exact_rows(draw, rows, cols, big=True):
    """A (rows x cols) ExactMatrix with all-zero rows and columns planted,
    over a denominator that is 1 half of the time.  The entries of each row
    are x 2^k + y, x and y in [-2, 2], at the row's own k: rows apart in
    size put the step bound on the pivot row or on the touched rows, k = 31
    and up pass 2^62 within a step, so the elimination goes on in Python
    ints, and k = 70 is dtype object from the start.  Without `big`, k = 0."""
    shifts = [draw(st.sampled_from([0, 16, 31, 48, 60, 70])) if big else 0
              for _ in range(rows)]
    num = [[draw(st.integers(-2, 2)) * (1 << k) + draw(st.integers(-2, 2))
            for _ in range(cols)] for k in shifts]
    for i in draw(st.sets(st.integers(0, rows - 1), max_size=rows)) if rows else ():
        num[i] = [0] * cols
    for j in draw(st.sets(st.integers(0, cols - 1), max_size=2)):
        for row in num:
            row[j] = 0
    num = np.array(num, dtype=object if 70 in shifts else np.int64).reshape(rows, cols)
    return ExactMatrix(num, draw(st.one_of(st.just(1), st.integers(2, 12))))


def same_rref(rows) -> bool:
    red, pivots = rref(rows)
    ref, ref_pivots = parent_rref(rows)
    return red == ref and red.num.dtype == ref.num.dtype and pivots == ref_pivots


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(1, 6), st.integers(1, 7))
def test_rref_equals_the_parent_elimination(data, rows, cols):
    assert same_rref(data.draw(exact_rows(rows, cols)))


@pytest.mark.parametrize("rows", [
    [[(1 << 61) - 1, 3, 1], [5, (1 << 61) - 1, 2], [7, 1, (1 << 61) - 1]],
    [[(1 << 50) + 1, (1 << 50) - 1, 0], [(1 << 14) - 1, 1, 1]],
], ids=["all-rows-near-2^61", "pivot-row-sets-the-bound"])
def test_rref_near_the_limit_steps_on_python_ints(monkeypatch, rows):
    """int64 rows whose first step passes 2^62: all rows near 2^61, or a
    pivot row near 2^50 over a row near 2^14, where only the pivot row's
    size shows it.  The work array turns to Python ints mid-elimination,
    and the result still equals the parent's."""
    turned = []

    def watched(bound, *arrays):
        out = _fit(bound, *arrays)
        turned.append(out[0].dtype == object and arrays[0].dtype != object)
        return out

    monkeypatch.setattr(subspaces, "_fit", watched)
    rows = ExactMatrix.from_rows(rows)
    assert rows.num.dtype == np.int64
    assert same_rref(rows)
    assert any(turned)


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(1, 5), st.integers(0, 4), st.integers(0, 4),
       st.sampled_from(["drawn", "zero side", "equal", "dependent"]))
def test_sum_and_intersection_equal_the_kernel_route(data, n, ra, rb, kind):
    """Drawn spanning rows, some of them zero; a side of zero rows or of no
    rows; b spanning the same space as a; and a with the sum of two of its
    rows appended."""
    a = data.draw(exact_rows(ra, n, big=False))
    b = data.draw(exact_rows(rb, n, big=False))
    if kind == "zero side":
        b = ExactMatrix.zeros(rb, n)
    if kind == "equal":
        b = ExactMatrix.concatenate([a[::-1].scale(3), a]) if ra else a
    if kind == "dependent" and ra:
        a = ExactMatrix.concatenate([a, a[:1] + a[-1:]])
    assert Subspace.sum_and_intersection(a, b) == parent_sum_and_intersection(a, b)
    assert Subspace.sum_and_intersection(b, a) == parent_sum_and_intersection(b, a)


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(1, 5), st.integers(1, 6), st.booleans())
def test_coordinates_equal_the_span_and_inverse_route(data, k, n, repeat):
    """Coordinates.of against the span and the inverse at the pivot columns:
    dependent rows, a repeated last row among them, raise in both; and
    `inverse` against the parent's on square rows."""
    rows = data.draw(exact_rows(k, n))
    if repeat:
        rows = ExactMatrix.concatenate([rows, rows[-1:]])
    try:
        expected = parent_coordinates(rows)
    except ValueError:
        with pytest.raises(ValueError, match="linearly dependent"):
            Coordinates.of(rows)
    else:
        assert Coordinates.of(rows) == expected
    if rows.rows == rows.cols:
        try:
            expected = parent_inverse(rows)
        except ValueError:
            with pytest.raises(ValueError):
                inverse(rows)
        else:
            assert inverse(rows) == expected


# ------------------------------------------ eliminations per certifying run

# rref calls of one cold `main(["--suite", s, "--json-only"])`
RREF_CALLS = {"algebra": 7, "octonion": 13}


def rref_calls(monkeypatch, capsys, suite: str) -> int:
    """The rref calls of one run of `suite` after every g2lab cache is
    cleared, counted through each module's binding of `rref`."""
    calls = []

    def counted(rows):
        calls.append(rows)
        return rref(rows)

    for name, module in list(sys.modules.items()):
        if name.startswith("g2lab"):
            for value in list(vars(module).values()):
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
            if getattr(module, "rref", None) is rref:
                monkeypatch.setattr(module, "rref", counted)
    assert main(["--suite", suite, "--json-only"]) == 0
    capsys.readouterr()
    return len(calls)


@pytest.mark.parametrize("suite", sorted(RREF_CALLS))
def test_no_elimination_creeps_back(monkeypatch, capsys, suite):
    assert rref_calls(monkeypatch, capsys, suite) == RREF_CALLS[suite]


def test_the_count_sees_one_extra_elimination(monkeypatch, capsys):
    """The complement span rebuilt by each of its two readers, as before it
    was held once, is one elimination past the pin."""
    monkeypatch.setattr(embeddings.G2Basis, "m_span",
                        property(lambda basis: Subspace.span_matrices(basis.m_elements)))
    assert rref_calls(monkeypatch, capsys, "algebra") == RREF_CALLS["algebra"] + 1
