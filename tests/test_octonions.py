import itertools
import tracemalloc

import numpy as np
import pytest
from fractions import Fraction

from g2lab.embeddings import adjoint_rep_on_m, canonical_rep6, intertwiner_solve
from g2lab.octonions import (_basis_products, _random_octonion_pairs,
                             alternativity_certificate,
                             associative_test, associator, calibration_gap, dot,
                             norm_multiplicativity_certificate, standard_cross,
                             standard_octonions, torsion_cross)
from g2lab.rational import ExactMatrix, Q, combinations_index, unit_rows
from g2lab.threeform import dense, invariant_threeform
from test_threeform import reference_det3, reference_phi_value


def test_cross_product_identity_exact():
    cross = standard_cross()
    rng = np.random.default_rng(12)
    for _ in range(8):
        x = tuple(Fraction(int(n), int(d)) for n, d in
                  zip(rng.integers(-5, 6, size=7), rng.integers(1, 5, size=7)))
        y = tuple(Fraction(int(n), int(d)) for n, d in
                  zip(rng.integers(-5, 6, size=7), rng.integers(1, 5, size=7)))
        lhs = cross(x, cross(x, y))
        rhs = tuple(-dot(x, x) * yv + dot(x, y) * xv for xv, yv in zip(x, y))
        assert lhs == rhs


def test_cross_norm_identity():
    cross = standard_cross()
    rng = np.random.default_rng(15)
    for _ in range(6):
        x = tuple(Fraction(int(v)) for v in rng.integers(-4, 5, size=7))
        y = tuple(Fraction(int(v)) for v in rng.integers(-4, 5, size=7))
        xy = cross(x, y)
        assert dot(xy, xy) == dot(x, x) * dot(y, y) - dot(x, y) ** 2


def test_torsion_cross_proportional():
    res = torsion_cross()
    assert res.complement_dim == 7
    assert res.proportionality != 0


def test_octonion_unit_and_squares():
    tab = standard_octonions()
    one = tuple([Q(1)] + [Q(0)] * 7)
    rng = np.random.default_rng(6)
    p = tuple(Fraction(int(v)) for v in rng.integers(-4, 5, size=8))
    assert tab.multiply(one, p) == p
    assert tab.multiply(p, one) == p
    for i in range(1, 8):
        ei = tuple(Q(1) if s == i else Q(0) for s in range(8))
        assert tab.multiply(ei, ei) == tuple([Q(-1)] + [Q(0)] * 7)


def test_norm_multiplicativity_100_pairs():
    assert norm_multiplicativity_certificate(standard_octonions(), 42)


def test_alternativity():
    assert alternativity_certificate(standard_octonions(), 42)


def test_octonions_not_associative():
    e = unit_rows(8)
    i, j, k = np.array(list(itertools.product(range(1, 8), repeat=3))).T
    assert not associator(standard_octonions(), e[i], e[j], e[k]).is_zero()


def test_conjugation_norm():
    tab = standard_octonions()
    rng = np.random.default_rng(30)
    p = tuple(Fraction(int(v)) for v in rng.integers(-4, 5, size=8))
    pbar = (p[0],) + tuple(-v for v in p[1:])
    prod = tab.multiply(p, pbar)
    assert prod == tuple([tab.norm_sq(p)] + [Q(0)] * 7)


def test_associative_planes():
    e = [tuple(Q(1) if s == i else Q(0) for s in range(7)) for i in range(7)]
    assert associative_test(e[0], e[1], e[2])          # the plus block
    assert not associative_test(e[4], e[5], e[6])      # the minus block is not
    cross = standard_cross()
    rng = np.random.default_rng(33)
    x = tuple(Fraction(int(v)) for v in rng.integers(-3, 4, size=7))
    y = tuple(Fraction(int(v)) for v in rng.integers(-3, 4, size=7))
    xy = cross(x, y)
    assert associative_test(x, y, xy)                  # closure plane


def test_minus_block_phi_value_is_zero():
    assert dense(invariant_threeform(), 7, 3)[4, 5, 6] == 0


def reference_calibration_gap(x, y, z):
    """phi(x, y, z)^2 by the loop over phi's components and the 3x3 minors
    of x, y, z, and the Gram determinant by cofactors."""
    val = reference_phi_value(invariant_threeform(), x, y, z)
    g = [[dot(a, b) for b in (x, y, z)] for a in (x, y, z)]
    return val * val, reference_det3(g[0], g[1], g[2], 0, 1, 2)


def test_calibration_bound():
    # associative plane: equality; generic plane: strict inequality
    e = [tuple(Q(1) if s == i else Q(0) for s in range(7)) for i in range(7)]
    v2, det = calibration_gap(e[0], e[1], e[2])
    assert v2 == det
    rng = np.random.default_rng(41)
    hits = 0
    for _ in range(6):
        x, y, z = (tuple(Fraction(int(v)) for v in rng.integers(-3, 4, size=7))
                   for _ in range(3))
        v2, det = calibration_gap(x, y, z)
        assert (v2, det) == reference_calibration_gap(x, y, z)
        assert v2 <= det
        if v2 < det:
            hits += 1
    assert hits > 0


def test_degenerate_plane_rejected():
    e = [tuple(Q(1) if s == i else Q(0) for s in range(7)) for i in range(7)]
    with pytest.raises(ValueError):
        associative_test(e[0], e[1], tuple(a + b for a, b in zip(e[0], e[1])))


def dense_product(table, p, q):
    """The dense sum sum_ij p_i q_j table[i][j][k] over the 8x8 table of
    8-tuples that the signed-sparse table replaced, kept as the reference."""
    out = [Q(0)] * 8
    for i in range(8):
        for j in range(8):
            for k in range(8):
                out[k] += p[i] * q[j] * table[i][j][k]
    return tuple(out)


def test_random_pairs_are_drawn_from_their_ranges():
    """Each entry is a/b with a in [-9, 9] and b in [1, 6], and over 2,000
    pairs every such value appears; the stacks are (n, 1, 8)."""
    allowed = {Fraction(a, b) for a in range(-9, 10) for b in range(1, 7)}
    p, q = _random_octonion_pairs(2000, 42)
    assert p.shape == q.shape == (2000, 1, 8)
    values = {Fraction(x, m.den) for m in (p, q) for x in m.num.ravel().tolist()}
    assert values == allowed


def test_random_pairs_are_determined_by_the_seed():
    p, q = _random_octonion_pairs(5, 42)
    again = _random_octonion_pairs(5, 42)
    assert p == again[0] and q == again[1]
    draws = {(p.den, q.den, p.num.tobytes(), q.num.tobytes())
             for p, q in (_random_octonion_pairs(5, seed) for seed in range(20))}
    assert len(draws) == 20


def test_signed_sparse_product_matches_the_dense_sum():
    tab = standard_octonions()
    cross = standard_cross()
    products = _basis_products(cross)
    table = [[products[i, j] for j in range(8)] for i in range(8)]
    rng = np.random.default_rng(17)
    for _ in range(20):
        p, q = (tuple(Fraction(int(n), int(d)) for n, d in
                      zip(rng.integers(-9, 10, size=8), rng.integers(1, 7, size=8)))
                for _ in range(2))
        assert tab.multiply(p, q) == dense_product(table, p, q)
    # numerators near 2^35 over mixed denominators put 8 max|p| max|q| past
    # 2^62, so this product runs on Python ints
    p = tuple(Fraction(int(n) + (1 << 35), int(d)) for n, d in
              zip(rng.integers(-99, 99, size=8), rng.integers(1, 7, size=8)))
    q = tuple(Fraction(int(n) - (1 << 35), int(d)) for n, d in
              zip(rng.integers(-99, 99, size=8), rng.integers(1, 7, size=8)))
    wide = [ExactMatrix.from_rows([v]) for v in (p, q)]
    assert 8 * wide[0].bound * wide[1].bound >= 1 << 62
    assert tab.multiply(p, q) == dense_product(table, p, q)


def reference_dot(x, y):
    return sum((Fraction(a) * Fraction(b) for a, b in zip(x, y)), Fraction(0))


def reference_phi_cross(phi, x, y):
    """The Fraction loop over the nonzero components of the 3-form row phi,
    all six orderings of each triple."""
    out = [Fraction(0)] * 7
    for (i, j, k), c in zip(combinations_index(7, 3)[0], phi.row(0)):
        if c == 0:
            continue
        out[k] += c * (x[i] * y[j] - x[j] * y[i])
        out[j] += c * (x[k] * y[i] - x[i] * y[k])
        out[i] += c * (x[j] * y[k] - x[k] * y[j])
    return tuple(out)


def test_integer_cross_products_and_dot_match_the_fraction_loops():
    cross = standard_cross()
    rng = np.random.default_rng(23)

    def vec(shift=0):
        return tuple(Fraction(int(n) + shift, int(d)) for n, d in
                     zip(rng.integers(-9, 10, size=7), rng.integers(1, 7, size=7)))

    # numerators near 2^40 over mixed denominators take the Python-int path
    pairs = [(vec(), vec()) for _ in range(10)] + [(vec(1 << 40), vec(-(1 << 40)))]
    for x, y in pairs:
        assert cross(x, y) == reference_phi_cross(invariant_threeform(), x, y)
        assert dot(x, y) == reference_dot(x, y)


# ------------------------------------------------------------ memory bounds

# Warm tracemalloc peaks of the three largest exact systems, which are built
# as integer arrays (numpy 2.4.6: 850, 431 and 322 KiB).  Built as Fraction
# rows and then an object array they peaked at 1,848, 739 and 600 KiB.
EXACT_PEAK_BOUNDS = {
    "torsion_cross": 1536 * 1024,
    "invariant_threeform": 640 * 1024,
    "intertwiner_solve": 480 * 1024,
}


def _peak_bytes(run) -> int:
    run()                      # warm the cached algebra outside the trace
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_exact_systems_stay_within_their_memory_bounds():
    runs = {
        "torsion_cross": torsion_cross,
        "invariant_threeform": invariant_threeform.__wrapped__,
        "intertwiner_solve":
            lambda: intertwiner_solve(adjoint_rep_on_m(), canonical_rep6()),
    }
    peaks = {name: _peak_bytes(run) for name, run in runs.items()}
    over = {name: peak for name, peak in peaks.items()
            if peak > EXACT_PEAK_BOUNDS[name]}
    assert not over, f"tracemalloc peaks over their bounds: {over}"
