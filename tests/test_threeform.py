import itertools

import numpy as np
import pytest
from fractions import Fraction

from g2lab.embeddings import g2_basis
from g2lab.rational import ExactMatrix, Q, combinations_index
from g2lab.subspaces import Subspace
from g2lab.threeform import (action_on_threeforms, dense, invariant_threeform,
                             norm_sq, normalize, phi_cross_duality, star_phi,
                             stabilizer_in_so7, wedge_3_4)

TRIPLES, TRIPLE_INDEX = combinations_index(7, 3)
QUADS, QUAD_INDEX = combinations_index(7, 4)


def test_invariant_form_is_the_standard_unit_form():
    phi = invariant_threeform()
    assert phi.shape == (1, 35)
    got = {tuple(i + 1 for i in t): c for t, c in zip(TRIPLES, phi.row(0)) if c != 0}
    assert got == {
        (1, 2, 3): 1, (1, 4, 5): -1, (1, 6, 7): -1,
        (2, 4, 6): -1, (2, 5, 7): 1, (3, 4, 7): -1, (3, 5, 6): -1,
    }


def test_norm_and_sign_convention():
    phi = invariant_threeform()
    assert norm_sq(phi) == 7
    # first nonzero component in lexicographic order is positive
    assert next(c for c in phi.row(0) if c != 0) > 0


def test_normalize_rejects_non_square_ratio():
    comps = [Q(0)] * 35
    comps[0] = Q(1)
    comps[1] = Q(1)  # norm^2 = 2; 7/2 is not a rational square
    with pytest.raises(ValueError):
        normalize(ExactMatrix.from_rows([comps]))


def test_annihilated_by_every_basis_element():
    phi = invariant_threeform().transpose()
    assert (action_on_threeforms(g2_basis().elements) @ phi).is_zero()


def test_stabilizer_roundtrip():
    phi = invariant_threeform()
    stab = stabilizer_in_so7(phi)
    assert stab.dim == 14
    assert stab == Subspace.span_matrices(list(g2_basis().elements))


def test_star_phi_norm_and_wedge():
    phi = invariant_threeform()
    sp = star_phi(phi)
    assert norm_sq(sp) == 7
    assert wedge_3_4(phi, sp) == 7


def perm_sign(p):
    s = 1
    p = list(p)
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                s = -s
    return s


def reference_star(comps):
    """The per-quad loop that the complement table replaced, kept as the
    reference: 35 Fractions on the sorted triples in, 35 on the quads out."""
    out = [Q(0)] * 35
    for q in QUADS:
        comp = tuple(i for i in range(7) if i not in q)
        c = comps[TRIPLE_INDEX[comp]]
        if c:
            out[QUAD_INDEX[q]] = perm_sign(comp + q) * c
    return tuple(out)


def reference_wedge(alpha, beta):
    """The per-triple loop of alpha ^ beta, on 35-tuples of Fractions."""
    out = Q(0)
    for t, c in zip(TRIPLES, alpha):
        comp = tuple(i for i in range(7) if i not in t)
        out += perm_sign(t + comp) * c * beta[QUAD_INDEX[comp]]
    return out


def test_star_and_wedge_equal_the_per_quad_loop():
    rng = np.random.default_rng(10)
    forms = [invariant_threeform()] + [
        ExactMatrix.from_rows([[int(v) for v in rng.integers(-5, 6, size=35)]])
        for _ in range(6)]
    for alpha in forms:
        beta = ExactMatrix.from_rows([[int(v) for v in rng.integers(-5, 6, size=35)]])
        assert star_phi(alpha).row(0) == reference_star(alpha.row(0))
        assert wedge_3_4(alpha, beta) == reference_wedge(alpha.row(0), beta.row(0))
        assert wedge_3_4(alpha, star_phi(alpha)) == norm_sq(alpha)


def test_total_antisymmetry_access():
    phi = invariant_threeform()
    t = dense(phi, 7, 3)
    assert t[0, 1, 2] == -t[1, 0, 2]
    assert t[0, 0, 2] == 0
    # every ordering of every triple carries the sign of its sort
    for (i, j, k), c in zip(TRIPLES, phi.row(0)):
        for word in itertools.permutations((i, j, k)):
            assert t[word] == perm_sign(word) * c


def reference_det3(x, y, z, i, j, k):
    """The 3x3 minor of rows x, y, z at columns i, j, k, by cofactors."""
    return (x[i] * (y[j] * z[k] - y[k] * z[j])
            - x[j] * (y[i] * z[k] - y[k] * z[i])
            + x[k] * (y[i] * z[j] - y[j] * z[i]))


def reference_phi_value(phi, x, y, z):
    """phi(x, y, z) as the sum over the sorted triples of phi's components
    times the 3x3 minors of x, y, z: the Fraction loop the dense tensor
    replaced."""
    return sum((c * reference_det3(x, y, z, *t) for t, c in zip(TRIPLES, phi.row(0)) if c),
               Q(0))


def test_cross_duality_pairing():
    phi = invariant_threeform()
    cross = phi_cross_duality(phi)
    rng = np.random.default_rng(8)
    for _ in range(6):
        x, y, z = (tuple(Fraction(int(v)) for v in rng.integers(-3, 4, size=7))
                   for _ in range(3))
        xy = cross(x, y)
        assert sum(a * b for a, b in zip(xy, z)) == reference_phi_value(phi, x, y, z)


def test_cross_antisymmetric_and_orthogonal():
    cross = phi_cross_duality(invariant_threeform())
    rng = np.random.default_rng(9)
    for _ in range(6):
        x, y = (tuple(Fraction(int(v)) for v in rng.integers(-3, 4, size=7))
                for _ in range(2))
        xy = cross(x, y)
        yx = cross(y, x)
        assert xy == tuple(-v for v in yx)
        assert sum(a * b for a, b in zip(xy, x)) == 0


def test_invariance_solver_rejects_non_algebra_basis(monkeypatch):
    from g2lab import threeform
    from g2lab.embeddings import G2Basis
    from g2lab.subspaces import Coordinates
    from g2lab.threeform import so7_basis
    wrong = so7_basis()[:14]
    fake = G2Basis(wrong, {}, Coordinates.of(wrong.reshape(14, 49)))
    monkeypatch.setattr(threeform, "g2_basis", lambda: fake)
    with pytest.raises(ValueError):
        invariant_threeform.__wrapped__()   # the solver, past its cache
