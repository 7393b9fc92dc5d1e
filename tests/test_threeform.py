import numpy as np
import pytest
from fractions import Fraction

from g2lab.embeddings import g2_basis
from g2lab.rational import ExactMatrix, Q
from g2lab.subspaces import Subspace
from g2lab.threeform import (ThreeForm, action_on_threeforms,
                             invariant_threeform, phi_cross_duality,
                             star_phi, stabilizer_in_so7, wedge_3_4)


def test_invariant_form_is_the_standard_unit_form():
    phi = invariant_threeform()
    got = {tuple(i + 1 for i in t): c for t, c in phi.nonzero_items()}
    assert got == {
        (1, 2, 3): 1, (1, 4, 5): -1, (1, 6, 7): -1,
        (2, 4, 6): -1, (2, 5, 7): 1, (3, 4, 7): -1, (3, 5, 6): -1,
    }


def test_norm_and_sign_convention():
    phi = invariant_threeform()
    assert phi.norm_sq() == 7
    # first nonzero component in lexicographic order is positive
    assert next(c for c in phi.components if c != 0) > 0


def test_normalize_rejects_non_square_ratio():
    comps = [Q(0)] * 35
    comps[0] = Q(1)
    comps[1] = Q(1)  # norm^2 = 2; 7/2 is not a rational square
    with pytest.raises(ValueError):
        ThreeForm(tuple(comps)).normalize()


def test_annihilated_by_every_basis_element():
    phi = ExactMatrix.from_rows([invariant_threeform().components]).transpose()
    assert (action_on_threeforms(g2_basis().elements) @ phi).is_zero()


def test_stabilizer_roundtrip():
    phi = invariant_threeform()
    stab = stabilizer_in_so7(phi)
    assert stab.dim == 14
    assert stab == Subspace.span_matrices(list(g2_basis().elements))


def test_star_phi_norm_and_wedge():
    phi = invariant_threeform()
    sp = star_phi(phi)
    assert sp.norm_sq() == 7
    assert wedge_3_4(phi, sp) == 7


def test_total_antisymmetry_access():
    phi = invariant_threeform()
    assert phi.value(0, 1, 2) == -phi.value(1, 0, 2)
    assert phi.value(0, 0, 2) == 0


def test_cross_duality_pairing():
    phi = invariant_threeform()
    cross = phi_cross_duality(phi)
    rng = np.random.default_rng(8)
    for _ in range(6):
        x, y, z = (tuple(Fraction(int(v)) for v in rng.integers(-3, 4, size=7))
                   for _ in range(3))
        xy = cross.cross(x, y)
        assert sum(a * b for a, b in zip(xy, z)) == phi(x, y, z)


def test_cross_antisymmetric_and_orthogonal():
    cross = phi_cross_duality(invariant_threeform())
    rng = np.random.default_rng(9)
    for _ in range(6):
        x, y = (tuple(Fraction(int(v)) for v in rng.integers(-3, 4, size=7))
                for _ in range(2))
        xy = cross.cross(x, y)
        yx = cross.cross(y, x)
        assert xy == tuple(-v for v in yx)
        assert sum(a * b for a, b in zip(xy, x)) == 0


def test_invariance_solver_rejects_non_algebra_basis(monkeypatch):
    from g2lab import threeform
    from g2lab.embeddings import G2Basis
    from g2lab.subspaces import Coordinates
    from g2lab.threeform import so7_basis
    wrong = so7_basis()[:14]
    fake = G2Basis(wrong, {}, Coordinates.of([m.flatten() for m in wrong]))
    monkeypatch.setattr(threeform, "g2_basis", lambda: fake)
    with pytest.raises(ValueError):
        invariant_threeform.__wrapped__()   # the solver, past its cache
