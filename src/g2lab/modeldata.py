"""Float views of the exactly certified model data, for the numerical modules.

Everything here is derived from the exact constructions at import-cost only;
no float constant is written down by hand.
"""

from __future__ import annotations

import functools

import numpy as np

from .embeddings import g2_basis, h_map
from .rational import unit_rows
from .threeform import dense, invariant_threeform, star_phi


@functools.lru_cache(maxsize=1)
def phi_constants() -> np.ndarray:
    """Components of the model 3-form over the sorted triples, as floats."""
    phi = invariant_threeform()
    return phi.num[0] / phi.den


@functools.lru_cache(maxsize=1)
def star_phi_constants() -> np.ndarray:
    star = star_phi(invariant_threeform())
    return star.num[0] / star.den


@functools.lru_cache(maxsize=1)
def cross_tensor() -> np.ndarray:
    """F with (x X y)_k = sum_ij x_i y_j F[i, j, k]: the dense tensor of
    the model 3-form, F[i, j, k] = phi(e_i, e_j, e_k), as floats."""
    f = dense(invariant_threeform(), 7, 3)
    return f.num / f.den


def cross7(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x X y over the last axes of `x` and `y`; leading axes broadcast."""
    return np.einsum('...j,...jk->...k', y, np.einsum('...i,ijk->...jk', x, cross_tensor()))


@functools.lru_cache(maxsize=1)
def h_tensors() -> np.ndarray:
    """H[i] = float matrix of h(e_i) acting on R^6, for the 6 basis directions."""
    h = h_map(unit_rows(6))
    return h.num / h.den


def h6(w: np.ndarray) -> np.ndarray:
    """h of a 6-vector in frame components, as a 6x6 float matrix, over the
    last axis of `w`."""
    return np.einsum('...i,iab->...ab', np.asarray(w, dtype=float), h_tensors())


@functools.lru_cache(maxsize=1)
def g2_orthonormal_span() -> np.ndarray:
    """Orthonormal (Frobenius) basis of the algebra span, rows of shape (14, 49)."""
    el = g2_basis().elements
    q, _ = np.linalg.qr((el.num / el.den).reshape(14, 49).T)
    return q.T


def off_g2_fraction(m: np.ndarray) -> np.ndarray:
    """Fraction of a skew 7x7 matrix lying trace-form-orthogonal to the
    algebra, over any leading axes of `m`.

    Reads 0 for matrices of norm below 1e-10 (the 0/0 convention).
    """
    v = m.reshape(m.shape[:-2] + (49,))
    total = np.linalg.norm(v, axis=-1)
    q = g2_orthonormal_span()
    outside = np.linalg.norm(v - (v @ q.T) @ q, axis=-1)
    return np.divide(outside, total, out=np.zeros(total.shape), where=total >= 1e-10)
