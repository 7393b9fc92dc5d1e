"""Pointwise finite-difference calculus on coordinate boxes.

Fields are plain callables evaluated at query points; nothing is ever stored
on a grid.  A 1-form value is a vector and a 2-form value a skew matrix
(`d_one_form`, the block star `hodge_restricted`); `exterior_d` and
`transform_form` take a k-form value as a numpy vector over the sorted k-index
combinations in lexicographic order, which is how the 3- and 4-forms of a
bundle are held.  Domains are boxes with explicit excluded sets, and samplers
reject points too close to an exclusion or the boundary.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

Point = np.ndarray


@dataclass(frozen=True)
class StencilConfig:
    """Step size of the derivative stencils: 3-point central differences,
    second order."""

    h: float = 1e-3

    def __post_init__(self):
        if not (np.isfinite(self.h) and self.h > 0):
            raise ValueError("step must be finite and positive")

    @property
    def reach(self) -> float:
        """Largest coordinate offset any stencil of this config can touch."""
        return 2 * self.h  # cross second-derivative stencils double up


@dataclass(frozen=True)
class Domain:
    """A coordinate box minus excluded sets given by distance functions."""

    lo: tuple
    hi: tuple
    exclusions: tuple = ()   # callables p -> distance to the excluded set

    @property
    def dim(self) -> int:
        return len(self.lo)

    def contains(self, p: Point, pad: float = 0.0) -> bool:
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        if np.any(p < lo + pad) or np.any(p > hi - pad):
            return False
        return all(excl(p) > pad for excl in self.exclusions)

    def lift_t(self) -> "Domain":
        """This domain times the t-interval [-1, 1]; the exclusions ignore t."""
        return Domain(lo=(-1.0,) + tuple(self.lo),
                      hi=(1.0,) + tuple(self.hi),
                      exclusions=tuple(_lift_exclusion(e) for e in self.exclusions))


def _lift_exclusion(excl):
    return lambda p: excl(p[1:])


class StencilDomainError(ValueError):
    """A derivative stencil would evaluate outside the declared domain."""


def _check_stencil(p: Point, cfg: StencilConfig, domain: Domain | None):
    if domain is not None and not domain.contains(p, pad=cfg.reach):
        raise StencilDomainError(f"stencil of reach {cfg.reach} exits the domain at {p}")


def fd_partial(f: Callable, p: Point, direction: int, cfg: StencilConfig,
               domain: Domain | None = None):
    """Central-difference partial derivative in one coordinate direction.

    Works for scalar- or array-valued fields; exact on quadratics.
    """
    _check_stencil(p, cfg, domain)
    h = cfg.h
    pp, pm = p.copy(), p.copy()
    pp[direction] += h
    pm[direction] -= h
    return (np.asarray(f(pp), dtype=float) - np.asarray(f(pm), dtype=float)) / (2 * h)


def fd_gradient(f: Callable, p: Point, cfg: StencilConfig,
                domain: Domain | None = None) -> np.ndarray:
    return np.array([fd_partial(f, p, d, cfg, domain) for d in range(len(p))])


@functools.lru_cache(maxsize=None)
def combinations_index(n: int, k: int):
    combos = tuple(itertools.combinations(range(n), k))
    return combos, {c: i for i, c in enumerate(combos)}


@functools.lru_cache(maxsize=None)
def _combination_array(n: int, k: int) -> np.ndarray:
    """The sorted k-index combinations as rows of an integer array."""
    return np.array(combinations_index(n, k)[0], dtype=int).reshape(-1, k)


@functools.lru_cache(maxsize=None)
def _d_table(n: int, k: int) -> tuple:
    """For each m, the pair (J_m, index of J minus J_m) over the sorted
    (k+1)-tuples J, as integer arrays."""
    _, kindex = combinations_index(n, k)
    combos_k1, _ = combinations_index(n, k + 1)
    return tuple((np.array([J[m] for J in combos_k1], dtype=int),
                  np.array([kindex[J[:m] + J[m + 1:]] for J in combos_k1], dtype=int))
                 for m in range(k + 1))


def exterior_d(omega: Callable, p: Point, k: int, cfg: StencilConfig,
               domain: Domain | None = None) -> np.ndarray:
    """Coordinate exterior derivative of a k-form field at a point.

    (d omega)_J = sum_m (-1)^m d_{J_m} omega_{J minus J_m} on sorted (k+1)-tuples.
    A scalar field (k = 0) may return a plain float.
    """
    partials = fd_gradient(omega, p, cfg, domain)
    if k == 0:
        return partials
    out = np.zeros(len(combinations_index(len(p), k + 1)[0]))
    for m, (lead, rest) in enumerate(_d_table(len(p), k)):
        out += (-1.0) ** m * partials[lead, rest]
    return out


def d_one_form(a: Callable, p: Point, cfg: StencilConfig) -> np.ndarray:
    """Exterior derivative of a 1-form field as a skew matrix:
    (dA)[i, j] = d_i A_j - d_j A_i."""
    grad = fd_gradient(a, p, cfg)
    return grad - grad.T


def transform_form(comps: np.ndarray, k: int, n: int, frame: np.ndarray) -> np.ndarray:
    """Components of a k-form on the frame (columns of `frame`) from coordinate
    components: out_I = omega(f_{I1}, ..., f_{Ik}) = sum_J comps_J det frame[J, I].

    This is the k-th exterior power of the frame applied to the components.
    All minors come from one batched determinant over (nonzero J) x (all I),
    and the nonzero components are summed in index order.
    """
    combos = _combination_array(n, k)
    comps = np.asarray(comps)
    nonzero = np.flatnonzero(comps)
    minors = np.linalg.det(frame[combos[nonzero][:, None, :, None],
                                 combos[None, :, None, :]])
    out = np.zeros(len(combos))
    for c, row in zip(comps[nonzero], minors):
        out += c * row
    return out


PLUS6 = np.arange(0, 3)    # the plus block of the 6-dimensional base
MINUS6 = np.arange(3, 6)   # the minus block, carrying the monopole (v, A)
PP, PM, MM = np.ix_(PLUS6, PLUS6), np.ix_(PLUS6, MINUS6), np.ix_(MINUS6, MINUS6)


def adapted_frame(g: np.ndarray) -> np.ndarray:
    """Columns = orthonormal frame respecting the plus/minus split (blockwise
    Cholesky).

    Requires the metric to be block diagonal w.r.t. the split.
    """
    if float(np.max(np.abs(g[PM]))) > 1e-9:
        raise ValueError("metric does not respect the split")
    f = np.zeros((6, 6))
    for block in (PP, MM):
        f[block] = np.linalg.inv(np.linalg.cholesky(g[block])).T
    return f


def frame_derivatives(frame_field: Callable, p: Point, frame: np.ndarray,
                      gam: np.ndarray, cfg: StencilConfig) -> tuple:
    """Derivatives of a frame field (columns f_b) along its own vectors, in
    coordinates: (d, nabla) with d[a][:, b] = d_{f_a} f_b and
    nabla[a, b] = nabla_{f_a} f_b = d_{f_a} f_b + gam[k, c, d] f_a^c f_b^d.
    `frame` is the field's value at p, `gam` the connection there."""
    n = len(frame)
    dframe = fd_gradient(frame_field, p, cfg)     # dframe[d, k, b] = d_d frame[k, b]
    d = [np.einsum('d,dkb->kb', frame[:, a], dframe) for a in range(n)]
    nabla = np.array([[d[a][:, b] + np.einsum('kcd,c,d->k', gam, frame[:, a], frame[:, b])
                       for b in range(n)] for a in range(n)])
    return d, nabla


def hat(w: np.ndarray) -> np.ndarray:
    """3x3 skew matrix of the cross product: hat(w) @ x = w x x."""
    return np.array([[0.0, -w[2], w[1]],
                     [w[2], 0.0, -w[0]],
                     [-w[1], w[0], 0.0]])


def hodge_restricted(a: np.ndarray, gb: np.ndarray) -> np.ndarray:
    """Hodge star of a 1-form on a 3-dimensional block with metric `gb`: the
    skew matrix of a 2-form.  On an oriented orthonormal frame this realizes
    *f1 = f2^f3 (cyclic)."""
    det = np.linalg.det(gb)
    if det <= 0:
        raise ValueError("metric is degenerate on the block")
    return -hat(np.linalg.solve(gb, a)) * np.sqrt(det)


def halton_sequence(index: int, base: int) -> float:
    f, r = 1.0, 0.0
    i = index
    while i > 0:
        f /= base
        r += f * (i % base)
        i //= base
    return r


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


def sample_points(domain: Domain, n: int, cfg: StencilConfig,
                  seed: int = 42) -> list[Point]:
    """Deterministic quasi-random interior points, rejecting anything within
    `10 h` (at least the stencil reach) of the boundary or an excluded set."""
    pad = max(10.0 * cfg.h, cfg.reach * 1.5)
    dim = domain.dim
    lo = np.asarray(domain.lo, dtype=float)
    hi = np.asarray(domain.hi, dtype=float)
    if np.any(lo + pad > hi - pad):
        raise RuntimeError("sampler failed: domain too constrained")
    pts = []
    index = 1 + (seed % 997) * 101
    attempts = 0
    while len(pts) < n:
        u = np.array([halton_sequence(index, _PRIMES[d % len(_PRIMES)])
                      for d in range(dim)])
        index += 1
        attempts += 1
        if attempts > 1000 * n:
            raise RuntimeError("sampler failed: domain too constrained")
        p = lo + u * (hi - lo)
        if domain.contains(p, pad=pad):
            pts.append(p)
    return pts


def sup(samples: Sequence[Point], at: Callable[[Point], dict]) -> dict:
    """{name: largest value} of the non-negative residuals at(p) = {name:
    scalar or array}, over every sample point and every entry.  A NaN
    anywhere gives NaN, so a residual that cannot be evaluated fails its
    tolerance instead of passing.  No sample points is an error, not a pass."""
    out = {}
    for p in samples:
        for name, value in at(p).items():
            out[name] = float(np.max(value, initial=out.get(name, 0.0)))
    if not out:
        raise ValueError("sup over no sample points")
    return out
