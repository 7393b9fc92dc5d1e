"""Pointwise finite-difference calculus on coordinate boxes.

Fields are plain callables evaluated at query points; nothing is ever stored
on a grid.  A k-form value is a numpy vector over the sorted k-index
combinations in lexicographic order.  Domains are boxes with explicit excluded
sets, and samplers reject points too close to an exclusion or the boundary.
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
    """Step size and order for all derivative stencils.

    order 2 uses 3-point central differences; order 4 uses 5-point first
    derivatives and one Richardson pass on second derivatives.  The
    `richardson` flag forces the extrapolation pass at order 2 as well.
    """

    h: float = 1e-3
    order: int = 2
    richardson: bool = False

    def __post_init__(self):
        if not (np.isfinite(self.h) and self.h > 0):
            raise ValueError("step must be finite and positive")
        if self.order not in (2, 4):
            raise ValueError("order must be 2 or 4")

    def with_h(self, h: float) -> "StencilConfig":
        return StencilConfig(h=h, order=self.order, richardson=self.richardson)

    @property
    def reach(self) -> float:
        """Largest coordinate offset any stencil of this config can touch."""
        base = 2 * self.h if self.order == 4 else self.h
        return 2 * base  # cross second-derivative stencils double up


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

    def lift_t(self, t_range=(-1.0, 1.0)) -> "Domain":
        """This domain times a leading t-interval; the exclusions ignore t."""
        return Domain(lo=(t_range[0],) + tuple(self.lo),
                      hi=(t_range[1],) + tuple(self.hi),
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

    Works for scalar- or array-valued fields.  Exact on quadratics at order 2
    and on quartics at order 4.
    """
    _check_stencil(p, cfg, domain)

    def central(h):
        if cfg.order == 2:
            pp, pm = p.copy(), p.copy()
            pp[direction] += h
            pm[direction] -= h
            return (np.asarray(f(pp), dtype=float) - np.asarray(f(pm), dtype=float)) / (2 * h)
        offsets = (2 * h, h, -h, -2 * h)
        weights = (-1.0, 8.0, -8.0, 1.0)
        acc = None
        for o, w in zip(offsets, weights):
            q = p.copy()
            q[direction] += o
            val = w * np.asarray(f(q), dtype=float)
            acc = val if acc is None else acc + val
        return acc / (12 * h)

    if not cfg.richardson:
        return central(cfg.h)
    d1, d2 = central(cfg.h), central(cfg.h / 2)
    w = 4.0 if cfg.order == 2 else 16.0
    return (w * d2 - d1) / (w - 1.0)


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


@dataclass(frozen=True)
class SplitSpec:
    """Named partition of coordinate indices into blocks with orientations."""

    blocks: tuple          # ((name, (i, j, k)), ...)
    orientations: tuple = ()

    def __post_init__(self):
        idx = [i for _, ids in self.blocks for i in ids]
        if len(set(idx)) != len(idx):
            raise ValueError("blocks overlap")
        if self.orientations and len(self.orientations) != len(self.blocks):
            raise ValueError("one orientation sign per block required")

    def indices(self, name: str) -> tuple:
        for bname, ids in self.blocks:
            if bname == name:
                return tuple(ids)
        raise KeyError(f"no block named {name!r}")

    def orientation(self, name: str) -> float:
        if not self.orientations:
            return 1.0
        for (bname, _), s in zip(self.blocks, self.orientations):
            if bname == name:
                return float(s)
        raise KeyError(f"no block named {name!r}")

    def with_orientation(self, name: str, sign: float) -> "SplitSpec":
        signs = list(self.orientations) if self.orientations else [1.0] * len(self.blocks)
        for i, (bname, _) in enumerate(self.blocks):
            if bname == name:
                signs[i] = sign
        return SplitSpec(self.blocks, tuple(signs))


def adapted_frame(g: np.ndarray, split: SplitSpec) -> np.ndarray:
    """Columns = orthonormal frame respecting the split (blockwise Cholesky).

    Requires the metric to be block diagonal w.r.t. the split.
    """
    plus = split.indices("plus")
    minus = split.indices("minus")
    if float(np.max(np.abs(g[np.ix_(plus, minus)]))) > 1e-9:
        raise ValueError("metric does not respect the split")
    f = np.zeros((6, 6))
    for cols, block in ((range(0, 3), plus), (range(3, 6), minus)):
        l = np.linalg.cholesky(g[np.ix_(block, block)])
        finv = np.linalg.inv(l).T
        for j, cj in enumerate(cols):
            for i, ci in enumerate(block):
                f[ci, cj] = finv[i, j]
    return f


EPS3 = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    EPS3[_i, _j, _k] = 1.0
    EPS3[_i, _k, _j] = -1.0


def hat(w: np.ndarray) -> np.ndarray:
    """3x3 skew matrix of the cross product: hat(w) @ x = w x x."""
    return np.array([[0.0, -w[2], w[1]],
                     [w[2], 0.0, -w[0]],
                     [-w[1], w[0], 0.0]])


def hodge_restricted(comps: np.ndarray, k: int, n: int, block: Sequence[int],
                     g: np.ndarray, orientation: float = 1.0) -> np.ndarray:
    """Hodge star of the block-restriction of a k-form on a 3-dimensional block.

    `comps` are full-space components; the result is again full-space
    components supported on the block.  `g` is the full metric value; only its
    block restriction enters.  On an oriented orthonormal frame this realizes
    *1 = f1^f2^f3, *f1 = f2^f3 (cyclic) and its inverses.
    """
    block = tuple(block)
    if len(block) != 3:
        raise ValueError("hodge_restricted needs a 3-dimensional block")
    gb = np.asarray(g, dtype=float)[np.ix_(block, block)]
    det = np.linalg.det(gb)
    if det <= 0:
        raise ValueError("metric is degenerate on the block")
    volf = orientation * np.sqrt(det)
    combos_k, kindex = combinations_index(n, k)

    if k == 0:
        w = float(comps) if np.ndim(comps) == 0 else float(comps[0])
        out = np.zeros(len(combinations_index(n, 3)[0]))
        _, q3 = combinations_index(n, 3)
        out[q3[tuple(sorted(block))]] = w * volf * _block_perm_sign(block)
        return out

    if k == 1:
        a = np.array([comps[kindex[(b,)]] for b in block])
        aup = np.linalg.solve(gb, a)
        two = np.einsum('m,mij->ij', aup, EPS3) * volf
        combos2, idx2 = combinations_index(n, 2)
        out = np.zeros(len(combos2))
        for li, lj in itertools.combinations(range(3), 2):
            pair = tuple(sorted((block[li], block[lj])))
            sgn = 1.0 if block[li] < block[lj] else -1.0
            out[idx2[pair]] += sgn * two[li, lj]
        return out

    if k == 2:
        two = restrict_two_form(comps, n, block, block)
        bvec = np.einsum('mij,ij->m', EPS3, two) / 2.0
        low = gb @ bvec / volf
        combos1, idx1 = combinations_index(n, 1)
        out = np.zeros(len(combos1))
        for li in range(3):
            out[idx1[(block[li],)]] = low[li]
        return out

    if k == 3:
        _, idx3 = combinations_index(n, 3)
        w = comps[idx3[tuple(sorted(block))]] * _block_perm_sign(block)
        return np.array([w / volf])

    raise ValueError("block star implemented for k = 0..3 only")


def _block_perm_sign(block) -> float:
    b = list(block)
    s = 1.0
    for i in range(3):
        for j in range(i + 1, 3):
            if b[i] > b[j]:
                s = -s
    return s


def restrict_two_form(comps: np.ndarray, n: int, rows: Sequence[int],
                      cols: Sequence[int]) -> np.ndarray:
    """Matrix beta[a, b] = omega(e_rows[a], e_cols[b]) of a 2-form value."""
    _, idx2 = combinations_index(n, 2)
    out = np.zeros((len(rows), len(cols)))
    for a, i in enumerate(rows):
        for b, j in enumerate(cols):
            if i == j:
                continue
            sgn = 1.0 if i < j else -1.0
            out[a, b] = sgn * comps[idx2[tuple(sorted((i, j)))]]
    return out


def halton_sequence(index: int, base: int) -> float:
    f, r = 1.0, 0.0
    i = index
    while i > 0:
        f /= base
        r += f * (i % base)
        i //= base
    return r


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


def sample_points(domain: Domain, n: int, cfg: StencilConfig, seed: int = 42,
                  pad_factor: float = 10.0) -> list[Point]:
    """Deterministic quasi-random interior points, rejecting anything within
    `pad_factor * h` (at least the stencil reach) of the boundary or an
    excluded set."""
    pad = max(pad_factor * cfg.h, cfg.reach * 1.5)
    dim = domain.dim
    lo = np.asarray(domain.lo, dtype=float)
    hi = np.asarray(domain.hi, dtype=float)
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
