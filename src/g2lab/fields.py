"""Finite-difference calculus on coordinate boxes, at a point or a block of
points.

Fields are plain callables; nothing is ever stored on a grid.  A query is a
point (dim,) or a block (k, dim).  A field handed to a stencil takes an
(m, dim) array of rows and returns one value per row, of any shape:
`_at_offsets`, the one place a field is evaluated on a stencil, calls it once
on the stacked rows, and `fd_gradient`, `star_jet` and `d_one_form` are
difference formulas on its output, stepping only along the coordinates a
field reads (`reading`).  The frame and form helpers (`transform_form` among
them) broadcast over leading axes, so a block's rows carry the bits of the
point results.  A 1-form value is a vector and a 2-form value a skew matrix
(`d_one_form`; on an orthonormal 3-block the star is -`hat`);
`transform_form` takes a k-form value, 2k <= n, as a numpy vector over the
sorted k-index combinations in lexicographic order, which is how the forms of
degree 3 and more of a bundle are held.  Domains are boxes with explicit excluded
sets, and samplers reject points too close to an exclusion or the boundary.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .rational import alternating_table

Point = np.ndarray


@dataclass(frozen=True)
class StencilConfig:
    """Step size of the derivative stencils: 3-point central differences,
    second order."""

    h: float

    def __post_init__(self):
        if not (np.isfinite(self.h) and self.h > 0):
            raise ValueError("step must be finite and positive")


@dataclass(frozen=True)
class Domain:
    """A coordinate box minus excluded sets given by distance functions."""

    lo: tuple
    hi: tuple
    # callables p -> distance to the excluded set, over the last axis: shape
    # () at a point (dim,) and (k,) on a block (k, dim)
    exclusions: tuple = ()

    @property
    def dim(self) -> int:
        return len(self.lo)

    def contains(self, p: Point, pad: float) -> np.ndarray:
        """Whether p keeps `pad` from the boundary and from every excluded
        set: a bool at a point, one per row on a block."""
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        inside = ~np.any((p < lo + pad) | (p > hi - pad), axis=-1)
        for excl in self.exclusions:
            dist = np.asarray(excl(p))
            if dist.shape != p.shape[:-1]:
                raise ValueError(f"exclusion gave shape {dist.shape} on points of "
                                 f"shape {p.shape}; it must take the last axis")
            inside &= dist > pad
        return inside

    def lift_t(self) -> "Domain":
        """This domain times the t-interval [-1, 1]; the exclusions ignore t."""
        return Domain(lo=(-1.0,) + tuple(self.lo),
                      hi=(1.0,) + tuple(self.hi),
                      exclusions=tuple(_lift_exclusion(e) for e in self.exclusions))


def _lift_exclusion(excl):
    return lambda p: excl(p[..., 1:])


def _at_offsets(f: Callable, p: Point, offsets: np.ndarray) -> np.ndarray:
    """f at p + offsets[s], at [..., s, ...] behind the point axes of p, from
    one call of f on the stacked rows.  `offsets` is (s, dim), or carries
    the point axes of p in front when the stencil moves with the point."""
    rows = (p[..., None, :] + offsets).reshape(-1, p.shape[-1])
    out = np.asarray(f(rows), dtype=float)
    if out.shape[:1] != rows.shape[:1]:
        raise ValueError(f"field gave shape {out.shape} on rows of shape "
                         f"{rows.shape}; it must return one value per row")
    return out.reshape(p.shape[:-1] + offsets.shape[-2:-1] + out.shape[1:])


def reading(lo: int, hi: int, f: Callable) -> Callable:
    """The field x -> f(x[..., lo:hi]), whose `reads` are lo, ..., hi - 1 alone."""
    def field(x):
        return f(x[..., lo:hi])
    field.reads = tuple(range(lo, hi))
    return field


def read_axes(f: Callable, n: int) -> tuple:
    """The coordinates a field on n dimensions reads: its `reads`, or all."""
    return getattr(f, "reads", tuple(range(n)))


@functools.lru_cache(maxsize=256)
def _shifts(n: int, h: float, axes: tuple, star: bool = False) -> np.ndarray:
    """The offsets +h e_a, then -h e_a, a in `axes`; with `star`, 0 first (read-only)."""
    eye = (h * np.eye(n))[list(axes)]
    out = np.concatenate([np.zeros((1, n))] * star + [eye, -eye])
    out.flags.writeable = False
    return out


def _central(values: np.ndarray, p: Point, h: float) -> np.ndarray:
    """(f(p + s_a) - f(p - s_a)) / 2h at [..., a, ...] from the values of f
    (or of a function of it) at p + s_a, then at p - s_a, as on `_shifts`."""
    lead, n = (slice(None),) * (p.ndim - 1), values.shape[p.ndim - 1] // 2
    return (values[lead + (slice(n),)] - values[lead + (slice(n, None),)]) / (2 * h)


def _star_differences(values: np.ndarray, p: Point, h: float) -> tuple:
    """(f, df, dd) from the values of f (or of a function of it) on the star
    `_shifts(n, h, axes, star=True)`: df[..., i, :] = d_a f by central and
    dd[..., i, :] = d_a d_a f by 3-point second differences, a = axes[i]."""
    lead, r = (slice(None),) * (p.ndim - 1), values.shape[p.ndim - 1] // 2
    f0 = values[lead + (slice(1),)]
    fp, fm = values[lead + (slice(1, r + 1),)], values[lead + (slice(r + 1, None),)]
    return values[lead + (0,)], (fp - fm) / (2 * h), (fp - 2 * f0 + fm) / h**2


def _on_axes(d: np.ndarray, p: Point, axes: tuple) -> np.ndarray:
    """The derivatives along `axes`, at [..., i, ...], put at [..., axes[i], ...] among zeros."""
    out = np.zeros(d.shape[:p.ndim - 1] + p.shape[-1:] + d.shape[p.ndim:])
    out[(slice(None),) * (p.ndim - 1) + (list(axes),)] = d
    return out


def fd_gradient(f: Callable, p: Point, cfg: StencilConfig) -> np.ndarray:
    """The central-difference partials d_d f stacked after the point axes:
    shape (dim, ...) at a point and (k, dim, ...) at a block; exact on
    quadratics."""
    axes = read_axes(f, p.shape[-1])
    return _on_axes(_central(_at_offsets(f, p, _shifts(p.shape[-1], cfg.h, axes)), p, cfg.h),
                    p, axes)


def star_jet(f: Callable, p: Point, cfg: StencilConfig) -> tuple:
    """`_star_differences` of f on the star p, p +- h e_a of the a it reads."""
    axes = read_axes(f, p.shape[-1])
    f0, df, dd = _star_differences(
        _at_offsets(f, p, _shifts(p.shape[-1], cfg.h, axes, star=True)), p, cfg.h)
    return f0, _on_axes(df, p, axes), _on_axes(dd, p, axes)


def d_one_form(a: Callable, p: Point, cfg: StencilConfig) -> np.ndarray:
    """Exterior derivative of a 1-form field as a skew matrix:
    (dA)[i, j] = d_i A_j - d_j A_i."""
    grad = fd_gradient(a, p, cfg)
    return grad - grad.mT


@functools.lru_cache(maxsize=None)
def _antisymmetrizer(n: int, k: int) -> tuple:
    """(E, S): E, the float view of `rational.alternating_table(n, k)`, and
    S, the flat positions of the sorted combinations: the first nonzero
    column of each row, as a sorted word precedes its other orderings."""
    table = alternating_table(n, k)
    return table.astype(float), (table != 0).argmax(axis=1)


def transform_form(comps: np.ndarray, k: int, n: int, frame: np.ndarray) -> np.ndarray:
    """Components of a k-form on the frame (columns of `frame`) from coordinate
    components: out_I = omega(f_{I1}, ..., f_{Ik}) = sum_J comps_J det frame[J, I].

    This is the k-th exterior power of the frame applied to the components,
    for 2k <= n.  `frame` is (..., n, n) and `comps` (..., C(n, k)) or
    constant; leading axes broadcast.  It is one contraction of the dense
    antisymmetric tensor of `comps` with k copies of the frame, taken one
    copy at a time by matmul and read at the sorted combinations.
    """
    if 2 * k > n:
        raise ValueError(f"a {k}-form on {n} dimensions: transform_form takes 2k <= n")
    comps = np.asarray(comps, dtype=float)
    expand, sorted_at = _antisymmetrizer(n, k)
    # dense[..., 1, a, b, c] (k = 3): the unit axis makes the last two axes a
    # matrix for every k, and each matmul takes the frame into the leading
    # tensor axis and appends the result, so k of them leave
    # sum T[a, b, c] F[a, i] F[b, j] F[c, k] at [..., 1, i, j, k].
    dense = (comps @ expand).reshape(comps.shape[:-1] + (1,) + (n,) * k)
    frame = np.expand_dims(frame, tuple(range(-k - 1, -2)))
    for _ in range(k):
        dense = np.moveaxis(dense, -k, -1) @ frame
    return dense.reshape(dense.shape[:dense.ndim - k - 1] + (-1,))[..., sorted_at]


PLUS6 = np.arange(0, 3)    # the plus block of the 6-dimensional base
MINUS6 = np.arange(3, 6)   # the minus block, carrying the monopole (v, A)
# The three blocks of a 6x6 matrix, behind any leading point axes.
PP, PM, MM = ((..., *np.ix_(rows, cols))
              for rows, cols in ((PLUS6, PLUS6), (PLUS6, MINUS6), (MINUS6, MINUS6)))


def adapted_frame(g: np.ndarray) -> np.ndarray:
    """Columns = orthonormal frame respecting the plus/minus split (blockwise
    Cholesky).

    Requires the metric to be block diagonal w.r.t. the split, at every point
    of a block.
    """
    if float(np.max(np.abs(g[PM]))) > 1e-9:
        raise ValueError("metric does not respect the split")
    f = np.zeros(g.shape)
    for block in (PP, MM):
        f[block] = np.linalg.inv(np.linalg.cholesky(g[block])).mT
    return f


def frame_derivatives(frame: np.ndarray, dframe: np.ndarray, gam: np.ndarray) -> tuple:
    """Derivatives of a frame field (columns f_b) along its own vectors, in
    coordinates: (d, nabla) with d[..., a, :, b] = d_{f_a} f_b and
    nabla[..., a, b, :] = nabla_{f_a} f_b = d_{f_a} f_b + gam[k, c, d] f_a^c f_b^d,
    from the frame, its partials dframe[..., d, k, b] = d_d frame[k, b] (as
    `fd_gradient` gives them) and the connection gam, at a query."""
    d = np.einsum('...da,...dkb->...akb', frame, dframe)
    # pairwise, d first: a three-operand einsum without `optimize` takes no path
    nabla = np.einsum('...kcd,...db->...kcb', gam, frame)
    nabla = np.einsum('...kcb,...ca->...abk', nabla, frame)
    nabla += d.mT
    return d, nabla


# hat(w)[2, 1], hat(w)[0, 2], hat(w)[1, 0] are w[0], w[1], w[2]; the
# transposed entries are their negatives.
_HAT_ROWS, _HAT_COLS = np.array([2, 0, 1]), np.array([1, 2, 0])


def hat(w: np.ndarray) -> np.ndarray:
    """3x3 skew matrix of the cross product: hat(w) @ x = w x x, over the
    last axis of `w`."""
    out = np.zeros(np.shape(w) + (3,))
    out[..., _HAT_ROWS, _HAT_COLS] = w
    out[..., _HAT_COLS, _HAT_ROWS] = -w
    return out


def halton_sequence(index, bases):
    """The radical inverse of each index in each base (Halton 1960), with
    `index` and `bases` broadcast against each other, by the float operations
    of one index in one base in the same order: a digit of 0 adds 0.0, so an
    index with fewer digits, or one in a larger base, keeps its bits."""
    i = np.asarray(index)
    f, r = np.ones(np.shape(bases)), np.zeros(np.broadcast_shapes(i.shape, np.shape(bases)))
    while np.any(i > 0):
        f /= bases
        r += f * (i % bases)
        i = i // bases
    return r


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


@functools.lru_cache(maxsize=16)
def _halton_table(start: int, dim: int) -> list:
    """[the Halton points of the indices start, start + 1, ... drawn so far],
    for the 16 latest (start, dim); `sample_points` extends it."""
    return [np.empty((0, dim))]


def sample_points(domain: Domain, n: int, cfg: StencilConfig, seed: int) -> list[Point]:
    """Deterministic quasi-random interior points, rejecting anything within
    `10 h` of the boundary or an excluded set.  A stencil, nested ones
    included, moves a coordinate by at most 2 h, so this pad keeps every
    stencil evaluated at a sample inside the domain.  The candidates are the
    Halton points from index `1 + (seed % 997) * 101` on, in runs; a call
    computes only the rows that no call with its seed and dimension drew."""
    pad = 10.0 * cfg.h
    dim = domain.dim
    lo = np.asarray(domain.lo, dtype=float)
    hi = np.asarray(domain.hi, dtype=float)
    if np.any(lo + pad > hi - pad):
        raise RuntimeError("sampler failed: domain too constrained")
    pts = []
    start = 1 + (seed % 997) * 101
    table = _halton_table(start, dim)
    bases = np.array([_PRIMES[d % len(_PRIMES)] for d in range(dim)])
    drawn = 0
    while len(pts) < n:
        # the next run of candidates, in order, within 1000 n attempts
        run = min(2 * (n - len(pts)) + 16, 1000 * n - drawn)
        if run <= 0:
            raise RuntimeError("sampler failed: domain too constrained")
        if len(table[0]) < drawn + run:
            index = start + np.arange(len(table[0]), drawn + run)
            table[0] = np.concatenate([table[0], halton_sequence(index[:, None], bases)])
        u = table[0][drawn:drawn + run]
        drawn += run
        cand = lo + u * (hi - lo)
        pts.extend(cand[domain.contains(cand, pad=pad)][:n - len(pts)])
    return pts


# Points per block of `blocks`.  A block's temporaries grow with its size.
# On 800 points the tracemalloc peak of the torsion oracle was 78 KiB at
# 32-point blocks, 150 KiB at 64, 294 KiB at 128 and 1,805 KiB unblocked, and
# that of the structure conditions 242, 442, 852 and 5,100 KiB.  Unblocked,
# the `dense` benchmark's peak RSS rose from 40.6 MB to 42.7 MB (+5.4%,
# against a 5% bound); the blocked quotient checks take about 0.5 s of it.
BLOCK = 64
# Points per block of the verifiers that stack the most per point: the nested
# stencil of `hypersurface_checks`, the frame derivatives of
# `quotient_conditions` and the coframe star of `torsionfree_residual`.
# Their tracemalloc peaks read 2,042, 733 and 888 KiB at 64-point blocks
# (bounds 1,536, 512 and 1,536 KiB) and 1,025, 376 and 484 KiB at 32.
STACK_BLOCK = 32


def blocks(samples: Sequence[Point], size: int = BLOCK):
    """Consecutive row blocks of at most `size` sample points, each of shape
    (k, dim): the units of a blocked `sup`."""
    for start in range(0, len(samples), size):
        yield np.asarray(samples[start:start + size], dtype=float)


def sup(samples: Sequence, at: Callable[[Point], dict]) -> dict:
    """{name: largest value} of the non-negative residuals at(p) = {name:
    scalar or array}, over every sample unit (a point, or a block of points
    from `blocks`) and every entry.  A NaN anywhere gives NaN, so a residual
    that cannot be evaluated fails its tolerance instead of passing.  No
    sample points is an error, not a pass."""
    out = {}
    for p in samples:
        # one comprehension per unit, so no residual outlives its reduction
        out.update({name: float(np.max(value, initial=out.get(name, 0.0)))
                    for name, value in at(p).items()})
    if not out:
        raise ValueError("sup over no sample points")
    return out
