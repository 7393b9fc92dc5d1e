import ast
from pathlib import Path

import numpy as np
import pytest

from g2lab.fields import (BLOCK, Domain, StencilConfig, adapted_frame, blocks, d_one_form,
                          fd_gradient, frame_derivatives, hat, sample_points,
                          star_jet, sup, transform_form)
from g2lab import fields, gallery
from g2lab.gallery import killing_taub_nut_data
from g2lab.gibbons import gh_build, spatial_domain
from g2lab.hypersurfaces import unit_sphere
from g2lab.modeldata import cross7, cross_tensor, h6
from g2lab.rational import combinations_index


def reference_transform_form(comps, k, n, frame):
    """The per-minor double loop of the definition, sum_J comps_J det frame[J, I],
    over any leading axes of `comps` and `frame`."""
    combos, _ = combinations_index(n, k)
    comps = np.asarray(comps, dtype=float)
    out = np.zeros(np.broadcast_shapes(comps.shape[:-1], frame.shape[:-2]) + (len(combos),))
    terms = [(comps[..., ci], list(J)) for ci, J in enumerate(combos)
             if np.any(comps[..., ci] != 0.0)]
    for oi, I in enumerate(combos):
        sub = frame[..., list(I)]
        for c, J in terms:
            out[..., oi] += c * np.linalg.det(sub[..., J, :])
    return out


def reference_fd_partial(f, p, direction, cfg):
    """The per-offset central difference that the stencil engine replaced:
    the field is called once on each shifted point or block."""
    h = cfg.h
    pp, pm = p.copy(), p.copy()
    pp.T[direction] += h     # .T leads with the coordinate axis at a point
    pm.T[direction] -= h     # and at a block alike
    return (np.asarray(f(pp), dtype=float) - np.asarray(f(pm), dtype=float)) / (2 * h)


def reference_fd_gradient(f, p, cfg):
    """fd_gradient by one reference_fd_partial per direction."""
    partials = np.array([reference_fd_partial(f, p, d, cfg) for d in range(p.shape[-1])])
    return partials.swapaxes(0, p.ndim - 1)


def reference_star_jet(f, p, cfg):
    """star_jet by one field call per offset of the star."""
    h = cfg.h
    f0 = np.asarray(f(p), dtype=float)
    dd = []
    for a in range(p.shape[-1]):
        pp, pm = p.copy(), p.copy()
        pp.T[a] += h
        pm.T[a] -= h
        dd.append((np.asarray(f(pp), dtype=float) - 2 * f0 + np.asarray(f(pm), dtype=float))
                  / h**2)
    return f0, reference_fd_gradient(f, p, cfg), np.array(dd).swapaxes(0, p.ndim - 1)


def exterior_d(omega, p, k, cfg):
    """The coordinate exterior derivative of a k-form field from its
    `fd_gradient`, by one gather per position m of a sign table:
    (d omega)_J = sum_m (-1)^m d_{J_m} omega_{J minus J_m} on sorted
    (k+1)-tuples.  A 0-form is held, like every k-form, as a vector over the
    C(n, 0) = 1 sorted combinations."""
    partials = fd_gradient(omega, p, cfg)
    n = p.shape[-1]
    _, kindex = combinations_index(n, k)
    combos_k1, _ = combinations_index(n, k + 1)
    out = np.zeros(partials.shape[:-2] + (len(combos_k1),))
    for m in range(k + 1):
        lead = [J[m] for J in combos_k1]
        rest = [kindex[J[:m] + J[m + 1:]] for J in combos_k1]
        out += (-1.0) ** m * partials[..., lead, rest]
    return out


def reference_exterior_d(omega, p, k, cfg):
    """The per-J loop of the definition, at a point or on a block."""
    n = p.shape[-1]
    _, kindex = combinations_index(n, k)
    combos_k1, _ = combinations_index(n, k + 1)
    partials = np.array([reference_fd_partial(omega, p, d, cfg) for d in range(n)])
    out = np.zeros(p.shape[:-1] + (len(combos_k1),))
    for ci, J in enumerate(combos_k1):
        s = 0.0
        for m in range(k + 1):
            s += (-1.0) ** m * partials[J[m], ..., kindex[J[:m] + J[m + 1:]]]
        out[..., ci] = s
    return out


# The contraction of transform_form sums in another order than the
# per-minor loop.  On frames of condition number at most 4 (an orthogonal
# factor times a diagonal in [0.5, 2]) the worst relative difference
# measured over these draws was 7.8e-16 (k = 3), NumPy 2.4.6; the bound is
# about 13 times that.
TRANSFORM_RTOL = 1e-14


@pytest.mark.parametrize("k", range(0, 4))
def test_transform_form_matches_reference_loop(k):
    rng = np.random.default_rng(100 + k)
    n = 7
    ncombos = len(combinations_index(n, k)[0])
    for _ in range(20):
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        frame = q * rng.uniform(0.5, 2.0, size=n)
        comps = rng.normal(size=ncombos)
        comps[rng.random(ncombos) < 0.4] = 0.0
        ref = reference_transform_form(comps, k, n, frame)
        err = np.max(np.abs(transform_form(comps, k, n, frame) - ref))
        assert err <= TRANSFORM_RTOL * np.max(np.abs(ref))


@pytest.mark.parametrize("k", range(4, 8))
def test_transform_form_refuses_more_than_half_the_dimension(k):
    """Forms of degree 2k > n have no route: the torsion check reads its 4-
    and 5-forms off the coframe's structure functions
    (`g2construct.torsion_forms`), not through `transform_form`."""
    comps = np.ones(len(combinations_index(7, k)[0]))
    with pytest.raises(ValueError, match="2k <= n"):
        transform_form(comps, k, 7, np.eye(7))


# frame_derivatives and cross7 contract pairwise where a three-operand einsum
# summed over both indices at once, so they sum in another order.  Over 2,000
# draws of 8 standard normal points each, the worst relative difference was
# 9.2e-16 for nabla and 4.3e-16 for cross7, NumPy 2.4.6; the bound is about
# 5 times that.
PAIRWISE_RTOL = 5e-15


def test_frame_derivatives_match_the_three_operand_einsum():
    rng = np.random.default_rng(300)
    for _ in range(50):
        frame, dframe, gam = (rng.normal(size=(8, 6, 6) + (6,) * extra) for extra in (0, 1, 1))
        d, nabla = frame_derivatives(frame, dframe, gam)
        ref = np.einsum('...kcd,...ca,...db->...abk', gam, frame, frame) + d.mT
        assert np.max(np.abs(nabla - ref)) <= PAIRWISE_RTOL * np.max(np.abs(ref))


def test_cross7_matches_the_three_operand_einsum():
    rng = np.random.default_rng(301)
    for _ in range(50):
        x, y = rng.normal(size=(2, 8, 7))
        ref = np.einsum('...i,...j,ijk->...k', x, y, cross_tensor())
        assert np.max(np.abs(cross7(x, y) - ref)) <= PAIRWISE_RTOL * np.max(np.abs(ref))


def test_no_einsum_of_three_operands_without_a_contraction_path():
    """numpy's einsum of three or more operands sums over all their indices
    at once unless `optimize` is given; in src/g2lab each such call is
    pairwise or passes `optimize`."""
    package = Path(__file__).resolve().parents[1] / "src" / "g2lab"
    unpathed = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "einsum" and len(node.args) >= 4
                    and not any(kw.arg == "optimize" for kw in node.keywords)):
                unpathed.append(f"{path.name}:{node.lineno}")
    assert not unpathed, f"three-operand einsum with no optimize=: {unpathed}"


@pytest.mark.parametrize("k", range(0, 6))
def test_exterior_d_matches_reference_loop(k):
    rng = np.random.default_rng(200 + k)
    n = 7
    ncombos = len(combinations_index(n, k)[0])
    coef = rng.normal(size=(ncombos, n))
    omega = (lambda q: np.sin(np.matvec(coef, q)) * (1.0 + np.vecdot(q, q))[..., None])
    cfg = StencilConfig(h=1e-3)
    for _ in range(5):
        p = rng.uniform(-1.0, 1.0, size=n)
        assert np.array_equal(exterior_d(omega, p, k, cfg),
                              reference_exterior_d(omega, p, k, cfg))


@pytest.mark.parametrize("h", [0.0, -1e-3, float("nan"), float("inf")])
def test_stencil_step_must_be_finite_and_positive(h):
    with pytest.raises(ValueError):
        StencilConfig(h=h)


def test_fd_exact_on_quadratic():
    f = lambda p: p[..., 0] ** 2
    cfg = StencilConfig(h=0.25)
    p = np.array([3.0, 1.0])
    assert abs(fd_gradient(f, p, cfg)[0] - 6.0) < 1e-12


def test_fd_constant_is_zero():
    cfg = StencilConfig(h=1e-3)
    constant = lambda p: np.full(p.shape[:-1], 5.0)
    assert abs(fd_gradient(constant, np.array([0.1, 0.2]), cfg)[1]) < 1e-12


def test_fd_sin_accuracy():
    f = lambda p: np.sin(p[..., 1])
    cfg = StencilConfig(h=1e-3)
    p = np.array([0.0, 0.5])
    assert abs(fd_gradient(f, p, cfg)[1] - np.cos(0.5)) < 1e-6


def test_fd_linearity():
    rng = np.random.default_rng(0)
    c = rng.normal(size=4)
    f1 = lambda p: np.sin(c[0] * p[..., 0] + c[1] * p[..., 1])
    f2 = lambda p: np.exp(c[2] * p[..., 0]) * p[..., 1] ** 3
    combo = lambda p: 2.5 * f1(p) - 1.25 * f2(p)
    cfg = StencilConfig(h=1e-3)
    p = np.array([0.2, -0.4])
    lhs = fd_gradient(combo, p, cfg)[0]
    rhs = 2.5 * fd_gradient(f1, p, cfg)[0] - 1.25 * fd_gradient(f2, p, cfg)[0]
    assert abs(lhs - rhs) < 1e-12


def test_exterior_d_scalar_is_gradient():
    f = lambda p: (p[..., 0] * p[..., 1])[..., None]
    cfg = StencilConfig(h=1e-3)
    p = np.array([2.0, 3.0, 1.0])
    df = exterior_d(f, p, 0, cfg)
    assert np.allclose(df, [3.0, 2.0, 0.0], atol=1e-9)


def test_exterior_d_linear_one_form_exact():
    # d(x1 dx2) = dx1 ^ dx2
    n = 3
    combos1, idx1 = combinations_index(n, 1)

    def omega(p):
        out = np.zeros(p.shape[:-1] + (len(combos1),))
        out[..., idx1[(1,)]] = p[..., 0]
        return out

    cfg = StencilConfig(h=1e-2)
    val = exterior_d(omega, np.array([0.3, 0.7, -0.2]), 1, cfg)
    combos2, idx2 = combinations_index(n, 2)
    expected = np.zeros(len(combos2))
    expected[idx2[(0, 1)]] = 1.0
    assert np.allclose(val, expected, atol=1e-10)


def test_d_squared_vanishes():
    n = 4
    combos1, _ = combinations_index(n, 1)
    rng = np.random.default_rng(5)
    lin = rng.normal(size=(len(combos1), n))
    quad = rng.normal(size=(len(combos1), n, n))

    def omega(p):
        return np.einsum('ij,...j->...i', lin, p) + np.einsum('...j,ijk,...k->...i', p, quad, p)

    cfg = StencilConfig(h=1e-2)
    p = np.array([0.1, 0.2, -0.3, 0.4])

    def domega(q):
        return exterior_d(omega, q, 1, cfg)

    dd = exterior_d(domega, p, 2, cfg)
    assert np.max(np.abs(dd)) < 1e-8


EPS3 = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    EPS3[_i, _j, _k] = 1.0
    EPS3[_i, _k, _j] = -1.0


def reference_restrict_two_form(comps, n, rows, cols):
    """The matrix beta[a, b] = omega(e_rows[a], e_cols[b]) of a 2-form held
    as a combination vector, which d_one_form and the block star replaced."""
    _, idx2 = combinations_index(n, 2)
    out = np.zeros((len(rows), len(cols)))
    for a, i in enumerate(rows):
        for b, j in enumerate(cols):
            if i == j:
                continue
            sgn = 1.0 if i < j else -1.0
            out[a, b] = sgn * comps[idx2[tuple(sorted((i, j)))]]
    return out


def reference_hodge_one_form(comps, n, block, g):
    """The combination-vector block star of a full-space 1-form: a 2-form
    combination vector on the block."""
    gb = g[np.ix_(block, block)]
    _, idx1 = combinations_index(n, 1)
    a = np.array([comps[idx1[(b,)]] for b in block])
    two = np.einsum('m,mij->ij', np.linalg.solve(gb, a), EPS3) * np.sqrt(np.linalg.det(gb))
    combos2, idx2 = combinations_index(n, 2)
    out = np.zeros(len(combos2))
    for li in range(3):
        for lj in range(li + 1, 3):
            out[idx2[(block[li], block[lj])]] += two[li, lj]
    return out


def test_d_one_form_and_block_star_match_the_combination_vector_route():
    rng = np.random.default_rng(300)
    n = 6
    coef = rng.normal(size=(n, n))
    a = lambda q: np.sin(np.matvec(coef, q)) * (1.0 + np.vecdot(q, q))[..., None]
    cfg = StencilConfig(h=1e-3)
    for block in ((0, 1, 2), (3, 4, 5), (1, 3, 4)):
        for _ in range(5):
            p = rng.uniform(-1.0, 1.0, size=n)
            old_da = reference_restrict_two_form(exterior_d(a, p, 1, cfg), n,
                                                 range(n), range(n))
            assert np.array_equal(d_one_form(a, p, cfg), old_da)
            # the rescaled metric u^2 I of the quotient layer's minus block,
            # whose star of a 1-form a is the closed form -u hat(a)
            u = rng.uniform(0.5, 2.0)
            alpha = rng.normal(size=n)
            old_star = reference_restrict_two_form(
                reference_hodge_one_form(alpha, n, block, u ** 2 * np.eye(n)), n, block, block)
            assert -u * hat(alpha[list(block)]) == pytest.approx(old_star, rel=1e-12, abs=0.0)


def reference_block_star(a, gb):
    """The Hodge star of a 1-form on a 3-dimensional block with metric gb,
    as a skew matrix, by a solve and a determinant: *f1 = f2^f3 (cyclic) on
    an oriented orthonormal frame."""
    root_det = np.sqrt(np.linalg.det(gb))[..., None, None]
    return -hat(np.linalg.solve(gb, a[..., None])[..., 0]) * root_det


def test_hodge_euclidean_block_conventions():
    # on the minus block (x4, x5, x6): *dx4 = -hat(e1) = dx5 ^ dx6
    expected = np.zeros((3, 3))
    expected[1, 2], expected[2, 1] = 1.0, -1.0
    assert np.array_equal(-hat(np.array([1.0, 0.0, 0.0])), expected)


def test_transform_form_change_of_frame():
    # on 4 dimensions, where a 2-form has 2k <= n
    n = 4
    combos2, idx2 = combinations_index(n, 2)
    comps = np.zeros(len(combos2))
    comps[idx2[(0, 1)]] = 1.0   # dx1 ^ dx2
    frame = np.array([[2.0, 0.0, 0.0, 0.0], [0.0, 1.0, 1.0, 0.0], [0.0, 0.0, 1.0, 0.0],
                      [0.0, 0.0, 0.0, 1.0]]).T
    out = transform_form(comps, 2, n, frame.T)
    # omega(f1, f2) where f1 = 2 e1, f2 = e2: det [[2,0],[0,1]] = 2
    assert abs(out[idx2[(0, 1)]] - 2.0) < 1e-14


def test_sampler_deterministic_and_respects_exclusions():
    dom = Domain(lo=(-1.0, -1.0, -1.0), hi=(1.0, 1.0, 1.0),
                 exclusions=(lambda p: np.linalg.norm(p, axis=-1),))
    cfg = StencilConfig(h=1e-2)
    pts1 = sample_points(dom, 25, cfg, seed=42)
    pts2 = sample_points(dom, 25, cfg, seed=42)
    assert all(np.array_equal(a, b) for a, b in zip(pts1, pts2))
    pts3 = sample_points(dom, 25, cfg, seed=7)
    assert any(not np.array_equal(a, b) for a, b in zip(pts1, pts3))
    for p in pts1:
        assert np.linalg.norm(p) > 10 * cfg.h
        assert np.all(np.abs(p) < 1.0)


def test_point_only_exclusion_is_refused_on_a_block():
    # one distance for the whole block would mask every row alike
    dom = Domain(lo=(-1.0, -1.0, -1.0), hi=(1.0, 1.0, 1.0),
                 exclusions=(lambda p: float(np.linalg.norm(p)),))
    block = np.array([[0.5, 0.0, 0.0], [0.0, 0.9, 0.1]])
    with pytest.raises(ValueError, match="exclusion gave shape"):
        dom.contains(block, pad=0.1)
    with pytest.raises(ValueError, match="exclusion gave shape"):
        sample_points(dom, 5, StencilConfig(h=1e-2), seed=42)


def reference_halton(index, base):
    f, r = 1.0, 0.0
    i = index
    while i > 0:
        f /= base
        r += f * (i % base)
        i //= base
    return r


def reference_sample_points(domain, n, cfg, seed):
    """The per-point sampler: one candidate and one `contains` at a time."""
    pad = 10.0 * cfg.h
    lo, hi = np.asarray(domain.lo, float), np.asarray(domain.hi, float)
    if np.any(lo + pad > hi - pad):
        raise RuntimeError("sampler failed: domain too constrained")
    pts, index, attempts = [], 1 + (seed % 997) * 101, 0
    while len(pts) < n:
        u = np.array([reference_halton(index, fields._PRIMES[d % len(fields._PRIMES)])
                      for d in range(domain.dim)])
        index += 1
        attempts += 1
        if attempts > 1000 * n:
            raise RuntimeError("sampler failed: domain too constrained")
        p = lo + u * (hi - lo)
        if domain.contains(p, pad=pad):
            pts.append(p)
    return pts


def _outcome(sampler, *args):
    try:
        return np.array(sampler(*args))
    except RuntimeError as exc:
        return str(exc)


@pytest.mark.parametrize("name,domain", [
    ("base6", gallery.base_domain6()),
    ("gh4", spatial_domain().lift_t()),
    ("sphere-chart", unit_sphere().domain),
    ("taub-nut-bundle", gallery.thm1_taub_nut_bundle().domain)])
def test_sampler_equals_the_per_point_loop(name, domain):
    for h in (1e-3, 1e-2):
        for seed in (0, 42, 996, 1039):
            cfg = StencilConfig(h=h)
            assert np.array_equal(np.array(sample_points(domain, 40, cfg, seed)),
                                  reference_sample_points(domain, 40, cfg, seed)), (h, seed)


def test_sampler_keeps_the_1000_n_attempt_cap():
    # a disk of radius 0.01 after the pad: about one candidate in 3,000 lands
    dom = Domain(lo=(0.0, 0.0), hi=(1.0, 1.0),
                 exclusions=(lambda p: 0.02 - np.linalg.norm(p - 0.5, axis=-1),))
    cfg = StencilConfig(h=1e-3)
    outcomes = [(_outcome(sample_points, dom, n, cfg, 5),
                 _outcome(reference_sample_points, dom, n, cfg, 5)) for n in (1, 2, 3)]
    assert {type(got) for got, _ in outcomes} == {np.ndarray, str}
    for got, ref in outcomes:
        assert type(got) is type(ref) and np.array_equal(got, ref)


def test_sampler_rejects_an_empty_padded_box_before_drawing(monkeypatch):
    draws = []

    def counted(index, bases):
        draws.append(index)
        return np.full(np.broadcast_shapes(np.shape(index), np.shape(bases)), 0.5)

    monkeypatch.setattr(fields, "halton_sequence", counted)
    dom = Domain(lo=(-1.0, -0.1), hi=(1.0, 0.1))
    with pytest.raises(RuntimeError, match="sampler failed: domain too constrained"):
        sample_points(dom, 5, StencilConfig(h=0.3), seed=42)
    assert draws == []
    assert len(sample_points(dom, 2, StencilConfig(h=1e-3), seed=42)) == 2


@pytest.mark.parametrize("dim", [3, 4, 6, 7])
def test_halton_table_rows_equal_the_per_index_loop(dim):
    """The table of a (start, dim) is extended across calls, to 26, then
    1,016, then 3,016 rows; every row equals the scalar radical inverse of
    its index, in the bases of its coordinates."""
    box = Domain(lo=(0.0,) * dim, hi=(1.0,) * dim)
    cfg = StencilConfig(h=1e-3)
    for seed in (42, 7):
        start = 1 + (seed % 997) * 101
        for n in (10, 1000, 3000):
            sample_points(box, n // 2, cfg, seed)    # one run of 2 (n / 2) + 16 rows
            rows = fields._halton_table(start, dim)[0]
            assert len(rows) == n + 16                 # the exact length drawn
            assert all(rows[j].tolist()
                       == [reference_halton(start + j, fields._PRIMES[d]) for d in range(dim)]
                       for j in range(len(rows))), (seed, n)


def test_halton_cache_stays_bounded():
    box = Domain(lo=(0.0,) * 3, hi=(1.0,) * 3)
    for seed in range(50):
        sample_points(box, 5, StencilConfig(h=1e-3), seed)
    info = fields._halton_table.cache_info()
    assert info.misses == 50
    assert info.currsize == info.maxsize < 50


def test_sup_over_scalar_and_array_entries():
    pts = [np.array([0.5]), np.array([2.0]), np.array([1.0])]
    out = sup(pts, lambda p: {"scalar": abs(float(p[0]) - 1.0),
                              "array": np.abs(np.array([p[0], -3.0 * p[0]]))})
    assert out == {"scalar": 1.0, "array": 6.0}
    assert all(type(v) is float for v in out.values())


def test_sup_nan_at_one_point_gives_nan():
    pts = [np.array([0.0]), np.array([1.0]), np.array([2.0])]

    def at(p):
        bad = float("nan") if p[0] == 1.0 else 0.0
        return {"scalar": bad, "array": np.array([p[0], bad]), "clean": p[0]}

    out = sup(pts, at)
    assert np.isnan(out["scalar"]) and np.isnan(out["array"])
    assert out["clean"] == 2.0
    with pytest.raises(ValueError, match="no sample points"):
        sup([], at)


def test_d_squared_structurally_zero_at_shared_step():
    # central differences are shift-operator combinations and shifts commute,
    # so nested stencils at one step annihilate d o d up to roundoff
    n = 3
    combos1, _ = combinations_index(n, 1)
    rng = np.random.default_rng(7)
    coef = rng.normal(size=(len(combos1), n, n))

    def omega(p):
        return np.einsum('...i,cij,...j->...c', p ** 3, coef, p)

    p = np.array([0.4, -0.3, 0.2])
    h = 1e-2

    def domega(q):
        return exterior_d(omega, q, 1, StencilConfig(h=h))

    assert np.max(np.abs(exterior_d(domega, p, 2, StencilConfig(h=h)))) < 1e-10


def test_d_squared_decreases_at_stencil_order():
    # with decoupled inner/outer steps the residual is a genuine truncation
    # difference and halves at the stencil order
    n = 3
    combos1, _ = combinations_index(n, 1)
    rng = np.random.default_rng(7)
    coef = rng.normal(size=(len(combos1), n, n))

    def omega(p):
        return np.einsum('...i,cij,...j->...c', p ** 3, coef, p)

    p = np.array([0.4, -0.3, 0.2])
    res = {}
    for h in (2e-2, 1e-2):
        def domega(q, h=h):
            return exterior_d(omega, q, 1, StencilConfig(h=h))
        res[h] = np.max(np.abs(exterior_d(domega, p, 2, StencilConfig(h=h / 2))))
    assert res[2e-2] > 1e-8
    assert res[2e-2] / res[1e-2] > 3.4


# ------------------------------------------------------------ blocked sup

@pytest.mark.parametrize("n", [1, BLOCK, BLOCK + 1])
def test_blocked_sup_equals_the_whole_array_max(n):
    rng = np.random.default_rng(n)
    pts = list(rng.uniform(-1.0, 1.0, size=(n, 3)))
    sizes = [len(b) for b in blocks(pts)]
    assert sum(sizes) == n and max(sizes) <= BLOCK

    def at(x):
        return {"scalar": np.abs(x[..., 0] * x[..., 1]), "array": np.abs(np.sin(x))}

    whole = np.array(pts)
    out = sup(blocks(pts), at)
    assert out == {"scalar": float(np.max(np.abs(whole[:, 0] * whole[:, 1]))),
                   "array": float(np.max(np.abs(np.sin(whole))))}


def test_blocked_sup_keeps_a_nan_in_the_last_block():
    pts = [np.array([float(i)]) for i in range(BLOCK + 3)]

    def at(x):
        value = x[..., 0].copy()
        value[x[..., 0] == BLOCK + 2] = np.nan
        return {"value": value}

    assert np.isnan(sup(blocks(pts), at)["value"])


def test_blocked_sup_over_no_points_raises():
    with pytest.raises(ValueError, match="no sample points"):
        sup(blocks([]), lambda x: {"value": x})


# ------------------------------------------- point/block parity of the core

def _block(n=20, dim=6, seed=3):
    return np.random.default_rng(seed).uniform(-0.9, 0.9, size=(n, dim))


def _stack_rows(f, block):
    return np.array([f(p) for p in block])


def test_fd_gradient_and_d_one_form_on_a_block_equal_their_points():
    cfg = StencilConfig(h=1e-3)
    matrix_field = lambda q: np.sin(q)[..., :, None] * np.cos(q)[..., None, :]
    one_form = lambda q: np.sin(q) * np.exp(0.5 * np.roll(q, 1, axis=-1))
    block = _block()
    for f in (matrix_field, one_form):
        assert np.array_equal(fd_gradient(f, block, cfg),
                              _stack_rows(lambda p: fd_gradient(f, p, cfg), block))
    assert np.array_equal(d_one_form(one_form, block, cfg),
                          _stack_rows(lambda p: d_one_form(one_form, p, cfg), block))


def test_frame_algebra_on_a_block_equals_its_points():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(20, 3))
    assert np.array_equal(hat(a), _stack_rows(hat, a))
    w = rng.normal(size=(20, 6))
    assert np.array_equal(h6(w), _stack_rows(h6, w))


def test_frame_derivatives_on_a_block_equal_their_points():
    data = killing_taub_nut_data()
    cfg = StencilConfig(h=1e-3)
    block = np.array(sample_points(data.domain, 12, cfg, seed=9))

    def frame_field(q):
        return adapted_frame(data.metric(q))

    def both(x):
        return frame_derivatives(frame_field(x), fd_gradient(frame_field, x, cfg),
                                 data.connection(x))

    d_block, nabla_block = both(block)
    rows = [both(p) for p in block]
    assert np.array_equal(d_block, np.array([d for d, _ in rows]))
    assert np.array_equal(nabla_block, np.array([n for _, n in rows]))


def test_block_checks_hold_at_every_point_of_a_block():
    g = np.tile(np.eye(6), (4, 1, 1))
    g[2, 0, 4] = g[2, 4, 0] = 0.1          # one point leaves the split
    with pytest.raises(ValueError, match="does not respect the split"):
        adapted_frame(g)


# ------------------------------------------------------- the stencil engine

def _stencil_fields() -> dict:
    """{name: (domain, field)}: fields of every value shape the layers hand
    to a stencil, each taking rows."""
    bundle = gallery.thm1_taub_nut_bundle()
    gh = gallery.gh_taub_nut_example()
    killing = killing_taub_nut_data()
    return {"coframe-7": (bundle.domain, bundle.coframe),
            "phi-7": (bundle.domain, bundle.phi_field),
            "gh-v-3": (gh.domain, gh.v),
            "gh-a-3": (gh.domain, gh.a),
            "killing-metric-6": (killing.domain, killing.metric),
            "killing-u-6": (killing.domain, killing.u),
            "sphere-chart-6": (unit_sphere().domain, unit_sphere().chart)}


STENCIL_FIELDS = _stencil_fields()


@pytest.mark.parametrize("name", sorted(STENCIL_FIELDS))
def test_engine_equals_the_per_offset_loop_at_a_point_and_a_block(name):
    """One field call on the stacked rows carries the bits of one call per
    offset, for a point (dim,) and a block (k, dim)."""
    domain, f = STENCIL_FIELDS[name]
    cfg = StencilConfig(h=1e-3)
    block = np.array(sample_points(domain, 12, cfg, seed=5))
    for query in (block[0], block):
        assert np.array_equal(fd_gradient(f, query, cfg), reference_fd_gradient(f, query, cfg))
        for got, ref in zip(star_jet(f, query, cfg), reference_star_jet(f, query, cfg)):
            assert np.array_equal(got, ref)
        if np.shape(f(query)) == query.shape:                # a 1-form
            grad = reference_fd_gradient(f, query, cfg)
            assert np.array_equal(d_one_form(f, query, cfg), grad - grad.mT)


def test_engine_on_offsets_that_move_with_the_point():
    """Per-point offsets (the directional stencils): row by row, the field
    at each point plus its own offsets."""
    domain, f = STENCIL_FIELDS["killing-metric-6"]
    block = np.array(sample_points(domain, 8, StencilConfig(h=1e-3), seed=5))
    offsets = 1e-3 * np.random.default_rng(1).normal(size=(8, 3, 6))
    rows = np.array([[f(x + o) for o in per_point] for x, per_point in zip(block, offsets)])
    assert np.array_equal(fields._at_offsets(f, block, offsets), rows)


def _counted(f, calls):
    def counted(p):
        calls.append(p.shape)
        return f(p)
    return counted


@pytest.mark.parametrize("k", [None, 5])
def test_each_stencil_calls_its_field_once_per_query(k):
    """fd_gradient, star_jet and d_one_form make one field call
    on the rows of their stencil: 2 dim rows per point, 2 dim + 1 for the
    star."""
    rng = np.random.default_rng(2)
    p = rng.uniform(-1.0, 1.0, size=(6,) if k is None else (k, 6))
    points = 1 if k is None else k
    one_form = lambda q: np.sin(q) * np.cos(np.roll(q, 1, axis=-1))
    cfg = StencilConfig(h=1e-3)
    for stencil, rows in ((lambda f: fd_gradient(f, p, cfg), 12),
                          (lambda f: star_jet(f, p, cfg), 13),
                          (lambda f: d_one_form(f, p, cfg), 12)):
        calls = []
        stencil(_counted(one_form, calls))
        assert calls == [(rows * points, 6)]


def test_engine_refuses_a_field_without_one_value_per_row():
    with pytest.raises(ValueError, match="one value per row"):
        fd_gradient(lambda p: 5.0, np.array([0.1, 0.2]), StencilConfig(h=1e-3))


# ------------------------------------------------------------- read sets

def _declared_fields() -> dict:
    """{name: (domain, field)} for every field and composite of the
    package that declares the coordinates it reads."""
    out = {"taub_nut_v6": (gallery.base_domain6(), gallery.taub_nut_v6),
           "monopole_potential6": (gallery.base_domain6(), gallery.monopole_potential6())}
    bundles = {"thm1-flat": gallery.thm1_flat_bundle(),
               "thm1-taub-nut": gallery.thm1_taub_nut_bundle(),
               "thm1-broken-monopole": gallery.thm1_broken_monopole_bundle(0.1)[0],
               "thm2-mismatched-alpha": gallery.thm2_mismatched_alpha_bundle(0.1)[0]}
    for tag, bundle in bundles.items():
        out.update({f"{tag}.{name}": (bundle.domain, getattr(bundle, name))
                    for name in ("metric", "coframe")})
    killing = killing_taub_nut_data()
    out.update({f"killing.{name}": (killing.domain, getattr(killing, name))
                for name in ("metric", "u", "a_form", "b_plus", "connection")})
    for tag in ("gh_flat_example", "gh_taub_nut_example", "gh_nonharmonic_example"):
        data = getattr(gallery, tag)()
        out[f"{tag}.metric"] = (data.domain.lift_t(), gh_build(data))
    return out


DECLARED_FIELDS = _declared_fields()


@pytest.mark.parametrize("name", sorted(DECLARED_FIELDS))
def test_a_declared_read_set_is_honest(name):
    """A field is bit for bit unmoved by a shift of +-h along any coordinate
    outside its read set, on a block of sampled points, so the derivatives
    that the stencils write as zeros along those coordinates are the exact
    zeros that stepping along them gives: the declared route and that of a
    wrapper that declares nothing agree to the bit."""
    domain, f = DECLARED_FIELDS[name]
    unread = sorted(set(range(domain.dim)) - set(f.reads))
    assert unread, f"{name} declares that it reads every coordinate"
    cfg = StencilConfig(h=1e-2)
    block = np.array(sample_points(domain, 16, cfg, seed=21))
    value = np.asarray(f(block), float)
    for a in unread:
        for step in (cfg.h, -cfg.h):
            shifted = block.copy()
            shifted[:, a] += step
            assert np.array_equal(np.asarray(f(shifted), float), value), (a, step)
    assert np.array_equal(fd_gradient(f, block, cfg), fd_gradient(lambda p: f(p), block, cfg))
    for got, ref in zip(star_jet(f, block, cfg), star_jet(lambda p: f(p), block, cfg)):
        assert np.array_equal(got, ref)
