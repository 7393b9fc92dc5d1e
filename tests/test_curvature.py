import numpy as np
import pytest

from g2lab import curvature, fields, gallery
from g2lab.curvature import christoffel, metric_jet, ricci, riemann, riemann_lowered
from g2lab.fields import StencilConfig, sample_points, star_jet
from g2lab.gibbons import gh_build


# The metrics take a point (dim,) or a block (k, dim), as `curvature` asks.

def flat(p):
    return np.broadcast_to(np.eye(p.shape[-1]), p.shape + (p.shape[-1],))


def stereographic_sphere(p):
    # round unit 2-sphere in stereographic coordinates
    f = 2.0 / (1.0 + np.vecdot(p, p))
    return (f * f)[..., None, None] * np.eye(2)


def polar_flat(p):
    # flat R^2 in polar coordinates (r, theta): nontrivial Gamma, zero curvature
    g = np.zeros(p.shape + (2,))
    g[..., 0, 0] = 1.0
    g[..., 1, 1] = p[..., 0] ** 2
    return g


def test_flat_metric_everything_vanishes():
    cfg = StencilConfig(h=1e-2)
    p = np.array([0.3, -0.2, 0.5])
    assert np.max(np.abs(christoffel(*star_jet(flat, p, cfg)[:2]))) < 1e-12
    assert np.max(np.abs(riemann(flat, p, cfg))) < 1e-12
    assert np.max(np.abs(ricci(flat, p, cfg))) < 1e-12


def test_sphere_scalar_curvature():
    cfg = StencilConfig(h=1e-3)
    for pt in ([0.2, 0.1], [0.5, -0.4], [0.0, 0.0]):
        p = np.array(pt)
        s = np.einsum('bd,bd->', np.linalg.inv(stereographic_sphere(p)),
                      ricci(stereographic_sphere, p, cfg))
        assert abs(s - 2.0) < 1e-4


def test_polar_flat_has_christoffels_but_no_curvature():
    cfg = StencilConfig(h=1e-3)
    p = np.array([1.3, 0.7])
    gam = christoffel(*star_jet(polar_flat, p, cfg)[:2])
    assert abs(gam[0, 1, 1] + p[0]) < 1e-6          # Gamma^r_{tt} = -r
    assert abs(gam[1, 0, 1] - 1.0 / p[0]) < 1e-6    # Gamma^t_{rt} = 1/r
    assert np.max(np.abs(riemann(polar_flat, p, cfg))) < 1e-6


def test_ricci_symmetry_and_operator_skewness():
    rng = np.random.default_rng(3)

    def warped(p):
        g = np.zeros(p.shape + (3,))
        g[..., 0, 0] = 1.0 + 0.3 * np.sin(p[..., 1])
        g[..., 1, 1] = 1.0 + 0.2 * p[..., 2] ** 2
        g[..., 2, 2] = 1.0 + 0.1 * np.cos(p[..., 0])
        g[..., 0, 1] = g[..., 1, 0] = 0.05 * p[..., 2]
        return g

    cfg = StencilConfig(h=1e-3)
    p = np.array([0.4, 0.2, -0.3])
    ric = ricci(warped, p, cfg)
    assert np.max(np.abs(ric - ric.T)) < 1e-5
    x, y = rng.normal(size=3), rng.normal(size=3)
    # the endomorphism R(x, y): v -> R^a_{b cd} x^c y^d v^b, skew w.r.t. g
    op = np.einsum('abcd,c,d->ab', riemann(warped, p, cfg), x, y)
    g0 = warped(p)
    lowered = g0 @ op
    assert np.max(np.abs(lowered + lowered.T)) < 1e-5


def test_algebraic_bianchi():
    def warped(p):
        g = np.zeros(p.shape + (3,))
        g[..., 0, 0] = 1.0 + 0.2 * p[..., 1] ** 2
        g[..., 1, 1] = 1.0 + 0.2 * p[..., 2] ** 2
        g[..., 2, 2] = 1.0 + 0.2 * p[..., 0] ** 2
        return g

    cfg = StencilConfig(h=1e-2)
    p = np.array([0.3, 0.4, 0.5])
    r = riemann_lowered(warped, p, cfg)
    cyc = r + np.einsum('acdb->abcd', r) + np.einsum('adbc->abcd', r)
    assert np.max(np.abs(cyc)) < 1e-6


# ------------------------------------------------ the per-offset einsum path

def reference_metric_jet(g, p, cfg):
    """One metric call per stencil offset: the star of `star_jet`, then the
    four corners of each pair a < b."""
    h, n = cfg.h, p.shape[-1]
    g0, dg, diag = star_jet(g, p, cfg)
    ddg = np.zeros(dg.shape[:-3] + (n,) + dg.shape[-3:])
    idx = np.arange(n)
    ddg[..., idx, idx, :, :] = diag
    for a in range(n):
        for b in range(a + 1, n):
            pa, pb, pc, pd = p.copy(), p.copy(), p.copy(), p.copy()
            pa.T[a] += h; pa.T[b] += h
            pb.T[a] += h; pb.T[b] -= h
            pc.T[a] -= h; pc.T[b] += h
            pd.T[a] -= h; pd.T[b] -= h
            cross = (np.asarray(g(pa), float) - np.asarray(g(pb), float)
                     - np.asarray(g(pc), float) + np.asarray(g(pd), float)) / (4 * h**2)
            ddg[..., a, b, :, :] = cross
            ddg[..., b, a, :, :] = cross
    return g0, dg, ddg


def reference_riemann(g, p, cfg):
    """The formula term by term, one einsum per contraction."""
    g0, dg, ddg = reference_metric_jet(g, p, cfg)
    ginv = np.linalg.inv(g0)
    gam = 0.5 * (np.einsum('...cd,...abd->...cab', ginv, dg)
                 + np.einsum('...cd,...bad->...cab', ginv, dg)
                 - np.einsum('...cd,...dab->...cab', ginv, dg))
    dginv = -np.einsum('...ab,...ebc,...cd->...ead', ginv, dg, ginv)
    dgam = 0.5 * (np.einsum('...cd,...eabd->...ecab', ginv, ddg)
                  + np.einsum('...cd,...ebad->...ecab', ginv, ddg)
                  - np.einsum('...cd,...edab->...ecab', ginv, ddg)
                  + np.einsum('...ecd,...abd->...ecab', dginv, dg)
                  + np.einsum('...ecd,...bad->...ecab', dginv, dg)
                  - np.einsum('...ecd,...dab->...ecab', dginv, dg))
    return (np.einsum('...cadb->...abcd', dgam) - np.einsum('...dacb->...abcd', dgam)
            + np.einsum('...ace,...edb->...abcd', gam, gam)
            - np.einsum('...ade,...ecb->...abcd', gam, gam))


def _curvature_blocks():
    bundle = gallery.thm1_taub_nut_bundle()
    gh = gallery.gh_taub_nut_example()
    cfg = StencilConfig(h=1e-2)
    return {"taub-nut-7": (bundle.metric,
                           np.array(sample_points(bundle.domain, 16, cfg, seed=3))),
            "gh-4": (gh_build(gh),
                     np.array(sample_points(gh.domain.lift_t(), 64, cfg, seed=3)))}


CURVATURE_BLOCKS = _curvature_blocks()


@pytest.mark.parametrize("name", sorted(CURVATURE_BLOCKS))
def test_riemann_equals_the_einsum_formula(name):
    g, block = CURVATURE_BLOCKS[name]
    cfg = StencilConfig(h=1e-2)
    for got, ref in zip(metric_jet(g, block, cfg), reference_metric_jet(g, block, cfg)):
        assert np.array_equal(got, ref)
    ref = reference_riemann(g, block, cfg)
    assert np.max(np.abs(riemann(g, block, cfg) - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_riemann_calls_the_metric_once_per_stencil_row(monkeypatch):
    """Every stencil point of the jet goes through the shared engine, in n
    calls of 7 dimensions: the star, then the cross points of each row
    a < n - 1.  The metric is called by the engine alone."""
    g, block = CURVATURE_BLOCKS["taub-nut-7"]
    engine_calls, metric_rows = [], []

    def counted_engine(f, p, offsets, engine=fields._at_offsets):
        engine_calls.append(len(offsets))
        return engine(f, p, offsets)

    monkeypatch.setattr(fields, "_at_offsets", counted_engine)
    monkeypatch.setattr(curvature, "_at_offsets", counted_engine)
    riemann(lambda p: metric_rows.append(len(p)) or g(p), block, StencilConfig(h=1e-2))
    assert len(engine_calls) == len(metric_rows) == 7
    assert sum(engine_calls) == 99           # one call per stencil offset made 99
    assert sum(metric_rows) == 99 * len(block)
