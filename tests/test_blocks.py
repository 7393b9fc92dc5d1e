"""The G2, curvature, Gibbons-Hawking, hypersurface and oracle layers on
blocks of points: a block's rows carry the bits of its points, and a blocked
verifier's memory is bounded by its block."""

import tracemalloc

import numpy as np
import pytest

from g2lab import gallery
from g2lab.curvature import christoffel, ricci, riemann
from g2lab.fields import StencilConfig, blocks, sample_points, sup
from g2lab.g2construct import holonomy_residual, torsion_forms, torsionfree_residual
from g2lab.gibbons import gh_build
from g2lab.hypersurfaces import (_j_matrix, _normal, affine_plane, ellipsoid,
                                 hypersurface_checks, unit_sphere)

CURVATURE_CFG = StencilConfig(h=1e-2)


def _block_fields() -> dict:
    """{name: (domain, field)} for every field that takes blocks in these
    layers, with riemann of each metric."""
    out = {}
    bundles = {"thm1-flat": gallery.thm1_flat_bundle(),
               "thm1-taub-nut": gallery.thm1_taub_nut_bundle(),
               "thm1-broken-monopole": gallery.thm1_broken_monopole_bundle(0.1)[0],
               "thm2-mismatched-alpha": gallery.thm2_mismatched_alpha_bundle(0.1)[0],
               "warped-control": gallery.warped_control_bundle()}
    for tag, b in bundles.items():
        for name in ("metric", "coframe", "phi_field"):
            out[f"{tag}.{name}"] = (b.domain, getattr(b, name))
        # the frame E^-1 and (d phi, d *phi), as the torsion check takes them
        out[f"{tag}.frame"] = (b.domain, lambda p, e=b.coframe: np.linalg.inv(e(p)))
        out[f"{tag}.torsion_forms"] = (
            b.domain, lambda p, e=b.coframe: np.concatenate(torsion_forms(e, p, CURVATURE_CFG),
                                                            axis=-1))
        out[f"{tag}.riemann"] = (b.domain,
                                 lambda p, g=b.metric: riemann(g, p, CURVATURE_CFG))
    for tag, data in (("gh-flat-quotient", gallery.gh_flat_example()),
                      ("gh-taub-nut", gallery.gh_taub_nut_example()),
                      ("gh-nonharmonic", gallery.gh_nonharmonic_example())):
        g = gh_build(data)
        out[f"{tag}.metric"] = (data.domain.lift_t(), g)
        out[f"{tag}.riemann"] = (data.domain.lift_t(),
                                 lambda p, g=g: riemann(g, p, CURVATURE_CFG))
    for tag, imm in (("plane", affine_plane()), ("sphere", unit_sphere()),
                     ("ellipsoid", ellipsoid())):
        out[f"{tag}.chart"] = (imm.domain, imm.chart)
    u, domain = gallery.rho_polynomial_setup(42)
    out["oracle-rho.u"] = (domain, u)
    for i, section in enumerate(gallery.polynomial_sections(43)):
        out[f"oracle-sections.{i}"] = (domain, section)
    return out


BLOCK_FIELDS = _block_fields()


@pytest.mark.parametrize("name", sorted(BLOCK_FIELDS))
def test_field_on_a_block_equals_row_by_row(name):
    """Every one takes the same path at a point and on a block, so the
    equality is bitwise."""
    domain, field = BLOCK_FIELDS[name]
    block = np.array(sample_points(domain, 24, StencilConfig(h=1e-2), seed=37))
    rows = np.array([np.asarray(field(p), float) for p in block])
    assert np.array_equal(np.asarray(field(block), float), rows)


def test_powers_are_products_on_negative_entries():
    x = np.array(sample_points(gallery.rho_polynomial_setup(42)[1], 24,
                               StencilConfig(h=1e-2), seed=37))
    assert (x < 0).any()
    assert np.array_equal(gallery._powers(x),
                          np.stack([x, x * x, x * x * x], axis=-2))


# ------------------------------------------------- the nested stencil

def per_offset_gradient(f, p, cfg):
    """fd_gradient by the loop of the deleted fd_partial: one field call on
    each shifted point or block."""
    h = cfg.h
    partials = []
    for d in range(p.shape[-1]):
        pp, pm = p.copy(), p.copy()
        pp.T[d] += h
        pm.T[d] -= h
        partials.append((np.asarray(f(pp), float) - np.asarray(f(pm), float)) / (2 * h))
    return np.array(partials).swapaxes(0, p.ndim - 1)


def reference_hypersurface_checks(imm, samples, cfg):
    """hypersurface_checks before the stencil engine: every stencil is one
    field call per offset, and each derivative re-evaluates the tangent
    frame (itself a stencil of the chart) on its own shifted points."""
    def tangent(y):
        return per_offset_gradient(imm.chart, y, cfg).mT

    def induced_metric(y):
        t = tangent(y)
        return t.mT @ t

    def j_matrix(y):
        t = tangent(y)
        return _j_matrix(t, _normal(t))

    def at(y):
        t = tangent(y)
        g = t.mT @ t
        n = _normal(t)
        jmat = _j_matrix(t, n)
        gam = christoffel(induced_metric(y), per_offset_gradient(induced_metric, y, cfg))
        dj = per_offset_gradient(j_matrix, y, cfg)
        ndj = dj + np.einsum('...acd,...db->...cab', gam, jmat) \
            - np.einsum('...dcb,...ad->...cab', gam, jmat)
        e6 = np.linalg.cholesky(g).mT
        f6 = np.linalg.inv(e6)
        ndj_f = np.einsum('...cg,...ae,...ceb,...bf->...gaf', f6, e6, ndj, f6,
                          optimize=True)
        sym = ndj_f + np.swapaxes(ndj_f, -3, -1)
        ii = np.einsum('...k,...ckb->...cb', n, per_offset_gradient(tangent, y, cfg))
        shape_f = e6 @ np.linalg.solve(g, ii) @ f6
        trace = np.trace(shape_f, axis1=-2, axis2=-1)[..., None, None]
        traceless = shape_f - trace / 6.0 * np.eye(6)
        return {"nearly_kahler": np.abs(sym) / 2.0,
                "kahler": np.abs(ndj_f),
                "umbilic": np.linalg.norm(traceless, axis=(-2, -1)),
                "geodesic": np.linalg.norm(shape_f, axis=(-2, -1))}
    return sup(blocks(samples), at)


@pytest.mark.parametrize("imm", [unit_sphere(), ellipsoid()], ids=["sphere", "ellipsoid"])
def test_nested_stencil_equals_the_per_offset_loop(imm):
    """The tangent frame evaluated once on the star of each block, the chart
    under it on the engine's nested rows, carries the bits of the per-offset
    route, over more than one block."""
    cfg = StencilConfig(h=1e-3)
    pts = sample_points(imm.domain, 40, cfg, seed=7)
    assert hypersurface_checks(imm, pts, cfg) == reference_hypersurface_checks(imm, pts, cfg)


# --------------------------------------------------------------- memory guard

# Measured with NumPy 2.4.6 on 160 points, two or more blocks each:
# holonomy_residual (16-point blocks, g2construct.CURVATURE_BLOCK) 932 KiB,
# hypersurface_checks 1,025 KiB and torsionfree_residual 582 KiB (32-point
# blocks, fields.STACK_BLOCK), GH riemann and ricci 554 KiB (64-point
# blocks), so the top is 67% of this bound.  A 64-point block of
# 7-dimensional riemann reads 3,708 KiB, and of hypersurface_checks, whose
# stencil nests, 2,042 KiB.  tracemalloc counts
# NumPy's temporaries, so another NumPy version or a reshuffle of these
# verifiers can move the margin: re-measure before changing the bound.
PEAK_BOUND = 1536 * 1024


def _peak_bytes(run) -> int:
    run()                      # warm the model-data caches outside the trace
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _memory_runs():
    bundle = gallery.thm1_taub_nut_bundle()
    gh = gallery.gh_taub_nut_example()
    g = gh_build(gh)
    sphere = unit_sphere()
    pts7 = sample_points(bundle.domain, 160, StencilConfig(h=2e-2), seed=7)
    pts4 = sample_points(gh.domain.lift_t(), 160, StencilConfig(h=2e-2), seed=7)
    pts6 = sample_points(sphere.domain, 160, StencilConfig(h=1e-3), seed=7)
    cfg = StencilConfig(h=5e-3)
    return {
        "torsionfree_residual": lambda: torsionfree_residual(bundle, pts7, cfg),
        "holonomy_residual": lambda: holonomy_residual(bundle, pts7, cfg),
        "gh riemann": lambda: sup(blocks(pts4),
                                  lambda p: {"r": np.abs(riemann(g, p, cfg))}),
        "gh ricci": lambda: sup(blocks(pts4),
                                lambda p: {"r": np.abs(ricci(g, p, cfg))}),
        "hypersurface_checks": lambda: hypersurface_checks(sphere, pts6,
                                                           StencilConfig(h=1e-3)),
    }


def test_verifiers_stay_within_the_block_memory_bound():
    peaks = {name: _peak_bytes(run) for name, run in _memory_runs().items()}
    over = {name: peak for name, peak in peaks.items() if peak > PEAK_BOUND}
    assert not over, f"tracemalloc peaks over {PEAK_BOUND} bytes: {over}"
