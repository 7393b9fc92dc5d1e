import numpy as np
import pytest

from g2lab.curvature import ricci, riemann, riemann_lowered
from g2lab.fields import Domain, StencilConfig, sample_points
from g2lab.g2construct import estimate_order
from g2lab.gallery import (GH_REFERENCE_POINTS, base_domain6, gh_flat_example,
                           gh_nonharmonic_example, gh_taub_nut_example,
                           monopole_potential6, taub_nut_v6, thm1_taub_nut_bundle)
from g2lab.gibbons import (GHData, dirac_potential, gh_build, spatial_domain,
                           v_taub_nut)
from g2lab.reports import simple_report

H_LIST = (2e-2, 1e-2, 5e-3)


def sample4(data, n=8, seed=21):
    return sample_points(data.domain.lift_t(), n, StencilConfig(h=max(H_LIST)), seed=seed)


def test_potential_satisfies_star_equation():
    data = gh_taub_nut_example()
    cfg = StencilConfig(h=1e-3)
    pts = sample_points(data.domain, 10, cfg, seed=3)
    res = data.consistency_residuals(pts, cfg)
    assert res["potential"] <= 1e-4
    assert res["harmonicity"] <= 1e-3


def test_consistency_reads_v_on_the_seven_point_star():
    """V's gradient and Laplacian take V at p and p +- h e_a only: 7 rows
    per sample, not the 19 of a full second-order jet, in one call per
    block."""
    data = gh_taub_nut_example()
    rows = []
    counted = GHData(v=lambda x: rows.append(len(x)) or data.v(x), a=data.a,
                     domain=data.domain)
    cfg = StencilConfig(h=1e-3)
    pts = sample_points(data.domain, 5, cfg, seed=3)
    assert counted.consistency_residuals(pts, cfg) == data.consistency_residuals(pts, cfg)
    assert sum(rows) == 7 * len(pts)
    assert len(rows) == 1


def test_trivial_build_is_flat_exactly():
    data = GHData(v=lambda x: 1.0, a=lambda x: np.zeros(3),
                  domain=Domain(lo=(-1.0,) * 3, hi=(1.0,) * 3))
    g = gh_build(data)
    cfg = StencilConfig(h=1e-2)
    for p in sample4(data, 5):
        assert np.max(np.abs(riemann(g, p, cfg))) == 0.0


def test_half_pole_is_locally_flat():
    g = gh_build(gh_flat_example())
    pts = sample4(gh_flat_example(), 10)

    def residual(h):
        cfg = StencilConfig(h=h)
        return max(float(np.max(np.abs(riemann(g, p, cfg)))) for p in pts)

    vals = [residual(h) for h in H_LIST]
    order = estimate_order(H_LIST, vals)
    assert 1.8 <= order <= 2.2, (order, vals)


def test_taub_nut_ricci_flat_but_curved():
    g = gh_build(gh_taub_nut_example())
    pts = sample4(gh_taub_nut_example(), 10)

    def residual(h):
        cfg = StencilConfig(h=h)
        return max(float(np.max(np.abs(ricci(g, p, cfg)))) for p in pts)

    vals = [residual(h) for h in H_LIST]
    order = estimate_order(H_LIST, vals)
    assert 1.8 <= order <= 2.2, (order, vals)
    cfg = StencilConfig(h=5e-3)
    for p in GH_REFERENCE_POINTS:
        assert np.linalg.norm(riemann_lowered(g, p, cfg)) >= 0.01


def test_reference_points_keep_the_sampler_pad():
    # gh.taub-nut evaluates riemann_lowered at h = 5e-3 on these fixed points,
    # the one stencil site not fed by sample_points; they keep its 10 h pad
    for p in GH_REFERENCE_POINTS:
        assert spatial_domain().lift_t().contains(p, pad=10 * 5e-3)


def test_nonharmonic_control_fails_ricci():
    g = gh_build(gh_nonharmonic_example())
    cfg = StencilConfig(h=5e-3)
    worst = max(float(np.max(np.abs(ricci(g, p, cfg))))
                for p in sample4(gh_nonharmonic_example(), 8))
    assert worst >= 0.01


def test_nan_potential_fails_consistency():
    """A V that cannot be evaluated on part of the samples must not read as
    harmonic: the sup keeps the NaN and the check fails."""
    nan_region = lambda x: x[..., 0] > 0.2
    data = GHData(v=lambda x: np.where(nan_region(x), np.nan, 1.0),
                  a=lambda x: np.zeros(x.shape),
                  domain=Domain(lo=(-1.0,) * 3, hi=(1.0,) * 3))
    cfg = StencilConfig(h=1e-3)
    pts = sample_points(data.domain, 20, cfg, seed=42)
    assert 0 < sum(nan_region(p) for p in pts) < len(pts)
    res = data.consistency_residuals(pts, cfg)
    assert np.isnan(res["harmonicity"]) and np.isnan(res["potential"])
    assert simple_report(res, 1e-3).status == "fail"


def test_nonpositive_v_rejected():
    data = GHData(v=lambda x: -1.0, a=lambda x: np.zeros(3),
                  domain=Domain(lo=(-1.0,) * 3, hi=(1.0,) * 3))
    g = gh_build(data)
    with pytest.raises(ValueError):
        g(np.array([0.0, 0.1, 0.2, 0.3]))


def test_dirac_potential_regular_on_positive_axis():
    val = dirac_potential(np.array([1e-9, 1e-9, 0.7]))
    assert np.all(np.isfinite(val))
    assert np.max(np.abs(val)) < 1e-6


def test_d_squared_of_potential_vanishes():
    from test_fields import exterior_d
    a = dirac_potential
    cfg = StencilConfig(h=1e-3)
    pts = sample_points(gh_taub_nut_example().domain, 6, cfg, seed=17)
    for p in pts:
        dda = exterior_d(lambda q: exterior_d(a, q, 1, cfg), p, 2, cfg)
        assert np.max(np.abs(dda)) <= 1e-6


def test_taub_nut_riemann_floor_keeps_nan(monkeypatch):
    """A Riemann norm that cannot be evaluated at a reference point other than
    the first must fail the floor, not drop out of the minimum."""
    import math
    from g2lab import suites
    from g2lab.reports import SuiteContext
    real = suites.riemann_lowered
    second = GH_REFERENCE_POINTS[1]
    monkeypatch.setattr(suites, "riemann_lowered", lambda g, p, cfg: (
        np.full((4, 4, 4, 4), np.nan) if p is second else real(g, p, cfg)))
    rep = suites.check_gh_taub_nut(SuiteContext(seed=42, samples=10, dump_dir=None))
    assert math.isnan(rep.residuals["riemann_floor_shortfall"])
    assert rep.status == "fail"


# The pole fields shared by the quotient layer (which evaluates them on blocks
# of points) and the GH and G2 layers (which evaluate them at single points):
# the single-point formulas they had before they took blocks.

def pointwise_dirac_potential(charge):
    def a(p3):
        x, y, z = float(p3[0]), float(p3[1]), float(p3[2])
        r = float(np.linalg.norm(p3))
        den = r * (r + z)
        return np.array([charge * y / den, -charge * x / den, 0.0])
    return a


def pointwise_v_taub_nut(p3):
    return 1.0 + 0.5 / float(np.linalg.norm(p3))


def pointwise_taub_nut_v6(x):
    return pointwise_v_taub_nut(x[3:])


def pointwise_monopole_potential6():
    dirac = pointwise_dirac_potential(0.5)

    def a(x):
        out = np.zeros(6)
        out[3:] = -dirac(x[3:])
        return out
    return a


SHARED_FIELDS = {
    "dirac_potential": (spatial_domain, lambda: dirac_potential,
                        lambda: pointwise_dirac_potential(0.5)),
    "v_taub_nut": (spatial_domain, lambda: v_taub_nut, lambda: pointwise_v_taub_nut),
    "taub_nut_v6": (base_domain6, lambda: taub_nut_v6, lambda: pointwise_taub_nut_v6),
    "monopole_potential6": (base_domain6, monopole_potential6,
                            pointwise_monopole_potential6),
}


@pytest.mark.parametrize("name", sorted(SHARED_FIELDS))
def test_shared_pole_field_keeps_its_pointwise_bits(name):
    domain, make, make_pointwise = SHARED_FIELDS[name]
    field, pointwise = make(), make_pointwise()
    block = np.array(sample_points(domain(), 300, StencilConfig(h=1e-3), seed=41))
    rows = np.array([np.asarray(pointwise(p), float) for p in block])
    assert np.array_equal(np.array([np.asarray(field(p), float) for p in block]), rows)
    assert np.array_equal(np.asarray(field(block), float), rows)


def reference_gh_metric(data, p):
    """The Gibbons-Hawking metric as a zeros array plus the broadcast
    product w w^T / V."""
    x = p[..., 1:4]
    v = np.asarray(data.v(x), dtype=float)
    g = np.zeros(p.shape[:-1] + (4, 4))
    g[..., 1:, 1:] = v[..., None, None] * np.eye(3)
    w = np.zeros(p.shape[:-1] + (4,))
    w[..., 0] = 1.0
    w[..., 1:] = data.a(x)
    return g + w[..., :, None] * w[..., None, :] / v[..., None, None]


def reference_taub_nut_metric7(p):
    """k_+ + v k_- + v^-1 (dt + A)^2 of the Taub-NUT bundle, as a zeros array
    with the blocks set, plus the broadcast product w w^T / v."""
    x = p[..., 1:]
    v = taub_nut_v6(x)[..., None, None]
    g = np.zeros(p.shape[:-1] + (7, 7))
    g[..., 1:4, 1:4] = np.eye(3)
    g[..., 4:, 4:] = v * np.eye(3)
    w = np.zeros(p.shape[:-1] + (7,))
    w[..., 0] = 1.0
    w[..., 1:] = monopole_potential6()(x)
    return g + w[..., :, None] * w[..., None, :] / v


@pytest.mark.parametrize("name", ["gh-taub-nut", "gh-flat-quotient", "thm1-taub-nut"])
def test_metric_built_in_place_keeps_the_broadcast_bits(name):
    """The metric fields, built from w w^T / v in place, equal the zeros-and-
    broadcast expression byte for byte, signs of zero included, on a 64-point
    block and at each of its points."""
    if name == "thm1-taub-nut":
        bundle = thm1_taub_nut_bundle()
        metric, reference, domain = bundle.metric, reference_taub_nut_metric7, bundle.domain
    else:
        data = gh_taub_nut_example() if name == "gh-taub-nut" else gh_flat_example()
        metric, domain = gh_build(data), data.domain.lift_t()
        reference = lambda p: reference_gh_metric(data, p)
    block = np.array(sample_points(domain, 64, StencilConfig(h=1e-3), seed=5))
    assert metric(block).tobytes() == reference(block).tobytes()
    for p in block:
        assert metric(p).tobytes() == reference(p).tobytes()
