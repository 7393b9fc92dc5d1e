"""Every check can fail: each check id in `FAULTS` reads `fail` under one
planted fault and `pass` without it (mutation testing, DeMillo, Lipton and
Sayward 1978).

A fault monkeypatches one function with a replacement, mostly a wrapper of it:
`g2_build_thm1`, through which every gallery bundle of the two constructions
is built, so that the built bundle's metric or coframe is off;
`taub_nut_monopole`, so that its v is pushed off the monopole equation; the
builder of a positive check's data, so that it returns data that breaks what
the check asserts; an exact table (`_h_table`, `gamma_matrices`) with one
row scaled; one route of an oracle pair (`star_jet`, `h6` and
`_minus_block_routes` as `killing` reads them) off; a route of a residual
that `suites` reads (`torsionfree_residual`) replaced; or, for a negative
control, the builder of its data, so that the planted defect is gone.  Each
check runs alone, on a fresh context at 25 samples.

The table names the module beside the function, because a check reads a
builder from where it is imported: `hypersurface.sphere` calls `unit_sphere`
as a name of `suites`, not of `hypersurfaces`, so the fault patches it there.
"""

import dataclasses

import numpy as np
import pytest

from g2lab import embeddings, gallery, hypersurfaces, killing, spin8, suites, threeform
from g2lab.rational import ExactMatrix, combinations_index
from g2lab.reports import SuiteContext


def minus_block_off(field):
    """`field` with its minus block (coordinates x4..x6) times 1.05."""
    def faulty(p):
        out = np.array(field(p))
        out[..., 4:, 4:] *= 1.05
        return out
    return faulty


def bundle_fault(name):
    """A builder whose bundles carry `minus_block_off` of their field `name`."""
    def fault(build):
        def faulty(mono, domain6):
            bundle = build(mono, domain6)
            return dataclasses.replace(bundle, **{name: minus_block_off(getattr(bundle, name))})
        return faulty
    return fault


def off_monopole(pair):
    """The pair with v (1 + 0.1 x4) in place of v, and A unchanged."""
    def faulty():
        mono = pair()
        v = mono.v
        return dataclasses.replace(mono, v=lambda x: v(x) * (1.0 + 0.1 * x[..., 3]))
    return faulty


def unbroken(build):
    """A control's data at eps = 0, whatever eps the check asks for."""
    return lambda eps: build(0.0)


def returns(make):
    """A builder that returns `make()` in place of its own value.  `make()`
    runs before the patch, so it may call the builder it replaces."""
    def fault(build):
        value = make()
        return lambda: value
    return fault


def row_times(row, factor):
    """A builder of an exact stack whose `row` (an index into its numerator)
    is `factor` times its own."""
    def fault(build):
        def faulty():
            value = build()
            num = value.num.copy()
            num[row] *= factor
            return ExactMatrix(num, value.den)
        return faulty
    return fault


def jacobian_times(factor):
    """A `star_jet` whose first derivatives are `factor` times its own."""
    def fault(jet):
        def faulty(f, p, cfg):
            value, grad, second = jet(f, p, cfg)
            return value, factor * grad, second
        return faulty
    return fault


def h_row_negated(h):
    """An `h6` whose first matrix row is negated."""
    def faulty(w):
        out = h(w)
        out[..., 0, :] *= -1
        return out
    return faulty


def rescaled_route_times(factor):
    """A `_minus_block_routes` whose rescaled right-hand side is `factor`
    times its own."""
    def fault(routes):
        def faulty(*args):
            alpha, plain, rescaled = routes(*args)
            return alpha, plain, factor * rescaled
        return faulty
    return fault


def exact_dstarphi_constant_dphi(residual):
    """A `torsionfree_residual` whose d phi reads an h-independent 5e-4,
    inside the tolerance but of order 0, and whose d *phi route returns
    zeros, an exact series that must not waive the band of d phi."""
    return lambda bundle, samples, cfg: {"sup_dphi": 5e-4, "sup_dstarphi": 0.0}


def plus_unit_456():
    """The invariant 3-form plus the unit component on the triple (4, 5, 6):
    squared norm 8, and phi(e4, e5, e6) = 1."""
    unit = np.zeros((1, 35), dtype=np.int64)
    unit[0, combinations_index(7, 3)[1][(4, 5, 6)]] = 1
    return threeform.invariant_threeform() + ExactMatrix(unit, 1)


# name -> (check id, module and name of the function the fault wraps, fault)
FAULTS = {
    "agrees-metric": ("g2-thm2.agrees-with-thm1", gallery, "g2_build_thm1",
                      bundle_fault("metric")),
    "agrees-coframe": ("g2-thm2.agrees-with-thm1", gallery, "g2_build_thm1",
                       bundle_fault("coframe")),
    "monopole-hypothesis": ("g2-thm1.monopole-hypothesis", gallery, "taub_nut_monopole",
                            off_monopole),
    "broken-monopole": ("negative.broken-monopole", gallery, "thm1_broken_monopole_bundle",
                        unbroken),
    "matched-twist": ("negative.mismatched-twist", gallery, "thm2_mismatched_alpha_bundle",
                      unbroken),
    "nonharmonic-data": ("gh.data-consistency", gallery, "gh_taub_nut_example",
                         returns(gallery.gh_nonharmonic_example)),
    "perturbed-quotient": ("oracle-pairs.quotient-conditions", gallery, "killing_taub_nut_data",
                           returns(lambda: gallery.killing_perturbed_data(0.2))),
    "ellipsoid-sphere": ("hypersurface.sphere", suites, "unit_sphere",
                         returns(hypersurfaces.ellipsoid)),
    "taub-nut-flat": ("g2-thm1.flat", gallery, "thm1_flat_bundle",
                      returns(gallery.thm1_taub_nut_bundle)),
    "kernel-off-norm": ("octonion.invariant-kernel", suites, "invariant_threeform",
                        returns(plus_unit_456)),
    "planes-minus-block": ("octonion.associative-planes", suites, "invariant_threeform",
                           returns(plus_unit_456)),
    "star-wedge-off-norm": ("octonion.star-wedge", suites, "invariant_threeform",
                            returns(plus_unit_456)),
    "h-row-doubled": ("algebra.embedding-scales", embeddings, "_h_table",
                      row_times(0, 2)),
    "gamma-row-negated": ("algebra.clifford", spin8, "gamma_matrices",
                          row_times((0, 1), -1)),
    "torsion-jacobian-off": ("oracle-pairs.torsion", killing, "star_jet",
                             jacobian_times(1.01)),
    "twist-h-row-negated": ("oracle-pairs.twist-assembly", killing, "h6", h_row_negated),
    "rescaled-route-off": ("oracle-pairs.potential-routes", killing, "_minus_block_routes",
                           rescaled_route_times(1.01)),
    "torsion-order-waived": ("g2-thm1.torsion-free", suites, "torsionfree_residual",
                             exact_dstarphi_constant_dphi),
}


@pytest.mark.parametrize("name", list(FAULTS))
def test_a_planted_fault_fails_the_check(name, monkeypatch):
    check_id, module, target, fault = FAULTS[name]
    check = dict(suites.suite_checks("all"))[check_id]

    def run():
        return check(SuiteContext(seed=42, samples=25, dump_dir=None))

    clean = run()
    assert clean.status == "pass", clean.residuals
    monkeypatch.setattr(module, target, fault(getattr(module, target)))
    planted = run()
    assert planted.status == "fail", planted.residuals
