"""Every check can fail: each check id in `FAULTS` reads `fail` under one
planted fault and `pass` without it (mutation testing, DeMillo, Lipton and
Sayward 1978).

A fault monkeypatches `gallery.g2_build_thm1`, through which every gallery
bundle of the two constructions is built, with a wrapper that puts the built
bundle's metric or coframe off, or that builds from a v pushed off the
monopole equation.  Each check runs alone, on a fresh context at 25 samples.
"""

import dataclasses

import numpy as np
import pytest

from g2lab import gallery, suites
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
        def faulty(k6, mono, domain6):
            bundle = build(k6, mono, domain6)
            return dataclasses.replace(bundle, **{name: minus_block_off(getattr(bundle, name))})
        return faulty
    return fault


def off_monopole(build):
    """A builder handed v (1 + 0.1 x4) in place of v, with A unchanged."""
    def faulty(k6, mono, domain6):
        v = mono.v
        return build(k6, dataclasses.replace(mono, v=lambda x: v(x) * (1.0 + 0.1 * x[..., 3])),
                     domain6)
    return faulty


# name -> (check id, fault)
FAULTS = {
    "agrees-metric": ("g2-thm2.agrees-with-thm1", bundle_fault("metric")),
    "agrees-coframe": ("g2-thm2.agrees-with-thm1", bundle_fault("coframe")),
    "monopole-hypothesis": ("g2-thm1.monopole-hypothesis", off_monopole),
}


@pytest.mark.parametrize("name", list(FAULTS))
def test_a_planted_fault_fails_the_check(name, monkeypatch):
    check_id, fault = FAULTS[name]
    check = dict(suites.suite_checks("all"))[check_id]

    def run():
        return check(SuiteContext(seed=42, samples=25, h=None, dump_dir=None))

    clean = run()
    assert clean.status == "pass", clean.residuals
    monkeypatch.setattr(gallery, "g2_build_thm1", fault(gallery.g2_build_thm1))
    planted = run()
    assert planted.status == "fail", planted.residuals
