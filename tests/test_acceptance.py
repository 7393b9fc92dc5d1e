"""Acceptance gate: one test per exit criterion, each printing a pass/fail
line, with the stated tolerances and wall-clock budgets pinned."""

import time

from g2lab import suites
from g2lab.cli import main
from g2lab.reports import SuiteContext


def _ctx(samples=100, seed=42):
    return SuiteContext(seed=seed, samples=samples, dump_dir=None)


def _run(checks, ctx):
    return {cid: fn(ctx) for cid, fn in checks}


def _declare(number, name, ok, detail=""):
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_exact_algebra():
    t0 = time.perf_counter()
    ctx = _ctx()
    ids = ["algebra.dimension", "algebra.closure", "algebra.reductive",
           "algebra.orthogonality", "algebra.h-equivariance",
           "algebra.embedding-scales", "algebra.rep-equivalence",
           "algebra.rep-dual-inequivalent"]
    reps = _run([c for c in suites.SUITES["algebra"] if c[0] in ids], ctx)
    elapsed = time.perf_counter() - t0
    ok = all(r.status == "pass" for r in reps.values()) and elapsed <= 5.0
    scale = reps["algebra.embedding-scales"].params.get("scale")
    ok = ok and scale == {"num": "2", "den": "1"}
    _declare(1, "exact algebra", ok,
             f"elapsed {elapsed:.2f}s, scale factor {scale}")


def test_criterion_2_so8():
    t0 = time.perf_counter()
    ctx = _ctx()
    reps = _run([c for c in suites.SUITES["algebra"]
                 if c[0] in ("algebra.clifford", "algebra.so8")], ctx)
    elapsed = time.perf_counter() - t0
    so8 = reps["algebra.so8"]
    ok = (all(r.status == "pass" for r in reps.values())
          and so8.params["sum_dim"] == 28
          and so8.params["intersection_dim"] == 14
          and elapsed <= 5.0)
    _declare(2, "so(8) intersection", ok, f"elapsed {elapsed:.2f}s")


def test_criterion_3_octonion():
    t0 = time.perf_counter()
    ctx = _ctx()
    reps = _run(suites.SUITES["octonion"], ctx)
    elapsed = time.perf_counter() - t0
    ratio = reps["octonion.torsion-proportional"].params["ratio"]
    ok = (all(r.status == "pass" for r in reps.values())
          and ratio is not None and ratio["num"] != "0" and elapsed <= 10.0)
    _declare(3, "octonion laboratory", ok,
             f"elapsed {elapsed:.2f}s, torsion ratio {ratio}")


def test_criterion_4_gibbons_hawking():
    t0 = time.perf_counter()
    ctx = _ctx(samples=100)
    reps = _run(suites.SUITES["gh"], ctx)
    elapsed = time.perf_counter() - t0
    flat = reps["gh.flat-quotient"]
    tn = reps["gh.taub-nut"]
    ok = (all(r.status == "pass" for r in reps.values())
          and 1.8 <= flat.order_estimate <= 2.2
          and 1.8 <= tn.order_estimate <= 2.2
          and tn.params["min_riemann_norm"] >= 0.01
          and elapsed <= 60.0)
    _declare(4, "Gibbons-Hawking", ok,
             f"elapsed {elapsed:.2f}s, orders {flat.order_estimate:.2f}/"
             f"{tn.order_estimate:.2f}")


def test_criterion_5_g2_construction():
    t0 = time.perf_counter()
    ctx = _ctx(samples=100)
    reps = _run(suites.SUITES["g2-thm1"] + suites.SUITES["g2-thm2"], ctx)
    broken = suites.check_neg_broken_monopole(ctx)
    elapsed = time.perf_counter() - t0
    flat = reps["g2-thm1.flat"]
    tf = reps["g2-thm1.torsion-free"]
    curv = reps["g2-thm1.curvature"]
    agree = reps["g2-thm2.agrees-with-thm1"]
    orders_ok = (tf.order_estimate == "exact" or tf.order_estimate >= 1.8) and \
                (curv.order_estimate == "exact" or curv.order_estimate >= 1.8) and \
                (curv.params["order_off_g2"] == "exact"
                 or curv.params["order_off_g2"] >= 1.8)
    ok = (all(r.status == "pass" for r in reps.values())
          and max(flat.residuals.values()) <= 1e-10
          and orders_ok
          and broken.status == "pass"
          and max(agree.residuals.values()) <= 1e-12
          and elapsed <= 120.0)
    _declare(5, "G2 constructions", ok,
             f"elapsed {elapsed:.2f}s, torsion order {tf.order_estimate}, "
             f"curvature order {curv.order_estimate}")


def test_criterion_6_hypersurfaces():
    t0 = time.perf_counter()
    ctx = _ctx()
    reps = _run(suites.SUITES["hypersurface"], ctx)
    elapsed = time.perf_counter() - t0
    plane = reps["hypersurface.plane"]
    sphere = reps["hypersurface.sphere"]
    ok = (all(r.status == "pass" for r in reps.values())
          and plane.residuals["kahler"] <= 1e-8
          and sphere.residuals["nearly_kahler"] <= 1e-5
          and sphere.params["kahler_defect"] >= suites.SPHERE_KAHLER_FLOOR
          and elapsed <= 30.0)
    _declare(6, "hypersurfaces", ok, f"elapsed {elapsed:.2f}s")


def test_criterion_7_oracle_pairs():
    t0 = time.perf_counter()
    ctx = _ctx(samples=200)
    reps = _run(suites.SUITES["oracle-pairs"], ctx)
    elapsed = time.perf_counter() - t0
    orders_ok = all(
        r.order_estimate == "exact" or (r.order_estimate or 0) >= 1.9
        for r in reps.values() if r.order_estimate is not None)
    ok = (all(r.status == "pass" for r in reps.values())
          and orders_ok and elapsed <= 30.0)
    detail = ", ".join(
        f"{cid.split('.')[-1]}={r.order_estimate if isinstance(r.order_estimate, str) else f'{r.order_estimate:.2f}'}"
        for cid, r in reps.items() if r.order_estimate is not None)
    _declare(7, "two-route oracles", ok, f"elapsed {elapsed:.2f}s, orders: {detail}")


def test_criterion_8_determinism(capsys):
    args = ["--suite", "all", "--samples", "50", "--seed", "42", "--json-only"]
    code1 = main(args)
    out1 = capsys.readouterr().out
    code2 = main(args)
    out2 = capsys.readouterr().out
    ok = code1 == 0 and code2 == 0 and out1.encode() == out2.encode()
    _declare(8, "byte-stable reports", ok, f"{len(out1.splitlines())} lines")
