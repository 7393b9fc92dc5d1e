"""g2lab benchmark: series of cold passes, end to end and by layer.

    python3 g2bench/run.py --workload certify|full|dense --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  A pass is a fresh interpreter running
`child.py`, which imports `g2lab.cli` from `src/` and calls `g2lab.cli.main`;
passes run one after another, never two at once.  A round is one pass of each
of the workload's commands.  A run lists the checks, computes the stabilizer
check that does not use g2lab, then runs whole rounds until another round
would end after S seconds (at least one round).  Set-up probes, passes that
stop after the import, run before the first round, between rounds and after
the last.

--trace 0 reports the end-to-end metrics, each the median over the run's
rounds (setup_s: over every probe and pass).  --trace 1 alternates an
untraced and a traced round and reports the per-layer metrics of the traced
rounds (medians) and the tracing overhead.  The last line of stdout is one
JSON object: correct, attempted, failed, metrics.  The exit code is 0 when a
result was printed; a checkout without `src/g2lab` exits 2 and prints none.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import checks
import selftest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = os.path.join(ROOT, "g2bench", "child.py")
OUT = os.path.join(ROOT, ".g2bench-out")
RESULT = os.path.join(OUT, "pass.json")

# Each workload is a tuple of g2lab argument lists; one round runs each once.
WORKLOADS = {
    # Exact layers only, each suite in its own cold process, default seed.
    "certify": (("--suite", "algebra"), ("--suite", "octonion")),
    # Every layer in one process: the end-to-end command at the default seed.
    "full": (("--suite", "all", "--samples", "200"),),
    # Per-point numerical work dominates: four times the default budget.
    "dense": (("--suite", "all", "--samples", "800", "--seed", "7"),),
}
SUITES = ("algebra", "octonion", "gh", "g2-thm1", "g2-thm2", "hypersurface",
          "oracle-pairs", "negative-controls")
# Set-up probes (passes that stop after the import), interleaved with the
# rounds: some before the first round and after the last, a few between.
PROBES_AT_ENDS = 8
PROBES_BETWEEN_ROUNDS = 2
PASS_TIMEOUT_S = 150


class Pass:
    def __init__(self, args, traced: bool):
        if os.path.exists(RESULT):
            os.remove(RESULT)
        spawn_t = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, "-I", CHILD, repr(spawn_t), RESULT,
             "1" if traced else "0", *args],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            self.stdout, self.stderr = proc.communicate(timeout=PASS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            self.stdout, self.stderr = proc.communicate()
        self.rc = proc.returncode
        self.result = None
        if os.path.exists(RESULT):
            with open(RESULT) as fh:
                self.result = json.load(fh)


def list_checks(suite: str) -> list:
    p = Pass(("--suite", suite, "--list"), traced=False)
    if p.rc != 0:
        sys.stderr.write(p.stderr.decode("utf-8", "replace"))
        raise SystemExit(f"g2lab --suite {suite} --list exited {p.rc}")
    return p.stdout.decode().split()


def layer_metrics(tables: list, suite_ids: dict) -> dict:
    """Per-layer metrics of one traced round (the sum over its processes)."""
    calls, incl, self_s, det = {}, {}, {}, 0
    for t in tables:
        for src, dst in ((t["calls"], calls), (t["incl"], incl), (t["self_s"], self_s)):
            for k, v in src.items():
                dst[k] = dst.get(k, 0) + v
        det += t["det_calls"]
    c = lambda k: calls.get(k, 0)
    s = lambda k: incl.get(k, 0.0)
    own = lambda k: self_s.get(k, 0.0)
    builds = ("g2construct.g2_build_thm1", "g2construct.g2_build_thm2")
    m = {
        "rational.matmul.calls": c("rational.ExactMatrix.__matmul__"),
        "rational.bracket.calls": c("rational.bracket"),
        "rational.self_s": own("rational"),
        "subspaces.rref.calls": c("subspaces.rref"),
        "subspaces.self_s": own("subspaces"),
        "embeddings.g2_basis.s": s("embeddings.g2_basis"),
        "embeddings.self_s": own("embeddings"),
        "threeform.self_s": own("threeform"),
        "octonions.multiply.calls": c("octonions.OctonionTable.multiply"),
        "octonions.self_s": own("octonions"),
        "spin8.self_s": own("spin8"),
        "modeldata.self_s": own("modeldata"),
        "fields.stencil_evals": c("fields.stencil_eval"),
        "fields.stencil_eval_s": own("fields.stencil_eval"),
        "g2construct.builds": sum(c(b) for b in builds),
        "g2construct.build_s": sum(s(b) for b in builds),
        "fields.fd_partial.calls": c("fields.fd_partial"),
        "fields.exterior_d.calls": c("fields.exterior_d"),
        "fields.stencil_self_s": own("fields.stencil"),
        "curvature.metric_jet.calls": c("curvature.metric_jet"),
        "curvature.self_s": own("curvature"),
        "fields.transform_form.calls": c("fields.transform_form"),
        "fields.transform_form.s": s("fields.transform_form"),
        "g2construct.assemble_form.calls": c("g2construct._assemble_form"),
        "g2construct.assemble_form.s": s("g2construct._assemble_form"),
        "fields.hodge_restricted.calls": c("fields.hodge_restricted"),
        "numpy.linalg_det.calls": det,
        "g2construct.torsionfree_residual.s": s("g2construct.torsionfree_residual"),
        "g2construct.holonomy_residual.s": s("g2construct.holonomy_residual"),
        "killing.self_s": own("killing"),
        "gibbons.self_s": own("gibbons"),
        "hypersurfaces.self_s": own("hypersurfaces"),
    }
    for suite, ids in suite_ids.items():
        m[f"suites.{suite}.s"] = sum(s(f"check.{cid}") for cid in ids)
    for ids in suite_ids.values():
        for cid in ids:
            m[f"check.{cid}.s"] = s(f"check.{cid}")
    m["reports.self_s"] = own("reports")
    m["cli.self_s"] = own("cli")
    return m


def content_problems(cmd, ids, p: Pass, independent_dim: int) -> list:
    """The checks on one stream whose process exited as g2lab documents."""
    reports = checks.parse_reports(p.stdout)
    out = checks.stream_problems(ids, reports)
    out += checks.exact_problems(reports, independent_dim)
    if "all" in cmd:
        num, fitted = checks.numerical_problems(reports)
        out += num
        if not fitted:
            out.append("no order study was fitted in --suite all")
    return out


def unit(name: str) -> str:
    return "count" if name.endswith(("calls", "evals", "builds")) else "s"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "g2lab", "cli.py")):
        print(f"error: no g2lab source under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    commands = WORKLOADS[args.workload]
    traced = bool(args.trace)
    problems = selftest.problems()

    # Listing first also compiles the sources, so no timed pass pays for it.
    expected = [list_checks(cmd[1]) for cmd in commands]
    suite_ids = {s: list_checks(s) for s in SUITES} if traced else {}

    independent_dim = checks.stabilizer_dim(args.seed)
    if independent_dim != 14:
        problems.append(f"independent stabilizer has dim {independent_dim}, not 14")
    probes = []

    def probe(n: int):
        probes.extend(Pass((), traced=False).result for _ in range(n))

    rounds = []   # [(traced, [Pass per command])]
    t_start = time.monotonic()
    probe(PROBES_AT_ENDS)
    while True:
        for mode in ((False, True) if traced else (False,)):
            rounds.append((mode, [Pass(cmd, mode) for cmd in commands]))
        elapsed = time.monotonic() - t_start
        n = len(rounds) // (2 if traced else 1)
        if elapsed + elapsed / n > args.seconds:
            break
        probe(PROBES_BETWEEN_ROUNDS)
    probe(PROBES_AT_ENDS)
    setups = [r["setup_s"] for r in probes]
    imports = [r["import_s"] for r in probes]

    attempted = failed = 0
    walls = {False: [], True: []}
    cpus, rss, layer_rows = [], [], []
    reference = [None] * len(commands)   # first trusted stdout of each command
    for mode, passes in rounds:
        complete = True
        for i, (cmd, ids, p) in enumerate(zip(commands, expected, passes)):
            attempted += len(ids)
            n_failed = checks.count_failed(ids, p.stdout, p.stderr, p.rc)
            failed += n_failed
            if n_failed == len(ids):
                sys.stderr.write(p.stderr.decode("utf-8", "replace")[-2000:])
            elif reference[i] is None:
                reference[i] = p.stdout
                problems += content_problems(cmd, ids, p, independent_dim)
            elif p.stdout != reference[i]:
                problems.append(f"stdout of g2lab {' '.join(cmd)} differs between passes")
            if p.result is None or "wall_s" not in p.result:
                complete = False
            else:
                setups.append(p.result["setup_s"])
                imports.append(p.result["import_s"])
        if not complete:
            continue
        res = [p.result for p in passes]
        walls[mode].append(sum(r["wall_s"] for r in res))
        if mode:
            layer_rows.append(layer_metrics([r["trace"] for r in res], suite_ids))
        else:
            cpus.append(sum(r["cpu_s"] for r in res))
            rss.append(max(r["peak_rss_mb"] for r in res))

    if not walls[False] or (traced and not layer_rows):
        print("error: no pass completed", file=sys.stderr)
        return 1

    if traced:
        first = layer_rows[0]
        metrics = {}
        for k in first:
            if unit(k) == "count":
                if any(row[k] != first[k] for row in layer_rows[1:]):
                    problems.append(f"{k} differs between traced passes")
                metrics[k] = {"value": first[k], "unit": "count"}
            else:
                metrics[k] = {"value": statistics.median(r[k] for r in layer_rows), "unit": "s"}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(walls[True]) - statistics.median(walls[False]),
            "unit": "s"}
        with open(os.path.join(OUT, "trace.json"), "w") as fh:
            json.dump({"workload": args.workload, "rounds": layer_rows}, fh, indent=1)
    else:
        with open(os.path.join(OUT, "run.json"), "w") as fh:
            json.dump({"workload": args.workload, "wall_s": walls[False],
                       "cpu_s": cpus, "setup_s": setups, "import_s": imports,
                       "peak_rss_mb": rss}, fh, indent=1)
        metrics = {
            "wall_s": {"value": statistics.median(walls[False]), "unit": "s"},
            "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
        }

    for msg in problems:
        print(f"incorrect: {msg}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
