"""Command-line front end: run check suites, emit JSON-lines reports.

One report per line on stdout, stamped with the check's registry id and the
run's seed (a check listed under two ids runs once); a human summary table
with each check's time on stderr (suppressed by --json-only).  A check that
raises is reported with status "error" and the run goes on.  Exit code 0 when
every check passes, 1 when any fails or errs, 2 on usage errors.  Two runs
with the same seed and configuration produce byte-identical stdout.

The process runs OpenBLAS on one thread (OPENBLAS_NUM_THREADS=1), unless that
variable is already set in the environment.  Importing g2lab as a library
sets nothing.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import time
import traceback

# One BLAS thread.  Every BLAS and LAPACK call of a run is on a 7x7 matrix or
# smaller, or a stack of them, which OpenBLAS runs on the calling thread; the
# worker thread that `import numpy` starts only busy-waits, and its spin is
# billed to this process.  With one thread a `--suite algebra` and a `--suite
# octonion` process together take 0.078 s of CPU in place of 0.116 s, equal to
# their wall time (medians of 10 g2bench pairs, 2-vCPU VM, numpy 2.4.6,
# OpenBLAS 0.3.31).  OpenBLAS reads the variable when numpy loads, so this
# precedes every import that reaches numpy; a value already set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from .reports import CheckReport, SuiteContext
from .suites import SUITE_NAMES, suite_checks


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="g2lab", allow_abbrev=False,
        description="Run certification and verification suites; JSON lines on "
                    "stdout, summary table on stderr.")
    p.add_argument("--suite", default="all",
                   help=f"one of: {', '.join(SUITE_NAMES)} (default: all)")
    p.add_argument("--seed", type=int, default=42, help="non-negative sampler seed")
    p.add_argument("--samples", type=int, default=200,
                   help="global sample budget; per-check counts scale with it")
    p.add_argument("--json-only", action="store_true",
                   help="suppress the human summary table")
    p.add_argument("--list", action="store_true", dest="list_checks",
                   help="list the checks of the selected suite and exit")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="also write the JSON lines to FILE")
    p.add_argument("--dump-samples", default=None, metavar="DIR",
                   help="write per-check CSV sample tables into DIR")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2

    try:
        checks = suite_checks(args.suite)
    except KeyError:
        print(f"error: unknown suite {args.suite!r}; known: "
              f"{', '.join(SUITE_NAMES)}", file=sys.stderr)
        return 2
    if args.samples <= 0 or args.seed < 0:
        print("error: --samples must be positive, --seed non-negative",
              file=sys.stderr)
        return 2

    if args.list_checks:
        for check_id, _ in checks:
            print(check_id)
        return 0

    # output paths are checked before any check runs
    try:
        if args.dump_samples:
            os.makedirs(args.dump_samples, exist_ok=True)
        out_fh = open(args.out, "w") if args.out else None
    except OSError as exc:
        print(f"error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2

    ctx = SuiteContext(seed=args.seed, samples=args.samples, dump_dir=args.dump_samples)
    rows = []   # (check_id, report, ms); an id registered twice shares one run
    try:
        for check_id, fn in checks:
            t0 = time.perf_counter()
            try:
                rep = ctx.once(fn.__name__, lambda: fn(ctx))
            except Exception as exc:
                where = traceback.extract_tb(exc.__traceback__)[-1]
                print(f"error: {check_id} raised {type(exc).__name__} at "
                      f"{os.path.basename(where.filename)}:{where.lineno} "
                      f"in {where.name}", file=sys.stderr)
                rep = CheckReport(status="error", residuals={}, tolerance=0.0,
                                  params={"error": f"{type(exc).__name__}: {exc}"})
            rows.append((check_id, rep, int((time.perf_counter() - t0) * 1000)))
            line = rep.json_line(check_id, ctx.seed)
            print(line)
            if out_fh:
                out_fh.write(line + "\n")
    finally:
        if out_fh:
            out_fh.close()

    if args.dump_samples:
        for check_id, (header, table) in ctx.sample_rows.items():
            path = os.path.join(args.dump_samples, check_id.replace("/", "_") + ".csv")
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                writer.writerows(table)

    if not args.json_only:
        width = max(len(check_id) for check_id, _, _ in rows) + 2
        print(f"\n{'check':<{width}}{'status':<8}{'worst residual':<16}"
              f"{'order':<10}{'ms':>6}", file=sys.stderr)
        for check_id, r, ms in rows:
            worst = np.max(list(r.residuals.values())) if r.residuals else 0.0
            order = ("" if r.order_estimate is None
                     else (r.order_estimate if isinstance(r.order_estimate, str)
                           else f"{r.order_estimate:.2f}"))
            print(f"{check_id:<{width}}{r.status:<8}{worst:<16.3e}"
                  f"{order:<10}{ms:>6}", file=sys.stderr)
        n_fail = sum(1 for _, r, _ in rows if r.status == "fail")
        n_err = sum(1 for _, r, _ in rows if r.status == "error")
        print(f"\n{len(rows)} checks, {n_fail} failed, {n_err} errors",
              file=sys.stderr)

    return 1 if any(r.status in ("fail", "error") for _, r, _ in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
