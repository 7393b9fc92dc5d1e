"""One cold pass of g2lab, started by run.py in a fresh interpreter.

    python3 -I g2bench/child.py SPAWN_T RESULT_FILE TRACE [G2LAB_ARG ...]

SPAWN_T is the parent's `time.monotonic()` just before it spawned this
process.  The pass imports `g2lab.cli` from `src/` of the checkout this file
sits in, calls `g2lab.cli.main` with the remaining arguments (the JSON lines go
to stdout as usual), and writes its own measurements to RESULT_FILE as JSON:

    setup_s      spawn until `import g2lab.cli` returned
    import_s     the `import g2lab.cli` statement alone, timed in this process
    wall_s       wall time inside `g2lab.cli.main`
    cpu_s        user + system CPU time of this process inside `main`
    peak_rss_mb  peak resident memory of this process (VmHWM)
    rc           the return code of `main`
    trace        the per-layer table (TRACE = 1 only)

With no G2LAB_ARG the pass stops after the import: a set-up probe.  The exit
code is main's, so a crash shows as a traceback and a nonzero exit.

Peak memory is VmHWM from /proc/self/status, the high-water mark of this
process's own address space.  `ru_maxrss` is not used: exec folds the spawning
process's peak into it, so it reads the parent's peak whenever that is higher.
"""

import json
import os
import resource
import sys
import time


def peak_rss_kb() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    spawn_t = float(sys.argv[1])
    result_file = sys.argv[2]
    traced = sys.argv[3] == "1"
    argv = sys.argv[4:]
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(bench_dir), "src")
    sys.path.insert(0, src)

    t_import = time.perf_counter()
    import g2lab.cli
    import_s = time.perf_counter() - t_import
    setup_s = time.monotonic() - spawn_t

    if not os.path.abspath(g2lab.cli.__file__).startswith(src + os.sep):
        print(f"g2lab was imported from {g2lab.cli.__file__}, not from {src}",
              file=sys.stderr)
        return 3

    out = {"setup_s": setup_s, "import_s": import_s}
    if argv:
        tracer = None
        if traced:
            sys.path.insert(0, bench_dir)
            import layers
            tracer = layers.install()
        entry = g2lab.cli.main
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        rc = entry(argv)
        wall = time.perf_counter() - t0
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        sys.stdout.flush()
        out.update(wall_s=wall,
                   cpu_s=(ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
                   peak_rss_mb=peak_rss_kb() / 1024.0, rc=rc)
        if tracer is not None:
            out["trace"] = tracer.table()
    else:
        rc = 0
    with open(result_file, "w") as fh:
        json.dump(out, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
