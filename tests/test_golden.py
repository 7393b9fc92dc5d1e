"""The whole report stream, and the sample CSVs of the default run, equal the
golden files in `tests/golden/` byte for byte.

A change that moves a number, even in its last bit, fails here until the
golden files are written again (`PYTHONPATH=src python tests/golden/regen.py`),
so their diff names every value that moved.  Float bytes depend on the host
as well as on the code: where the stamp of the running host differs from
`tests/golden/stamp.json`, the test compares what cannot depend on it (the
statuses, the lines of the exact suites, the keys of every line and the CSV
headers) and skips, naming what it left uncompared.  The stamp records the
SIMD extensions numpy dispatches to and the core OpenBLAS chose, so a host
with the same versions and another CPU takes that second route.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_regen", GOLDEN / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


def _keys(line: dict) -> tuple:
    return (line["check_id"], sorted(line), sorted(line["params"]),
            sorted(line["residuals"]))


def _headers(csvs: dict) -> dict:
    return {name: data.split(b"\n", 1)[0] for name, data in csvs.items()}


@pytest.mark.parametrize("name", list(regen.RUNS))
def test_stream_equals_the_golden_files(name, tmp_path):
    dumped = name == regen.DUMPED_RUN
    code, out = regen.stream(regen.RUNS[name], str(tmp_path) if dumped else None)
    assert code == 0
    golden = (GOLDEN / f"{name}.jsonl").read_bytes().decode()
    csvs = regen.csv_files(tmp_path) if dumped else {}
    golden_csvs = regen.csv_files(GOLDEN / "csv") if dumped else {}

    host, recorded = regen.stamp(), json.loads((GOLDEN / "stamp.json").read_text())
    if host == recorded:
        assert out.splitlines(keepends=True) == golden.splitlines(keepends=True)
        assert csvs == golden_csvs
        return

    got = [json.loads(line) for line in out.splitlines()]
    want = [json.loads(line) for line in golden.splitlines()]
    assert [(g["check_id"], g["status"]) for g in got] == \
        [(w["check_id"], w["status"]) for w in want]
    exact = [i for i, w in enumerate(want)
             if w["check_id"].split(".")[0] in regen.EXACT_SUITES]
    assert exact
    assert [out.splitlines()[i] for i in exact] == [golden.splitlines()[i] for i in exact]
    assert [_keys(g) for g in got] == [_keys(w) for w in want]
    assert _headers(csvs) == _headers(golden_csvs)
    differs = {k: (recorded.get(k), v) for k, v in host.items() if recorded.get(k) != v}
    pytest.skip(f"host stamp differs from the golden one {differs}: the float values "
                f"of the sampled suites' lines and of the CSV rows were not compared")



# The dispatch of a CPU without AVX-512, for the numpy of the child process only
AVX2_DISPATCH = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}


def test_the_golden_compare_passes_or_skips_under_another_dispatch():
    """Under an AVX2-only dispatch the float bytes may move (a quotient
    residual moves by 1.2e-8 relative), so the golden test must pass, or skip
    naming the stamp difference, and never fail."""
    root = GOLDEN.parents[1]
    env = dict(os.environ, **AVX2_DISPATCH,
               PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    probe = subprocess.run([sys.executable, "-c", "import numpy"], capture_output=True,
                           text=True, env=env, timeout=60)
    if probe.returncode != 0:
        pytest.skip(f"numpy refuses {AVX2_DISPATCH} on this host: "
                    f"{probe.stderr.strip().splitlines()[-1]}")
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rs", "-p", "no:cacheprovider",
                          str(Path(__file__)), "-k", "test_stream_equals_the_golden_files"],
                         capture_output=True, text=True, env=env, cwd=root, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    assert " failed" not in run.stdout and " error" not in run.stdout, run.stdout
    assert "skipped" not in run.stdout or "host stamp differs" in run.stdout, run.stdout
