"""The whole report stream, and the sample CSVs of the default run, equal the
golden files in `tests/golden/` byte for byte.

A change that moves a number, even in its last bit, fails here until the
golden files are written again (`PYTHONPATH=src python tests/golden/regen.py`),
so their diff names every value that moved.  Float bytes depend on the host
as well as on the code: where the stamp of the running host differs from
`tests/golden/stamp.json`, the test compares what cannot depend on it (the
statuses, the lines of the exact suites, the keys of every line and the CSV
headers) and skips, naming what it left uncompared.
"""

import importlib.util
import json
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

