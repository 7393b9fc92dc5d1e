"""Write the golden report streams that `tests/test_golden.py` compares with.

    PYTHONPATH=src python tests/golden/regen.py

Runs `g2lab.cli.main` in process at each configuration of `RUNS` and writes
its stdout to `<name>.jsonl`, the `--dump-samples` CSVs of the default run to
`csv/`, and the host's stamp to `stamp.json`.  A change that moves a number
regenerates these files; their diff names every value that moved.
"""

from __future__ import annotations

import contextlib
import io
import json
import platform
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent

# name -> command-line arguments of one `--suite all` run
RUNS = {
    "defaults": ["--suite", "all", "--json-only"],
    "samples800-seed7": ["--suite", "all", "--json-only", "--samples", "800",
                         "--seed", "7"],
    "samples1-seed3": ["--suite", "all", "--json-only", "--samples", "1",
                       "--seed", "3"],
}
DUMPED_RUN = "defaults"     # the run whose --dump-samples CSVs are kept
EXACT_SUITES = ("algebra", "octonion")   # their lines hold no sampled float


def stamp() -> dict:
    """What, besides the code, decides the float bytes of a run."""
    import numpy as np    # here, so that `g2lab.cli` sets one BLAS thread first
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}",
            "machine": platform.machine()}


def stream(args: list, dump_dir: str | None = None) -> tuple:
    """(exit code, stdout) of `g2lab.cli.main(args)`, run in this process;
    with `dump_dir`, the run also writes its CSVs there."""
    from g2lab.cli import main
    if dump_dir is not None:
        args = args + ["--dump-samples", dump_dir]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(args)
    return code, out.getvalue()


def csv_files(directory) -> dict:
    """{file name: bytes} of the CSVs in `directory`."""
    return {p.name: p.read_bytes() for p in sorted(Path(directory).glob("*.csv"))}


def main() -> int:
    shutil.rmtree(HERE / "csv", ignore_errors=True)
    (HERE / "csv").mkdir()
    for name, args in RUNS.items():
        with tempfile.TemporaryDirectory() as tmp:
            code, out = stream(args, tmp if name == DUMPED_RUN else None)
            if code != 0:
                print(f"{name}: g2lab exited {code}; nothing written", file=sys.stderr)
                return 1
            (HERE / f"{name}.jsonl").write_text(out)
            for file_name, data in csv_files(tmp).items():
                (HERE / "csv" / file_name).write_bytes(data)
    (HERE / "stamp.json").write_text(json.dumps(stamp(), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
