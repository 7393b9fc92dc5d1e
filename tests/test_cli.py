import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from g2lab import cli
from g2lab.cli import main
from g2lab.reports import control_report
from g2lab.suites import SUITE_NAMES, suite_checks

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, args):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_algebra_suite_passes(capsys):
    code, out, err = run_cli(capsys, ["--suite", "algebra", "--json-only"])
    assert code == 0
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert len(lines) == len(suite_checks("algebra"))
    assert all(l["status"] == "pass" for l in lines)
    assert err == ""


def test_unknown_suite_exits_2(capsys):
    code, out, err = run_cli(capsys, ["--suite", "nope"])
    assert code == 2
    assert "unknown suite" in err


def test_bad_samples_exits_2(capsys, tmp_path):
    """Bad values, unknown options and abbreviated options are usage errors:
    `--h` reads as no abbreviation of `--help`, `--samp` none of `--samples`."""
    taken = tmp_path / "taken"
    taken.write_text("")
    for args in (["--samples", "0"], ["--seed", "-5"], ["--h", "nan"],
                 ["--h", "1e-3"], ["--samp", "20"],
                 ["--out", str(tmp_path / "missing" / "x.jsonl")],
                 ["--dump-samples", str(taken)]):
        code, out, err = run_cli(capsys, ["--suite", "gh"] + args)
        assert code == 2, args
        assert out == "", args      # no check ran
        assert err and "Traceback" not in err, args
    for args in (["-h"], ["--help"]):
        code, out, _ = run_cli(capsys, args)
        assert code == 0 and out.startswith("usage: g2lab"), args


def test_list_checks(capsys):
    code, out, _ = run_cli(capsys, ["--suite", "octonion", "--list"])
    assert code == 0
    ids = out.strip().splitlines()
    assert ids == [cid for cid, _ in suite_checks("octonion")]


def test_all_suites_are_registered():
    for name in SUITE_NAMES:
        assert suite_checks(name)
    assert set(SUITE_NAMES) >= {"algebra", "octonion", "gh", "g2-thm1",
                                "g2-thm2", "hypersurface", "negative-controls",
                                "all"}


def test_byte_identical_reruns(capsys):
    _, out1, _ = run_cli(capsys, ["--suite", "octonion", "--json-only",
                                  "--seed", "42"])
    _, out2, _ = run_cli(capsys, ["--suite", "octonion", "--json-only",
                                  "--seed", "42"])
    assert out1.encode() == out2.encode()


def test_out_file_and_summary(tmp_path, capsys):
    path = tmp_path / "report.jsonl"
    code, out, err = run_cli(capsys, ["--suite", "algebra", "--out", str(path)])
    assert code == 0
    assert path.read_text() == out
    assert "checks, 0 failed" in err


def test_dump_samples_writes_csv(tmp_path, capsys):
    dump = tmp_path / "dumps"
    code, *_ = run_cli(capsys, ["--suite", "gh", "--samples", "10",
                                "--json-only", "--dump-samples", str(dump)])
    assert code == 0
    files = os.listdir(dump)
    assert any(f.endswith(".csv") for f in files)
    content = (dump / files[0]).read_text().splitlines()
    assert content[0].startswith("h,")
    assert len(content) > 1


ORDER_STUDIES = {
    "gh": ("gh.flat-quotient", "gh.taub-nut"),
    "g2-thm1": ("g2-thm1.torsion-free", "g2-thm1.curvature"),
}


@pytest.mark.parametrize("suite", sorted(ORDER_STUDIES))
def test_dump_samples_writes_one_csv_per_order_study(tmp_path, capsys, suite):
    dump = tmp_path / "dumps"
    code, *_ = run_cli(capsys, ["--suite", suite, "--samples", "10",
                                "--json-only", "--dump-samples", str(dump)])
    assert code == 0
    assert sorted(os.listdir(dump)) == sorted(f"{cid}.csv"
                                              for cid in ORDER_STUDIES[suite])
    for name in os.listdir(dump):
        header, *rows = (dump / name).read_text().splitlines()
        assert header.startswith("h,"), name
        assert len(rows) == 3, name


def test_reports_have_no_timing_fields(capsys):
    _, out, _ = run_cli(capsys, ["--suite", "hypersurface", "--json-only"])
    for line in out.strip().splitlines():
        obj = json.loads(line)
        assert "runtime_ms" not in obj
        assert set(obj) <= {"check_id", "status", "params", "residuals",
                            "tolerance", "seed", "order_estimate"}


def test_gallery_registry_names_exist():
    from g2lab import gallery
    for name, entry in gallery.GALLERY.items():
        assert {"builder", "verdict"} <= set(entry)
        # every registered builder is a real callable in the module
        from g2lab import hypersurfaces
        assert hasattr(gallery, entry["builder"]) or \
            hasattr(hypersurfaces, entry["builder"])


def test_gallery_verdicts_surface_in_reports(capsys):
    code, out, _ = run_cli(capsys, ["--suite", "gh", "--samples", "20",
                                    "--json-only"])
    assert code == 0
    lines = [json.loads(l) for l in out.strip().splitlines()]
    tagged = [l for l in lines if "gallery" in l.get("params", {})]
    assert tagged
    for l in tagged:
        assert l["params"]["verdict"]


def test_suite_manifest_unique_ids():
    for name in SUITE_NAMES:
        ids = [cid for cid, _ in suite_checks(name)]
        assert len(set(ids)) == len(ids), name


def test_raising_check_reports_error_and_run_goes_on(capsys, monkeypatch):
    def check_raises(ctx):
        raise RuntimeError("sampler failed: domain too constrained")
    checks = [("demo.raises", check_raises)] + suite_checks("gh")
    monkeypatch.setattr(cli, "suite_checks", lambda name: checks)
    code, out, err = run_cli(capsys, ["--suite", "gh", "--samples", "20"])
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert code == 1
    assert [l["check_id"] for l in lines] == [cid for cid, _ in checks]
    raised = lines[0]
    assert raised["status"] == "error"
    assert raised["residuals"] == {} and raised["tolerance"] == 0.0
    assert raised["params"]["error"].startswith("RuntimeError: ")
    assert all(l["status"] == "pass" for l in lines[1:])
    assert "Traceback" not in err
    assert "demo.raises raised RuntimeError" in err
    assert f"{len(lines)} checks, 0 failed, 1 errors" in err


@pytest.mark.parametrize("samples", ["1", "25"])
def test_negative_controls_hold_at_small_budgets(capsys, samples):
    code, out, _ = run_cli(capsys, ["--suite", "negative-controls", "--samples",
                                    samples, "--json-only"])
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert len(lines) == len(suite_checks("negative-controls"))
    assert code == 0, [l["check_id"] for l in lines if l["status"] != "pass"]


SHARED_ARGS = ["--json-only", "--samples", "20"]


@pytest.fixture(scope="module")
def all_lines():
    """{check id: JSON line} of one `--suite all` run at `SHARED_ARGS`."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["--suite", "all"] + SHARED_ARGS)
    return {json.loads(l)["check_id"]: l for l in out.getvalue().strip().splitlines()}


def test_shared_results_match_suites_run_alone(capsys, all_lines):
    """Work shared across checks in one run (bundles, the Taub-NUT torsion
    study, aliased controls) gives each check the line it gets on its own."""
    for suite in ("g2-thm1", "g2-thm2", "gh", "hypersurface", "negative-controls"):
        _, out, _ = run_cli(capsys, ["--suite", suite] + SHARED_ARGS)
        for line in out.strip().splitlines():
            assert line == all_lines.get(json.loads(line)["check_id"])


def test_summary_worst_residual_keeps_nan(capsys, monkeypatch):
    """The stderr table's worst residual is NaN when any residual is, not only
    the first."""
    def check_demo(ctx):
        return control_report({"a": 0.5, "b": float("nan")}, 0.01)
    monkeypatch.setattr(cli, "suite_checks", lambda name: [("demo.nan", check_demo)])
    code, out, err = run_cli(capsys, ["--suite", "gh"])
    assert code == 1
    row = next(l for l in err.splitlines() if l.startswith("demo.nan"))
    assert row.split()[1:3] == ["fail", "nan"]


def test_aliases_share_their_source_line(all_lines):
    """A function registered under two ids gives both ids the same line,
    but for check_id."""
    checks = suite_checks("all")
    source = {}
    for cid, fn in checks:
        source.setdefault(fn, cid)
    aliases = {cid: source[fn] for cid, fn in checks if source[fn] != cid}
    assert sorted(aliases) == ["g2-thm2.torsion-free", "g2-thm2.weak-monopole",
                               "negative.ellipsoid", "negative.nonharmonic-pole"]
    for alias, src in aliases.items():
        assert all_lines[alias] == all_lines[src].replace(f'"check_id":"{src}"',
                                                      f'"check_id":"{alias}"', 1)


def isolated(script: str, openblas_threads=None) -> list:
    """Run `script` in a fresh `python -I` with `src/` first on its path and
    OPENBLAS_NUM_THREADS set to `openblas_threads` (removed when None);
    return the words it printed to stderr."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    prelude = f"import sys\nsys.path.insert(0, {str(SRC)!r})\n"
    run = subprocess.run([sys.executable, "-I", "-c", prelude + script],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stderr.split()


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
def test_the_cli_process_runs_one_thread():
    """OpenBLAS starts no worker thread in a g2lab process, before or after
    a run that calls BLAS and LAPACK."""
    script = ("import os\n"
              "import g2lab.cli\n"
              "threads = len(os.listdir('/proc/self/task'))\n"
              "code = g2lab.cli.main(['--suite', 'gh', '--samples', '5', '--json-only'])\n"
              "print(code, threads, len(os.listdir('/proc/self/task')), file=sys.stderr)\n")
    assert isolated(script) == ["0", "1", "1"]


def test_a_preset_blas_thread_count_is_kept():
    script = ("import os\n"
              "import g2lab.cli\n"
              "print(os.environ['OPENBLAS_NUM_THREADS'], file=sys.stderr)\n")
    assert isolated(script, openblas_threads="2") == ["2"]


def test_importing_the_package_does_not_load_numpy():
    script = ("import g2lab\n"
              "print('numpy' in sys.modules, file=sys.stderr)\n")
    assert isolated(script) == ["False"]
