"""Seeded draws.  Every seeded value in g2lab comes from `random.Random(seed)`:
no run loads numpy.random, no source file names it, and the checks that
draw, and the negative controls, hold at any seed and budget the command
line accepts."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from g2lab import suites
from g2lab.reports import SuiteContext

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "g2lab"

# the checks that read drawn values: exact integers and rationals, and the
# oracle's cubic coefficients
DRAWING = ("octonion.table", "octonion.cross-identities",
           "octonion.associative-planes", "oracle-pairs.torsion")


def test_a_whole_run_does_not_load_numpy_random():
    script = ("import sys\n"
              "from g2lab.cli import main\n"
              "code = main(['--suite', 'all', '--samples', '1', '--json-only'])\n"
              "print(code, 'numpy.random' in sys.modules, file=sys.stderr)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stderr.split() == ["0", "False"], run.stderr


def _numpy_random_lines(tree: ast.AST) -> list:
    """Line numbers of `np.random`/`numpy.random` attributes and of imports
    of numpy.random."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            hit = (node.attr == "random" and isinstance(node.value, ast.Name)
                   and node.value.id in ("np", "numpy"))
        elif isinstance(node, ast.Import):
            hit = any(a.name.startswith("numpy.random") for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            hit = module.startswith("numpy.random") or (
                module == "numpy" and any(a.name == "random" for a in node.names))
        else:
            hit = False
        if hit:
            lines.append(node.lineno)
    return lines


def test_no_source_file_refers_to_numpy_random():
    found = [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
             for line in _numpy_random_lines(ast.parse(path.read_text()))]
    assert not found, f"numpy.random referred to at {found}"


def test_the_reference_finder_sees_each_form():
    src = ("import numpy as np\nimport numpy.random\nfrom numpy import random\n"
           "from numpy.random import default_rng\nrng = np.random.default_rng(1)\n"
           "import random\nr = random.Random(1)\n")
    assert _numpy_random_lines(ast.parse(src)) == [2, 3, 4, 5]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 63 - 1))
def test_drawing_checks_pass_at_any_seed(seed):
    checks = dict(suites.suite_checks("all"))
    ctx = SuiteContext(seed=seed, samples=1, dump_dir=None)
    for check_id in DRAWING:
        rep = checks[check_id](ctx)
        assert rep.status == "pass", (check_id, seed, rep.residuals, rep.params)


@pytest.mark.parametrize("seed", [28, 537])
def test_the_monopole_hypothesis_holds_where_its_step_truncated(seed):
    """At a step of 1e-3 the h^2 truncation of dA near the string standoff
    read 1.11e-4 (seed 28) and 1.39e-4 (seed 537), past the 1e-4 tolerance."""
    check = dict(suites.suite_checks("all"))["g2-thm2.weak-monopole"]
    rep = check(SuiteContext(seed=seed, samples=200, dump_dir=None))
    assert rep.status == "pass", rep.residuals


CONTROLS = suites.suite_checks("negative-controls")


# At --samples 1 --seed 3 the one point lies at r < 0.5 from the pole, where
# the perturbed potential's violation eps / v, v = 1 + 1/(2r), is small.
@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 63 - 1), st.sampled_from([1, 25, 200]))
@example(3, 1)
def test_negative_controls_pass_at_any_seed(seed, samples):
    ctx = SuiteContext(seed=seed, samples=samples, dump_dir=None)
    for check_id, check in CONTROLS:
        rep = check(ctx)
        assert rep.status == "pass", (check_id, seed, samples, rep.residuals, rep.params)
