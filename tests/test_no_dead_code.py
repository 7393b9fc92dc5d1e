"""Every function and class defined in the package has a caller in the
program, and the package keeps one implementation of each primitive.

A function counts as called when a whole run, `g2lab --suite all --samples
1`, calls it: the run executes under a profile hook, and every `def` of the
package, nested ones included, must have received a call.  A class counts as
used when its name appears in the package's code outside its own body; a
string, a docstring or a re-export in `__init__` is no use.  Dunder names are
exempt: the language calls them.  A module-level import counts as used when
the module reads the name it binds.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "g2lab"

# Runs the program under a profile hook set before g2lab is imported, and
# prints (file, first line, name) of every package code object that
# received a call.
PROFILED_RUN = """
import json, sys
package, called = sys.argv[1], set()

def hook(frame, event, arg):
    code = frame.f_code
    if event == "call" and code.co_filename.startswith(package):
        called.add((code.co_filename, code.co_firstlineno, code.co_name))

sys.setprofile(hook)
from g2lab.cli import main
code = main(["--suite", "all", "--samples", "1", "--json-only"])
sys.setprofile(None)
print(json.dumps([code, sorted(called)]), file=sys.stderr)
"""


def _called_in_a_run() -> set:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", PROFILED_RUN, str(PACKAGE) + os.sep],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    code, called = json.loads(run.stderr.strip().splitlines()[-1])
    assert code == 0, "the profiled run did not pass"
    return {tuple(key) for key in called}


def _functions(code):
    """The function code objects nested in `code`, at any depth: those with
    optimized locals, less comprehensions and lambdas."""
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            if const.co_flags & 0x1 and not const.co_name.startswith("<"):
                yield const
            yield from _functions(const)


def uncalled(called: set) -> list:
    """(file, line, name) of each non-dunder `def` of the package whose code
    object is not in `called`."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for code in _functions(compile(path.read_text(), str(path), "exec")):
            key = (code.co_filename, code.co_firstlineno, code.co_name)
            dunder = code.co_name.startswith("__") and code.co_name.endswith("__")
            if not dunder and key not in called:
                out.append((path.name, code.co_firstlineno, code.co_name))
    return out


def unnamed_classes() -> list:
    """Classes of the package whose name no code of the package outside
    `__init__` and their own body refers to."""
    # every tree stays alive, so the ids of their nodes stay distinct
    trees = [(path.name, ast.parse(path.read_text())) for path in sorted(PACKAGE.glob("*.py"))]
    refs, classes = {}, []
    for name, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                classes.append((name, node))
            word = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute) else None)
            if word is not None and name != "__init__.py":
                refs.setdefault(word, set()).add(id(node))
    return [(path, cls.name) for path, cls in classes
            if not refs.get(cls.name, set()) - set(map(id, ast.walk(cls)))]


def test_every_definition_is_referenced():
    missing = uncalled(_called_in_a_run())
    assert not missing, f"defined but never called by a whole run: {missing}"
    unnamed = unnamed_classes()
    assert not unnamed, f"classes no package code refers to: {unnamed}"


def unread_imports(tree: ast.Module) -> list:
    """(line, bound name) of each module-level import whose name the module
    never reads; `from __future__` binds nothing."""
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [(node.lineno, bound) for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for bound in (a.asname or a.name.split(".")[0] for a in node.names)
            if bound not in read]


def test_every_import_is_read():
    found = [(path.name, line, name) for path in sorted(PACKAGE.glob("*.py"))
             for line, name in unread_imports(ast.parse(path.read_text()))]
    assert not found, f"imports the module never reads: {found}"


def test_the_import_check_sees_a_planted_import():
    """An unread module, as `cli` kept `math` once `--h` was gone, and an
    unread name of a `from` import; a dotted import binds its first name, and
    an annotation reads a name."""
    src = ("from __future__ import annotations\n"
           "import math\n"
           "import os.path\n"
           "import numpy as np\n"
           "from typing import Callable\n"
           "from .fields import blocks, sup\n"
           "def f(x: Callable):\n"
           "    return sup(os.path.join(x), np.abs)\n")
    assert unread_imports(ast.parse(src)) == [(2, "math"), (6, "blocks")]


def test_the_call_check_sees_an_uncalled_function():
    """A run that calls nothing leaves every non-dunder `def` uncalled:
    functions, methods (`SuiteContext.once`) and nested functions (the `at`
    of each verifier), but not `__init__`."""
    names = {name for _, _, name in uncalled(set())}
    assert {"main", "once", "sup", "at"} <= names
    assert "__init__" not in names


def _body_key(node) -> str:
    """`ast.dump` of a function's arguments and body, docstring dropped."""
    body = node.body
    if (body and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        body = body[1:]
    return ast.dump(node.args) + "".join(ast.dump(stmt) for stmt in body)


def test_no_two_functions_share_a_body():
    """One implementation per primitive: no function or method repeats the
    arguments and body of another under a different name."""
    seen = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        scopes = [(tree, "")] + [(n, n.name + ".") for n in ast.walk(tree)
                                 if isinstance(n, ast.ClassDef)]
        for scope, prefix in scopes:
            for node in ast.iter_child_nodes(scope):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = f"{path.stem}.{prefix}{node.name}"
                    seen.setdefault(_body_key(node), []).append(name)
    copies = sorted(names for names in seen.values() if len(names) > 1)
    assert not copies, f"functions with identical bodies: {copies}"


def _is_dataclass(node) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _init_false(value) -> bool:
    return (isinstance(value, ast.Call)
            and any(k.arg == "init" and isinstance(k.value, ast.Constant)
                    and k.value.value is False for k in value.keywords))


def _settings() -> list:
    """(callable name, setting name, positional slot or None) for every
    parameter with a default and every dataclass field with a default."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        methods = set()
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    static = any(getattr(d, "id", "") == "staticmethod"
                                 for d in node.decorator_list)
                    if not static:
                        methods.add(node)
            if _is_dataclass(cls):
                slot = 0
                for node in cls.body:
                    if not (isinstance(node, ast.AnnAssign)
                            and isinstance(node.target, ast.Name)):
                        continue
                    if _init_false(node.value):
                        continue
                    if node.value is not None:
                        out.append((cls.name, node.target.id, slot))
                    slot += 1
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            positional = node.args.posonlyargs + node.args.args
            shift = 1 if node in methods else 0
            first = len(positional) - len(node.args.defaults)
            for i in range(first, len(positional)):
                out.append((node.name, positional[i].arg, i - shift))
            for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
                if default is not None:
                    out.append((node.name, arg.arg, None))
    return out


def _calls_by_name() -> dict:
    """{called name: [(keyword names, number of positional arguments)]} over
    every call in the package.  A starred argument counts as filling every
    slot."""
    calls = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name is None:
                continue
            width = (float("inf") if any(isinstance(a, ast.Starred) for a in node.args)
                     else len(node.args))
            keywords = {k.arg for k in node.keywords if k.arg}
            calls.setdefault(name, []).append((keywords, width))
    return calls


def _sets(call, name: str, slot) -> bool:
    keywords, width = call
    return name in keywords or (slot is not None and width > slot)


# Settings that only a caller outside the package sets: the tests drive the
# command line through `cli.main(argv)`, the installed script calls it bare.
SET_OUTSIDE = {("main", "argv")}


def default_findings(settings, calls) -> tuple:
    """(unset, overridden): the settings with a default that no call in the
    package sets, and those that every call sets, so that no call relies on
    the default.  `dataclasses.replace` sets fields by keyword."""
    replaced = set().union(*(keywords for keywords, _ in calls.get("replace", [])))
    unset, overridden = [], []
    for owner, name, slot in settings:
        own = calls.get(owner, [])
        if not (any(_sets(c, name, slot) for c in own) or name in replaced
                or (owner, name) in SET_OUTSIDE):
            unset.append((owner, name))
        if own and all(_sets(c, name, slot) for c in own):
            overridden.append((owner, name))
    return sorted(unset), sorted(overridden)


def test_every_default_is_set():
    """One value per setting: a parameter or dataclass field with a default
    is passed, by keyword or by position, by some call in the package, and
    left to its default by another.  A value that only tests set is a knob
    the program never turns, and a value no call sets is a constant; a
    default that every call overrides is a second copy of a value that lives
    at each call, and a default that every call passes is the same number in
    two places."""
    unset, overridden = default_findings(_settings(), _calls_by_name())
    assert not unset, f"defaults that no call sets: {unset}"
    assert not overridden, f"defaults that every call overrides: {overridden}"


def test_the_default_check_sees_a_planted_default():
    """A seed default that every call overrides, as `sample_points` had, and
    one no call sets."""
    settings = _settings() + [("sample_points", "seed", 3), ("hat", "scale", 1)]
    unset, overridden = default_findings(settings, _calls_by_name())
    assert unset == [("hat", "scale")]
    assert overridden == [("sample_points", "seed")]


def _function_arguments(trees) -> dict:
    """{(function, parameter): [what each call passes there]} over the
    module-level functions of `trees` and every call of them in `trees`, by
    name or as a module attribute.  A call passes the name of a module-level
    function it hands over as that argument, or None for any other value and
    for an argument it leaves out; a starred argument ends the positions."""
    params = {node.name: [a.arg for a in node.args.posonlyargs + node.args.args
                          + node.args.kwonlyargs]
              for tree in trees for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}

    def passed(value):
        name = (value.id if isinstance(value, ast.Name)
                else value.attr if isinstance(value, ast.Attribute) else None)
        return name if name in params else None

    out = {(f, arg): [] for f, args in params.items() for arg in args}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            f = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if f not in params:
                continue
            given = {k.arg: passed(k.value) for k in node.keywords if k.arg}
            for arg, value in zip(params[f], node.args):
                if isinstance(value, ast.Starred):
                    break
                given[arg] = passed(value)
            for arg in params[f]:
                out[(f, arg)].append(given.get(arg))
    return out


def fixed_function_arguments(passed: dict) -> list:
    """(function, parameter, argument) wherever every call passes the same
    module-level function as the argument."""
    return sorted((f, arg, values[0]) for (f, arg), values in passed.items()
                  if values and values[0] is not None and values.count(values[0]) == len(values))


def test_no_parameter_takes_one_function():
    """One value is no setting: a parameter to which every call of the
    package hands the same function of the package is a knob the program
    never turns, as the base metric `k6` of the builder was while every call
    passed the flat product; the function belongs in the body."""
    trees = [ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))]
    found = fixed_function_arguments(_function_arguments(trees))
    assert not found, f"parameters that every call hands the same function: {found}"


def test_the_function_check_sees_a_planted_knob():
    """The builder's base metric, passed by position and by keyword, is
    caught; a parameter that takes two functions, or a function at one call
    and another value at the next, is a setting."""
    src = ("def flat_product_metric(x):\n    return x\n"
           "def curved(x):\n    return x\n"
           "def g2_build_thm1(k6, mono, domain6):\n    return k6(mono)\n"
           "def residual(mono, k6, samples):\n    return k6(samples)\n"
           "def sampled(field, samples):\n    return field(samples)\n"
           "a = g2_build_thm1(flat_product_metric, m, d)\n"
           "b = g2_build_thm1(k6=flat_product_metric, mono=m, domain6=d)\n"
           "c = residual(m, flat_product_metric, s) + residual(m, curved, s)\n"
           "e = sampled(curved, s) + sampled(lambda x: x, s)\n")
    passed = _function_arguments([ast.parse(src)])
    assert fixed_function_arguments(passed) == [("g2_build_thm1", "k6", "flat_product_metric")]


def _owned(tree: ast.AST):
    """(name of the nearest enclosing function or None, node) for every
    syntax node of `tree`."""
    stack = [(tree, None)]
    while stack:
        node, owner = stack.pop()
        yield owner, node
        inner = (node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                 else owner)
        stack.extend((child, inner) for child in ast.iter_child_nodes(node))


def _nodes_with_owner():
    """(path, name of the nearest enclosing function or None, node) for every
    syntax node of the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        for owner, node in _owned(ast.parse(path.read_text())):
            yield path, owner, node


def _calls(node, name: str) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == name)


def test_no_hand_written_sup():
    """One reduction per residual: a sup over samples is `fields.sup`, which
    keeps a NaN; `x = max(x, ...)` drops it (max(0.0, nan) is 0.0)."""
    copies = []
    for path, _, node in _nodes_with_owner():
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and _calls(node.value, "max")
                and any(isinstance(a, ast.Name) and a.id == node.targets[0].id
                        for a in node.value.args)):
            copies.append((path.name, node.lineno))
    assert not copies, f"hand-written sup accumulators: {sorted(copies)}"


def _literal_seed_calls(tree: ast.AST) -> list:
    """Line numbers of the `sample_points` calls that pass a literal seed,
    by keyword or in its positional slot."""
    return [node.lineno for node in ast.walk(tree)
            if _calls(node, "sample_points")
            and any(isinstance(a, ast.Constant)
                    for a in node.args[3:4] + [k.value for k in node.keywords
                                                if k.arg == "seed"])]


def test_every_sampled_point_comes_from_the_run_seed():
    """One source of points: a literal seed draws points that no --seed
    reaches, so the check reading them ignores the run's seed."""
    found = [(path.name, line) for path in sorted(PACKAGE.glob("*.py"))
             for line in _literal_seed_calls(ast.parse(path.read_text()))]
    assert not found, f"sample_points with a literal seed: {found}"


def test_the_seed_check_sees_a_planted_literal():
    """A literal seed by keyword, as the builder's precheck had, and one by
    position; the run's seed is no literal."""
    src = ("pre = sample_points(dom, 10, cfg, seed=911)\n"
           "pre = sample_points(dom, 10, cfg, 7)\n"
           "pts = sample_points(dom, 10, cfg, seed=ctx.seed)\n")
    assert _literal_seed_calls(ast.parse(src)) == [1, 2]


def _inversion_counts(tree: ast.AST) -> list:
    """(line, owner) of each inversion count in `tree`: a `sum` over a
    comprehension whose items are `>` comparisons."""
    return [(node.lineno, owner) for owner, node in _owned(tree)
            if _calls(node, "sum") and node.args
            and isinstance(node.args[0], (ast.GeneratorExp, ast.ListComp))
            and isinstance(node.args[0].elt, ast.Compare)
            and any(isinstance(op, ast.Gt) for op in node.args[0].elt.ops)]


def test_one_inversion_count():
    """One sign of a permutation: in the package only
    `rational.sort_with_sign` counts inversions; every other sign of a form
    comes from it or from `rational.alternating_table`."""
    found = sorted((path.name, owner) for path in PACKAGE.glob("*.py")
                   for _, owner in _inversion_counts(ast.parse(path.read_text())))
    assert found == [("rational.py", "sort_with_sign")], \
        f"inversion counts outside rational.sort_with_sign: {found}"


def test_the_inversion_check_sees_a_planted_count():
    """The count that `g2construct._structure_table` once kept for itself;
    a `sum` of values is no count."""
    src = ("def _structure_table(term, k, w):\n"
           "    total = sum(x * x for x in w)\n"
           "    inversions = sum(term[i] > term[j] for i, j in combinations(range(k + 1), 2))\n"
           "    return total, inversions\n")
    assert _inversion_counts(ast.parse(src)) == [(3, "_structure_table")]


def test_one_order_study():
    """One order study per step ladder: in the package only
    `suites._order_study` estimates an order."""
    copies = sorted((path.name, node.lineno, owner)
                    for path, owner, node in _nodes_with_owner()
                    if _calls(node, "estimate_order") and owner != "_order_study")
    assert not copies, f"estimate_order outside suites._order_study: {copies}"


def test_check_ids_live_in_the_registry():
    """One owner per check id: `suites.SUITES` names every check, and the
    runner stamps the id on its line.  A registered id appears as a string
    literal in the package only in `SUITES` and as the name (CSV file) of an
    order study."""
    from g2lab.suites import SUITES
    ids = {cid for checks in SUITES.values() for cid, _ in checks}
    copies = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = set()
        for node in ast.walk(tree):
            if (isinstance(node, ast.Assign)
                    and any(getattr(t, "id", "") == "SUITES" for t in node.targets)):
                allowed.update(map(id, ast.walk(node.value)))
            if _calls(node, "_order_study") and len(node.args) > 1:
                allowed.add(id(node.args[1]))
        copies += [(path.name, node.lineno, node.value) for node in ast.walk(tree)
                   if isinstance(node, ast.Constant) and node.value in ids
                   and id(node) not in allowed]
    assert not copies, f"check ids written outside the registry: {sorted(copies)}"


def _unchecked_calls(tree: ast.AST) -> list:
    """Line numbers of the calls of `ExactMatrix._unchecked` in `tree`, by
    any receiver."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "_unchecked"]


def test_only_rational_calls_the_unchecked_constructor():
    """One owner of the invariant: `ExactMatrix._unchecked` skips the gcd
    and the bound, which holds only for the shape-only operations of
    `rational`; every other module builds through the full constructor."""
    found = [(path.name, line) for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "rational.py"
             for line in _unchecked_calls(ast.parse(path.read_text()))]
    assert not found, f"ExactMatrix._unchecked called outside rational: {found}"
    assert _unchecked_calls(ast.parse((PACKAGE / "rational.py").read_text()))


def test_the_unchecked_check_sees_a_planted_call():
    """A permuted copy built without the gcd, as a caller outside `rational`
    might write it; a full construction is no unchecked call."""
    src = ("def so7_to_so6(m):\n"
           "    full = ExactMatrix(m.num[..., IDX, :], m.den)\n"
           "    return m._unchecked(m.num[..., IDX, :][..., IDX])\n")
    assert _unchecked_calls(ast.parse(src)) == [3]
