"""Every function, method and class defined in the package has a caller.

A name counts as used when it occurs as a whole word somewhere in the package
or the tests other than at its own definitions.  Dunder names are exempt:
the language calls them.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "g2lab"


def _definitions() -> dict:
    counts = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                if not (name.startswith("__") and name.endswith("__")):
                    counts[name] = counts.get(name, 0) + 1
    return counts


def test_every_definition_is_referenced():
    texts = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))]
    texts += [p.read_text() for p in sorted((ROOT / "tests").glob("*.py"))]
    unused = []
    for name, n_defs in sorted(_definitions().items()):
        word = re.compile(rf"\b{re.escape(name)}\b")
        if sum(len(word.findall(t)) for t in texts) <= n_defs:
            unused.append(name)
    assert not unused, f"defined but never referenced: {unused}"


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
