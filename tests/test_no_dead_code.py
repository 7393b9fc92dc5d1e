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
