"""Per-layer tracing of g2lab from outside the package.

`install()` rebinds the public functions of each g2lab layer, in every g2lab
module and class that refers to them, to wrappers that count calls and time
spans.  Nothing under `src/` is edited; a traced process is a separate cold
pass, so the wrappers never touch an untraced measurement.

Accounting:
  * `calls[name]`   - calls of the wrapped function `name` (module.qualname).
  * `incl[name]`    - inclusive wall time of its outermost activations.
  * `self_s[bucket]` - time inside a span minus the time of the wrapped spans
    it called.  A bucket is the module short name, except that the stencil
    functions of `fields` go to `fields.stencil`, the form algebra of
    `fields` and `g2construct` to `<module>.forms`, and every field evaluation
    handed to `fd_partial` or `metric_jet` to `fields.stencil_eval`.  Other
    spans of builder and verifier modules (g2construct, gibbons, killing,
    hypersurfaces) that run inside a field evaluation are field code (the
    builders' metric/coframe closures and the gallery fields) and count to
    `fields.stencil_eval` too.
  * `det_calls`     - calls of `numpy.linalg.det`, counted without a span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

WRAPPED_MODULES = ("rational", "subspaces", "embeddings", "threeform",
                   "octonions", "spin8", "modeldata", "fields", "curvature",
                   "g2construct", "killing", "gibbons", "hypersurfaces",
                   "reports")
FIELD_CODE = frozenset({"g2construct", "gibbons", "killing", "hypersurfaces"})
STENCIL_FUNCS = frozenset({"fd_partial", "fd_gradient", "fd_jacobian", "exterior_d"})
FORM_FUNCS = frozenset({"transform_form", "hodge_restricted", "restrict_two_form",
                        "form_on_vectors", "_assemble_form"})
# Private names that a per-layer metric is defined on.
PRIVATE_WRAPPED = frozenset({"_assemble_form"})
ARITHMETIC = frozenset({"__add__", "__sub__", "__neg__", "__matmul__", "__mul__",
                        "__rmul__", "__truediv__"})
# Functions whose first argument is a field evaluated on a stencil.
FIELD_TAKERS = frozenset({"fields.fd_partial", "curvature.metric_jet"})
STENCIL_EVAL = "fields.stencil_eval"


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.det_calls = 0
        self._stack = []          # child time accumulated by each open span
        self._depth = Counter()   # open activations per span name
        self._eval_depth = 0

    def span(self, fn, name: str, bucket: str, field_code: bool = False):
        """A wrapper of `fn` that records one span per call."""
        calls, incl, self_s = self.calls, self.incl, self.self_s
        stack, depth = self._stack, self._depth
        takes_field = name in FIELD_TAKERS
        is_eval = name == STENCIL_EVAL
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if takes_field:
                args = (self.span(args[0], STENCIL_EVAL, STENCIL_EVAL),) + args[1:]
            if is_eval:
                self._eval_depth += 1
            child = [0.0]
            stack.append(child)
            depth[name] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                depth[name] -= 1
                if is_eval:
                    self._eval_depth -= 1
                if not depth[name]:
                    incl[name] += dt
                b = STENCIL_EVAL if (field_code and self._eval_depth) else bucket
                self_s[b] += dt - child[0]
                if stack:
                    stack[-1][0] += dt

        if not is_eval:
            functools.update_wrapper(wrapper, fn)
        return wrapper

    def table(self) -> dict:
        return {"calls": dict(self.calls), "incl": dict(self.incl),
                "self_s": dict(self.self_s), "det_calls": self.det_calls}


def _bucket(module: str, func: str) -> str:
    if module == "fields" and func in STENCIL_FUNCS:
        return "fields.stencil"
    if func in FORM_FUNCS:
        return f"{module}.forms"
    return module


def _wanted(attr: str) -> bool:
    return not attr.startswith("_") or attr in PRIVATE_WRAPPED


def _is_function(obj) -> bool:
    return inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper)


def install() -> Tracer:
    """Wrap every g2lab layer in this process and return the tracer.

    Must run after `import g2lab.cli` and before `g2lab.cli.main` is called.
    """
    import numpy as np

    tracer = Tracer()
    mods = {short: importlib.import_module(f"g2lab.{short}")
            for short in WRAPPED_MODULES + ("cli", "suites")}
    replace = {}   # id(original) -> (original, wrapper)

    for short in WRAPPED_MODULES:
        mod = mods[short]
        for attr, obj in list(vars(mod).items()):
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                _wrap_class(tracer, obj, short)
            elif _is_function(obj) and obj.__module__ == mod.__name__ and _wanted(attr):
                wrapper = tracer.span(obj, f"{short}.{attr}", _bucket(short, attr),
                                      field_code=short in FIELD_CODE
                                      and attr not in FORM_FUNCS)
                replace[id(obj)] = (obj, wrapper)

    cli = mods["cli"]
    replace[id(cli.main)] = (cli.main, tracer.span(cli.main, "cli.main", "cli"))
    original_checks = cli.suite_checks

    def traced_suite_checks(name):
        return [(cid, tracer.span(fn, f"check.{cid}", "suites"))
                for cid, fn in original_checks(name)]

    replace[id(original_checks)] = (original_checks, traced_suite_checks)

    for modname, mod in list(sys.modules.items()):
        if modname != "g2lab" and not modname.startswith("g2lab."):
            continue
        for attr, obj in list(vars(mod).items()):
            hit = replace.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])

    det = np.linalg.det

    def counted_det(*args, **kwargs):
        tracer.det_calls += 1
        return det(*args, **kwargs)

    np.linalg.det = counted_det
    return tracer


def _wrap_class(tracer: Tracer, cls: type, short: str):
    for attr, obj in list(vars(cls).items()):
        if not (_wanted(attr) or attr in ARITHMETIC):
            continue
        name = f"{short}.{cls.__name__}.{attr}"
        fc = short in FIELD_CODE
        if isinstance(obj, staticmethod):
            setattr(cls, attr, staticmethod(tracer.span(obj.__func__, name, short, fc)))
        elif inspect.isfunction(obj):
            setattr(cls, attr, tracer.span(obj, name, short, fc))
