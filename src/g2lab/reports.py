"""Check reports, the shared run context, and deterministic JSON-lines
serialization.

A report's canonical JSON form contains no timing and no environment data, so
two runs with the same seed and configuration produce byte-identical streams;
wall-clock times appear only in the human summary table.  The lines are strict
JSON: a non-finite float (a NaN residual, say) is written as null.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np


@dataclass
class CheckReport:
    """A check's verdict.  The check id and the run's seed are the runner's:
    `json_line` stamps them."""

    status: str                      # "pass" | "fail" | "error"
    residuals: dict
    tolerance: float
    params: dict
    order_estimate: object = None    # float | "exact" | None

    def json_line(self, check_id: str, seed: int) -> str:
        out = {"check_id": check_id, "status": self.status,
               "params": _jsonable(self.params),
               "residuals": {k: _json_float(v) for k, v in sorted(self.residuals.items())},
               "tolerance": float(self.tolerance), "seed": int(seed)}
        if self.order_estimate is not None:
            out["order_estimate"] = (self.order_estimate
                                     if isinstance(self.order_estimate, str)
                                     else _json_float(self.order_estimate))
        return json.dumps(out, separators=(",", ":"), sort_keys=False, allow_nan=False)


def _json_float(x) -> float | None:
    """x as a float, or None (JSON null) when it is not finite."""
    x = float(x)
    return x if math.isfinite(x) else None


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (float, np.floating)):
        return _json_float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def shortfall(required: float, value: float) -> float:
    """How far `value` falls short of `required`: required - value when that
    is positive, else 0.0.  A NaN value gives NaN, so the check fails."""
    gap = required - value
    return 0.0 if gap <= 0.0 else gap


def simple_report(residuals: dict, tolerance: float, params: dict | None = None,
                  order_estimate=None, order_band: tuple | None = None) -> CheckReport:
    """Standard pass rule: all residuals within tolerance, and the order
    estimate inside the declared band when one is present ("exact" always
    qualifies)."""
    ok = all(v <= tolerance for v in residuals.values())
    if order_band is not None and order_estimate != "exact":
        lo, hi = order_band
        ok = ok and order_estimate is not None and lo <= order_estimate <= hi
    params = dict(params or {})
    if order_band is not None:
        params["order_band"] = list(order_band)
    return CheckReport(status="pass" if ok else "fail", residuals=residuals,
                       tolerance=tolerance, params=params,
                       order_estimate=order_estimate)


def control_report(measured: dict, required: float, params: dict | None = None,
                   order_estimate=None, order_band: tuple | None = None) -> CheckReport:
    """Negative controls pass when every measured violation stays at or above
    the required size; the decision residual is the shortfall (>= 0 or NaN,
    so tolerance 0 is the rule)."""
    params = dict(params or {})
    params["expected"] = f"residual >= {required}"
    params.update({f"measured_{k}": float(v) for k, v in measured.items()})
    gaps = {f"shortfall_{k}": shortfall(required, v) for k, v in measured.items()}
    return simple_report(gaps, 0.0, params=params, order_estimate=order_estimate,
                         order_band=order_band)


@dataclass
class SuiteContext:
    """Knobs shared by every check in a run; its memo runs an aliased check
    once per run."""

    seed: int
    samples: int
    dump_dir: str | None
    sample_rows: dict = field(default_factory=dict, init=False)
    memo: dict = field(default_factory=dict, init=False, repr=False)

    def once(self, key: str, compute: Callable[[], object]):
        """compute(), evaluated at most once per run under `key`; a raising
        compute stores nothing."""
        if key not in self.memo:
            self.memo[key] = compute()
        return self.memo[key]

    def record_samples(self, check_id: str, header: Sequence[str], rows):
        if self.dump_dir is not None:
            self.sample_rows[check_id] = (list(header), [list(r) for r in rows])

    def scaled_samples(self, default: int) -> int:
        """Scale a check's default sample count by the requested global count."""
        return max(1, int(round(default * self.samples / 200.0)))
