"""Failure counting and the correctness checks the benchmark makes apart from
g2lab: nothing here imports g2lab or compares against stored output.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

# The README's 3-form: (123) -(145) -(167) -(246) +(257) -(347) -(356).
PHI_TERMS = ((+1, (1, 2, 3)), (-1, (1, 4, 5)), (-1, (1, 6, 7)), (-1, (2, 4, 6)),
             (+1, (2, 5, 7)), (-1, (3, 4, 7)), (-1, (3, 5, 6)))
# Checks on exactly flat data: every residual and every step table at roundoff.
FLAT_CHECKS = ("gh.flat-trivial", "g2-thm1.flat", "hypersurface.plane",
               "oracle-pairs.twist-assembly")
ROUNDOFF = 1e-12
# Negative controls: the size every measured violation must reach, by check.
# They are set here, not read from the reports, so a loosened floor in g2lab
# cannot loosen this check.
CONTROL_FLOORS = {
    "gh.nonharmonic-control": 0.01,
    "hypersurface.ellipsoid-control": 0.01,
    "negative.perturbed-potential": 0.05,
    "negative.nonharmonic-pole": 0.01,
    "negative.broken-monopole": 0.01,
    "negative.mismatched-twist": 0.01,
    "negative.nonbasic-pole": 0.01,
    "negative.warped-holonomy": 0.1,
    "negative.ellipsoid": 0.01,
}
# Second-order central differences: the fitted order of a positive example.
ORDER_BAND = (1.8, 2.2)
OK_STATUS = ("pass", "warn")


def parse_reports(stdout: bytes) -> list:
    """The JSON report objects of a stream, in order; other lines are dropped."""
    out = []
    for raw in stdout.decode("utf-8", "replace").splitlines():
        try:
            obj = json.loads(raw)
        except ValueError:
            continue
        if isinstance(obj, dict) and "check_id" in obj:
            out.append(obj)
    return out


def count_failed(expected_ids, stdout: bytes, stderr: bytes, rc) -> int:
    """Failed checks of one process.

    A check fails when its line is missing or its status is neither pass nor
    warn.  When the process printed a traceback, or its exit code disagrees
    with the stream (g2lab exits 0 exactly when every check passes and 1 when
    one fails), the stream cannot be trusted and every check counts failed.
    """
    status = {r["check_id"]: r.get("status") for r in parse_reports(stdout)}
    bad = sum(1 for cid in expected_ids if status.get(cid) not in OK_STATUS)
    if b"Traceback" in stderr or rc != (1 if bad else 0):
        return len(expected_ids)
    return bad


def stream_problems(expected_ids, reports) -> list:
    ids = [r["check_id"] for r in reports]
    if ids != list(expected_ids):
        return [f"report ids {ids} differ from the listed checks {list(expected_ids)}"]
    return []


def exact_problems(reports, independent_dim: int) -> list:
    """Properties of the algebra and octonion suites, whatever the status."""
    out = []
    for r in reports:
        cid, params = r["check_id"], r.get("params", {})
        if not cid.startswith(("algebra.", "octonion.")):
            continue
        nonzero = {k: v for k, v in r.get("residuals", {}).items() if v != 0.0}
        if nonzero:
            out.append(f"{cid}: exact residuals not zero: {nonzero}")
        if cid == "algebra.dimension" and params.get("dim") != independent_dim:
            out.append(f"{cid}: dim {params.get('dim')}, the independent "
                       f"stabilizer has dim {independent_dim}")
        if cid == "algebra.so8" and (params.get("sum_dim"), params.get("intersection_dim")) != (28, 14):
            out.append(f"{cid}: sum/intersection {params.get('sum_dim')}/"
                       f"{params.get('intersection_dim')}, expected 28/14")
        if cid == "octonion.invariant-kernel" and params.get("components") != 7:
            out.append(f"{cid}: {params.get('components')} components, expected 7")
    return out


def fitted_order(table: dict) -> float:
    """Least-squares slope of log residual against log h."""
    xs = [math.log(float(h)) for h in table]
    ys = [math.log(max(float(v), 1e-300)) for v in table.values()]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def numerical_problems(reports) -> tuple[list, int]:
    """Order studies, negative controls and flat cases of `--suite all`,
    whatever the status.

    Returns the problems and the number of step tables whose order was fitted.
    """
    out, fitted = [], 0
    missing = set(CONTROL_FLOORS) - {r["check_id"] for r in reports}
    if missing:
        out.append(f"negative controls missing: {sorted(missing)}")
    for r in reports:
        cid, params = r["check_id"], r.get("params", {})
        tables = {k: v for k, v in params.items() if k.endswith("_by_h")}
        if cid in FLAT_CHECKS:
            values = list(r.get("residuals", {}).values())
            values += [v for t in tables.values() for v in t.values()]
            if max(values, default=0.0) > ROUNDOFF:
                out.append(f"{cid}: flat case above roundoff: {max(values)}")
        elif cid in CONTROL_FLOORS:
            floor = CONTROL_FLOORS[cid]
            measured = {k: v for k, v in params.items() if k.startswith("measured_")}
            if not measured:
                out.append(f"{cid}: no measured violation reported")
            for k, v in measured.items():
                if not v >= floor:
                    out.append(f"{cid}: {k} = {v} below the floor {floor}")
        elif "expected" in params:
            out.append(f"{cid}: a control the benchmark has no floor for")
        else:
            for k, t in tables.items():
                order = fitted_order(t)
                fitted += 1
                if not ORDER_BAND[0] <= order <= ORDER_BAND[1]:
                    out.append(f"{cid}: {k} has order {order:.4f}, "
                               f"outside {ORDER_BAND}")
    return out, fitted


def phi_tensor() -> np.ndarray:
    phi = np.zeros((7, 7, 7))
    for sign, idx in PHI_TERMS:
        i, j, k = (a - 1 for a in idx)
        for perm in itertools.permutations(range(3)):
            p = [(i, j, k)[m] for m in perm]
            parity = np.linalg.det(np.eye(3)[list(perm)])
            phi[tuple(p)] = sign * parity
    return phi


def stabilizer_dim(seed: int) -> int:
    """Dimension of the stabilizer of the 3-form in so(7), by numpy.

    The kernel of the action of so(7) on 3-forms, from an SVD; each kernel
    element is checked to be a derivation of the cross product on two
    vectors drawn from `seed`.
    """
    phi = phi_tensor()
    basis = []
    for i, j in itertools.combinations(range(7), 2):
        e = np.zeros((7, 7))
        e[i, j], e[j, i] = 1.0, -1.0
        basis.append(e)
    basis = np.array(basis)
    # (A.phi)_abc = -(A_da phi_dbc + A_db phi_adc + A_dc phi_abd)
    action = -(np.einsum("kda,dbc->kabc", basis, phi)
               + np.einsum("kdb,adc->kabc", basis, phi)
               + np.einsum("kdc,abd->kabc", basis, phi)).reshape(21, -1).T
    _, sing, vt = np.linalg.svd(action)
    rank = int(np.sum(sing > 1e-9 * sing[0]))
    kernel = np.einsum("nk,kij->nij", vt[rank:], basis)
    u, v = np.random.default_rng(seed).standard_normal((2, 7))
    cross = lambda x, y: np.einsum("abc,a,b->c", phi, x, y)
    for x in kernel:
        defect = x @ cross(u, v) - cross(x @ u, v) - cross(u, x @ v)
        if np.max(np.abs(defect)) > 1e-9:
            raise AssertionError("a stabilizer element is not a derivation of the cross product")
    return 21 - rank
