import json
import math

from g2lab.reports import control_report, shortfall


def test_shortfall_keeps_nan():
    assert math.isnan(shortfall(0.01, float("nan")))


def test_control_report_fails_on_nan_measurement():
    rep = control_report({"ricci": float("nan")}, 0.01)
    assert rep.status == "fail"
    assert math.isnan(rep.residuals["shortfall_ricci"])
    assert control_report({"ricci": 0.5}, 0.01).status == "pass"


def test_json_line_is_strict_json_with_nan_as_null():
    def reject(token):
        raise ValueError(f"non-JSON constant {token}")

    line = control_report({"a": 0.5, "b": float("nan")}, 0.01).json_line("demo", 42)
    obj = json.loads(line, parse_constant=reject)
    assert obj["status"] == "fail"
    assert obj["residuals"] == {"shortfall_a": 0.0, "shortfall_b": None}
    assert obj["params"]["measured_a"] == 0.5 and obj["params"]["measured_b"] is None
