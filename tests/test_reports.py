import math

from g2lab.reports import control_report, shortfall


def test_shortfall_keeps_nan():
    assert math.isnan(shortfall(0.01, float("nan")))


def test_control_report_fails_on_nan_measurement():
    rep = control_report({"ricci": float("nan")}, 0.01)
    assert rep.status == "fail"
    assert math.isnan(rep.residuals["shortfall_ricci"])
    assert control_report({"ricci": 0.5}, 0.01).status == "pass"
