import math

from twonorm.validate import _Recorder


def test_recorder_keeps_nan_as_worst_residual():
    rec = _Recorder()
    rec.residual(1e-14, 1e-12)
    rec.residual(float("nan"), 1e-12)
    rec.residual(1e-13, 1e-12)
    result = rec.result("probe")
    assert result.checks == 3
    assert math.isnan(result.max_residual)
    assert not result.passed
