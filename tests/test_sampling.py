"""Failure branches of the perturbation-scale calibration, on synthetic distances."""

import pytest

from twonorm import ConvergenceFailure
from twonorm.sampling import _calibrated_scale


def test_calibration_raises_when_the_target_is_out_of_reach():
    # The distance saturates far below the target, so the scale grows past 64.
    with pytest.raises(ConvergenceFailure, match="cannot reach"):
        _calibrated_scale(lambda s: 1e-3 * min(s, 1.0), 0.5)


def test_calibration_raises_when_it_stalls():
    # Every evaluation misses the target by 1%, whatever the scale: the
    # proportional updates shrink the scale without ever closing the gap.
    with pytest.raises(ConvergenceFailure, match="stalled"):
        _calibrated_scale(lambda s: 0.505, 0.5)
