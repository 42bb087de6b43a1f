"""Perturbation-scale calibration: failure branches, tiny targets and the resolution floor."""

import numpy as np
import pytest

from twonorm import ConvergenceFailure, NeighborhoodViolation, SpaceSpec, build_space
from twonorm.sampling import (
    RESOLUTION_FACTOR,
    SETUP_TRIAL,
    _calibrated_scale,
    projection_near,
    random_projection,
    random_reference,
    random_stiefel,
    rng_for_trial,
    stiefel_near,
)
from twonorm.space import h1_operator_norm


def _start(n):
    g = build_space(SpaceSpec(domain_dim=1, grid_points=n, spacing=0.25))
    setup = rng_for_trial(42, SETUP_TRIAL)
    V = random_stiefel(setup, random_reference(setup, g, 2), scale=0.4)
    return g, V, random_projection(setup, g, 2)


def test_calibration_raises_when_the_target_is_out_of_reach():
    # The distance saturates far below the target, so the scale grows past 64.
    with pytest.raises(ConvergenceFailure, match="cannot reach"):
        _calibrated_scale(lambda s: 1e-3 * min(s, 1.0), 0.5)


def test_calibration_raises_when_it_stalls():
    # Every evaluation misses the target by 1%, whatever the scale: the
    # proportional updates shrink the scale without ever closing the gap.
    with pytest.raises(ConvergenceFailure, match="stalled"):
        _calibrated_scale(lambda s: 0.505, 0.5)


@pytest.mark.parametrize("n", [16, 128])
def test_tiny_targets_calibrate(n):
    # The distance is measured on the frame displacement exp(sX) F - F, which
    # keeps relative accuracy however small the step.
    _, V, P = _start(n)
    for target in (1e-10, 3e-11, 1e-11, 3e-12):
        for stream in range(5):
            for sampler, start in ((stiefel_near, V), (projection_near, P)):
                _, achieved = sampler(start, target, rng_for_trial(stream, 0))
                assert abs(achieved - target) <= 1e-3 * target


@pytest.mark.parametrize("n", [16, 128])
def test_targets_below_resolution_are_refused(n):
    g, V, P = _start(n)
    for sampler, start, scale in (
        (stiefel_near, V, h1_operator_norm(V.factors, g)),
        (projection_near, P, h1_operator_norm(P.factors, g)),
    ):
        floor = RESOLUTION_FACTOR * np.finfo(float).eps * scale
        with pytest.raises(NeighborhoodViolation, match="below the resolution"):
            sampler(start, 0.5 * floor, rng_for_trial(0, 0))
        with pytest.raises(ValueError):
            sampler(start, 0.0, rng_for_trial(0, 0))
