"""Trial streams, and perturbation-scale calibration: failure branches, tiny targets and the resolution floor."""

import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from twonorm import ConvergenceFailure, NeighborhoodViolation, SpaceSpec, build_space
from twonorm.cli import main
from twonorm.grassmann import quotient_radius
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


def test_projection_near_returns_the_distance_of_the_moved_projection():
    # The achieved distance is taken on the joint span of the two range frames,
    # so near coincidence it stays close to the calibrated target.
    g = build_space(SpaceSpec(domain_dim=1, grid_points=128, spacing=0.25))
    for frac, tol in ((1e-6, 2e-9), (1e-8, 5e-8)):
        for seed in range(5):
            rng = rng_for_trial(seed, 0)
            P = random_projection(rng, g, 2)
            target = frac * quotient_radius(P)
            _, achieved = projection_near(P, target, rng)
            assert abs(achieved - target) <= tol * target


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


@pytest.mark.parametrize("d, m", [(1, 4), (1, 2), (2, 2)])
def test_a_rank_n_projection_is_refused_as_fixed(tmp_path, capsys, d, m):
    # The rank-n weak projection is I: no conjugation moves it, so calibration
    # would double its scale without end.  validate names that cause and exits 1.
    g = build_space(SpaceSpec(domain_dim=d, grid_points=m, spacing=0.25))
    rng = rng_for_trial(0, 0)
    with pytest.raises(NeighborhoodViolation, match="identity"):
        projection_near(random_projection(rng, g, g.n), 0.1, rng)
    config = tmp_path / "full.json"
    space = {"domain_dim": d, "grid_points": m, "spacing": 0.25}
    config.write_text(json.dumps({"space": space, "subspace_dim": g.n, "trials": 2}))
    assert main(["validate", "--config", str(config), "--out", str(tmp_path)]) == 1
    assert "grassmann: NeighborhoodViolation: the rank" in capsys.readouterr().err


def test_neighbouring_seeds_draw_independent_trial_streams():
    # A key of seed ^ trial gave trial 1 of seed 42 the stream of trial 0 of seed 43.
    first = {rng_for_trial(42, trial).random() for trial in range(10)}
    assert not first & {rng_for_trial(43, trial).random() for trial in range(10)}


words = st.integers(0, 2**64 - 1)


@settings(max_examples=200, deadline=None)
@given(seed=words, trial=words, other=st.tuples(words, words), mask=words)
def test_distinct_seed_trial_pairs_give_distinct_first_draws(seed, trial, other, mask):
    # Pairs with equal seed ^ trial are among the alternatives drawn.
    for alt in (other, (seed ^ mask, trial ^ mask)):
        assume(alt != (seed, trial))
        assert not np.array_equal(rng_for_trial(seed, trial).random(2), rng_for_trial(*alt).random(2))
