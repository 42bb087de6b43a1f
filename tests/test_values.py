"""Points meet only over one reference frame, and values that hold arrays compare and hash by identity."""

import dataclasses

import numpy as np
import pytest

from twonorm import (
    EquivalenceResult,
    GramPair,
    GroupElement,
    LowRank,
    ProjectionOperator,
    ReferenceFrame,
    SkewOperator,
    SpaceSpec,
    StiefelOperator,
    build_space,
    distance_upper,
    grassmann_equivalence,
    metric_equivalence_report,
    norm_sandwich_check,
    point_difference,
    projection_lipschitz_report,
    section_factors,
    translated_section,
    tuple_metric,
)
from twonorm.basis import orthonormal_columns
from twonorm.geometry import CurveSamples, NormSpec
from twonorm.sampling import random_complex, random_reference, random_stiefel, rng_for_trial
from twonorm.space import GridPair
from twonorm.stiefel import SectionFactors

SPEC = NormSpec.schatten(2.0)
# Every routine that takes two points, called on the pair (A, B).
TWO_POINT_ROUTINES = {
    "point_difference": point_difference,
    "tuple_metric": tuple_metric,
    "metric_equivalence_report": metric_equivalence_report,
    "norm_sandwich_check": lambda A, B: norm_sandwich_check(A, B, SPEC),
    "projection_lipschitz_report": projection_lipschitz_report,
    "section_factors": section_factors,
    "distance_upper": lambda A, B: distance_upper(A, B, SPEC),
    "grassmann_equivalence": grassmann_equivalence,
    "translated_section_base": lambda A, B: translated_section(A, B, A),
    "translated_section_target": lambda A, B: translated_section(A, A, B),
}


@pytest.fixture(scope="module")
def mixed(g):
    """V over one random reference frame and W over another, as drawn from one stream."""
    rng = rng_for_trial(1, 0)
    first, second = random_reference(rng, g, 2), random_reference(rng, g, 2)
    return random_stiefel(rng, first), random_stiefel(rng, second)


@pytest.mark.parametrize("name", TWO_POINT_ROUTINES)
@pytest.mark.parametrize("order", ["VW", "WV"])
def test_routines_on_two_points_reject_different_reference_frames(mixed, name, order):
    V, W = mixed
    A, B = (V, W) if order == "VW" else (W, V)
    with pytest.raises(ValueError, match="different reference frames"):
        TWO_POINT_ROUTINES[name](A, B)


def test_reference_frames_must_agree_exactly(g, V):
    # A reference moved by 2.5e-7 relative and made orthonormal again is another frame.
    Xi = V.ref.Xi
    moved = orthonormal_columns(Xi + 2.5e-7 * np.max(np.abs(Xi)) * random_complex(rng_for_trial(2, 0), g.n, 2), g)
    W = StiefelOperator(V.Phi, ReferenceFrame(moved, g))
    with pytest.raises(ValueError, match="different reference frames"):
        tuple_metric(V, W)
    # An equal Xi on the same pair is the same frame; on another pair it is not.
    assert tuple_metric(V, StiefelOperator(V.Phi, ReferenceFrame(Xi.copy(), g))) == 0.0
    other = build_space(SpaceSpec(domain_dim=1, grid_points=g.n, spacing=0.25))
    with pytest.raises(ValueError, match="different reference frames"):
        point_difference(V, StiefelOperator(V.Phi, ReferenceFrame(Xi, other)))


HOLDERS = (
    ReferenceFrame, StiefelOperator, ProjectionOperator, GroupElement, SkewOperator,
    LowRank, CurveSamples, SectionFactors, EquivalenceResult, GramPair, GridPair,
)


@pytest.mark.parametrize("cls", HOLDERS, ids=lambda c: c.__name__)
def test_values_that_hold_arrays_compare_by_identity(cls):
    assert dataclasses.fields(cls) and cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__


def test_distinct_points_are_unequal_and_hash(mixed):
    V, W = mixed
    assert V == V and V != W and W != StiefelOperator(W.Phi, W.ref)
    assert len({V, W, V}) == 2
    assert hash(V.ref) != hash(W.ref) and V.ref != W.ref


def test_comparing_two_pairs_builds_no_dense_matrix():
    spec = SpaceSpec(domain_dim=2, grid_points=40, spacing=0.25)
    a, b = build_space(spec), build_space(spec)
    assert a != b and a == a
    assert {"gl2", "gh1"}.isdisjoint(a.__dict__) and {"gl2", "gh1"}.isdisjoint(b.__dict__)


def test_the_frame_constant_is_computed_not_passed(ref):
    with pytest.raises(TypeError):
        ReferenceFrame(ref.Xi, ref.g, C=123.0)
    assert ReferenceFrame(ref.Xi, ref.g).C == ref.C
