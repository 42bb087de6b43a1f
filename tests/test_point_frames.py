"""Points store their n-by-N frames; dense operators are built only on request."""

import numpy as np
import pytest

from twonorm import (
    ProjectionOperator,
    SpaceSpec,
    StiefelOperator,
    act_grassmann,
    build_space,
    exp_skew,
    frame_unitary,
    h1_operator_norm,
    psi_section,
    radius_r,
    section_factors,
)
from twonorm.sampling import (
    SETUP_TRIAL,
    projection_near,
    random_projection,
    random_reference,
    random_stiefel,
    rng_for_trial,
    stiefel_near,
)

from conftest import dense_skew

TOL = 1e-12


def _space(n):
    return build_space(SpaceSpec(domain_dim=1, grid_points=n, spacing=0.25))


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def test_sections_never_build_the_point_operators():
    g = _space(128)
    setup = rng_for_trial(42, SETUP_TRIAL)
    V = random_stiefel(setup, random_reference(setup, g, 2), scale=0.4)
    V1, _ = stiefel_near(V, 0.5 * radius_r(V), rng_for_trial(42, 0))
    section_factors(V, V1)
    radius_r(V1)
    assert "V" not in V.__dict__
    assert "V" not in V1.__dict__


def test_quotient_sections_never_build_the_projections():
    g = _space(128)
    setup = rng_for_trial(42, SETUP_TRIAL)
    ref = random_reference(setup, g, 2)
    P = random_projection(rng_for_trial(42, 0), g, 2)
    radius = 1.0 / (h1_operator_norm(P.factors, g) + 1.0) ** 2
    P1, _ = projection_near(P, 0.3 * radius, rng_for_trial(42, 1))
    psi_section(P, P1, ref)
    frame_unitary(P.frame, P1.frame, g)
    assert "P" not in P.__dict__
    assert "P" not in P1.__dict__


@pytest.mark.parametrize("n", [16, 128])
def test_stiefel_from_matrix_round_trip(n):
    g = _space(n)
    setup = rng_for_trial(7, SETUP_TRIAL)
    V = random_stiefel(setup, random_reference(setup, g, 2), scale=0.4)
    again = StiefelOperator.from_matrix(V.V, V.ref)
    assert _rel(again.Phi, V.Phi) <= TOL
    assert _rel(again.V, V.V) <= TOL


@pytest.mark.parametrize("n", [16, 128])
def test_projection_from_matrix_round_trip(n):
    g = _space(n)
    P = random_projection(rng_for_trial(7, 0), g, 2)
    again = ProjectionOperator.from_matrix(P.P, P.N, g)
    assert again.N == P.N
    assert _rel(again.P, P.P) <= TOL


@pytest.mark.parametrize("n", [16, 128])
def test_act_grassmann_matches_dense_conjugation(n):
    g = _space(n)
    rng = rng_for_trial(7, 1)
    P = random_projection(rng, g, 2)
    U = exp_skew(dense_skew(rng, g, scale=0.6))
    assert _rel(act_grassmann(U, P).P, U.data @ P.P @ U.inverse.data) <= TOL


def test_frame_constructors_reject_bad_frames(g, ref):
    with pytest.raises(ValueError):
        StiefelOperator(ref.Xi[:, :1], ref)
    with pytest.raises(ValueError):
        StiefelOperator(2.0 * ref.Xi, ref)
    with pytest.raises(ValueError):
        ProjectionOperator(2.0 * ref.Xi, g)
    with pytest.raises(ValueError):
        ProjectionOperator(ref.Xi[:, 0], g)


def test_built_operators_are_read_only(V):
    P = ProjectionOperator(V.Phi, V.g)
    assert not V.V.flags.writeable
    assert not P.P.flags.writeable
    assert not V.Phi.flags.writeable
    assert not P.frame.flags.writeable
