"""Points, sections, witnesses and velocities from n-by-N frames against dense n-by-n forms.

Each closed form built from frames and their N-by-N overlaps is compared with
the dense expression it replaces, written with weak adjoints, restricted
inverse square roots or a full group element.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twonorm import (
    LowRank,
    NormSpec,
    SpaceSpec,
    adjoint_l2,
    build_space,
    exp_curve,
    frame_unitary,
    grassmann_equivalence,
    h1_operator_norm,
    lie_split_grassmann,
    phi,
    psi_section,
    radius_r,
    schatten_norm,
    section_factors,
)
from twonorm.grassmann import ProjectionOperator
from twonorm.group import OneParameterGroup, exp_skew
from twonorm.oracles import pinv_on_range, sqrt_eig
from twonorm.sampling import (
    SETUP_TRIAL,
    projection_near,
    random_complex,
    random_projection,
    random_reference,
    random_stiefel,
    rng_for_trial,
)
from twonorm.stiefel import StiefelOperator

from conftest import dense_skew

SPACES = {n: build_space(SpaceSpec(domain_dim=1, grid_points=n, spacing=0.25)) for n in (16, 128)}
SPECS = (NormSpec.operator(), NormSpec.schatten(1.0), NormSpec.schatten(2.0))
N = 2
TOL = 1e-12

sizes = st.sampled_from((16, 128))
fractions = st.floats(1e-6, 0.9)
seeds = st.integers(0, 2**32 - 1)


def _base(n):
    g = SPACES[n]
    setup = rng_for_trial(42, SETUP_TRIAL)
    ref = random_reference(setup, g, N)
    return g, ref, random_stiefel(setup, ref, scale=0.4)


def _moved_to(V, target, seed):
    """V carried along a random one-parameter group to a strong distance of about target."""
    X = dense_skew(rng_for_trial(seed, 1), V.g, 1.0)
    rate = h1_operator_norm(LowRank(X.data @ V.Phi, V.ref.dual), V.g)
    return StiefelOperator.from_matrix(OneParameterGroup(X)(target / rate).data @ V.V, V.ref)


def _weak_projection(V):
    """The image projection as V V*2 with a dense weak adjoint."""
    return V.V @ adjoint_l2(V.V, V.g)


def _close(a, b):
    return np.linalg.norm(a - b) <= TOL * np.linalg.norm(b)


@settings(max_examples=20, deadline=None)
@given(n=sizes, frac=fractions, seed=seeds)
def test_section_correction_matches_weak_adjoint_form(n, frac, seed):
    g, _, V = _base(n)
    V1 = _moved_to(V, frac * radius_r(V), seed)
    fac = section_factors(V, V1)
    dense = V1.V @ adjoint_l2(V.V, g) @ adjoint_l2(fac.t.data, g) + (np.eye(n) - _weak_projection(V1))
    assert _close(fac.w.data, dense)
    assert np.linalg.norm(fac.sigma.data @ V.V - V1.V) <= 1e-9 * np.linalg.norm(V1.V)


@settings(max_examples=20, deadline=None)
@given(n=sizes, frac=fractions, seed=seeds)
def test_quotient_section_matches_tilted_group_element(n, frac, seed):
    # Dense form: T1 U with T1 = P1 (P P1 P)^(-1/2) on range(P) and U the
    # group element carrying the reference frame onto the range frame of P.
    g, ref, _ = _base(n)
    P = random_projection(rng_for_trial(seed, 0), g, N)
    rad = 1.0 / (h1_operator_norm(P.factors, g) + 1.0) ** 2
    P1, _ = projection_near(P, frac * rad, rng_for_trial(seed, 1))
    t1 = P1.P @ pinv_on_range(P.P, sqrt_eig(P.P @ P1.P @ P.P, g), g)
    dense = t1 @ frame_unitary(ref.Xi, P.frame, g).data
    assert _close(psi_section(P, P1, ref).V, dense)


@settings(max_examples=20, deadline=None)
@given(n=sizes, frac=fractions, seed=seeds)
def test_projection_near_distance_matches_dense_conjugation(n, frac, seed):
    # The dense difference U P U^-1 - P carries rounding of the size of its
    # terms, so agreement is measured against the strong norm of P as well.
    g = SPACES[n]
    P = random_projection(rng_for_trial(seed, 0), g, N)
    scale = h1_operator_norm(P.factors, g)
    rad = 1.0 / (scale + 1.0) ** 2
    P1, achieved = projection_near(P, frac * rad, rng_for_trial(seed, 1))
    dense = h1_operator_norm(P1.P - P.P, g)
    assert abs(achieved - dense) <= TOL * max(dense, scale)
    assert abs(achieved - frac * rad) <= 1e-6 * frac * rad


@pytest.mark.parametrize("n", [16, 128])
def test_projection_and_tangent_inverse_match_weak_adjoint_forms(n):
    g = SPACES[n]
    for seed in range(3):
        rng = rng_for_trial(seed, 0)
        V = random_stiefel(rng, random_reference(rng, g, N), scale=0.4)
        Y = random_complex(rng, n, n)
        assert _close(phi(V).P, _weak_projection(V))
        # The tangent inverse Y -> Y V*2, with V*2 = Xi (gl2 Phi)^H from the frames.
        assert _close(Y @ V.ref.Xi @ g.l2(V.Phi).conj().T, Y @ adjoint_l2(V.V, g))


@pytest.mark.parametrize("n", [16, 128])
def test_equivalence_witness_matches_weak_adjoint_form(n):
    g = SPACES[n]
    for seed in range(3):
        rng = rng_for_trial(seed, 0)
        ref = random_reference(rng, g, N)
        V = random_stiefel(rng, ref, scale=0.4)
        # A split-preserving right translation keeps the image subspace.
        span = ProjectionOperator(ref.Xi, g)
        Xd, _ = lie_split_grassmann(dense_skew(rng, g, scale=0.5), span)
        reparam = StiefelOperator.from_matrix(V.V @ exp_skew(Xd).data, ref)
        res = grassmann_equivalence(reparam, V)
        assert res.equivalent
        dense = adjoint_l2(V.V, g) @ reparam.V + (np.eye(n) - span.P)
        assert _close(res.unitary.data, dense)


@pytest.mark.parametrize("n", [16, 128])
def test_curve_velocities_are_factored_and_match_dense(n):
    g, _, V0 = _base(n)
    X = dense_skew(rng_for_trial(42, 0), g, scale=0.3)
    curve = exp_curve(V0, X, steps=9)
    assert np.array_equal(curve.frames[0], V0.Phi)
    for frame, core in zip(curve.frames, curve.cores):
        point = frame @ V0.ref.dual.conj().T
        velocity = LowRank(curve.Q @ core, curve.ref.dual)
        assert velocity.L.shape == (n, N)
        for spec in SPECS:
            dense = schatten_norm(X.data @ point, spec, g)
            assert abs(schatten_norm(velocity, spec, g) - dense) <= TOL * dense
