"""Group elements and generators in span form against dense forms and the Pade oracles.

An element I + Q B (gl2 Q)^H or generator Q S (gl2 Q)^H on a weakly
orthonormal n-by-k span is checked against scipy's general-matrix ``expm``
and ``logm``, against its own dense operator, and against dense input taken
as the k = n case.  The producers of span elements must not build an n-by-n
operator unless ``data`` is read.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twonorm import (
    GroupElement,
    LowRank,
    MembershipDefect,
    NormSpec,
    SkewOperator,
    SpaceSpec,
    build_space,
    distance_upper,
    exp_skew,
    finsler_norm_grassmann,
    frame_unitary,
    grassmann_equivalence,
    group_log,
    h1_operator_norm,
    quotient_radius,
    radius_r,
    schatten_norm,
    section_factors,
    section_pi_p,
)
from twonorm import group, sampling
from twonorm.basis import orthonormal_columns
from twonorm.group import OneParameterGroup
from twonorm.oracles import exp_pade, log_pade
from twonorm.sampling import (
    SETUP_TRIAL,
    projection_near,
    random_complex,
    random_projection,
    random_reference,
    random_stiefel,
    rng_for_trial,
    stiefel_near,
)
from twonorm.stiefel import StiefelOperator

from conftest import skew_residual

SPACES = {n: build_space(SpaceSpec(domain_dim=1, grid_points=n, spacing=0.25)) for n in (16, 128)}
TOL = 1e-12


@st.composite
def spans(draw):
    n = draw(st.sampled_from((16, 128)))
    N = draw(st.integers(1, 3))
    k = draw(st.integers(N, 2 * N))
    return n, N, k, draw(st.integers(0, 2**32 - 1))


def _generator(g, k, seed, strong_norm=0.3):
    """A skew generator on a random k-dimensional span, scaled to the given strong norm.

    Strong norm 0.3 keeps exp(X) inside the domain of the principal logarithm.
    """
    rng = rng_for_trial(seed, 0)
    Q = orthonormal_columns(random_complex(rng, g.n, k), g)
    A = random_complex(rng, k, k)
    S = A - A.conj().T
    return SkewOperator(Q, S * (strong_norm / h1_operator_norm(LowRank(Q @ S, g.gl2 @ Q), g)), g)


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@settings(max_examples=30, deadline=None)
@given(case=spans())
def test_span_exponential_agrees_with_pade(case):
    n, N, k, seed = case
    g = SPACES[n]
    X = _generator(g, k, seed)
    U = exp_skew(X)
    E = exp_pade(X.data, g)
    F = orthonormal_columns(random_complex(rng_for_trial(seed, 1), n, N), g)
    assert U.Q.shape == (n, k) and U.B.shape == (k, k)
    assert _rel(U.data, E) <= TOL
    assert _rel(U.inverse.data, np.linalg.inv(E)) <= TOL
    assert _rel(U.displacement(F), E @ F - F) <= TOL
    assert _rel(X.apply(F), X.data @ F) <= TOL
    # Dense input is the k = n case Q = gl2^{-1/2} of the same type and acts the same way.
    dense = GroupElement(g.isqrt_l2, g.to_l2_frame(E) - np.eye(n), g)
    assert dense.Q.shape == (n, n)
    assert _rel(dense.displacement(F), U.displacement(F)) <= TOL
    assert _rel(SkewOperator(g.isqrt_l2, g.to_l2_frame(X.data), g).apply(F), X.apply(F)) <= TOL


@settings(max_examples=30, deadline=None)
@given(case=spans())
def test_span_log_agrees_with_pade(case):
    n, N, k, seed = case
    g = SPACES[n]
    U = exp_skew(_generator(g, k, seed))
    L = log_pade(U.data, g)
    log = group_log(U)
    assert log.Q is U.Q
    assert _rel(log.data, L) <= TOL


@settings(max_examples=30, deadline=None)
@given(case=spans())
def test_span_log_is_relatively_accurate_near_the_identity(case):
    # A log that takes the eigenvalues of I + B loses eps absolute, eps/t relative.
    n, N, k, seed = case
    g = SPACES[n]
    X = _generator(g, k, seed)
    for t in (1e-1, 1e-4, 1e-8, 1e-12):
        tX = SkewOperator(X.Q, t * X.S, g)
        assert _rel(group_log(exp_skew(tX)).data, tX.data) <= TOL, t


@pytest.mark.parametrize("n", [16, 128])
def test_span_residuals_equal_the_dense_residuals_on_grids(n):
    # gl2 = h I, so ||B + B^H + B^H B|| / sqrt(n) is the dense membership residual.
    # Both blocks are pushed off their identity by about 1e-10.
    g = SPACES[n]
    X = _generator(g, 3, 7, strong_norm=2.0)
    B = exp_skew(X).B * (1.0 + 1e-10)
    U = GroupElement(X.Q, B, g)
    span_residual = np.linalg.norm(B + B.conj().T + B.conj().T @ B) / np.sqrt(n)
    assert span_residual == pytest.approx(group.membership_residual(U.data, g), rel=1e-6)
    S = X.S + 1e-10 * np.eye(3)
    Y = SkewOperator(X.Q, S, g)
    span_residual = np.linalg.norm(S + S.conj().T) / np.sqrt(n)
    assert span_residual == pytest.approx(skew_residual(Y.data, g), rel=1e-6)


def test_span_types_reject_bad_spans_and_blocks(g):
    Q = orthonormal_columns(random_complex(rng_for_trial(1, 0), g.n, 2), g)
    with pytest.raises(ValueError):
        SkewOperator(2.0 * Q, np.zeros((2, 2)), g)
    with pytest.raises(ValueError):
        GroupElement(Q, np.zeros((3, 3)), g)
    with pytest.raises(MembershipDefect):
        GroupElement(Q, np.eye(2), g)
    with pytest.raises(MembershipDefect):
        SkewOperator(Q, np.eye(2), g)


def test_section_correction_is_a_span_element():
    g = SPACES[128]
    setup = rng_for_trial(42, SETUP_TRIAL)
    V = random_stiefel(setup, random_reference(setup, g, 2), scale=0.4)
    V1, _ = stiefel_near(V, 0.5 * radius_r(V), rng_for_trial(42, 0))
    w = section_factors(V, V1).w
    assert isinstance(w, GroupElement)
    assert w.Q.shape == (g.n, 2)


def test_span_producers_build_no_dense_operator(monkeypatch):
    # n-by-N frames and k-by-k blocks only: the peak allocation stays below
    # one n-by-n complex array, and no dense membership residual is taken.
    n = 256
    g = build_space(SpaceSpec(domain_dim=1, grid_points=n, spacing=0.25))
    g.sqrt_h1, g.isqrt_h1  # cached factorizations are built before tracing
    setup = rng_for_trial(42, SETUP_TRIAL)
    ref = random_reference(setup, g, 2)
    P = random_projection(setup, g, 2)
    spec = NormSpec.schatten(2.0)

    def refuse(*_):
        raise AssertionError("dense n-by-n membership check")

    drawn = []

    def kept_exp(X):
        drawn.append(exp_skew(X))
        return drawn[-1]

    monkeypatch.setattr(group, "membership_residual", refuse)
    monkeypatch.setattr(sampling, "exp_skew", kept_exp)
    tracemalloc.start()
    try:
        V = random_stiefel(setup, ref, scale=0.4)
        V1, _ = stiefel_near(V, 0.5 * radius_r(V), rng_for_trial(42, 0))
        projection_near(P, 1e-3, rng_for_trial(42, 1))
        U = frame_unitary(V.Phi, V1.Phi, g)
        reparam = StiefelOperator(V.Phi @ np.diag([1j, -1.0]), ref)
        witness = grassmann_equivalence(reparam, V).unitary
        X = SkewOperator(U.Q, U.B - U.B.conj().T, g)
        moved = OneParameterGroup(X)(0.3)
        distance_upper(V, V1, spec, steps=8)
        fac = section_factors(V, V1)
        sigma = section_factors(V, V1).sigma
        P1, _ = projection_near(P, 0.5 * quotient_radius(P), rng_for_trial(42, 2))
        upi = section_pi_p(P, P1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 16
    sections = (fac.sigma, fac.t, fac.w, sigma, upi)
    for element in (U, witness, moved, drawn[0]) + sections:
        assert "data" not in element.__dict__ and "inv" not in element.__dict__
    # random_stiefel exponentiates a generator on span[Xi, G].
    assert len(drawn) == 1 and drawn[0].Q.shape[1] <= 4
    assert witness.Q.shape == (n, 2) and moved.Q.shape == U.Q.shape
    # The sections and the direct rotation live on the joint span, k <= 2N.
    assert all(element.Q.shape[1] <= 4 for element in sections)


@pytest.mark.parametrize("n", [16, 128])
def test_section_displacement_is_relatively_accurate(n):
    # sigma - I is formed from the frame displacement, so sigma Phi - Phi1 is
    # rounding relative to Phi1 - Phi; a dense sigma near I leaves eps ||Phi||.
    g = SPACES[n]
    for seed in range(5):
        setup = rng_for_trial(seed, SETUP_TRIAL)
        V = random_stiefel(setup, random_reference(setup, g, 2), scale=0.4)
        for frac in (0.5, 1 / 160, 1e-3):
            V1, _ = stiefel_near(V, frac * radius_r(V), rng_for_trial(seed, 1))
            D = V1.Phi - V.Phi
            moved = section_factors(V, V1).sigma.displacement(V.Phi)
            assert np.linalg.norm(moved - D) <= 1e-12 * np.linalg.norm(D), (seed, frac)


@pytest.mark.parametrize("n", [16, 128])
def test_joint_span_keeps_small_displacements(n):
    # At 1e-5 of the radius the out-of-span part of Phi1 - Phi can fall below
    # the absolute drop rule of complete_basis.  The span is completed on the
    # unit-norm displacement, so it keeps 2N columns and sigma reaches Phi1.
    g = SPACES[n]
    for seed in range(8):
        setup = rng_for_trial(seed, SETUP_TRIAL)
        V = random_stiefel(setup, random_reference(setup, g, 2), scale=0.4)
        V1, _ = stiefel_near(V, 1e-5 * radius_r(V), rng_for_trial(seed, 0))
        Q = group._TwoFrames(V.Phi, V1.Phi, g).Q
        D = V1.Phi - V.Phi
        moved = section_factors(V, V1).sigma.displacement(V.Phi)
        assert Q.shape[1] == 4, seed
        assert np.linalg.norm(moved - D) <= 1e-12 * np.linalg.norm(D), seed


@pytest.mark.parametrize("n", [16, 128])
def test_grassmann_finsler_norm_keeps_span_generators_thin(n):
    # The tangent [X, P] is formed from X L and X^H R on the span of X,
    # so the n-by-n operator of X is never built.
    g = SPACES[n]
    setup = rng_for_trial(5, SETUP_TRIAL)
    P = random_projection(setup, g, 2)
    X = _generator(g, 4, 5)
    specs = (NormSpec.operator(), NormSpec.schatten(1.0), NormSpec.schatten(2.0))
    values = [finsler_norm_grassmann(X, P, spec) for spec in specs]
    assert "data" not in X.__dict__
    for spec, value in zip(specs, values):
        dense = schatten_norm(X.data @ P.P - P.P @ X.data, spec, g)
        assert value == pytest.approx(dense, rel=1e-13)
