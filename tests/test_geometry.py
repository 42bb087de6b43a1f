from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twonorm import (
    ConvergenceFailure,
    CurveSamples,
    GroupElement,
    LowRank,
    NormSpec,
    ReferenceFrame,
    SkewOperator,
    StiefelOperator,
    curve_length,
    distance_upper,
    exp_curve,
    exp_skew,
    finsler_norm_grassmann,
    finsler_norm_stiefel,
    group_log,
    h1_operator_norm,
    h1_singular_values,
    norm_sandwich_check,
    phi,
    schatten_norm,
    SpaceSpec,
    build_space,
    frame_unitary,
)
from twonorm import geometry
from twonorm.basis import orthonormal_columns
from twonorm.sampling import (
    SETUP_TRIAL,
    base_point,
    random_complex,
    random_reference,
    random_skew,
    random_stiefel,
    rng_for_trial,
)

from conftest import dense_skew, skew_residual


def test_norm_spec_labels_and_validation():
    assert NormSpec.operator().label == "operator_h1"
    assert NormSpec.schatten(2.0).label == "schatten_2"
    # The operator norm is the Schatten norm at p = inf: one spec, one label.
    assert NormSpec.schatten(float("inf")) == NormSpec.operator()
    with pytest.raises(ValueError):
        NormSpec.schatten(0.5)
    with pytest.raises(ValueError):
        NormSpec(float("nan"))


def test_h1_singular_values_shape(g, rng):
    A = random_complex(rng, g.n, g.n)
    sv = h1_singular_values(A, g)
    assert sv.shape == (g.n,)
    assert np.all(sv >= 0.0)
    assert np.all(np.diff(sv) <= 0.0)


def test_schatten_limits_agree_with_operator_norm(g, rng):
    A = random_complex(rng, g.n, g.n)
    assert schatten_norm(A, NormSpec.schatten(float("inf")), g) == pytest.approx(
        h1_operator_norm(A, g)
    )
    sv = h1_singular_values(A, g)
    assert schatten_norm(A, NormSpec.schatten(2.0), g) == pytest.approx(
        float(np.sqrt(np.sum(sv**2)))
    )


@settings(max_examples=40, deadline=None)
@given(p=st.floats(1.0, 8.0), q=st.floats(1.0, 8.0))
def test_schatten_norm_decreases_in_p(p, q):
    from twonorm import SpaceSpec, build_space

    g = build_space(SpaceSpec(domain_dim=1, grid_points=8, spacing=0.5))
    A = random_complex(rng_for_trial(7, 7), g.n, g.n)
    lo, hi = sorted((p, q))
    assert schatten_norm(A, NormSpec.schatten(lo), g) >= schatten_norm(
        A, NormSpec.schatten(hi), g
    ) - 1e-12


def test_sandwich_between_operator_and_top_sum(g, ref, rng):
    V1 = random_stiefel(rng, ref, scale=0.4)
    V2 = random_stiefel(rng, ref, scale=0.4)
    for spec in (NormSpec.schatten(1.0), NormSpec.schatten(2.0), NormSpec.schatten(float("inf"))):
        rep = norm_sandwich_check(V1, V2, spec)
        assert rep.ok
        assert rep.operator_norm <= rep.chosen_norm + 1e-10
        assert rep.chosen_norm <= rep.top_sum + 1e-10
        assert rep.top_sum <= 2 * ref.N * rep.operator_norm + 1e-10


def test_sandwich_takes_the_singular_values_once(g, ref, rng):
    # The chosen norm comes from the same singular values as the operator norm and the top sum.
    V1 = random_stiefel(rng, ref, scale=0.4)
    V2 = random_stiefel(rng, ref, scale=0.4)
    for spec in (NormSpec.operator(), NormSpec.schatten(1.0), NormSpec.schatten(2.0)):
        with mock.patch.object(geometry, "h1_singular_values", wraps=geometry.h1_singular_values) as counted:
            rep = norm_sandwich_check(V1, V2, spec)
        assert counted.call_count == 1
        dense = schatten_norm(V1.V - V2.V, spec, g)
        assert abs(rep.chosen_norm - dense) <= 1e-12 * dense


def test_difference_has_low_rank(g, ref, rng):
    # V1 - V2 factors through the N-dimensional reference, so at most 2N
    # singular values can be visible.
    V1 = random_stiefel(rng, ref, scale=0.4)
    V2 = random_stiefel(rng, ref, scale=0.4)
    sv = h1_singular_values(V1.V - V2.V, g)
    assert np.all(sv[2 * ref.N :] <= 1e-10 * max(1.0, sv[0]))


def test_finsler_norms_match_defining_formulas(g, V, rng):
    X = dense_skew(rng, g)
    spec = NormSpec.schatten(2.0)
    assert finsler_norm_stiefel(X, V, spec) == pytest.approx(
        schatten_norm(X.data @ V.V, spec, g)
    )
    P = phi(V)
    assert finsler_norm_grassmann(X, P, spec) == pytest.approx(
        schatten_norm(X.data @ P.P - P.P @ X.data, spec, g)
    )


def test_curve_samples_validation(g, V, rng):
    c = exp_curve(V, dense_skew(rng, g, scale=0.3), steps=4)
    span = dict(Q=c.Q, ref=c.ref)
    with pytest.raises(ValueError):
        CurveSamples(ts=(0.0,), frames=c.frames[:1], cores=c.cores[:1], **span)
    with pytest.raises(ValueError):
        CurveSamples(ts=(0.0, 0.5), frames=c.frames[:2], cores=c.cores[:2], **span)
    with pytest.raises(ValueError):
        CurveSamples(ts=(0.0, 0.7, 0.3, 1.0), frames=c.frames, cores=c.cores, **span)
    with pytest.raises(ValueError):
        CurveSamples(ts=(0.0, 1.0), frames=c.frames[:1], cores=c.cores[:2], **span)
    with pytest.raises(ValueError):
        CurveSamples(ts=(0.0, 1.0), frames=c.frames[:2], cores=c.cores[:1], **span)


def test_exp_curve_endpoints_and_membership(g, V, rng):
    X = dense_skew(rng, g, scale=0.3)
    c = exp_curve(V, X, steps=9)
    assert len(c.ts) == 9
    points = [F @ V.ref.dual.conj().T for F in c.frames]
    assert np.linalg.norm(points[0] - V.V) == 0.0
    end = exp_skew(X).data @ V.V
    assert np.linalg.norm(points[-1] - end) <= 1e-12
    for p in points:
        StiefelOperator.from_matrix(p, V.ref)


def test_constant_curve_has_zero_length(g, V):
    c = exp_curve(V, SkewOperator(V.Phi, np.zeros((V.N, V.N)), g), steps=3)
    assert curve_length(c, NormSpec.schatten(2.0), g) == 0.0


def test_rotation_length_matches_angle(g_flat):
    # One-dimensional reference in the plane; the curve rotates by theta, so
    # its 2-norm length is exactly theta at any sampling density.
    theta = 0.4
    ref = ReferenceFrame(np.array([[1.0], [0.0]]), g_flat)
    V0 = base_point(ref)
    X = SkewOperator(np.eye(2), np.array([[0.0, -theta], [theta, 0.0]]), g_flat)
    c = exp_curve(V0, X, steps=33)
    length = curve_length(c, NormSpec.schatten(2.0), g_flat)
    assert length == pytest.approx(theta, abs=1e-12)


def test_group_log_inverts_exponential(g, rng):
    X = dense_skew(rng, g, scale=0.05)
    U = exp_skew(X)
    Y = group_log(U)
    assert np.linalg.norm(Y.data - X.data) <= 1e-8 * max(1.0, np.linalg.norm(X.data))
    assert skew_residual(Y.data, g) <= 1e-8


def _span(g, k, seed):
    """A weakly orthonormal n-by-k span drawn on the stream of the given trial."""
    return orthonormal_columns(random_complex(rng_for_trial(42, seed), g.n, k), g)


def _unitary(k, seed):
    return np.linalg.qr(random_complex(rng_for_trial(43, seed), k, k))[0]


def test_group_log_of_minus_identity_is_i_pi_on_its_span(g):
    # -I exactly, and -I reached from below as the block exp(-i pi) - 1, whose
    # eigenphases round to -pi: both take the +pi branch.
    Q = _span(g, 3, 0)
    for U in (GroupElement(g.isqrt_l2, -2.0 * np.eye(g.n), g), GroupElement(Q, (np.exp(-1j * np.pi) - 1.0) * np.eye(3), g)):
        X = group_log(U)
        k = X.S.shape[0]
        assert X.Q is U.Q
        assert np.linalg.norm(X.S - 1j * np.pi * np.eye(k)) <= 1e-14 * k
        assert np.linalg.norm(exp_skew(X).B + 2.0 * np.eye(k)) <= 1e-14 * k


@pytest.mark.parametrize("seed", range(5))
def test_group_log_keeps_a_repeated_phase_at_pi_on_one_branch(g, seed):
    # Phases {pi, pi, theta} in a random eigenbasis, with the repeated
    # eigenvalue at -1 built as exp(i pi) and exp(-i pi), so rounding puts it
    # on both sides of the branch cut.
    theta = 2.0 * np.pi * (seed / 5.0 - 0.4)
    W = _unitary(3, seed)
    u = (W * np.exp(1j * np.array([np.pi, -np.pi, theta]))) @ W.conj().T
    U = GroupElement(_span(g, 3, seed), u - np.eye(3), g)
    X = group_log(U)
    assert np.abs(np.linalg.eigvalsh(-1j * X.S) - np.sort([np.pi, np.pi, theta])).max() <= 1e-14
    assert np.linalg.norm(exp_skew(X).B - U.B) <= 1e-14


@pytest.mark.parametrize("size", [1e-12, 1e-6, 1e-2, 1.0])
def test_group_log_round_trip_is_relatively_accurate_near_the_identity(g, size):
    for trial in range(10):
        X = random_skew(rng_for_trial(42, trial), _span(g, 2, trial), g)
        X = SkewOperator(X.Q, X.S * (size / np.linalg.norm(X.S)), g)
        assert np.linalg.norm(group_log(exp_skew(X)).S - X.S) <= 1e-13 * size


def _end_point_miss(V0, V1):
    """Relative weak miss of exp(log U) V0 from V1, for U = frame_unitary(V0, V1)."""
    end = exp_curve(V0, group_log(frame_unitary(V0.Phi, V1.Phi, V0.g)), 2).frames[-1]
    return LowRank(end - V1.Phi, V1.ref.dual).frobenius_norm() / V1.factors.frobenius_norm()


@pytest.mark.parametrize("n", [16, 128])
def test_connecting_curves_reach_every_pair(n):
    # Random pairs at block scales 0.3 to 16, and the far pair -V0.
    g = build_space(SpaceSpec(domain_dim=1, grid_points=n, spacing=0.25))
    ref = random_reference(rng_for_trial(42, SETUP_TRIAL), g, 2)
    misses = []
    for trial in range(100):
        rng = rng_for_trial(42, trial)
        V0 = random_stiefel(rng, ref, scale=0.3)
        misses.append(_end_point_miss(V0, random_stiefel(rng, ref, scale=rng.uniform(0.3, 16.0))))
    misses.append(_end_point_miss(V0, StiefelOperator(-V0.Phi, ref)))
    assert max(misses) <= 1e-14


def test_distance_upper_bounds_chord(g, ref, rng):
    V0 = random_stiefel(rng, ref, scale=0.2)
    Y = dense_skew(rng, g)
    Ys = SkewOperator(Y.Q, 0.05 * Y.S / h1_operator_norm(Y.data, g), g)
    V1 = StiefelOperator.from_matrix(exp_skew(Ys).data @ V0.V, ref)
    spec = NormSpec.schatten(2.0)
    upper = distance_upper(V0, V1, spec)
    chord = h1_operator_norm(V1.V - V0.V, g)
    assert chord <= upper + 1e-6


def test_distance_upper_refuses_a_curve_that_misses_the_target(ref, rng, monkeypatch):
    # A generator 1% too long carries V0 past V1; the end-point check names the miss.
    V0 = random_stiefel(rng, ref, scale=0.3)
    V1 = random_stiefel(rng, ref, scale=0.3)
    spec = NormSpec.schatten(2.0)
    distance_upper(V0, V1, spec)
    principal = geometry.group_log

    def overshoot(U):
        X = principal(U)
        return SkewOperator(X.Q, 1.01 * X.S, X.g)

    monkeypatch.setattr(geometry, "group_log", overshoot)
    with pytest.raises(ConvergenceFailure, match="does not reach the target point"):
        distance_upper(V0, V1, spec)


def test_distance_upper_recovers_rotation(g_flat):
    theta = 0.3
    ref = ReferenceFrame(np.array([[1.0], [0.0]]), g_flat)
    V0 = base_point(ref)
    X = SkewOperator(np.eye(2), np.array([[0.0, -theta], [theta, 0.0]]), g_flat)
    V1 = StiefelOperator.from_matrix(exp_skew(X).data @ V0.V, ref)
    upper = distance_upper(V0, V1, NormSpec.schatten(2.0), steps=128)
    assert upper == pytest.approx(theta, abs=1e-8)
