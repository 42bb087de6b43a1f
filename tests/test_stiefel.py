import numpy as np
import pytest

from twonorm import (
    ConvergenceFailure,
    NeighborhoodViolation,
    ProjectionOperator,
    ReferenceFrame,
    StiefelOperator,
    act,
    adjoint_l2,
    binomial_sqrt_truncated,
    exp_skew,
    frame_unitary,
    h1_operator_norm,
    lie_split_stiefel,
    membership_residual,
    metric_equivalence_report,
    phi,
    projection_lipschitz_report,
    radius_formula,
    radius_r,
    section_factors,
    series_tail_bound,
    sqrt_F,
    translated_section,
    tuple_metric,
)
from twonorm.basis import complete_basis
from twonorm.oracles import pinv_on_range, sqrt_eig
from twonorm.stiefel import _series_terms, binomial_coefficients
from twonorm.sampling import (
    SETUP_TRIAL,
    base_point,
    random_complex,
    random_reference,
    random_stiefel,
    rng_for_trial,
    stiefel_near,
)
from twonorm.space import SpaceSpec, build_space

from conftest import dense, dense_skew


def test_reference_frame_reports_column_bound(ref):
    g = ref.g
    from twonorm import norm_h1

    cols = [norm_h1(ref.Xi[:, i], g) for i in range(ref.N)]
    assert ref.C == pytest.approx(max(cols))
    P = base_point(ref).V
    assert np.linalg.norm(P @ P - P) <= 1e-12
    M = g.to_l2_frame(P)
    assert np.linalg.norm(M - M.conj().T) <= 1e-12


def test_reference_frame_rejects_skewed_columns(g):
    M = np.ones((g.n, 2))
    with pytest.raises(ValueError):
        ReferenceFrame(M, g)


def test_stiefel_operator_rejects_identity(ref):
    # The identity is an isometry but does not kill the complement of S.
    with pytest.raises(ValueError):
        StiefelOperator.from_matrix(np.eye(ref.n), ref)


def test_stiefel_operator_rejects_random(ref, rng):
    with pytest.raises(ValueError):
        StiefelOperator.from_matrix(random_complex(rng, ref.n, ref.n), ref)


def test_base_point_is_span_projection(ref):
    b = base_point(ref)
    span = ref.Xi @ ref.Xi.conj().T @ ref.g.gl2
    assert np.linalg.norm(b.V - span) <= 1e-13
    assert np.linalg.norm(b.V @ ref.Xi - ref.Xi) <= 1e-12


def test_tuple_metric_vanishes_on_equal_frames(V):
    assert tuple_metric(V, V) == 0.0


def test_metric_equivalence_two_sided(g, ref, rng):
    V1 = random_stiefel(rng, ref, scale=0.3)
    V2 = random_stiefel(rng, ref, scale=0.3)
    rep = metric_equivalence_report(V1, V2)
    assert rep.lower_ok and rep.upper_ok and rep.ok
    assert rep.tuple_distance > 0.0


def test_action_stays_on_manifold(g, V, rng):
    U = exp_skew(dense_skew(rng, g, scale=0.7))
    moved = act(U, V)
    assert np.linalg.norm(moved.Phi - U.data @ V.Phi) <= 1e-14 * np.linalg.norm(V.Phi)
    assert np.linalg.norm(moved.V - U.data @ V.V) <= 1e-14 * np.linalg.norm(V.V)


def test_projection_of_is_idempotent(V):
    P = phi(V)
    assert P.N == V.N
    assert np.linalg.norm(P.P @ P.P - P.P) <= 1e-12
    assert np.linalg.norm(P.P @ V.V - V.V) <= 1e-12


def test_projection_lipschitz_holds(g, ref, rng):
    V1 = random_stiefel(rng, ref, scale=0.4)
    V2 = random_stiefel(rng, ref, scale=0.4)
    rep = projection_lipschitz_report(V1, V2)
    assert rep.ok
    assert rep.lhs <= rep.bound + 1e-10


def test_binomial_coefficients_frozen():
    c = binomial_coefficients(4)
    assert np.allclose(c, [0.5, -0.125, 0.0625, -0.0390625], atol=1e-15)


def _unit_column(g, i):
    """The i-th unit n-vector as a column: a factor K with ||K||_2 = 1."""
    e = np.zeros((g.n, 1), dtype=np.complex128)
    e[i] = 1.0
    return e


def _series_at_radius(K, g, rho):
    """The series of the factor K at the term count that ``sqrt_F`` takes for weak spectral radius rho."""
    (S,) = binomial_sqrt_truncated(K, [_series_terms(rho, max(1.0, g.pencil_factor))])
    return S


def test_binomial_sqrt_closed_form(g):
    # (I - 0.75 e e^H)^(1/2) - I = -0.5 e e^H.
    e = _unit_column(g, 0)
    S = _series_at_radius(np.sqrt(0.75) * e, g, 0.75)
    assert np.linalg.norm(S + 0.5 * e @ e.conj().T) <= 1e-9


def test_binomial_sqrt_rejects_bad_spectrum(g):
    # The argument -K K^H has spectrum in [-1, 0] when ||K||_2^2 <= 1; rounding
    # may take the square past 1 by 1e-10 and no more.
    binomial_sqrt_truncated(np.sqrt(1.0 + 1e-11) * np.eye(g.n), [1])
    for square in (1.0 + 1e-9, 1.5):
        with pytest.raises(ValueError, match="squared 2-norm .* above 1"):
            binomial_sqrt_truncated(np.sqrt(square) * np.eye(g.n), [1])


def test_binomial_sqrt_deflates_known_kernel(g, V):
    # I - P has an exact kernel on range(P), where the plain series would
    # crawl; sqrt_F leaves it out of the block the series runs on.
    R = np.eye(g.n) + dense(sqrt_F(V, V))
    assert np.linalg.norm(R - (np.eye(g.n) - phi(V).P)) <= 1e-13
    assert np.linalg.norm(R @ V.Phi) <= 1e-13


def test_binomial_sqrt_at_spectral_radius_one_names_it(g):
    # A unit factor has weak spectral radius 1: the tail bound decays like
    # 1/sqrt(s) and cannot reach the tolerance within kmax terms.
    e = _unit_column(g, 2)
    with pytest.raises(ConvergenceFailure, match="spectral radius 1"):
        _series_at_radius(e, g, min(1.0, float(np.linalg.norm(e, 2)) ** 2))


def test_truncated_series_first_order(g):
    (out,) = binomial_sqrt_truncated(np.sqrt(0.3) * np.eye(g.n), [1])
    assert np.linalg.norm(out + 0.15 * np.eye(g.n)) <= 1e-14


def test_truncated_series_one_pass_matches_single_counts(g, V, rng):
    C = g.to_l2_frame(random_complex(rng, g.n, g.n))
    for counts in ((1, 4, 8, 16), (3, 8, 20, 24, 40, 129)):
        for K in (np.sqrt(0.8) * C / np.linalg.norm(C, 2), np.sqrt(0.5) * g.to_l2_frame(phi(V).P)):
            sums = binomial_sqrt_truncated(K, counts)
            assert len(sums) == len(counts)
            for s, total in zip(counts, sums):
                (single,) = binomial_sqrt_truncated(K, [s])
                assert np.array_equal(total, single)


@pytest.mark.parametrize("counts", [(), (0, 4), (4, 4), (8, 4), (-1,)])
def test_truncated_series_rejects_bad_counts(g, counts):
    with pytest.raises(ValueError):
        binomial_sqrt_truncated(np.sqrt(0.3) * np.eye(g.n), counts)


def test_series_tail_bound_dominates_error(g, rng):
    L = g.to_l2_frame(random_complex(rng, g.n, g.n))
    K = np.sqrt(0.8) * L / np.linalg.norm(L, 2)
    eye = np.eye(g.n)
    exact = g.to_l2_frame(sqrt_eig(eye - g.from_l2_frame(K @ K.conj().T), g)) - eye
    for terms in (4, 8, 16, 32):
        (approx,) = binomial_sqrt_truncated(K, [terms])
        err = np.linalg.norm(approx - exact, 2)
        assert err <= series_tail_bound(terms, 0.8) + 1e-13


def test_series_tail_bound_decreases():
    vals = [series_tail_bound(t, 0.8) for t in (4, 8, 16, 32, 64)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_series_tail_bound_rejects_bad_args():
    with pytest.raises(ValueError):
        series_tail_bound(4, 1.0)
    with pytest.raises(ValueError):
        series_tail_bound(0, 0.5)


def test_sqrt_f_matches_oracle(g, ref, rng):
    V = random_stiefel(rng, ref, scale=0.4)
    W = random_stiefel(rng, ref, scale=0.4)
    eye = np.eye(g.n)
    R = eye + dense(sqrt_F(V, W))
    ip = eye - phi(V).P
    arg = ip @ (eye - phi(W).P) @ ip
    assert np.linalg.norm(R @ R - arg) <= 1e-9
    assert np.linalg.norm(R - sqrt_eig(arg, g)) <= 1e-8
    # Exactly zero on the image of V by construction.
    assert np.linalg.norm(R @ phi(V).P) <= 1e-12


def test_radius_formula_frozen_values():
    assert radius_formula(1.0, 1, 1.0) == pytest.approx(1.0 / 18.0)
    assert radius_formula(1.0, 1, 0.0) == pytest.approx(1.0 / 4.0)


def test_radius_r_positive(V):
    r = radius_r(V)
    assert 0.0 < r <= 1.0


def test_section_reproduces_target(g, V, rng):
    target = 0.5 * radius_r(V)
    V1, achieved = stiefel_near(V, target, rng)
    assert achieved == pytest.approx(target, rel=1e-6)
    fac = section_factors(V, V1)
    assert max(fac.bounds) < 1.0
    assert np.linalg.norm(fac.sigma.data @ V.V - V1.V) <= 1e-9
    assert membership_residual(fac.sigma.data, g) <= 1e-8
    assert np.linalg.cond(fac.sigma.data) < 1e12


def test_section_partial_isometries(g, V, rng):
    V1, _ = stiefel_near(V, 0.25 * radius_r(V), rng)
    fac = section_factors(V, V1)
    P = phi(V).P
    P1 = phi(V1).P
    ip = np.eye(g.n) - P
    # T1 = T P maps range(P) isometrically onto range(P1), T2 = T (I - P) the complements.
    t1, t2 = fac.t.data @ P, fac.t.data @ ip
    assert np.linalg.norm(adjoint_l2(t1, g) @ t1 - P) <= 1e-8
    assert np.linalg.norm(t1 @ adjoint_l2(t1, g) - P1) <= 1e-8
    assert np.linalg.norm(adjoint_l2(t2, g) @ t2 - ip) <= 1e-8
    assert np.linalg.norm(t2 @ adjoint_l2(t2, g) - (np.eye(g.n) - P1)) <= 1e-8


@pytest.mark.parametrize("frac", [0.9, 1e-4, 1e5])
@pytest.mark.parametrize("n", [16, 128])
def test_section_factors_match_restricted_inverse_roots(n, frac):
    # The direct rotation's span block, restricted by P and I - P, against the definitions
    # T1 = P1 (P P1 P)^(-1/2) and T2 = (I - P1)((I - P)(I - P1)(I - P))^(-1/2),
    # inverted on the ranges by an independent eigendecomposition and solve.
    # At 1e5 r the point is far outside the paper's radius, yet inside the
    # contraction bounds that gate the closed form.
    g = build_space(SpaceSpec(domain_dim=1, grid_points=n, spacing=0.25))
    setup = rng_for_trial(42, SETUP_TRIAL)
    V = random_stiefel(setup, random_reference(setup, g, 2), scale=0.4)
    V1, _ = stiefel_near(V, frac * radius_r(V), rng_for_trial(42, 1))
    fac = section_factors(V, V1)
    eye = np.eye(n)
    P, P1 = phi(V).P, phi(V1).P
    ip, ip1 = eye - P, eye - P1
    t1 = P1 @ pinv_on_range(P, sqrt_eig(P @ P1 @ P, g), g)
    t2 = ip1 @ pinv_on_range(ip, sqrt_eig(ip @ ip1 @ ip, g), g)
    assert np.linalg.norm(fac.t.data @ P - t1) <= 1e-12 * np.linalg.norm(t1)
    assert np.linalg.norm(fac.t.data @ ip - t2) <= 1e-12 * np.linalg.norm(t2)


def _turned_off_range(V, rng):
    """V's first image vector and one direction weakly orthogonal to range(V).

    P (I - P1) P then holds the weak projection onto V's second image vector,
    whose strong norm is at least 1, so no section reaches this point.
    """
    w = complete_basis(V.Phi, random_complex(rng, V.n, 1), V.g)
    return StiefelOperator(np.hstack([V.Phi[:, :1], w]), V.ref)


def _seeded_points(n):
    g = build_space(SpaceSpec(domain_dim=1, grid_points=n, spacing=0.25))
    for seed in range(10):
        setup = rng_for_trial(seed, SETUP_TRIAL)
        yield seed, random_stiefel(setup, random_reference(setup, g, 2), scale=0.4)


@pytest.mark.parametrize("n", [16, 128])
def test_section_reaches_far_beyond_the_safe_radius(n):
    # The contraction bounds, not r, gate the section: at 1e5 r they stay far
    # below 1 and sigma Phi - Phi1 is rounding relative to Phi1 - Phi.
    for seed, V in _seeded_points(n):
        V1, _ = stiefel_near(V, 1e5 * radius_r(V), rng_for_trial(seed, 1))
        D = V1.Phi - V.Phi
        fac = section_factors(V, V1)
        assert max(fac.bounds) < 0.1, seed
        assert np.linalg.norm(fac.sigma.displacement(V.Phi) - D) <= 1e-13 * np.linalg.norm(D), seed


def test_section_rejects_far_point():
    for n in (16, 128):
        for seed, V in _seeded_points(n):
            with pytest.raises(NeighborhoodViolation):
                section_factors(V, _turned_off_range(V, rng_for_trial(seed, 0)))


def test_translated_section_moves_base_point(g, V, rng):
    mover = exp_skew(dense_skew(rng, g, scale=0.2))
    V0 = act(mover, V)
    shrink = h1_operator_norm(mover.inverse.data, g)
    V1, _ = stiefel_near(V0, 0.25 * radius_r(V) / shrink, rng)
    sigma = translated_section(V, V0, V1)
    assert np.linalg.norm(sigma.data @ V.V - V1.V) <= 1e-8


@pytest.mark.parametrize("n", [16, 128])
def test_translated_section_reaches_far_beyond_the_translated_radius(n):
    # The translated radius r / ||U^-1|| is a sufficient condition only; at
    # 1e3 times it the section still maps V to V1 to rounding relative to the move.
    for seed, V in _seeded_points(n):
        mover = rng_for_trial(seed, 2)
        V0 = random_stiefel(mover, V.ref, scale=0.3)
        allowed = radius_r(V) / frame_unitary(V.Phi, V0.Phi, V.g).inverse.h1_norm
        V1, _ = stiefel_near(V0, 1e3 * allowed, mover)
        D = V1.Phi - V.Phi
        miss = translated_section(V, V0, V1).displacement(V.Phi) - D
        assert np.linalg.norm(miss) <= 1e-13 * np.linalg.norm(D), seed


def test_translated_section_rejects_far_point():
    # U^-1 is a weak isometry carrying range(V0) onto range(V), so a direction
    # weakly orthogonal to range(V0) stays weakly orthogonal to range(V).
    for n in (16, 128):
        for seed, V in _seeded_points(n):
            V0 = random_stiefel(rng_for_trial(seed, 2), V.ref, scale=0.3)
            with pytest.raises(NeighborhoodViolation):
                translated_section(V, V0, _turned_off_range(V0, rng_for_trial(seed, 0)))


def test_generated_tangents_satisfy_the_frame_identity(g, V, rng):
    # Z = X V is tangent at V: Phi^H gl2 Z Xi = Phi^H gl2 (X Phi) is skew-Hermitian.
    X = dense_skew(rng, g)
    M = V.Phi.conj().T @ g.l2(X.apply(V.Phi))
    assert np.linalg.norm(M + M.conj().T) <= 1e-12 * max(1.0, np.linalg.norm(M))
    assert np.linalg.norm(V.Phi.conj().T @ g.gl2 @ (X.data @ V.V) @ V.ref.Xi - M) <= 1e-12


def test_lie_split_recombines(g, V, rng):
    X = dense_skew(rng, g)
    P = phi(V)
    xg, xh = lie_split_stiefel(X, P)
    assert np.linalg.norm(xg.data + xh.data - X.data) <= 1e-12
    # The isotropy part annihilates the image subspace on both sides.
    assert np.linalg.norm(xg.data @ P.P) <= 1e-12
    assert np.linalg.norm(P.P @ xg.data) <= 1e-12



def _with_nan(A):
    A = np.array(A, dtype=np.complex128)
    A[1, 0] = np.nan
    return A


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda g, ref, V: ReferenceFrame(_with_nan(ref.Xi), g), "reference frame is not orthonormal"),
        (lambda g, ref, V: StiefelOperator(_with_nan(V.Phi), ref), "image frame is not orthonormal"),
        (lambda g, ref, V: StiefelOperator.from_matrix(_with_nan(V.V), ref), "not an isometric embedding"),
        (lambda g, ref, V: ProjectionOperator(_with_nan(V.Phi), g), "range frame is not orthonormal"),
        (lambda g, ref, V: ProjectionOperator.from_matrix(_with_nan(phi(V).P), V.N, g), "operator is not idempotent"),
        (lambda g, ref, V: binomial_sqrt_truncated(_with_nan(np.sqrt(0.5) * np.eye(g.n)), [1]),
         "series factor has non-finite entries"),
    ],
    ids=["ReferenceFrame", "StiefelOperator", "StiefelOperator.from_matrix", "ProjectionOperator",
         "ProjectionOperator.from_matrix", "binomial_sqrt_truncated"],
)
def test_construction_gates_reject_nan(g, ref, V, build, message):
    # A gate written value > limit would pass NaN, since every comparison with NaN is false.
    with pytest.raises(ValueError, match=message):
        build(g, ref, V)
