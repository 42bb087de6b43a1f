import numpy as np
import pytest

from twonorm import (
    RankDeficiency,
    SkewOperator,
    SpaceSpec,
    adjoint_l2,
    build_space,
    exp_curve,
    exp_skew,
    gram_pair_from_matrices,
    group_log,
    h1_operator_norm,
    phi,
)
from twonorm.oracles import (
    adjoint_by_definition,
    exp_pade,
    log_pade,
    pinv_on_range,
    sqrt_eig,
)
from twonorm.sampling import (
    SETUP_TRIAL,
    random_complex,
    random_projection,
    random_reference,
    random_stiefel,
    rng_for_trial,
    stiefel_near,
)
from twonorm.stiefel import radius_r

from conftest import dense_skew


def rank_one_projection(g):
    v = np.zeros(g.n, dtype=np.complex128)
    v[0] = 1.0
    v = v / np.sqrt((v.conj() @ g.gl2 @ v).real)
    return np.outer(v, v.conj()) @ g.gl2


def test_sqrt_eig_matches_closed_form(g):
    # sqrt(I - 0.75 P) = I - 0.5 P for any weak orthogonal projection P.
    P = rank_one_projection(g)
    A = np.eye(g.n) - 0.75 * P
    R = sqrt_eig(A, g)
    assert np.linalg.norm(R - (np.eye(g.n) - 0.5 * P)) <= 1e-12


def test_sqrt_eig_squares_back(g, rng):
    C = random_complex(rng, g.n, g.n)
    A = g.from_l2_frame(g.to_l2_frame(C) @ g.to_l2_frame(C).conj().T)
    R = sqrt_eig(A, g)
    assert np.linalg.norm(R @ R - A) <= 1e-10 * max(1.0, np.linalg.norm(A))


def test_sqrt_eig_keeps_kernel_exact(g):
    P = rank_one_projection(g)
    R = sqrt_eig(P, g)
    # The square root of a projection is the projection itself, kernel included.
    assert np.linalg.norm(R - P) <= 1e-12
    v = np.ones(g.n, dtype=np.complex128)
    v = v - P @ v
    assert np.linalg.norm(R @ v) <= 1e-12 * np.linalg.norm(v)


def test_sqrt_eig_rejects_non_self_adjoint(g):
    A = np.zeros((g.n, g.n), dtype=np.complex128)
    A[0, 1] = 1.0
    with pytest.raises(ValueError):
        sqrt_eig(A, g)


def test_sqrt_eig_rejects_negative(g):
    with pytest.raises(ValueError):
        sqrt_eig(-np.eye(g.n), g)


def test_adjoint_by_definition_agrees_with_library(g, rng):
    A = random_complex(rng, g.n, g.n)
    B = adjoint_by_definition(A, g)
    assert np.linalg.norm(B - adjoint_l2(A, g)) <= 1e-10 * np.linalg.norm(B)


@pytest.mark.parametrize("n", [16, 128])
def test_adjoint_by_definition_needs_no_lu_solve(n, monkeypatch):
    # A non-grid Gram pair: random Hermitian positive definite gl2, cond 1e3.
    rng = np.random.default_rng(n)
    Q, _ = np.linalg.qr(random_complex(rng, n, n))
    gl2 = (Q * np.logspace(0.0, -3.0, n)) @ Q.conj().T
    g = gram_pair_from_matrices(gl2, 2.0 * gl2 + np.eye(n))
    A = random_complex(rng, n, n)
    expected = adjoint_l2(A, g)

    def refuse(*_, **__):
        raise AssertionError("the oracle reused the library's LU solve")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    B = adjoint_by_definition(A, g)
    assert np.linalg.norm(B - expected) <= 1e-12 * np.linalg.norm(expected)


def test_adjoint_by_definition_frozen_two_point(g_small):
    # d=1, m=2, h=1: gl2 = I, gh1 = [[3,-2],[-2,3]]; the weak adjoint of a
    # matrix is its conjugate transpose because gl2 is the identity.
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    B = adjoint_by_definition(A, g_small)
    assert np.linalg.norm(B - A.conj().T) <= 1e-13


def test_pinv_on_range_inverts_restriction(g, rng):
    P = random_projection(rng, g, 3)
    # A acts as 2 I on range(P) and as the identity off it.
    A = np.eye(g.n) + P.P
    B = pinv_on_range(P.P, A, g)
    assert np.linalg.norm(B @ A @ P.P - P.P) <= 1e-10
    assert np.linalg.norm(A @ B - P.P) <= 1e-10
    # Zero on the weak complement.
    assert np.linalg.norm(B @ (np.eye(g.n) - P.P)) <= 1e-10


def test_pinv_on_range_rejects_leaky_operator(g, rng):
    P = random_projection(rng, g, 2)
    A = random_complex(rng, g.n, g.n)
    with pytest.raises(ValueError):
        pinv_on_range(P.P, A, g)


def test_pinv_on_range_flags_rank_deficiency(g, rng):
    P = random_projection(rng, g, 2)
    A = 1e-14 * P.P
    with pytest.raises(RankDeficiency):
        pinv_on_range(P.P, A, g)


def test_pinv_on_range_zero_rank(g):
    Z = np.zeros((g.n, g.n))
    out = pinv_on_range(Z, np.eye(g.n), g)
    assert np.linalg.norm(out) == 0.0


@pytest.fixture(scope="module", params=[16, 128])
def g_n(request):
    return build_space(SpaceSpec(domain_dim=1, grid_points=request.param, spacing=0.25))


def test_exp_skew_agrees_with_pade(g_n, rng):
    X = dense_skew(rng, g_n, scale=1.0)
    E = exp_pade(X.data, g_n)
    assert np.linalg.norm(exp_skew(X).data - E) <= 1e-12 * np.linalg.norm(E)


def test_exp_curve_points_agree_with_pade(g_n, rng):
    ref = random_reference(rng_for_trial(42, SETUP_TRIAL), g_n, 2)
    V0 = random_stiefel(rng, ref, scale=0.4)
    X = dense_skew(rng, g_n, scale=1.0)
    c = exp_curve(V0, X, steps=9)
    for t, frame in zip(c.ts, c.frames):
        expected = exp_pade(t * X.data, g_n) @ V0.Phi
        assert np.linalg.norm(frame - expected) <= 1e-12 * np.linalg.norm(expected)


def test_group_log_agrees_with_pade(g_n, rng):
    X = dense_skew(rng, g_n, scale=1.0)
    # Strong norm 0.3 keeps exp(X) inside the domain of the principal logarithm.
    X = SkewOperator(X.Q, X.S * (0.3 / h1_operator_norm(X.data, g_n)), g_n)
    U = exp_skew(X)
    L = log_pade(U.data, g_n)
    assert np.linalg.norm(group_log(U).data - L) <= 1e-10 * np.linalg.norm(L)


@pytest.mark.parametrize("seed", [0, 1])
def test_sqrt_eig_is_accurate_on_a_tight_cluster(seed):
    # The validate sqrt-suite operators A = (I - P)(I - Q)(I - P) have n - 2N
    # eigenvalues within 1e-12 of one; the root must still square back to A
    # to near rounding of its unit spectral norm.
    g = build_space(SpaceSpec(domain_dim=1, grid_points=128, spacing=0.25))
    setup = rng_for_trial(seed, SETUP_TRIAL)
    V = random_stiefel(setup, random_reference(setup, g, 2), scale=0.4)
    eye = np.eye(g.n)
    ip = eye - phi(V).P
    r = radius_r(V)
    for trial in range(10):
        rng = rng_for_trial(seed, trial)
        W, _ = stiefel_near(V, (0.1 + 0.6 * rng.random()) * r, rng)
        A = ip @ (eye - phi(W).P) @ ip
        S = sqrt_eig(A, g)
        assert np.linalg.norm(S @ S - A) <= 1e-13 * max(1.0, np.linalg.norm(A, 2))
