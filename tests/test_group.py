import numpy as np
import pytest

from twonorm import (
    GroupElement,
    MembershipDefect,
    SpaceSpec,
    SkewOperator,
    algebraic_membership_residual,
    build_space,
    exp_skew,
    frame_unitary,
    gram_pair_from_matrices,
    h1_operator_norm,
    membership_residual,
    skew_residual,
)
from twonorm.basis import orthonormal_columns
from twonorm.group import OneParameterGroup, _operator
from twonorm.sampling import random_complex, rng_for_trial

from conftest import dense_skew


def test_skew_parameterization_is_exact(g, rng):
    X = dense_skew(rng, g)
    assert skew_residual(X.data, g) <= 1e-13


def test_exponential_lands_in_group(g, rng):
    X = dense_skew(rng, g, scale=1.5)
    U = exp_skew(X)
    assert membership_residual(U.data, g) <= 1e-10
    assert np.linalg.cond(U.data) < 1e12


def test_group_operations_stay_in_group(g, rng):
    U = exp_skew(dense_skew(rng, g, scale=0.8))
    W = exp_skew(dense_skew(rng, g, scale=0.8))
    assert membership_residual(U.data @ W.data, g) <= 1e-9
    assert membership_residual(U.inverse.data, g) <= 1e-9
    assert np.allclose(U.data @ U.inverse.data, np.eye(g.n), atol=1e-10)


def test_exponential_one_parameter_property(g, rng):
    X = dense_skew(rng, g, scale=0.6)
    U = lambda t: exp_skew(SkewOperator(X.Q, t * X.S, g)).data
    assert np.allclose(U(0.7) @ U(0.3), U(1.0), atol=1e-12)
    assert np.allclose(U(1.0) @ U(-1.0), np.eye(g.n), atol=1e-12)


def test_displacement_keeps_relative_accuracy_for_tiny_steps(g, rng):
    X = dense_skew(rng, g)
    curve = OneParameterGroup(X)
    F = orthonormal_columns(random_complex(rng, g.n, 2), g)
    assert np.allclose(curve(0.3).displacement(F), curve(0.3).data @ F - F, atol=1e-13)
    # exp(tX) F - F = t X F + O(t^2); subtracting F from exp(tX) F instead
    # would leave a relative error near eps / t.
    t = 1e-12
    step = t * (X.data @ F)
    assert np.linalg.norm(curve(t).displacement(F) - step) <= 1e-10 * np.linalg.norm(step)


def test_bracket_closes(g, rng):
    X = dense_skew(rng, g)
    Y = dense_skew(rng, g)
    # Both generators are on the span gl2^{-1/2}, so the bracket is that of their blocks.
    Z = SkewOperator(X.Q, X.S @ Y.S - Y.S @ X.S, g)
    assert skew_residual(Z.data, g) <= 1e-12


def test_group_element_rejects_non_member(g):
    bad = np.eye(g.n, dtype=np.complex128)
    bad[0, 0] = 2.0
    with pytest.raises(ValueError):
        GroupElement(g.isqrt_l2, g.to_l2_frame(bad) - np.eye(g.n), g)
    with pytest.raises(ValueError):
        SkewOperator(g.isqrt_l2, np.eye(g.n), g)


def test_membership_rejects_singular(g):
    # On a grid the residual of a singular matrix is at least 1/sqrt(n).
    with pytest.raises(MembershipDefect):
        GroupElement(g.isqrt_l2, -np.eye(g.n), g)


def test_frame_unitary_swaps_axes(g_flat):
    F0 = np.array([[1.0], [0.0]], dtype=complex)
    F1 = np.array([[0.0], [1.0]], dtype=complex)
    U = frame_unitary(F0, F1, g_flat)
    assert np.allclose(U.data, [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)


def test_frame_unitary_maps_frame_to_frame(g, rng):
    F0 = orthonormal_columns(random_complex(rng, g.n, 3), g)
    F1 = orthonormal_columns(random_complex(rng, g.n, 3), g)
    U = frame_unitary(F0, F1, g)
    assert np.allclose(U.data @ F0, F1, atol=1e-9)
    assert membership_residual(U.data, g) <= 1e-9


def _symmetric_orthonormalization(M, g):
    w, Q = np.linalg.eigh(M.conj().T @ g.gl2 @ M)
    return M @ (Q * (1.0 / np.sqrt(w))) @ Q.conj().T


def test_frame_unitary_near_identity_for_nearby_frames(g, rng):
    F0 = orthonormal_columns(random_complex(rng, g.n, 2), g)
    # Symmetric orthonormalization keeps the perturbed frame columnwise close.
    F1 = _symmetric_orthonormalization(F0 + 1e-6 * random_complex(rng, g.n, 2), g)
    assert np.linalg.norm(F1 - F0) <= 1e-4
    U = frame_unitary(F0, F1, g)
    assert np.linalg.norm(U.data - np.eye(g.n)) <= 1e-4


def test_frame_unitary_transitive_on_frames(g, rng):
    frames = [orthonormal_columns(random_complex(rng, g.n, 2), g) for _ in range(3)]
    U01 = frame_unitary(frames[0], frames[1], g)
    U12 = frame_unitary(frames[1], frames[2], g)
    assert np.linalg.norm(U12.data @ (U01.data @ frames[0]) - frames[2]) <= 1e-9


@pytest.mark.parametrize("n", [16, 128])
def test_frame_unitary_is_well_conditioned_near_coincidence(n):
    # Completion vectors normalize residuals of size d; the element must still
    # be a group member and move no more than the frames do.
    g = build_space(SpaceSpec(domain_dim=1, grid_points=n, spacing=0.25))
    for trial, d in enumerate(np.logspace(-14, 0, 15)):
        for pair in range(3):
            rng = rng_for_trial(5 + pair, trial)
            F0 = orthonormal_columns(random_complex(rng, n, 2), g)
            E = random_complex(rng, n, 2)
            E /= np.sqrt(np.trace(E.conj().T @ g.gl2 @ E).real)
            F1 = _symmetric_orthonormalization(F0 + d * E, g)
            U = frame_unitary(F0, F1, g)
            assert membership_residual(U.data, g) <= 1e-12, (d, pair)
            step = np.linalg.norm(F1 - F0)
            assert np.linalg.norm(U.data - np.eye(n)) <= 2.0 * step, (d, pair)
            assert np.linalg.norm(U.data @ F0 - F1) <= 1e-9


def test_algebraic_membership_detects_stretch(g, rng):
    U = exp_skew(dense_skew(rng, g, scale=0.8))
    assert algebraic_membership_residual(U.data, g) <= 1e-8
    stretch = np.eye(g.n, dtype=np.complex128)
    stretch[0, 0] = 2.0
    assert algebraic_membership_residual(stretch, g) > 0.1
    with pytest.raises(ValueError):
        algebraic_membership_residual(np.zeros((g.n, g.n)), g)


def test_algebraic_membership_is_deterministic(g, rng):
    U = exp_skew(dense_skew(rng, g, scale=0.5))
    r1 = algebraic_membership_residual(U.data, g)
    r2 = algebraic_membership_residual(U.data, g)
    assert r1 == r2


def test_algebraic_membership_is_exact_at_n128():
    # A stretch of one coordinate is off the group by |2^2 - 1| = 3 in one
    # direction only, of which a random unit vector sees about 1/n.
    g = build_space(SpaceSpec(domain_dim=1, grid_points=128, spacing=0.25))
    drift = np.eye(g.n, dtype=np.complex128)
    drift[0, 0] = 2.0
    assert algebraic_membership_residual(drift, g) == pytest.approx(3.0, rel=1e-12)
    U = exp_skew(dense_skew(rng_for_trial(1, 0), g, scale=0.7))
    value = algebraic_membership_residual(U.data, g)
    assert value <= 1e-12
    # The value is a supremum: no weakly normalized vector exceeds it.
    rng = rng_for_trial(1, 1)
    for M in (U.data, drift):
        sup = algebraic_membership_residual(M, g)
        for _ in range(8):
            v = random_complex(rng, g.n, 1)[:, 0]
            v = v / np.sqrt((v.conj() @ (g.gl2 @ v)).real)
            defect = abs((v.conj() @ (M.conj().T @ g.gl2 @ M @ v)).real - 1.0)
            assert defect <= sup + 1e-12


def _weighted_pair(n=16, spacing=0.25):
    """A pair whose weak form is a non-scalar Hermitian matrix, so every weak-form product is dense."""
    A = random_complex(rng_for_trial(7, 0), n, n)
    gl2 = spacing * np.eye(n) + 0.05 * (A @ A.conj().T) / n
    D = np.roll(np.eye(n), 1, axis=1) - np.eye(n)
    return gram_pair_from_matrices(gl2, gl2 + D.T @ gl2 @ D / spacing**2)


PAIRS = {
    "grid": build_space(SpaceSpec(domain_dim=1, grid_points=16, spacing=0.25)),
    "weighted": _weighted_pair(),
}


@pytest.mark.parametrize("n", [16, 128])
@pytest.mark.parametrize("kind", ["grid", "weighted"])
def test_the_dense_group_identities_hold_for_k_equals_n_elements(kind, n):
    # validate's group suite checks these on span[Xi, G]; here X and V are full rank.
    g = build_space(SpaceSpec(domain_dim=1, grid_points=n, spacing=0.25)) if kind == "grid" else _weighted_pair(n)
    eye = np.eye(n)
    for seed in range(3):
        rng = rng_for_trial(seed, 0)
        X = dense_skew(rng, g, scale=1.0)
        assert X.Q.shape == (n, n)
        assert skew_residual(X.data, g) <= 1e-12
        U = exp_skew(X)
        assert membership_residual(U.data, g) <= 1e-10
        V = exp_skew(dense_skew(rng, g, scale=0.7))
        assert membership_residual(U.data @ V.data, g) <= 1e-9
        assert membership_residual(U.inverse.data, g) <= 1e-9
        # exp(-X) from a decomposition of its own.
        back = exp_skew(SkewOperator(X.Q, -X.S, g))
        assert np.linalg.norm(U.data @ back.data - eye) <= 1e-11 * np.exp(2.0)
        assert algebraic_membership_residual(U.data, g) <= 1e-8
    drift = eye.astype(np.complex128)
    drift[0, 0] = 2.0
    assert algebraic_membership_residual(drift, g) > 0.1


def _elements(g, seed):
    """A frame unitary (k <= 2N), a random member (k = n) and its dense data taken back as a k = n element."""
    rng = rng_for_trial(seed, 0)
    F0 = orthonormal_columns(random_complex(rng, g.n, 2), g)
    F1 = orthonormal_columns(F0 + 0.3 * random_complex(rng, g.n, 2), g)
    member = exp_skew(dense_skew(rng, g, scale=0.7))
    return frame_unitary(F0, F1, g), member, GroupElement(g.isqrt_l2, g.to_l2_frame(member.data) - np.eye(g.n), g)


@pytest.mark.parametrize("kind", PAIRS)
def test_the_inverse_element_is_the_retired_inverse_formulas_bit_for_bit(kind):
    g = PAIRS[kind]
    F = random_complex(rng_for_trial(3, 1), g.n, 3)
    for U in _elements(g, 3):
        # The retired inv, inv_displacement and inv_h1_norm, as they were written.
        Bh, k = U.B.conj().T, U.Q.shape[1]
        dense = np.eye(g.n) + _operator(U, Bh)
        moved = U.Q @ (Bh @ (U.Q.conj().T @ g.l2(F)))
        T = np.linalg.qr(np.hstack([g.h1_half(U.Q @ Bh), g.h1_ihalf(g.l2(U.Q))]), mode="r")
        top = float(np.linalg.norm(np.eye(T.shape[0]) + T[:, :k] @ T[:, k:].conj().T, 2))
        assert U.inverse is U.inverse and U.inverse.Q is U.Q
        assert np.array_equal(U.inverse.data, dense)
        assert np.array_equal(U.inverse.displacement(F), moved)
        assert U.inverse.h1_norm == (top if T.shape[0] == g.n else max(1.0, top))
        # h1_norm is the strong operator norm of any element, U itself included.
        for W in (U, U.inverse):
            norm = h1_operator_norm(W.data, g)
            assert abs(W.h1_norm - norm) <= 1e-12 * norm


@pytest.mark.parametrize("kind", PAIRS)
def test_the_one_svd_membership_residual_is_the_eigenvalue_form(kind):
    g = PAIRS[kind]
    eye = np.eye(g.n, dtype=np.complex128)
    drift = eye.copy()
    drift[0, 0] = 2.0
    for seed in range(4):
        for A in [U.data for U in _elements(g, seed)] + [drift]:
            # The retired value: the largest |eigenvalue| of M^H M - I.
            M = g.to_l2_frame(A)
            D = M.conj().T @ M - eye
            parent = float(np.max(np.abs(np.linalg.eigvalsh(0.5 * (D + D.conj().T)))))
            assert abs(algebraic_membership_residual(A, g) - parent) <= 1e-14 * max(1.0, parent)
    if kind == "grid":
        assert algebraic_membership_residual(drift, g) == pytest.approx(3.0, abs=1e-12)
    singular = eye.copy()
    singular[:, 0] = 0.0
    with pytest.raises(ValueError, match="singular"):
        algebraic_membership_residual(singular, g)
