from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twonorm import (
    SpaceSpec,
    adjoint_l2,
    build_space,
    forward_difference,
    gram_pair_from_matrices,
    h1_operator_norm,
    inner_h1,
    inner_l2,
    norm_h1,
    norm_l2,
)
from twonorm.basis import complete_basis, orthonormal_columns
from twonorm.oracles import adjoint_by_definition
from twonorm.sampling import random_complex, rng_for_trial


def test_spec_validation():
    with pytest.raises(ValueError):
        SpaceSpec(domain_dim=4, grid_points=4, spacing=0.5)
    with pytest.raises(ValueError):
        SpaceSpec(domain_dim=1, grid_points=1, spacing=0.5)
    with pytest.raises(ValueError):
        SpaceSpec(domain_dim=1, grid_points=4, spacing=-1.0)
    # Every grid is periodic; there is no boundary field to set.
    with pytest.raises(TypeError):
        SpaceSpec(domain_dim=1, grid_points=4, spacing=0.5, boundary="periodic")
    assert SpaceSpec(domain_dim=2, grid_points=3, spacing=0.5).n == 9


@pytest.mark.parametrize("value", [2.5, 2.0, True, "3"], ids=["float", "integral-float", "bool", "string"])
@pytest.mark.parametrize("key", ["domain_dim", "grid_points"])
def test_spec_integer_fields_reject_non_integers(key, value):
    # Checked by the constructor itself, not only on the JSON path: a float
    # grid_points would give a pair with a float n.
    with pytest.raises(ValueError, match=f"{key} must be an integer"):
        SpaceSpec(**{key: value})
    assert getattr(SpaceSpec(**{key: np.int64(2)}), key) == 2  # a numpy integer is an integer


@pytest.mark.parametrize("value", [True, "0.25", 1 + 0j, 10**400], ids=["bool", "string", "complex", "beyond-float"])
def test_spec_spacing_rejects_non_real_numbers(value):
    # Checked by the constructor itself: a boolean would build a pair with
    # w = 1.0, and a string or a complex would fail the sign check with a TypeError.
    with pytest.raises(ValueError, match="spacing must be a number"):
        SpaceSpec(spacing=value)
    assert SpaceSpec(spacing=np.float32(0.5)).spacing == 0.5
    assert type(SpaceSpec(spacing=1).spacing) is float


def test_two_point_strong_gram(g_small):
    assert np.allclose(g_small.gl2, np.eye(2))
    assert np.allclose(g_small.gh1, [[3.0, -2.0], [-2.0, 3.0]], atol=1e-14)


def test_difference_operator_is_periodic():
    spec = SpaceSpec(domain_dim=1, grid_points=4, spacing=0.5)
    D = forward_difference(spec, 0)
    ones = np.ones(4)
    assert np.allclose(D @ ones, 0.0)
    e0 = np.zeros(4)
    e0[0] = 1.0
    # (S - I)/h moves mass one site backward against the shift direction.
    assert np.allclose(D @ e0, np.array([-2.0, 0.0, 0.0, 2.0]))


def test_strong_dominates_weak(g):
    lam = np.linalg.eigvalsh(g.gh1 - g.gl2)
    assert lam[0] >= -1e-10 * np.linalg.norm(g.gh1, 2)


def test_gram_pair_checks_domination_without_an_svd():
    # The PSD floor's scale is the top eigenvalue of the definite gh1, its 2-norm;
    # np.linalg.norm(gh1, 2) would take a full SVD through the module's svd.
    def refuse(*args, **kwargs):
        raise AssertionError("SVD in the Gram pair check")

    with mock.patch.object(np.linalg, "svd", refuse), mock.patch.object(np.linalg._linalg, "svd", refuse):
        g = build_space(SpaceSpec(domain_dim=1, grid_points=16, spacing=0.25))
        with pytest.raises(ValueError, match="the strong form must dominate"):
            gram_pair_from_matrices(np.eye(2), 0.5 * np.eye(2))
    assert g.n == 16


def test_gram_pair_rejects_bad_input():
    with pytest.raises(ValueError):
        gram_pair_from_matrices(np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(2))
    with pytest.raises(ValueError):
        gram_pair_from_matrices(np.diag([1.0, -1.0]), np.eye(2))
    with pytest.raises(ValueError):
        # Strong form fails to dominate the weak one.
        gram_pair_from_matrices(np.eye(2), 0.5 * np.eye(2))


def test_inner_product_conventions(g_small):
    x = np.array([1.0 + 0j, 0.0])
    y = np.array([0.0, 1.0 + 0j])
    assert inner_l2(x, x, g_small) == pytest.approx(1.0)
    assert inner_l2(2j * x, x, g_small) == pytest.approx(2j)
    assert inner_l2(x, 2j * x, g_small) == pytest.approx(-2j)
    assert inner_l2(x, y, g_small) == pytest.approx(0.0)
    assert inner_h1(x, y, g_small) == pytest.approx(-2.0)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.complex_numbers(max_magnitude=3.0, allow_nan=False))
def test_inner_l2_sesquilinear(seed, a):
    g = build_space(SpaceSpec(domain_dim=1, grid_points=5, spacing=0.7))
    rng = rng_for_trial(seed, 0)
    x, y, z = (random_complex(rng, 5, 1)[:, 0] for _ in range(3))
    lhs = inner_l2(a * x + z, y, g)
    rhs = a * inner_l2(x, y, g) + inner_l2(z, y, g)
    assert lhs == pytest.approx(rhs, abs=1e-9)
    assert inner_l2(y, a * x + z, g) == pytest.approx(
        np.conj(a) * inner_l2(y, x, g) + inner_l2(y, z, g), abs=1e-9
    )


def test_norms_and_monotonicity(g, rng):
    x = random_complex(rng, g.n, 1)[:, 0]
    assert norm_l2(x, g) <= norm_h1(x, g) + 1e-12
    assert norm_l2(np.zeros(g.n), g) == 0.0


def test_adjoint_of_nilpotent_shift():
    gp = gram_pair_from_matrices(np.diag([1.0, 2.0]), np.diag([2.0, 3.0]))
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(adjoint_l2(A, gp), [[0.0, 0.0], [0.5, 0.0]], atol=1e-14)


def test_adjoint_identities(g, rng):
    A = random_complex(rng, g.n, g.n)
    x = random_complex(rng, g.n, 1)[:, 0]
    y = random_complex(rng, g.n, 1)[:, 0]
    assert inner_l2(A @ x, y, g) == pytest.approx(inner_l2(x, adjoint_l2(A, g) @ y, g), abs=1e-8)
    # The strong adjoint is the weak adjoint of the pair whose both forms are gh1.
    strong = adjoint_by_definition(A, gram_pair_from_matrices(g.gh1, g.gh1))
    assert inner_h1(A @ x, y, g) == pytest.approx(inner_h1(x, strong @ y, g), abs=1e-8)
    # Adjoint of the adjoint comes back.
    assert np.allclose(adjoint_l2(adjoint_l2(A, g), g), A, atol=1e-10)


def test_operator_norms_dominate_vectors(g, rng):
    A = random_complex(rng, g.n, g.n)
    x = random_complex(rng, g.n, 1)[:, 0]
    assert norm_h1(A @ x, g) <= h1_operator_norm(A, g) * norm_h1(x, g) * (1 + 1e-10)
    assert h1_operator_norm(np.eye(g.n), g) == pytest.approx(1.0)


def test_frame_transforms_roundtrip(g, rng):
    A = random_complex(rng, g.n, g.n)
    assert np.allclose(g.from_l2_frame(g.to_l2_frame(A)), A, atol=1e-10)
    # Weakly self-adjoint operators become Hermitian in the weak frame.
    S = adjoint_l2(A, g) @ A
    M = g.to_l2_frame(S)
    assert np.linalg.norm(M - M.conj().T) <= 1e-9 * np.linalg.norm(M)


def test_orthonormal_columns_builds_weak_frames(g, rng):
    M = random_complex(rng, g.n, 3)
    Q = orthonormal_columns(M, g)
    assert Q.shape == (g.n, 3)
    assert np.allclose(Q.conj().T @ g.gl2 @ Q, np.eye(3), atol=1e-10)


def test_complete_basis_extends_without_disturbing(g, rng):
    B = orthonormal_columns(random_complex(rng, g.n, 2), g)
    W = random_complex(rng, g.n, g.n)
    app = complete_basis(B, W, g)
    full = np.hstack([B, app])
    assert full.shape == (g.n, g.n)
    assert np.allclose(full.conj().T @ g.gl2 @ full, np.eye(g.n), atol=1e-9)


def test_complete_basis_drops_dependent_candidates(g, rng):
    B = orthonormal_columns(random_complex(rng, g.n, 2), g)
    # Candidates inside span(B) contribute nothing.
    app = complete_basis(B, B @ np.ones((2, 3)), g)
    assert app.shape == (g.n, 0)
