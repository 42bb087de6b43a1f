import numpy as np
import pytest

from twonorm import SkewOperator, SpaceSpec, build_space, gram_pair_from_matrices
from twonorm.sampling import SETUP_TRIAL, random_complex, random_reference, random_stiefel, rng_for_trial


def dense_skew(rng, g, scale=1.0):
    """A k = n generator on the span gl2^{-1/2}: block A - A^H scaled to Frobenius norm ``scale``.

    A is an n-by-n complex Gaussian.  Where gl2 is w I, the block is also the
    dense X and ``scale`` is ||X||_F.  The library draws on spans of k <= 2N
    columns only, so the full-rank case is built here, for the dense checks.
    """
    A = random_complex(rng, g.n, g.n)
    S = A - A.conj().T
    return SkewOperator(g.isqrt_l2, S * (scale / np.linalg.norm(S)), g)


def dense(A):
    """The n-by-n operator L R^H of a LowRank A."""
    return A.L @ A.R.conj().T


def skew_residual(X, g):
    """Relative Frobenius defect of the algebra identity X^H gl2 + gl2 X = 0 for an n-by-n X."""
    gX = g.gl2 @ X
    return float(np.linalg.norm(gX.conj().T + gX) / np.linalg.norm(g.gl2))


def membership_sup(U, g):
    """sup |<U*2 U phi, phi> - 1| over weakly normalized phi, for an n-by-n U.

    U*2 is the weak adjoint, so the supremum is the largest |eigenvalue| of
    the Hermitian gl2^{-1/2} (U^H gl2 U - gl2) gl2^{-1/2}, taken by ``eigvalsh``.
    """
    M = g.to_l2_frame(U)
    D = M.conj().T @ M - np.eye(g.n)
    return float(np.max(np.abs(np.linalg.eigvalsh(0.5 * (D + D.conj().T)))))


@pytest.fixture(scope="session")
def g():
    """Default periodic grid space: 16 points, spacing 0.25."""
    return build_space(SpaceSpec(domain_dim=1, grid_points=16, spacing=0.25))


@pytest.fixture(scope="session")
def g_small():
    """Two-point space with distinct weak and strong products."""
    return build_space(SpaceSpec(domain_dim=1, grid_points=2, spacing=1.0))


@pytest.fixture(scope="session")
def g_flat():
    """Two-dimensional space where both products are the plain dot product."""
    return gram_pair_from_matrices(np.eye(2), np.eye(2))


@pytest.fixture(scope="session")
def setup_stream(g):
    """Reference and base point, drawn in that order from the seed-42 setup stream."""
    setup = rng_for_trial(42, SETUP_TRIAL)
    ref = random_reference(setup, g, 2)
    return ref, random_stiefel(setup, ref, scale=0.4)


@pytest.fixture(scope="session")
def ref(setup_stream):
    return setup_stream[0]


@pytest.fixture(scope="session")
def V(setup_stream):
    return setup_stream[1]


@pytest.fixture
def rng():
    return rng_for_trial(42, 0)
