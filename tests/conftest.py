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
