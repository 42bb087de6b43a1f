"""The blocked series evaluator against a plain power loop, the oracle and its memory budget."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twonorm import SpaceSpec, binomial_sqrt, binomial_sqrt_truncated, build_space, h1_operator_norm
from twonorm.campaigns import BENCH_TERMS
from twonorm.oracles import sqrt_eig
from twonorm.sampling import random_complex, rng_for_trial
from twonorm.stiefel import SERIES_BLOCK, SERIES_TOL, _series_terms, binomial_coefficients

SPACES = {
    16: build_space(SpaceSpec(domain_dim=1, grid_points=16, spacing=0.25)),
    144: build_space(SpaceSpec(domain_dim=2, grid_points=12, spacing=0.25)),
}
# Traced peaks of the one-term-per-product loop this evaluator replaced, in
# n-by-n complex arrays at n = 144 (binomial_sqrt, binomial_sqrt_truncated).
PLAIN_LOOP_PEAKS = (3.4, 8.0)


def _argument(g, rho, seed, kernel_dim=0):
    """Weakly self-adjoint B with spectrum in [-rho, 0], plus -1 on a random kernel.

    Returns B and the weak projection onto its -1 eigenspace (None without one).
    """
    rng = rng_for_trial(seed, 0)
    C = random_complex(rng, g.n, g.n)
    H = C @ C.conj().T
    H /= float(np.linalg.eigvalsh(H)[-1])
    if not kernel_dim:
        return g.from_l2_frame(-rho * H), None
    U, _ = np.linalg.qr(random_complex(rng, g.n, kernel_dim))
    K = U @ U.conj().T
    off = np.eye(g.n) - K
    return g.from_l2_frame(-K - rho * off @ H @ off), g.from_l2_frame(K)


def _power_loop(Bw, counts):
    """I + sum_(j<=s) c_j Bw^j for each s in counts, one product per term."""
    coeffs = binomial_coefficients(counts[-1])
    total = np.eye(Bw.shape[0], dtype=np.complex128)
    power = np.eye(Bw.shape[0], dtype=np.complex128)
    sums = []
    for k in range(1, counts[-1] + 1):
        power = power @ Bw
        total = total + coeffs[k - 1] * power
        if k in counts:
            sums.append(total)
    return sums


@settings(max_examples=12, deadline=None)
@given(
    n=st.sampled_from((16, 144)),
    rho=st.floats(0.0, 1.0),
    drawn=st.lists(st.integers(1, 300), max_size=4),
    block_end=st.integers(1, 300 // SERIES_BLOCK),
    mid_block=st.integers(1, 300).filter(lambda s: s % SERIES_BLOCK),
    kernel=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_partial_sums_match_power_loop(n, rho, drawn, block_end, mid_block, kernel, seed):
    g = SPACES[n]
    counts = sorted(set(drawn) | {SERIES_BLOCK * block_end, mid_block})
    B, K0 = _argument(g, rho, seed, kernel_dim=2 if kernel else 0)
    sums = binomial_sqrt_truncated(B, g, counts, kernel_projector=K0)
    Bw = B if K0 is None else B + K0
    expected = _power_loop(Bw, counts)
    for s, total, plain in zip(counts, sums, expected):
        if K0 is not None:
            plain = plain - K0
        assert np.linalg.norm(total - plain) <= 1e-13 * np.linalg.norm(plain), s


def test_binomial_sqrt_near_unit_radius_agrees_with_oracle():
    # At rho = 0.999 the tail bound needs thousands of terms.
    g = SPACES[16]
    rho = 0.999
    assert _series_terms(rho, max(1.0, g.pencil_factor)) > 1000
    B, _ = _argument(g, rho, seed=3)
    err = h1_operator_norm(binomial_sqrt(B, g) - sqrt_eig(np.eye(g.n) + B, g), g)
    assert err <= SERIES_TOL


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("rho", [0.3, 0.99])
def test_series_memory_does_not_grow_with_the_degree(rho):
    # The power stack and the running block are the only additions to the
    # plain loop: SERIES_BLOCK + 2 arrays, whatever the term count.
    g = SPACES[144]
    g.pencil_factor  # cached factorizations are built before tracing
    B, _ = _argument(g, rho, seed=5)
    array = g.n * g.n * 16
    extra = SERIES_BLOCK + 2
    sqrt_peak, truncated_peak = PLAIN_LOOP_PEAKS
    assert _traced_peak(lambda: binomial_sqrt(B, g)) <= (sqrt_peak + extra) * array
    assert _traced_peak(lambda: binomial_sqrt_truncated(B, g, BENCH_TERMS)) <= (truncated_peak + extra) * array
