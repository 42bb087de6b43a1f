"""The blocked series evaluator and sqrt_F against a plain power loop, the oracle and their memory budgets."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twonorm import (
    ConvergenceFailure,
    SpaceSpec,
    StiefelOperator,
    binomial_sqrt_truncated,
    build_space,
    h1_operator_norm,
    phi,
    radius_r,
    series_tail_bound,
    sqrt_F,
)
from twonorm.basis import complete_basis
from twonorm.campaigns import BENCH_RHO, BENCH_TERMS, _bench_pair
from twonorm.config import RunConfig
from twonorm.group import _TwoFrames
from twonorm.oracles import sqrt_eig
from twonorm.sampling import random_complex, random_reference, random_stiefel, rng_for_trial, stiefel_near
from twonorm.stiefel import SERIES_BLOCK, SERIES_TOL, _series_terms, binomial_coefficients
from twonorm.validate import _setup_point

from conftest import dense

SPACES = {
    16: build_space(SpaceSpec(domain_dim=1, grid_points=16, spacing=0.25)),
    128: build_space(SpaceSpec(domain_dim=1, grid_points=128, spacing=0.25)),
    144: build_space(SpaceSpec(domain_dim=2, grid_points=12, spacing=0.25)),
}
# Traced peaks of the one-term-per-product loop this evaluator replaced, in
# n-by-n complex arrays at n = 144 (one automatic term count, the counts of BENCH_TERMS).
PLAIN_LOOP_PEAKS = (3.4, 8.0)


def _argument(g, rho, seed):
    """Hermitian B with spectrum in [-rho, 0]: on a grid pair, the series argument and its weak-frame form."""
    rng = rng_for_trial(seed, 0)
    C = random_complex(rng, g.n, g.n)
    H = C @ C.conj().T
    H /= float(np.linalg.eigvalsh(H)[-1])
    return -rho * H


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
    seed=st.integers(0, 2**32 - 1),
)
def test_partial_sums_match_power_loop(n, rho, drawn, block_end, mid_block, seed):
    g = SPACES[n]
    counts = sorted(set(drawn) | {SERIES_BLOCK * block_end, mid_block})
    B = _argument(g, rho, seed)
    sums = binomial_sqrt_truncated(B, counts)
    for s, total, plain in zip(counts, sums, _power_loop(B, counts)):
        assert np.linalg.norm(total - plain) <= 1e-13 * np.linalg.norm(plain), s


def test_binomial_sqrt_near_unit_radius_agrees_with_oracle():
    # At rho = 0.999 the tail bound needs thousands of terms.
    g = SPACES[16]
    rho = 0.999
    assert _series_terms(rho, max(1.0, g.pencil_factor)) > 1000
    B = _argument(g, rho, seed=3)
    (R,) = binomial_sqrt_truncated(B, [_series_terms(rho, max(1.0, g.pencil_factor))])
    err = h1_operator_norm(R - sqrt_eig(np.eye(g.n) + B, g), g)
    assert err <= SERIES_TOL


@pytest.mark.parametrize("rho", [0.5, 0.9])
@pytest.mark.parametrize("amp", [1e5, 1e6, 1e7])
def test_term_count_meets_the_tolerance_on_exact_tails(rho, amp):
    # The weighted tail beyond s terms in rational arithmetic: 200 terms summed
    # exactly and the geometric majorant for the rest.
    s = _series_terms(rho, amp)
    r, c, tail = Fraction(rho), Fraction(1, 2), Fraction(0)
    for k in range(1, s + 201):
        if k > s:
            tail += abs(c) * r**k
        c *= (Fraction(1, 2) - k) / (k + 1)
    tail += abs(c) * r ** (s + 201) / (1 - r)
    assert tail * Fraction(amp) <= Fraction(SERIES_TOL)
    # The count is the first one at which the reported bound meets the tolerance.
    assert series_tail_bound(s, rho, amp) <= SERIES_TOL < series_tail_bound(s - 1, rho, amp)


def test_term_count_at_the_ends_of_the_radius():
    assert _series_terms(0.0, 1e7) == 1
    with pytest.raises(ConvergenceFailure, match="spectral radius 1"):
        _series_terms(1.0, 1.0)


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
    B = _argument(g, rho, seed=5)
    array = g.n * g.n * 16
    extra = SERIES_BLOCK + 2
    sqrt_peak, truncated_peak = PLAIN_LOOP_PEAKS
    terms = [_series_terms(rho, max(1.0, g.pencil_factor))]
    assert _traced_peak(lambda: binomial_sqrt_truncated(B, terms)) <= (sqrt_peak + extra) * array
    assert _traced_peak(lambda: binomial_sqrt_truncated(B, BENCH_TERMS)) <= (truncated_peak + extra) * array


def _pair(n, N, kind, fraction, seed):
    """A random point V and a second point W equal to it, near it or far from it."""
    rng = rng_for_trial(seed, 0)
    V = random_stiefel(rng, random_reference(rng, SPACES[n], N), scale=0.4)
    if kind == "equal":
        return V, V
    if kind == "near":
        return V, stiefel_near(V, fraction * radius_r(V), rng)[0]
    return V, random_stiefel(rng, V.ref, scale=0.4)


@settings(max_examples=12, deadline=None)
@given(
    n=st.sampled_from((16, 128)),
    N=st.integers(1, 3),
    kind=st.sampled_from(("equal", "near", "far")),
    fraction=st.floats(0.01, 0.9),
    seed=st.integers(0, 2**32 - 1),
)
def test_sqrt_f_matches_oracle_on_equal_near_and_far_pairs(n, N, kind, fraction, seed):
    V, W = _pair(n, N, kind, fraction, seed)
    g = V.g
    eye = np.eye(g.n)
    ip = eye - phi(V).P
    exact = sqrt_eig(ip @ (eye - phi(W).P) @ ip, g)
    R = eye + dense(sqrt_F(V, W))
    assert h1_operator_norm(R - exact, g) <= SERIES_TOL + 1e-12 * max(1.0, h1_operator_norm(exact, g))
    assert np.linalg.norm(R @ phi(V).P) <= 1e-12


def test_sqrt_f_builds_no_dense_array_but_its_result():
    # The series runs on a block of width at most N, and R - I is returned as
    # n-by-k factors on the joint span, k <= 2N: no n-by-n array is formed.
    g = build_space(SpaceSpec(domain_dim=1, grid_points=256, spacing=0.25))
    g.pencil_factor  # cached factorizations are built before tracing
    rng = rng_for_trial(5, 0)
    ref = random_reference(rng, g, 2)
    V, W = random_stiefel(rng, ref, scale=0.4), random_stiefel(rng, ref, scale=0.4)
    R = sqrt_F(V, W)
    assert R.L.shape == R.R.shape == (g.n, 4)
    assert _traced_peak(lambda: sqrt_F(V, W)) < g.n * g.n * 16 / 8


def test_sqrt_f_raises_when_the_images_are_weakly_orthogonal_in_a_direction():
    # A vector of W's image weakly orthogonal to V's image is a direction of
    # (I - P)(I - Q)(I - P) with eigenvalue 0: the series radius is 1.
    g = SPACES[16]
    rng = rng_for_trial(9, 0)
    V = random_stiefel(rng, random_reference(rng, g, 2), scale=0.4)
    away = complete_basis(V.Phi, random_complex(rng, g.n, 1), g)
    W = StiefelOperator(np.hstack([V.Phi[:, :1], away]), V.ref)
    with pytest.raises(ConvergenceFailure):
        sqrt_F(V, W)


def test_bench_pairs_have_the_bench_radius_and_the_dense_root():
    # The sqrt-bench pairs at the series-2d space: the largest squared sine of
    # K is BENCH_RHO, and the exact block root and the 128-term sum, built as
    # n-by-n operators, are the dense oracle's root of (I - P)(I - Q)(I - P).
    cfg = RunConfig(space=SpaceSpec(domain_dim=2, grid_points=12, spacing=0.25), trials=10)
    g = SPACES[144]
    V = _setup_point(cfg, g, 0.4)[2]
    N, eye = V.N, np.eye(g.n)
    ip = eye - phi(V).P
    for trial in range(cfg.trials):
        W = StiefelOperator(_bench_pair(V.Phi, g, rng_for_trial(cfg.seed, trial)), V.ref)
        pair = _TwoFrames(V.Phi, W.Phi, g)
        K = pair.beta[N:]
        Z, sines, _ = np.linalg.svd(K, full_matrices=False)
        assert abs(sines[0] ** 2 - BENCH_RHO) <= 1e-14 * BENCH_RHO
        exact = sqrt_eig(ip @ (eye - phi(W).P) @ ip, g)
        C = pair.Q[:, N:]
        (series,) = binomial_sqrt_truncated(-K @ K.conj().T, [BENCH_TERMS[-1]])
        for root in ((Z * np.sqrt(1.0 - sines**2)) @ Z.conj().T, series):
            R = ip + (C @ (root - np.eye(len(root)))) @ g.l2(C).conj().T
            assert h1_operator_norm(R - exact, g) <= 1e-12
