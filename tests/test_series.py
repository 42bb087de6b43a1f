"""The spectral series evaluator and sqrt_F against a plain power loop, the oracle and their memory budgets."""

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
    stiefel,
)
from twonorm.basis import complete_basis
from twonorm.campaigns import BENCH_RHO, BENCH_TERMS, _bench_pair
from twonorm.config import RunConfig
from twonorm.group import _TwoFrames
from twonorm.oracles import sqrt_eig
from twonorm.sampling import random_complex, random_reference, random_stiefel, rng_for_trial, stiefel_near
from twonorm.stiefel import SERIES_TOL, _series_terms, binomial_coefficients
from twonorm.validate import _setup_point

from conftest import dense

SPACES = {
    16: build_space(SpaceSpec(domain_dim=1, grid_points=16, spacing=0.25)),
    128: build_space(SpaceSpec(domain_dim=1, grid_points=128, spacing=0.25)),
    144: build_space(SpaceSpec(domain_dim=2, grid_points=12, spacing=0.25)),
}


def _factor(rows, cols, rho, seed):
    """A random rows-by-cols K with ||K||_2^2 = rho: on a grid pair, the series factor and its weak-frame form."""
    C = random_complex(rng_for_trial(seed, 0), rows, cols)
    return np.sqrt(rho) * C / np.linalg.norm(C, 2)


def _power_loop(K, counts):
    """sum_(j<=s) c_j M^j for M = -K K^H and each s in counts, one product per term."""
    M = -K @ K.conj().T
    coeffs = binomial_coefficients(counts[-1])
    total = np.zeros_like(M)
    power = np.eye(len(M), dtype=np.complex128)
    sums = []
    for k in range(1, counts[-1] + 1):
        power = power @ M
        total = total + coeffs[k - 1] * power
        if k in counts:
            sums.append(total)
    return sums


@settings(max_examples=12, deadline=None)
@given(
    rows=st.sampled_from((1, 2, 16, 144)),
    cols=st.sampled_from((1, 2, 16, 144)),
    # Below 1e-100 the loop's products of K's entries leave the normal range.
    rho=st.floats(0.0, 1.0).filter(lambda r: r == 0.0 or r >= 1e-100),
    drawn=st.lists(st.integers(1, 300), min_size=1, max_size=5),
    seed=st.integers(0, 2**32 - 1),
)
def test_partial_sums_match_power_loop(rows, cols, rho, drawn, seed):
    counts = sorted(set(drawn))
    K = _factor(rows, cols, rho, seed)
    sums = binomial_sqrt_truncated(K, counts)
    for s, total, plain in zip(counts, sums, _power_loop(K, counts)):
        assert np.linalg.norm(total - plain) <= 1e-13 * np.linalg.norm(plain), s


def test_binomial_sqrt_near_unit_radius_agrees_with_oracle():
    # At rho = 0.999 the tail bound needs thousands of terms.
    g = SPACES[16]
    rho = 0.999
    assert _series_terms(rho, max(1.0, g.pencil_factor)) > 1000
    K = _factor(g.n, g.n, rho, seed=3)
    (S,) = binomial_sqrt_truncated(K, [_series_terms(rho, max(1.0, g.pencil_factor))])
    eye = np.eye(g.n)
    err = h1_operator_norm(eye + S - sqrt_eig(eye - K @ K.conj().T, g), g)
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


@pytest.mark.parametrize("rho", [0.3, 0.99, 0.999])
def test_series_memory_does_not_grow_with_the_degree(rho):
    # The SVD, the scalar sums and the result take about five arrays of K's
    # size and the s coefficients a fraction of one; a table of the powers of
    # the 144 squared sines at the 16521 terms of rho = 0.999 would take 57.
    g = SPACES[144]
    g.pencil_factor  # cached factorizations are built before tracing
    K = _factor(g.n, g.n, rho, seed=5)
    terms = [_series_terms(rho, max(1.0, g.pencil_factor))]
    assert _traced_peak(lambda: binomial_sqrt_truncated(K, terms)) <= 8 * K.nbytes
    assert _traced_peak(lambda: binomial_sqrt_truncated(K, BENCH_TERMS)) <= (8 + len(BENCH_TERMS)) * K.nbytes


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
        (series,) = binomial_sqrt_truncated(K, [BENCH_TERMS[-1]])
        for block in ((Z * (np.sqrt(1.0 - sines**2) - 1.0)) @ Z.conj().T, series):
            R = ip + (C @ block) @ g.l2(C).conj().T
            assert h1_operator_norm(R - exact, g) <= 1e-12


def _small_block_error(seed):
    """Largest relative error of sqrt_F's block on span C at three validate-1d draws inside r.

    The draws there have squared sines rho <= 1e-13, so the block of R - I on
    span C, about -K K^H / 2, is tiny; it is compared with the exact
    Z diag(sqrt(1 - s^2) - 1) Z^H, written without the cancellation.
    """
    cfg = RunConfig(space=SpaceSpec(domain_dim=1, grid_points=128, spacing=0.25), seed=seed)
    g = SPACES[128]
    V = _setup_point(cfg, g, 0.4)[2]
    N = V.N
    rng = rng_for_trial(seed, 0)
    worst = 0.0
    for fraction in (0.1, 0.4, 0.7):
        W, _ = stiefel_near(V, fraction * radius_r(V), rng)
        R = sqrt_F(V, W)
        block = (R.R.conj().T @ R.L)[N:, N:]
        Z, sines, _ = np.linalg.svd(_TwoFrames(V.Phi, W.Phi, g).beta[N:], full_matrices=False)
        exact = (Z * (-(sines**2) / (1.0 + np.sqrt(1.0 - sines**2)))) @ Z.conj().T
        worst = max(worst, np.linalg.norm(block - exact) / np.linalg.norm(exact))
    return worst


@pytest.mark.parametrize("seed", range(10))
def test_sqrt_f_keeps_the_relative_accuracy_of_its_small_block(seed):
    # Summed apart from the I, the block keeps its relative accuracy.
    assert _small_block_error(seed) <= 1e-12


def test_the_small_block_check_sees_a_dropped_first_term(monkeypatch):
    # Without c_1 the block is about c_2 (K K^H)^2, far from -K K^H / 2.
    coefficients = stiefel.binomial_coefficients

    def dropped(count):
        c = coefficients(count).copy()
        c[0] = 0.0
        return c

    monkeypatch.setattr(stiefel, "binomial_coefficients", dropped)
    assert _small_block_error(0) > 1e-12
