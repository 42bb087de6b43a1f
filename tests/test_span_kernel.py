"""Strong norms in span coordinates and the scalar weak form, against dense n-by-n evaluations."""

import math
from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twonorm import SpaceSpec, build_space, forward_difference, gram_pair_from_matrices, h1_operator_norm
from twonorm import campaigns, geometry, grassmann, group, sampling, space, stiefel
from twonorm.cli import main
from twonorm.config import config_from_mapping
from twonorm.geometry import NormSpec, curve_length, distance_upper, exp_curve, finsler_norm_stiefel, schatten_norm
from twonorm.grassmann import psi_section, quotient_radius
from twonorm.group import GroupElement, SkewOperator, exp_skew, frame_unitary
from twonorm.sampling import (
    RESOLUTION_FACTOR,
    SETUP_TRIAL,
    projection_near,
    random_complex,
    random_projection,
    random_reference,
    random_skew,
    random_stiefel,
    rng_for_trial,
    stiefel_near,
)
from twonorm.space import LowRank, h1_triangle, span_singular_values
from twonorm.stiefel import act, radius_r, section_factors, translated_section
from twonorm.validate import _grassmann_suite, _Recorder, _section_suite

from conftest import dense_skew

EPS = np.finfo(float).eps


def _weighted_pair(n, seed, spacing=0.25):
    """A grid pair whose weak form is a non-scalar Hermitian matrix, so g.l2 takes its dense branch."""
    spec = SpaceSpec(domain_dim=1, grid_points=n, spacing=spacing)
    A = random_complex(rng_for_trial(seed, 0), n, n)
    gl2 = spacing * np.eye(n) + 0.05 * (A @ A.conj().T) / n
    D = forward_difference(spec, 0)
    return gram_pair_from_matrices(gl2, gl2 + D.conj().T @ gl2 @ D)


def _pair(kind, n, spacing):
    """The grid pair, the dense pair of its matrices, or a weighted pair, on a 1D grid."""
    if kind == "weighted":
        return _weighted_pair(n, 7, spacing)
    g = build_space(SpaceSpec(domain_dim=1, grid_points=n, spacing=spacing))
    return g if kind == "grid" else gram_pair_from_matrices(g.gl2, g.gh1)


KINDS = ("grid", "dense", "weighted")
PAIRS = {(kind, n): _pair(kind, n, 0.25) for kind in KINDS for n in (16, 64)}


def test_only_a_grid_pair_has_a_scalar_weak_form():
    # A pair of explicit matrices takes the dense products even when gl2 is w I:
    # with its matrices swapped after the checks, every weak-form result follows them.
    g = gram_pair_from_matrices(0.25 * np.eye(3), np.eye(3))
    M = np.diag([1.0, 2.0, 4.0]).astype(np.complex128)
    object.__setattr__(g, "gl2", M)
    g.__dict__["_sqrt_pair_l2"] = (M, M)
    F = np.eye(3)
    assert np.array_equal(g.l2(F), M)
    assert np.array_equal(g.solve_l2(F), np.diag([1.0, 0.5, 0.25]))
    for routed in (g.to_l2_frame(F), g.from_l2_frame(F)):
        assert np.array_equal(routed, M @ M)
    assert PAIRS["grid", 16].l2_weight == 0.25
    assert build_space(SpaceSpec(domain_dim=2, grid_points=4, spacing=0.3)).l2_weight == 0.3**2


def _triangle_record():
    """Patch h1_triangle where the samplers and sections read it, remembering each triangle's factor."""
    factors = {}

    def recorded(F, g, right=False):
        T = h1_triangle(F, g, right)
        factors[id(T)] = (T, np.array(F))
        return T

    return factors, recorded


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    n=st.sampled_from((16, 64)),
    N=st.integers(1, 3),
    spacing=st.floats(0.1, 1.0),
    # The target is 10^-depth of the radius, floored at the sampler's resolution.
    depth=st.floats(0.05, 16.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_span_kernel_matches_the_dense_strong_norm(kind, n, N, spacing, depth, seed):
    # Every span norm that stiefel_near, projection_near and section_factors
    # take is compared with the dense norm of the same n-by-n operator L M R^H.
    g = _pair(kind, n, spacing)
    rng = rng_for_trial(seed, 0)
    ref = random_reference(rng, g, N)
    V = random_stiefel(rng, ref, scale=0.4)
    P = random_projection(rng, g, N)
    factors, recorded = _triangle_record()
    checked = []

    def compared(TL, TR, M=None):
        sv = span_singular_values(TL, TR, M)
        (_, L), (_, R) = factors[id(TL)], factors[id(TR)]
        core = np.eye(L.shape[1]) if M is None else M
        dense = h1_operator_norm(L @ core @ R.conj().T, g)
        assert abs(sv[0] - dense) <= 1e-12 * dense
        checked.append(dense)
        return sv

    with ExitStack() as stack:
        for module in (group, sampling, stiefel):
            stack.enter_context(mock.patch.object(module, "h1_triangle", recorded))
            stack.enter_context(mock.patch.object(module, "span_singular_values", compared))
        r = radius_r(V)
        target = max(r * 10.0**-depth, 2 * RESOLUTION_FACTOR * EPS * V.h1_norm)
        V1, _ = stiefel_near(V, target, rng)
        section_factors(V, V1)
        floor = 2 * RESOLUTION_FACTOR * EPS * h1_operator_norm(P.factors, g)
        projection_near(P, max(quotient_radius(P) * 10.0**-depth, floor), rng)
    assert len(checked) >= 8


@pytest.mark.parametrize("sampler", ["stiefel_near", "projection_near"])
def test_the_samplers_measure_their_draw_on_the_kernel(sampler):
    # Each triangle of the draw's span Q (and of gl2 Q for a projection) is
    # formed once, by group._Span; sampling forms only the returned distance's.
    g = PAIRS["grid", 16]
    rng = rng_for_trial(5, 0)
    ref = random_reference(rng, g, 2)
    V, P = random_stiefel(rng, ref, scale=0.4), random_projection(rng, g, 2)
    spans, made = [], []

    def drawn(*args):
        X = random_skew(*args)
        spans.append(X.Q)
        return X

    def recorder(module):
        def recorded(F, g, right=False):
            made.append((module, right, np.array(F)))
            return h1_triangle(F, g, right)

        return recorded

    with ExitStack() as stack:
        stack.enter_context(mock.patch.object(sampling, "random_skew", drawn))
        for module in (group, sampling):
            stack.enter_context(mock.patch.object(module, "h1_triangle", recorder(module)))
        if sampler == "stiefel_near":
            stiefel_near(V, 0.1 * radius_r(V), rng)
        else:
            projection_near(P, 0.1 * quotient_radius(P), rng)
    (Q,) = spans
    factors = [(False, Q)] + ([(True, g.l2(Q))] if sampler == "projection_near" else [])
    for right, F in factors:
        assert [m for m, r, G in made if r == right and G.shape == F.shape and np.array_equal(G, F)] == [group]


def _agree(factored, dense, scale):
    # As in test_low_rank: relative to the larger of the value and the size of its terms.
    assert abs(factored - dense) <= 1e-12 * max(abs(dense), scale)


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    n=st.sampled_from((16, 64)),
    N=st.integers(1, 3),
    spacing=st.floats(0.1, 1.0),
    # The target is 10^-depth of the quotient radius, from 0.5 down to 1e-8.
    depth=st.floats(math.log10(2.0), 8.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_projection_distances_and_quotient_bounds_match_the_dense_operators(kind, n, N, spacing, depth, seed):
    # psi_section takes the distance ||P1 - P|| and its two contraction bounds on
    # the joint span of the range frames; projection_near returns the same distance.
    g = _pair(kind, n, spacing)
    rng = rng_for_trial(seed, 0)
    P, ref = random_projection(rng, g, N), random_reference(rng, g, N)
    floor = 2 * RESOLUTION_FACTOR * EPS * P.h1_norm
    P1, achieved = projection_near(P, max(quotient_radius(P) * 10.0**-depth, floor), rng)
    spans = []

    class Recorded(group._TwoFrames):
        def __init__(self, *args):
            super().__init__(*args)
            spans.append(self)

    with mock.patch.object(grassmann, "_TwoFrames", Recorded):
        psi_section(P, P1, ref)
    (span,) = spans
    pscale = h1_operator_norm(P.P, g)
    dense = h1_operator_norm(P1.P - P.P, g)
    _agree(span.projection_distance, dense, pscale)
    _agree(achieved, dense, pscale)
    ip, ip1 = np.eye(n) - P.P, np.eye(n) - P1.P
    compressions = (P.P @ ip1 @ P.P, P1.P @ ip @ P1.P, ip @ P1.P @ ip, ip1 @ P.P @ ip1)
    for got, op in zip(span.bounds(), compressions):
        _agree(got, h1_operator_norm(op, g), pscale**3)


@pytest.mark.parametrize(
    "d, m, h",
    [(1, 16, 0.25), (1, 128, 0.25), (2, 8, 0.3), (1, 6, 1.0)],
    ids=["n16", "n128", "2d-8x8", "n6-full-span"],
)
def test_inverse_norm_from_the_span_matches_the_dense_norm(d, m, h):
    # U^-1 = I + L R^H acts as the identity beyond span[L, R]; at n = 6 the
    # joint QR of the two k = 4 factors spans all of C^6, so there is no
    # complement and the norm may fall below 1.
    g = build_space(SpaceSpec(domain_dim=d, grid_points=m, spacing=h))
    for seed in range(6):
        rng = rng_for_trial(seed, SETUP_TRIAL)
        ref = random_reference(rng, g, 2)
        V, V0 = random_stiefel(rng, ref, scale=0.4), random_stiefel(rng, ref, scale=0.3)
        U = frame_unitary(V.Phi, V0.Phi, g)
        if g.n == 6:
            assert 2 * U.Q.shape[1] >= g.n
        dense = h1_operator_norm(U.inverse.data, g)
        assert abs(U.inverse.h1_norm - dense) <= 1e-12 * dense


class _RefusingGram(np.ndarray):
    """A weak Gram matrix that refuses matrix products; everything else reads it as an array."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            raise AssertionError("n-by-n product with gl2")
        inputs = tuple(x.view(np.ndarray) if isinstance(x, _RefusingGram) else x for x in inputs)
        return getattr(ufunc, method)(*inputs, **kwargs)


def _refusing_pair(n):
    g = build_space(SpaceSpec(domain_dim=1, grid_points=n, spacing=0.25))
    object.__setattr__(g, "gl2", g.gl2.view(_RefusingGram))
    return g


def test_thin_weak_products_go_through_the_pair(tmp_path, capsys, monkeypatch):
    # On a grid gl2 is w I, so g.l2 scales; any product with the matrix itself raises.
    g = _refusing_pair(16)
    with pytest.raises(AssertionError, match="n-by-n product"):
        g.gl2 @ np.ones((16, 1))
    cfg = config_from_mapping({"seed": 42, "trials": 3, "space": {"grid_points": 16, "spacing": 0.25}})
    for suite in (_section_suite, _grassmann_suite):
        rec = _Recorder()
        suite(cfg, g, rec)
        assert rec.result("probe").passed
    monkeypatch.setattr(campaigns, "build_space", lambda spec: g)
    assert main(["section-demo", "--trials", "2", "--out", str(tmp_path)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("d, m", [(1, 128), (2, 12)])
def test_scalar_weak_form_equals_the_dense_products_bit_for_bit(d, m):
    # At spacing 0.25 the weight h^d is a power of two, so scaling is exact.
    g = build_space(SpaceSpec(domain_dim=d, grid_points=m, spacing=0.25))
    rng = rng_for_trial(3, 0)
    F, A = random_complex(rng, g.n, 4), random_complex(rng, g.n, g.n)
    assert np.array_equal(g.l2(F), g.gl2 @ F)
    assert np.array_equal(g.solve_l2(F), np.linalg.solve(g.gl2, F))
    assert np.array_equal(g.to_l2_frame(A), g.sqrt_l2 @ A @ g.isqrt_l2)
    assert np.array_equal(g.from_l2_frame(A), g.isqrt_l2 @ A @ g.sqrt_l2)


def _strong_scaled(X, size):
    """X rescaled to strong operator norm ``size``."""
    g = X.g
    return SkewOperator(X.Q, X.S * (size / h1_operator_norm(LowRank(X.Q @ X.S, g.l2(X.Q)), g)), g)


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    n=st.sampled_from((16, 64)),
    N=st.integers(1, 3),
    spacing=st.floats(0.1, 1.0),
    spec=st.sampled_from((NormSpec.operator(), NormSpec.schatten(1), NormSpec.schatten(2))),
    # The generator's strong norm is 0.5 * 10^-depth, from 0.5 down to 5e-7.
    depth=st.floats(0.0, 6.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_curves_on_the_span_match_the_per_sample_evaluation(kind, n, N, spacing, spec, depth, seed):
    # Frames against exp(tX) V0 built one t at a time, velocities against X F_t,
    # and the span length against the trapezoid sum of the velocities normed one by one.
    g = _pair(kind, n, spacing)
    rng = rng_for_trial(seed, 0)
    ref = random_reference(rng, g, N)
    V0 = random_stiefel(rng, ref, scale=0.3)
    X = _strong_scaled(random_skew(rng, V0.Phi, g), 0.5 * 10.0**-depth)
    curve = exp_curve(V0, X, 9)
    velocities = [LowRank(curve.Q @ core, curve.ref.dual) for core in curve.cores]
    for t, F, v in zip(curve.ts, curve.frames, velocities):
        D = exp_skew(SkewOperator(X.Q, t * X.S, g)).displacement(V0.Phi)
        # A stored frame carries eps ||F|| of rounding beyond the displacement's own error.
        assert np.linalg.norm(F - (V0.Phi + D)) <= 1e-12 * np.linalg.norm(D) + EPS * np.linalg.norm(F)
        XF = X.apply(F)
        assert np.linalg.norm(v.L - XF) <= 1e-12 * np.linalg.norm(XF)
    norms = [schatten_norm(v, spec, g) for v in velocities]
    per_sample = sum(0.5 * (a + b) for a, b in zip(norms, norms[1:])) / 8
    assert abs(curve_length(curve, spec, g) - per_sample) <= 1e-12 * per_sample


def test_distance_upper_takes_its_strong_triangles_once_per_curve():
    # The log's size check takes two triangles and the curve one of its span;
    # the reference's dual triangle is shared by every point.
    g = PAIRS["grid", 16]
    rng = rng_for_trial(0, SETUP_TRIAL)
    V0 = random_stiefel(rng, random_reference(rng, g, 2), scale=0.3)
    W = act(exp_skew(_strong_scaled(random_skew(rng, V0.Phi, g), 0.02)), V0)
    factors, recorded = _triangle_record()
    with ExitStack() as stack:
        for module in (space, geometry, stiefel):
            stack.enter_context(mock.patch.object(module, "h1_triangle", recorded))
        distance_upper(V0, W, NormSpec.operator(), steps=32)
    assert len(factors) <= 4


def test_grassmann_suite_takes_each_projection_norm_once():
    # quotient_radius, psi_section, section_pi_p and the samplers' resolution
    # read one cached strong norm of P, and every projection distance,
    # contraction bound and the norm of P2 in the conjugation check is taken
    # on a joint span, so one call per trial remains, and one for the
    # projection of the equivalence straddle.
    calls = []
    counted = space.h1_singular_values

    def recorded(A, g):
        calls.append(A)
        return counted(A, g)

    cfg = config_from_mapping({"seed": 42, "trials": 10, "space": {"grid_points": 16, "spacing": 0.25}})
    rec = _Recorder()
    with mock.patch.object(space, "h1_singular_values", recorded):
        _grassmann_suite(cfg, PAIRS["grid", 16], rec)
    assert rec.result("grassmann").passed
    assert len(calls) == 10 + 1


def test_grassmann_suite_builds_each_joint_span_once():
    # Per trial: P's strong norm (2 triangles), each of the two quotient
    # samplers' calibration span and returned distance (2 + 2 each),
    # psi_section's span (2), section_pi_p's span of P and P2 (2), the span
    # of P2 and T P T^-1 that checks the conjugation (2) and three
    # equivalence checks (2 each); plus, once, the equivalence straddle: its
    # projection's norm (2), two samplers (4 each) and four equivalence
    # checks (2 each).  No cross section reads the reference's dual triangle.
    calls = []
    counted = space.h1_triangle

    def recorded(F, g, right=False):
        calls.append(F.shape)
        return counted(F, g, right)

    cfg = config_from_mapping({"seed": 42, "trials": 10, "space": {"grid_points": 16, "spacing": 0.25}})
    rec = _Recorder()
    with ExitStack() as stack:
        for module in (space, geometry, group, sampling, stiefel):
            stack.enter_context(mock.patch.object(module, "h1_triangle", recorded))
        _grassmann_suite(cfg, PAIRS["grid", 16], rec)
    assert rec.result("grassmann").passed
    assert len(calls) == 22 * cfg.trials + 18


@pytest.mark.parametrize("n", [16, 128])
def test_translated_section_applies_the_inverse_on_the_frame(n, monkeypatch):
    # U^-1 F = F + Q B^H (Q^H gl2 F) agrees with the dense inverse, and the
    # translated section builds no dense element, that inverse included.
    g = build_space(SpaceSpec(domain_dim=1, grid_points=n, spacing=0.25))
    setup, mover = rng_for_trial(42, SETUP_TRIAL), rng_for_trial(42, SETUP_TRIAL - 1)
    ref = random_reference(setup, g, 2)
    V = random_stiefel(setup, ref, scale=0.4)
    V0 = random_stiefel(mover, ref, scale=0.3)
    U = frame_unitary(V.Phi, V0.Phi, g)
    V1, _ = stiefel_near(V0, 0.3 * radius_r(V) / U.inverse.h1_norm, mover)
    dense = U.inverse.data @ V1.Phi
    assert np.linalg.norm(V1.Phi + U.inverse.displacement(V1.Phi) - dense) <= 1e-14 * np.linalg.norm(dense)

    def refuse(_):
        raise AssertionError("dense element")

    monkeypatch.setattr(GroupElement, "data", property(refuse))
    moved = translated_section(V, V0, V1)
    D = V1.Phi - V.Phi
    assert np.linalg.norm(moved.displacement(V.Phi) - D) <= 1e-12 * np.linalg.norm(D)


@pytest.mark.parametrize("kind", KINDS)
def test_riemannian_inner_product_matches_the_dense_trace_pairing(kind):
    # On the diagonal, ||XV||_2^2 = Re tr[XV (XV)^*] with the strong adjoint,
    # formed from the n-by-n tangent, for k = n and k = 2N generators.
    g = PAIRS[kind, 16]
    two = NormSpec.schatten(2.0)
    for seed in range(4):
        rng = rng_for_trial(seed, 0)
        V = random_stiefel(rng, random_reference(rng, g, 2), scale=0.4)
        for X in (dense_skew(rng, g), dense_skew(rng, g),
                  random_skew(rng, V.Phi, g), random_skew(rng, V.Phi, g)):
            a = X.data @ V.V
            dense = np.trace(a @ np.linalg.solve(g.gh1, a.conj().T @ g.gh1)).real
            assert abs(finsler_norm_stiefel(X, V, two) ** 2 - dense) <= 1e-12 * dense
