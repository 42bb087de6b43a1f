"""Factored strong norms against the dense n-by-n evaluation of the same operator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twonorm import (
    LowRank,
    NormSpec,
    SpaceSpec,
    build_space,
    finsler_norm_grassmann,
    finsler_norm_stiefel,
    grassmann_equivalence,
    h1_operator_norm,
    h1_singular_values,
    metric_equivalence_report,
    norm_sandwich_check,
    phi,
    point_difference,
    projection_lipschitz_report,
    radius_formula,
    radius_r,
    schatten_norm,
    section_factors,
)
from twonorm.grassmann import act_grassmann
from twonorm.group import OneParameterGroup, _TwoFrames
from twonorm.sampling import (
    SETUP_TRIAL,
    projection_near,
    random_complex,
    random_projection,
    random_reference,
    random_stiefel,
    rng_for_trial,
    stiefel_near,
)
from twonorm.space import adjoint_l2
from twonorm.stiefel import StiefelOperator

from conftest import dense_skew

SPACES = {n: build_space(SpaceSpec(domain_dim=1, grid_points=n, spacing=0.25)) for n in (16, 128)}
SPECS = (NormSpec.operator(), NormSpec.schatten(1.0), NormSpec.schatten(2.0))
N = 2
TOL = 1e-12


def _dense(A):
    return A.L @ A.R.conj().T


def _moved_point(V, eps, seed):
    """V carried a strong distance of order eps along a random one-parameter group."""
    exp_sX = OneParameterGroup(dense_skew(rng_for_trial(seed, 1), V.g, 1.0))
    return StiefelOperator.from_matrix(exp_sX(eps).data @ V.V, V.ref)


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from((16, 128)),
    k=st.integers(1, 2 * N),
    kind=st.sampled_from(("random", "zero_left", "zero_right", "points_1e-12_apart")),
    seed=st.integers(0, 2**32 - 1),
)
def test_factored_singular_values_match_dense(n, k, kind, seed):
    g = SPACES[n]
    rng = rng_for_trial(seed, 0)
    if kind == "points_1e-12_apart":
        ref = random_reference(rng, g, k)
        V = random_stiefel(rng, ref, scale=0.4)
        A = point_difference(_moved_point(V, 1e-12, seed), V)
    else:
        L = random_complex(rng, n, k)
        R = random_complex(rng, n, k)
        if kind == "zero_left":
            L = np.zeros_like(L)
        elif kind == "zero_right":
            R = np.zeros_like(R)
        A = LowRank(L, R)
    sv = h1_singular_values(A, g)
    dense = h1_singular_values(_dense(A), g)
    top = float(dense[0])
    assert sv.shape == (k,)
    assert np.all(np.diff(sv) <= 0.0)
    assert np.max(np.abs(sv - dense[:k])) <= TOL * top
    assert np.all(dense[k:] <= TOL * top)
    assert abs(h1_operator_norm(A, g) - top) <= TOL * top
    for spec in SPECS:
        want = schatten_norm(_dense(A), spec, g)
        assert abs(schatten_norm(A, spec, g) - want) <= TOL * want


def test_low_rank_rejects_mismatched_factors(g):
    with pytest.raises(ValueError):
        LowRank(np.zeros((g.n, 2)), np.zeros((g.n, 3)))
    with pytest.raises(ValueError):
        LowRank(np.zeros((g.n, 0)), np.zeros((g.n, 0)))
    with pytest.raises(ValueError):
        h1_operator_norm(LowRank(np.ones((g.n + 1, 1)), np.ones((g.n + 1, 1))), g)


def test_factors_rebuild_their_operators(g, V, rng):
    assert np.linalg.norm(_dense(V.factors) - V.V) <= TOL * np.linalg.norm(V.V)
    VV2 = V.V @ adjoint_l2(V.V, g)
    assert np.linalg.norm(phi(V).P - VV2) <= TOL * np.linalg.norm(VV2)
    P = random_projection(rng, g, N)
    assert np.linalg.norm(_dense(P.factors) - P.P) <= TOL * np.linalg.norm(P.P)
    W = random_stiefel(rng, V.ref, scale=0.4)
    diff = _dense(point_difference(W, V))
    assert np.linalg.norm(diff - (W.V - V.V)) <= TOL * np.linalg.norm(V.V)


# Call sites.  Each factored value is compared with the dense evaluation of
# the same operator.  For points 1e-12 apart the dense difference itself
# carries rounding of order eps times the size of the two points, so the
# comparison scale is the larger of the value and the strong norm of the
# terms it is formed from.


def _agree(factored, dense, scale=0.0):
    assert abs(factored - dense) <= TOL * max(abs(dense), scale)


@pytest.fixture(
    params=[(16, 0.5), (16, 1e-12), (128, 0.5), (128, 1e-12)],
    ids=lambda p: f"n{p[0]}-frac{p[1]}",
)
def pair(request):
    """Base point V and a point V1 inside its safe radius at a fraction of it."""
    n, frac = request.param
    g = SPACES[n]
    setup = rng_for_trial(3, SETUP_TRIAL)
    V = random_stiefel(setup, random_reference(setup, g, N), scale=0.4)
    return V, _moved_point(V, frac * radius_r(V), 3)


def test_stiefel_call_sites_match_dense(pair):
    V, V1 = pair
    g, ref = V.g, V.ref
    scale = h1_operator_norm(V.V, g)
    assert radius_r(V) == pytest.approx(radius_formula(ref.C, N, scale), rel=TOL)
    _agree(h1_operator_norm(point_difference(V1, V), g), h1_operator_norm(V1.V - V.V, g), scale)

    P, P1 = phi(V).P, phi(V1).P
    ip, ip1 = np.eye(g.n) - P, np.eye(g.n) - P1
    dense_bounds = (P - P @ P1 @ P, P1 - P1 @ P @ P1, ip - ip @ ip1 @ ip, ip1 - ip1 @ ip @ ip1)
    pscale = h1_operator_norm(P, g) ** 3
    for got, op in zip(section_factors(V, V1).bounds, dense_bounds):
        _agree(got, h1_operator_norm(op, g), pscale)

    report = metric_equivalence_report(V, V1)
    _agree(report.operator_distance, h1_operator_norm(V.V - V1.V, g), scale)
    lip = projection_lipschitz_report(V1, V)
    _agree(lip.lhs, h1_operator_norm(P1 - P, g), h1_operator_norm(P, g))
    C = ref.C
    factor = N * C * (C * h1_operator_norm(V1.V, g) + 1.0)
    _agree(lip.bound, factor * h1_operator_norm(V1.V - V.V, g), factor * scale)
    _agree(
        grassmann_equivalence(V, V1).projection_distance,
        h1_operator_norm(P - P1, g),
        h1_operator_norm(P, g),
    )
    for spec in SPECS:
        rep = norm_sandwich_check(V, V1, spec)
        sv = h1_singular_values(V.V - V1.V, g)
        _agree(rep.operator_norm, float(sv[0]), scale)
        _agree(rep.chosen_norm, schatten_norm(V.V - V1.V, spec, g), 2 * N * scale)
        _agree(rep.top_sum, float(np.sum(sv[: 2 * N])), 2 * N * scale)


def test_sampling_call_sites_match_dense(pair):
    V, _ = pair
    g = V.g
    r = radius_r(V)
    moved, achieved = stiefel_near(V, 0.5 * r, rng_for_trial(3, 4))
    _agree(achieved, h1_operator_norm(moved.V - V.V, g), h1_operator_norm(V.V, g))
    P = random_projection(rng_for_trial(3, 5), g, N)
    moved_p, achieved_p = projection_near(P, 0.5 * r, rng_for_trial(3, 6))
    _agree(achieved_p, h1_operator_norm(moved_p.P - P.P, g), h1_operator_norm(P.P, g))


def test_projection_call_sites_match_dense(pair):
    V, V1 = pair
    g = V.g
    P = phi(V)
    # A conjugated copy at the pair's separation, as projection_near makes.
    eps = h1_operator_norm(point_difference(V1, V), g)
    U = OneParameterGroup(dense_skew(rng_for_trial(3, 7), g, 1.0))(eps)
    P1 = act_grassmann(U, P)
    pscale = h1_operator_norm(P.P, g)
    _agree(h1_operator_norm(P.factors, g), pscale)
    # The joint span of the two range frames gives the distance and the contraction bounds.
    for A, B in ((P, P1), (P1, P)):
        span = _TwoFrames(A.frame, B.frame, g)
        _agree(span.projection_distance, h1_operator_norm(B.P - A.P, g), pscale)
        inner, _, outer, _ = span.bounds()
        ia = np.eye(g.n) - A.P
        _agree(inner, h1_operator_norm(A.P - A.P @ B.P @ A.P, g), pscale**3)
        _agree(outer, h1_operator_norm(ia @ B.P @ ia, g), pscale**3)

    X = dense_skew(rng_for_trial(3, 8), g, 1.0)
    xscale = h1_operator_norm(X.data, g)
    for spec in SPECS:
        _agree(
            finsler_norm_stiefel(X, V, spec),
            schatten_norm(X.data @ V.V, spec, g),
            2 * N * xscale * h1_operator_norm(V.V, g),
        )
        _agree(
            finsler_norm_grassmann(X, P, spec),
            schatten_norm(X.data @ P.P - P.P @ X.data, spec, g),
            2 * N * xscale * pscale,
        )
