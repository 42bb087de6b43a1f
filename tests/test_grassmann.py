import numpy as np
import pytest

from twonorm import (
    NeighborhoodViolation,
    ProjectionOperator,
    SkewOperator,
    SpaceSpec,
    StiefelOperator,
    act_grassmann,
    build_space,
    delta_p,
    exp_skew,
    frame_unitary,
    gram_pair_from_matrices,
    grassmann_equivalence,
    h1_operator_norm,
    lie_split_grassmann,
    lie_split_stiefel,
    phi,
    psi_section,
    quotient_radius,
    section_pi_p,
)
from twonorm.sampling import (
    projection_near,
    random_complex,
    random_projection,
    random_skew,
    random_stiefel,
    rng_for_trial,
)

from conftest import dense_skew


def test_projection_operator_rejects_defects(g):
    with pytest.raises(ValueError):
        ProjectionOperator.from_matrix(0.5 * np.eye(g.n), g.n, g)
    # Valid projection, wrong declared rank.
    v = np.zeros(g.n, dtype=np.complex128)
    v[0] = 1.0
    v /= np.sqrt((v.conj() @ g.gl2 @ v).real)
    P = np.outer(v, v.conj()) @ g.gl2
    with pytest.raises(ValueError):
        ProjectionOperator.from_matrix(P, 2, g)
    ProjectionOperator.from_matrix(P, 1, g)


def test_projection_from_frame_round_trip(g, rng):
    P = random_projection(rng, g, 3)
    H = ProjectionOperator.from_matrix(P.P, P.N, g).frame
    again = ProjectionOperator(H, g)
    assert np.linalg.norm(again.P - P.P) <= 1e-10
    assert np.linalg.norm(P.P @ H - H) <= 1e-10


def test_range_frame_is_deterministic(g, rng):
    P = random_projection(rng, g, 2)
    first = ProjectionOperator.from_matrix(P.P, P.N, g)
    second = ProjectionOperator.from_matrix(P.P, P.N, g)
    assert np.array_equal(first.frame, second.frame)


def test_phi_is_the_image_projection(V):
    P = phi(V)
    assert np.array_equal(P.P, V.Phi @ V.g.l2(V.Phi).conj().T)


def test_psi_section_recovers_base_projection(g, V, ref):
    P = phi(V)
    lift = psi_section(P, P, ref)
    assert np.linalg.norm(phi(lift).P - P.P) <= 1e-10


def test_phi_after_psi_recovers_projection(g, V, ref, rng):
    P = phi(V)
    target = 0.5 * quotient_radius(P)
    P1, achieved = projection_near(P, target, rng)
    assert achieved == pytest.approx(target, rel=1e-6)
    lift = psi_section(P, P1, ref)
    assert np.linalg.norm(phi(lift).P - P1.P) <= 1e-9


def test_psi_rejects_far_projection(g, V, ref, rng):
    P = phi(V)
    far = random_projection(rng, g, P.N)
    assert h1_operator_norm(far.P - P.P, g) >= quotient_radius(P)
    with pytest.raises(NeighborhoodViolation):
        psi_section(P, far, ref)


def test_equivalence_accepts_reparameterized_point(g, V, ref, rng):
    # Right translation by an isotropy element keeps the image subspace.
    X = dense_skew(rng, g, scale=0.4)
    P_S = ProjectionOperator(ref.Xi, g)
    xdiag, _ = lie_split_grassmann(X, P_S)
    V1 = StiefelOperator.from_matrix(V.V @ exp_skew(xdiag).data, ref)
    res = grassmann_equivalence(V, V1)
    assert res.equivalent
    assert res.projection_distance <= 1e-8
    assert res.map_residual <= 1e-8
    assert np.linalg.norm(V1.V @ res.unitary.data - V.V) <= 1e-8


def test_equivalence_rejects_different_images(g, ref, rng):
    V1 = random_stiefel(rng, ref, scale=0.5)
    V2 = random_stiefel(rng, ref, scale=0.5)
    res = grassmann_equivalence(V1, V2)
    assert not res.equivalent
    assert res.projection_distance > 1e-8
    assert res.unitary is None and res.map_residual is None


def test_act_grassmann_matches_point_action(g, V, rng):
    from twonorm import act

    U = exp_skew(dense_skew(rng, g, scale=0.6))
    left = act_grassmann(U, phi(V))
    right = phi(act(U, V))
    assert np.linalg.norm(left.P - right.P) <= 1e-10


def test_connecting_unitary_conjugates(g, rng):
    P = random_projection(rng, g, 2)
    P1 = random_projection(rng, g, 2)
    U = frame_unitary(P.frame, P1.frame, g)
    moved = U.data @ P.P @ U.inverse.data
    assert np.linalg.norm(moved - P1.P) <= 1e-9


def test_section_pi_p_conjugates_nearby(g, V, rng):
    P = phi(V)
    target = 0.3 * quotient_radius(P)
    P1, _ = projection_near(P, target, rng)
    U = section_pi_p(P, P1)
    moved = U.data @ P.P @ U.inverse.data
    assert np.linalg.norm(moved - P1.P) <= 1e-9


def test_section_pi_p_rejects_far_projection(g, V, rng):
    P = phi(V)
    far = random_projection(rng, g, P.N)
    with pytest.raises(NeighborhoodViolation):
        section_pi_p(P, far)


@pytest.mark.parametrize("n", [16, 128])
def test_section_pi_p_conjugates_across_the_quotient_radius(n):
    # The direct rotation works on the whole quotient radius, five decades
    # beyond the safe radius of a lifted base point.
    g = build_space(SpaceSpec(domain_dim=1, grid_points=n, spacing=0.25))
    for seed in range(10):
        rng = rng_for_trial(seed, 0)
        P = random_projection(rng, g, 2)
        P1, _ = projection_near(P, 0.9 * quotient_radius(P), rng)
        U = section_pi_p(P, P1)
        moved = U.data @ P.P @ U.inverse.data
        assert h1_operator_norm(moved - P1.P, g) <= 1e-13 * max(1.0, P1.h1_norm), seed


@pytest.mark.parametrize("n", [16, 128])
def test_section_pi_p_rejects_just_outside_the_quotient_radius(n):
    g = build_space(SpaceSpec(domain_dim=1, grid_points=n, spacing=0.25))
    rng = rng_for_trial(0, 0)
    P = random_projection(rng, g, 2)
    P1, _ = projection_near(P, 1.1 * quotient_radius(P), rng)
    with pytest.raises(NeighborhoodViolation, match="section radius"):
        section_pi_p(P, P1)


def test_delta_p_cubes_to_itself(g, V, rng):
    P = phi(V)
    Y = random_complex(rng, g.n, g.n)
    once = delta_p(Y, P)
    thrice = delta_p(delta_p(once, P), P)
    assert np.linalg.norm(thrice - once) <= 1e-12 * max(1.0, np.linalg.norm(once))


def test_delta_p_squared_is_idempotent(g, V, rng):
    P = phi(V)
    Y = random_complex(rng, g.n, g.n)
    E = delta_p(delta_p(Y, P), P)
    E2 = delta_p(delta_p(E, P), P)
    assert np.linalg.norm(E2 - E) <= 1e-12 * max(1.0, np.linalg.norm(E))


def test_lie_split_grassmann_structure(g, V, rng):
    P = phi(V)
    X = dense_skew(rng, g)
    xg, xh = lie_split_grassmann(X, P)
    assert np.linalg.norm(xg.data + xh.data - X.data) <= 1e-12
    # Commuting part commutes; complement part has no diagonal blocks.
    assert np.linalg.norm(xg.data @ P.P - P.P @ xg.data) <= 1e-12
    ip = np.eye(g.n) - P.P
    assert np.linalg.norm(P.P @ xh.data @ P.P) <= 1e-12
    assert np.linalg.norm(ip @ xh.data @ ip) <= 1e-12


def _weighted_pair(n):
    # A Gram pair that is not a grid: Hermitian positive definite gl2 of condition 10.
    Q, _ = np.linalg.qr(random_complex(np.random.default_rng(n), n, n))
    gl2 = (Q * np.logspace(0.0, -1.0, n)) @ Q.conj().T
    return gram_pair_from_matrices(gl2, 2.0 * gl2 + np.eye(n))


PAIRS = {
    "grid": lambda n: build_space(SpaceSpec(domain_dim=1, grid_points=n, spacing=0.25)),
    "weighted": _weighted_pair,
}


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("n", [16, 128])
@pytest.mark.parametrize("pair", sorted(PAIRS))
def test_tangent_calculus_agrees_with_the_dense_projection(pair, n, seed):
    # The routines apply P through its frame; the references form P, I - P and the products densely.
    g = PAIRS[pair](n)
    rng = rng_for_trial(seed, 0)
    P = random_projection(rng, g, 2)
    Y = random_complex(rng, n, n)
    Pm, ip = P.P, np.eye(n) - P.P

    def close(value, reference):
        return np.linalg.norm(value - reference) <= 1e-13 * np.linalg.norm(reference)

    assert close(delta_p(Y, P), Y @ Pm - Pm @ Y)
    # A k = n generator, one on span[F, G] for an unrelated frame F, and one
    # whose span already holds range(P), so the joint span adds no column.
    generators = [dense_skew(rng, g), random_skew(rng, random_projection(rng, g, 2).frame, g)]
    generators.append(random_skew(rng, P.frame, g))
    for X in generators:
        x, k = X.data, X.Q.shape[1]
        for (inner, outer), dense in (
            (lie_split_grassmann(X, P), Pm @ x @ Pm + ip @ x @ ip),
            (lie_split_stiefel(X, P), ip @ x @ ip),
        ):
            assert isinstance(inner, SkewOperator) and isinstance(outer, SkewOperator)
            assert inner.Q is outer.Q and k <= inner.Q.shape[1] <= min(k + P.N, n)
            assert np.array_equal(inner.Q[:, :k], X.Q)
            assert close(inner.data + outer.data, x)
            assert close(inner.data, dense)
            assert close(outer.data, x - dense)
    assert generators[0].Q.shape[1] == n and generators[1].Q.shape[1] == 4
    assert lie_split_grassmann(generators[2], P)[0].Q.shape[1] == generators[2].Q.shape[1]
