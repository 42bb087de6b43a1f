"""Deterministic random generators for tests and campaign runs.

Every trial owns a counter-based stream keyed by seed XOR trial index, so
campaigns reproduce byte for byte and trials can run in any order.
"""

from __future__ import annotations

import numpy as np

from .basis import orthonormal_columns
from .errors import ConvergenceFailure, NeighborhoodViolation
from .grassmann import ProjectionOperator, act_grassmann
from .group import GroupElement, OneParameterGroup, SkewOperator, exp_skew
from .space import GramPair, LowRank, h1_operator_norm
from .stiefel import ReferenceFrame, StiefelOperator, point_difference

__all__ = [
    "rng_for_trial",
    "random_complex",
    "random_skew",
    "random_group_member",
    "random_reference",
    "base_point",
    "random_stiefel",
    "random_projection",
    "stiefel_near",
    "projection_near",
]

SETUP_TRIAL = 2**64 - 1
CALIBRATION_TOL = 1e-9
# Targets below this many machine epsilons of the point's strong norm are
# not resolved by the distance computed from the moved point.
RESOLUTION_FACTOR = 1e3


def rng_for_trial(seed: int, trial: int) -> np.random.Generator:
    key = int(np.uint64(seed) ^ np.uint64(trial))
    return np.random.Generator(np.random.Philox(key=key))


def random_complex(rng, rows: int, cols: int) -> np.ndarray:
    return (
        rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    ) / np.sqrt(2.0)


def random_skew(rng, g: GramPair, scale: float = 1.0) -> SkewOperator:
    """Random element of the Lie algebra, exact up to one linear solve."""
    A = random_complex(rng, g.n, g.n)
    S = 0.5 * (A - A.conj().T)
    X = g.solve_l2(S)
    nrm = np.linalg.norm(X)
    if nrm > 0:
        X = X * (scale / nrm)
    return SkewOperator(X, g)


def random_group_member(rng, g: GramPair, scale: float = 1.0) -> GroupElement:
    return exp_skew(random_skew(rng, g, scale))


def random_reference(rng, g: GramPair, N: int) -> ReferenceFrame:
    M = random_complex(rng, g.n, N)
    Xi = orthonormal_columns(M, g)
    if Xi.shape[1] != N:
        raise ValueError("sampled columns were linearly dependent")
    return ReferenceFrame(Xi=Xi, g=g)


def base_point(ref: ReferenceFrame) -> StiefelOperator:
    """The weak orthogonal projection onto the reference subspace, with image frame Xi."""
    return StiefelOperator(ref.Xi, ref)


def random_stiefel(rng, ref: ReferenceFrame, scale: float = 0.5) -> StiefelOperator:
    U = random_group_member(rng, ref.g, scale)
    return StiefelOperator(U.data @ ref.Xi, ref)


def random_projection(rng, g: GramPair, N: int) -> ProjectionOperator:
    M = random_complex(rng, g.n, N)
    H = orthonormal_columns(M, g)
    if H.shape[1] != N:
        raise ValueError("sampled columns were linearly dependent")
    return ProjectionOperator(H, g)


def _require_resolvable(target: float, scale: float) -> None:
    if target <= 0:
        raise ValueError("target distance must be positive")
    floor = RESOLUTION_FACTOR * np.finfo(float).eps * scale
    if target < floor:
        raise NeighborhoodViolation(
            f"target distance {target:.3e} is below the resolution {floor:.3e} "
            f"of a point of strong norm {scale:.3e}"
        )


def _calibrated_scale(distance_at, target: float) -> float:
    # distance_at(s) vanishes at s = 0 and is nearly linear for small s, so
    # proportional updates converge in a handful of evaluations.
    s = min(target, 0.25)
    best_s, best_gap = s, float("inf")
    for _ in range(60):
        d = distance_at(s)
        gap = abs(d - target)
        if gap < best_gap:
            best_s, best_gap = s, gap
        if gap <= CALIBRATION_TOL * target:
            return s
        if d <= 0:
            s *= 2.0
        else:
            s *= min(4.0, max(0.25, target / d))
        if s > 64.0:
            raise ConvergenceFailure("perturbation cannot reach the requested distance")
    if best_gap <= 1e-6 * target:
        return best_s
    raise ConvergenceFailure("perturbation scale calibration stalled")


def stiefel_near(V: StiefelOperator, target: float, rng) -> tuple[StiefelOperator, float]:
    """Perturb V along the group to a prescribed strong-norm distance.

    Returns the perturbed point and the achieved distance
    ``|| V' - V ||`` in the strong operator norm.  A target below
    ``RESOLUTION_FACTOR`` machine epsilons of ``||V||`` raises
    NeighborhoodViolation.
    """
    g = V.g
    _require_resolvable(target, h1_operator_norm(V.factors, g))
    exp_sX = OneParameterGroup(random_skew(rng, g, 1.0))

    def distance_at(s: float) -> float:
        exp_sX(s)  # every step stays a validated group element
        # U V - V = (U Phi - Phi)(gl2 Xi)^H.
        return h1_operator_norm(LowRank(exp_sX.displacement(s, V.Phi), V.ref.dual), g)

    s = _calibrated_scale(distance_at, target)
    moved = StiefelOperator(exp_sX(s).data @ V.Phi, V.ref)
    return moved, h1_operator_norm(point_difference(moved, V), g)


def projection_near(P: ProjectionOperator, target: float, rng) -> tuple[ProjectionOperator, float]:
    """Conjugate P by a group element to a prescribed strong-norm distance.

    A target below ``RESOLUTION_FACTOR`` machine epsilons of ``||P||`` raises
    NeighborhoodViolation.
    """
    g = P.g
    base = P.factors
    _require_resolvable(target, h1_operator_norm(base, g))
    exp_sX = OneParameterGroup(random_skew(rng, g, 1.0))
    H = P.frame

    def distance_at(s: float) -> float:
        exp_sX(s)  # every step stays a validated group element
        # With U H = H + D, U P U^-1 - P = D (gl2 H)^H + (H + D)(gl2 D)^H.
        D = exp_sX.displacement(s, H)
        return h1_operator_norm(LowRank(np.hstack([D, H + D]), np.hstack([base.R, g.gl2 @ D])), g)

    s = _calibrated_scale(distance_at, target)
    # P = H (gl2 H)^H and U^-H gl2 = gl2 U, so U P U^-1 = (U H)(gl2 U H)^H.
    moved = act_grassmann(exp_sX(s), P)
    return moved, h1_operator_norm(moved.factors - base, g)
