"""Deterministic random generators for tests and campaign runs.

Every trial owns a counter-based stream keyed by seed XOR trial index, so
campaigns reproduce byte for byte and trials can run in any order.
"""

from __future__ import annotations

import numpy as np

from .basis import orthonormal_columns
from .errors import ConvergenceFailure
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
    ``|| V' - V ||`` in the strong operator norm.
    """
    if target <= 0:
        raise ValueError("target distance must be positive")
    g = V.g
    exp_sX = OneParameterGroup(random_skew(rng, g, 1.0))

    def distance_at(s: float) -> float:
        # U V - V = (U Phi - Phi)(gl2 Xi)^H.
        return h1_operator_norm(LowRank(exp_sX(s).data @ V.Phi - V.Phi, V.ref.dual), g)

    s = _calibrated_scale(distance_at, target)
    moved = StiefelOperator(exp_sX(s).data @ V.Phi, V.ref)
    return moved, h1_operator_norm(point_difference(moved, V), g)


def projection_near(P: ProjectionOperator, target: float, rng) -> tuple[ProjectionOperator, float]:
    """Conjugate P by a group element to a prescribed strong-norm distance."""
    if target <= 0:
        raise ValueError("target distance must be positive")
    g = P.g
    exp_sX = OneParameterGroup(random_skew(rng, g, 1.0))
    H = P.frame
    base = LowRank(H, g.gl2 @ H)

    def distance(U: GroupElement) -> float:
        # P = H (gl2 H)^H and U^-H gl2 = gl2 U, so U P U^-1 = (U H)(gl2 U H)^H.
        UH = U.data @ H
        return h1_operator_norm(LowRank(UH, g.gl2 @ UH) - base, g)

    s = _calibrated_scale(lambda s: distance(exp_sX(s)), target)
    U = exp_sX(s)
    return act_grassmann(U, P), distance(U)
