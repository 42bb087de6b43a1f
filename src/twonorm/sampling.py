"""Deterministic random generators for tests and campaign runs.

Each (seed, trial index) pair keys its own counter-based stream, so
campaigns reproduce byte for byte and trials can run in any order.  The one
algebra draw, ``random_skew``, is a generator on span[F, G] for a frame F
and a random block G of its width, so no draw forms an n-by-n array.
"""

from __future__ import annotations

import numpy as np

from .basis import orthonormal_columns
from .errors import ConvergenceFailure, NeighborhoodViolation, RankDeficiency
from .grassmann import ProjectionOperator, act_grassmann
from .group import GroupElement, OneParameterGroup, SkewOperator, _Span, _TwoFrames, exp_skew
from .space import GramPair, h1_triangle, span_singular_values
from .stiefel import ReferenceFrame, StiefelOperator, act

__all__ = [
    "rng_for_trial",
    "random_complex",
    "random_skew",
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
# Directions a sampler draws at most, while the distance along each saturates below its target.
MAX_DIRECTIONS = 4


def rng_for_trial(seed: int, trial: int) -> np.random.Generator:
    key = np.array([seed, trial], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def random_complex(rng, rows: int, cols: int) -> np.ndarray:
    return (
        rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    ) / np.sqrt(2.0)


def random_skew(rng, F, g: GramPair) -> SkewOperator:
    """Random skew X = Q (A - A^H)(gl2 Q)^H on span[F, G], for G a random n-by-N block.

    Q is an orthonormal basis of the span, so k = min(2N, n); the k-by-k
    block is not normalized.
    """
    Q = orthonormal_columns(np.hstack([F, random_complex(rng, g.n, F.shape[1])]), g)
    A = random_complex(rng, Q.shape[1], Q.shape[1])
    return SkewOperator(Q, A - A.conj().T, g)


def _frobenius_scaled(X: SkewOperator, norm: float) -> SkewOperator:
    """X with its block rescaled to the given Frobenius norm; on build_space grids that is also ||X||_F."""
    return SkewOperator(X.Q, X.S * (norm / np.linalg.norm(X.S)), X.g)


def random_reference(rng, g: GramPair, N: int) -> ReferenceFrame:
    M = random_complex(rng, g.n, N)
    Xi = orthonormal_columns(M, g)
    if Xi.shape[1] != N:
        # Weak norms below basis.DROP_TOL (draws on a grid of tiny spacing) are dropped as dependent.
        raise RankDeficiency("sampled columns were linearly dependent")
    return ReferenceFrame(Xi=Xi, g=g)


def base_point(ref: ReferenceFrame) -> StiefelOperator:
    """The weak orthogonal projection onto the reference subspace, with image frame Xi."""
    return StiefelOperator(ref.Xi, ref)


def random_stiefel(rng, ref: ReferenceFrame, scale: float = 0.5) -> StiefelOperator:
    """The base point moved by exp(X), for X from ``random_skew`` on span[Xi, G] with block of Frobenius norm ``scale``."""
    return act(exp_skew(_frobenius_scaled(random_skew(rng, ref.Xi, ref.g), scale)), base_point(ref))


def random_projection(rng, g: GramPair, N: int) -> ProjectionOperator:
    """The projection onto the span of a random reference frame."""
    return ProjectionOperator(random_reference(rng, g, N).Xi, g)


class _OutOfReach(ConvergenceFailure):
    """The distance along one drawn direction saturates below the target."""


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
            raise _OutOfReach("perturbation cannot reach the requested distance")
    if best_gap <= 1e-6 * target:
        return best_s
    raise ConvergenceFailure("perturbation scale calibration stalled")


def _span_perturbation(F, g: GramPair, target: float, scale: float, rng, distance) -> GroupElement:
    """exp(sX) with distance(exp(sX) F - F) = target, for X from ``random_skew``.

    exp(sX) F - F = Q B(s) c for the span Q and block B(s) of exp(sX) and c = Q^H gl2 F;
    ``distance(span, c, d)`` returns the distance for the ``_Span`` of Q and the
    k-by-N d = B(s) c, so only the chosen s builds an element.  A target below
    ``RESOLUTION_FACTOR`` machine epsilons of the point's strong norm ``scale``
    raises NeighborhoodViolation.  Where the distance along X saturates below
    the target, X is redrawn from ``rng``, up to ``MAX_DIRECTIONS`` directions in all.
    """
    if target <= 0:
        raise ValueError("target distance must be positive")
    floor = RESOLUTION_FACTOR * np.finfo(float).eps * scale
    if target < floor:
        raise NeighborhoodViolation(
            f"target distance {target:.3e} is below the resolution {floor:.3e} "
            f"of a point of strong norm {scale:.3e}"
        )
    for _ in range(MAX_DIRECTIONS):
        exp_sX = OneParameterGroup(random_skew(rng, F, g))
        span = _Span(exp_sX.X.Q, g)
        c = span.Q.conj().T @ g.l2(F)
        try:
            s = _calibrated_scale(lambda s: distance(span, c, exp_sX.block(s) @ c), target)
        except _OutOfReach:
            continue
        return exp_sX(s)
    raise ConvergenceFailure(f"perturbation cannot reach the requested distance along {MAX_DIRECTIONS} drawn directions")


def stiefel_near(V: StiefelOperator, target: float, rng) -> tuple[StiefelOperator, float]:
    """Perturb V along the group to a prescribed strong-norm distance.

    Returns the perturbed point and the achieved distance
    ``|| V' - V ||`` in the strong operator norm.  A target below
    ``RESOLUTION_FACTOR`` machine epsilons of ``||V||`` raises
    NeighborhoodViolation.
    """
    g, TR = V.g, V.ref.dual_triangle
    # U V - V = (U Phi - Phi)(gl2 Xi)^H = Q d (gl2 Xi)^H for the coefficient d.
    moved = act(_span_perturbation(V.Phi, g, target, V.h1_norm, rng,
                                   lambda span, _, d: float(span_singular_values(span.TL, TR, d)[0])), V)
    # The norm of point_difference(moved, V), with the reference's cached right triangle.
    return moved, float(span_singular_values(h1_triangle(moved.Phi - V.Phi, g), TR)[0])


def projection_near(P: ProjectionOperator, target: float, rng) -> tuple[ProjectionOperator, float]:
    """Conjugate P by a group element to a prescribed strong-norm distance.

    A target below ``RESOLUTION_FACTOR`` machine epsilons of ``||P||`` raises
    NeighborhoodViolation, and so does a projection of rank n, which no
    conjugation moves.
    """
    g, H = P.g, P.frame
    if H.shape[1] == g.n:
        raise NeighborhoodViolation(
            f"the rank-{g.n} projection is the identity; every group element fixes it"
        )
    # P = H (gl2 H)^H and U^-H gl2 = gl2 U, so U P U^-1 = (U H)(gl2 U H)^H.
    moved = act_grassmann(_span_perturbation(H, g, target, P.h1_norm, rng, _Span.conjugation_distance), P)
    return moved, _TwoFrames(H, moved.frame, g).projection_distance
