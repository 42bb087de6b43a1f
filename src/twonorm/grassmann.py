"""Rank-N weak orthogonal projections and the conjugation action on them.

Projections are the quotient picture of the isometric embeddings: two
embeddings share a projection exactly when they differ by a group element
fixing the reference subspace.  The module provides the quotient map and a
local section of it, the conjugation action, equivalence testing with an
explicit block unitary, the commutator map delta_P and the split of the
algebra into a part commuting with P and an off-diagonal part.  Distances and
sections are taken on the joint span of two range frames, ``group._TwoFrames``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .basis import FRAME_TOL, orthonormal_columns, require_orthonormal
from .errors import NeighborhoodViolation
from .group import GroupElement, SkewOperator, _TwoFrames, _lie_split
from .space import GramPair, LowRank, as_operator, h1_operator_norm
from .stiefel import ReferenceFrame, StiefelOperator, _require_same_reference

__all__ = [
    "ProjectionOperator",
    "phi",
    "quotient_radius",
    "psi_section",
    "EquivalenceResult",
    "grassmann_equivalence",
    "act_grassmann",
    "section_pi_p",
    "delta_p",
    "lie_split_grassmann",
]

TRACE_TOL = 1e-8
EQUIVALENCE_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class ProjectionOperator:
    """Weak orthogonal projection P = H (gl2 H)^H, stored as its range frame H.

    The rank N is the width of the weakly orthonormal frame, and P is built
    only when asked for.  Dense input enters through :meth:`from_matrix`.
    """

    frame: np.ndarray
    g: GramPair

    def __post_init__(self):
        H = np.asarray(self.frame, dtype=np.complex128)
        if H.ndim != 2 or H.shape[0] != self.g.n or H.shape[1] < 1:
            raise ValueError(f"range frame must be n-by-N with N >= 1, got {H.shape}")
        require_orthonormal(H, self.g, "range frame is not orthonormal")
        H.setflags(write=False)
        object.__setattr__(self, "frame", H)

    @classmethod
    def from_matrix(cls, P, N: int, g: GramPair) -> "ProjectionOperator":
        """Validate a dense projection of declared rank N; keep a deterministic range frame.

        P must be idempotent and weakly self-adjoint, each defect within
        FRAME_TOL max(1, ||P||_F).  The frame is the pivoted Gram-Schmidt basis
        of the columns of P, each with a canonical phase, so equal input gives
        an equal frame.
        """
        P = as_operator(P, g.n, "P")
        tol = FRAME_TOL * max(1.0, float(np.linalg.norm(P)))
        if not np.linalg.norm(P @ P - P) <= tol:
            raise ValueError("operator is not idempotent")
        M = g.to_l2_frame(P)
        if not np.linalg.norm(M - M.conj().T) <= tol:
            raise ValueError("operator is not self-adjoint for the weak product")
        tr = float(np.trace(P).real)
        if not abs(tr - N) <= TRACE_TOL * max(1.0, N):
            raise ValueError(f"trace {tr:.6f} does not match declared rank {N}")
        H = orthonormal_columns(P, g)
        if H.shape[1] != N:
            raise ValueError(f"projection range has numerical dimension {H.shape[1]}, declared {N}")
        return cls(H, g)

    @property
    def n(self) -> int:
        return self.g.n

    @property
    def N(self) -> int:
        return self.frame.shape[1]

    @cached_property
    def P(self) -> np.ndarray:
        """The operator H (gl2 H)^H."""
        P = self.frame @ self.g.l2(self.frame).conj().T
        P.setflags(write=False)
        return P

    @cached_property
    def factors(self) -> LowRank:
        """P = H (gl2 H)^H as thin factors."""
        return LowRank(self.frame, self.g.l2(self.frame))

    @cached_property
    def h1_norm(self) -> float:
        """Strong operator norm of P, shared by the quotient radius and the sampler's resolution."""
        return h1_operator_norm(self.factors, self.g)


def phi(V: StiefelOperator) -> ProjectionOperator:
    """Quotient map onto projections: V -> V V*2 = Phi (gl2 Phi)^H."""
    return ProjectionOperator(V.Phi, V.g)


def quotient_radius(P: ProjectionOperator) -> float:
    """Radius 1/(||P||_h1 + 1)^2 of the quotient section around P."""
    return 1.0 / (P.h1_norm + 1.0) ** 2


def _quotient_span(P: ProjectionOperator, P1: ProjectionOperator) -> _TwoFrames:
    """The joint span of the range frames of P and P1, once P1 is inside the quotient radius of P."""
    span = _TwoFrames(P.frame, P1.frame, P.g)
    dist, rad = span.projection_distance, quotient_radius(P)
    if not dist < rad:
        raise NeighborhoodViolation(
            f"projection distance {dist:.6e} is not inside the section radius {rad:.6e}"
        )
    return span


def psi_section(P: ProjectionOperator, P1: ProjectionOperator, ref: ReferenceFrame) -> StiefelOperator:
    """Local section of the quotient map around P.

    A fixed group element U carries the reference subspace onto range(P)
    with U Xi = H, where H is the frame P was built with; the partial
    isometry T1 then tilts range(P) onto range(P1).  The composition is the
    isometric embedding with image frame T1 H = H1 Z Y^H, for the range
    frame H1 of P1 and the SVD Y diag(s) Z^H of the overlap H^H gl2 H1 on the
    joint span, and its projection recovers P1.  P1 is gated as in
    ``section_pi_p``, by the quotient radius and the four contraction bounds.
    """
    if P.N != ref.N:
        raise ValueError("projection rank and reference width differ")
    return StiefelOperator(P1.frame @ _quotient_span(P, P1).direct_rotation()[1], ref)


@dataclass(frozen=True, eq=False)
class EquivalenceResult:
    """Outcome of testing whether two embeddings share their image subspace."""

    equivalent: bool
    projection_distance: float
    unitary: GroupElement | None = None
    map_residual: float | None = None


def grassmann_equivalence(V: StiefelOperator, V1: StiefelOperator) -> EquivalenceResult:
    """Decide V ~ V1 and, on success, return the witnessing block unitary.

    The witness U = V1*2 V + (I - Pi_S) = I + Xi (Phi1^H gl2 Phi - I)(gl2 Xi)^H
    acts as a weak unitary of the reference subspace and as the identity on
    its complement; the reported residual is V1 U - V = (Phi1 Phi1^H gl2 Phi - Phi)(gl2 Xi)^H.
    """
    g = V.g
    _require_same_reference(V, V1)
    dist = _TwoFrames(V.Phi, V1.Phi, g).projection_distance
    if dist > EQUIVALENCE_TOL:
        return EquivalenceResult(equivalent=False, projection_distance=dist)
    ref = V.ref
    overlap = g.l2(V1.Phi).conj().T @ V.Phi
    return EquivalenceResult(
        equivalent=True,
        projection_distance=dist,
        unitary=GroupElement(ref.Xi, overlap - np.eye(ref.N), g),
        map_residual=LowRank(V1.Phi @ overlap - V.Phi, ref.dual).frobenius_norm(),
    )


def act_grassmann(U: GroupElement, P: ProjectionOperator) -> ProjectionOperator:
    """Conjugation action U . P = U P U^-1, the projection onto the span of U H."""
    return ProjectionOperator(P.frame + U.displacement(P.frame), P.g)


def section_pi_p(P: ProjectionOperator, P1: ProjectionOperator) -> GroupElement:
    """Section of the conjugation action: the direct rotation T, with T P T^-1 = P1.

    T is Kato's transformation function for the pair (Davis and Kahan, SIAM
    J. Numer. Anal. 7, 1970), the element ``section_factors`` returns as
    ``t``: it depends only on the two ranges, is I at P1 = P and lives on
    their joint span, k <= 2N.  P1 must lie inside the quotient radius of P,
    and all four contraction bounds below 1, else NeighborhoodViolation.
    """
    span = _quotient_span(P, P1)
    return GroupElement(span.Q, span.direct_rotation()[3], P.g)


def delta_p(Y, P: ProjectionOperator) -> np.ndarray:
    """Commutator map Y -> Y P - P Y = (Y H) G^H - H (G^H Y), for P = H G^H; cubes back to itself."""
    Y = as_operator(Y, P.n, "Y")
    H, G = P.factors.L, P.factors.R
    return (Y @ H) @ G.conj().T - H @ (G.conj().T @ Y)


def lie_split_grassmann(X: SkewOperator, P: ProjectionOperator) -> tuple[SkewOperator, SkewOperator]:
    """Split X into a part commuting with P and the off-diagonal part delta_P^2(X) = X P + P X - 2 P X P.

    Both parts live on the joint span of X's span and P's range frame, k <= k_X + N.
    """
    return _lie_split(X, P.frame, 2.0)
