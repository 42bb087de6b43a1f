"""Norms, Finsler tangent norms and curve-length bounds on the strong space.

Singular values are always taken in the strong frame, so the Schatten family
interpolates between the strong operator norm (p = inf) and the trace norm
(p = 1).  Differences of two embeddings have rank at most 2N, which sandwiches
every unitarily invariant norm between the operator norm and 2N times it.
Such operands, and tangent vectors, are passed as thin
:class:`~twonorm.space.LowRank` factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, LogUnavailable
from .group import GroupElement, OneParameterGroup, SkewOperator, frame_unitary
from .space import GramPair, LowRank, h1_operator_norm, h1_singular_values, h1_triangle, span_singular_values
from .stiefel import ReferenceFrame, StiefelOperator, point_difference

__all__ = [
    "NormSpec",
    "h1_singular_values",
    "schatten_norm",
    "SandwichReport",
    "norm_sandwich_check",
    "finsler_norm_stiefel",
    "finsler_norm_grassmann",
    "CurveSamples",
    "exp_curve",
    "curve_length",
    "group_log",
    "distance_upper",
]

SANDWICH_SLACK = 1e-10


@dataclass(frozen=True)
class NormSpec:
    """The Schatten p-norm on the strong space, 1 <= p <= inf.

    p = inf is the strong operator norm, labelled "operator_h1".
    """

    p: float

    def __post_init__(self):
        if not self.p >= 1:
            raise ValueError("schatten_p requires an exponent p >= 1")

    @property
    def label(self) -> str:
        p = self.p
        if math.isinf(p):
            return "operator_h1"
        return f"schatten_{int(p)}" if float(p).is_integer() else f"schatten_{p}"

    @staticmethod
    def operator() -> "NormSpec":
        return NormSpec(math.inf)

    @staticmethod
    def schatten(p: float) -> "NormSpec":
        return NormSpec(float(p))


def _norm_of(sv, spec: NormSpec):
    """The norm prescribed by ``spec`` of descending singular values, along the last axis."""
    if math.isinf(spec.p):
        return sv[..., 0]
    return np.sum(sv ** spec.p, axis=-1) ** (1.0 / spec.p)


def schatten_norm(A, spec: NormSpec, g: GramPair) -> float:
    """Norm of A prescribed by ``spec``, computed from strong singular values."""
    return float(_norm_of(h1_singular_values(A, g), spec))


@dataclass(frozen=True)
class SandwichReport:
    """Operator norm <= chosen norm <= 2N times operator norm, with slack."""

    operator_norm: float
    chosen_norm: float
    upper: float
    top_sum: float
    ok: bool


def norm_sandwich_check(V1: StiefelOperator, V2: StiefelOperator, spec: NormSpec) -> SandwichReport:
    """Evaluate the rank-2N sandwich for the difference of two embeddings."""
    sv = h1_singular_values(point_difference(V1, V2), V1.g)
    opn = float(sv[0])
    chosen = float(_norm_of(sv, spec))
    top = float(np.sum(sv[: 2 * V1.N]))
    upper = 2 * V1.N * opn
    ok = (
        opn <= chosen + SANDWICH_SLACK
        and chosen <= top + SANDWICH_SLACK
        and top <= upper + SANDWICH_SLACK
    )
    return SandwichReport(
        operator_norm=opn, chosen_norm=chosen, upper=upper, top_sum=top, ok=ok
    )


def finsler_norm_stiefel(X: SkewOperator, V: StiefelOperator, spec: NormSpec) -> float:
    """Length of the tangent vector X V = (X Phi)(gl2 Xi)^H in the chosen norm."""
    return schatten_norm(LowRank(X.apply(V.Phi), V.ref.dual), spec, V.g)


def finsler_norm_grassmann(X: SkewOperator, P, spec: NormSpec) -> float:
    """Length of the tangent vector [X, P] in the chosen norm.

    With P = L R^H, X P - P X = [X L, L][R, -X^H R]^H, and
    X^H R = gl2 Q S^H (Q^H R), so no n-by-n operator is formed.
    """
    L, R = P.factors.L, P.factors.R
    XhR = P.g.l2(X.Q @ (X.S.conj().T @ (X.Q.conj().T @ R)))
    return schatten_norm(LowRank(np.hstack([X.apply(L), L]), np.hstack([R, -XhR])), spec, P.g)


@dataclass(frozen=True)
class CurveSamples:
    """Sampled curve on the manifold, in the form :func:`exp_curve` builds.

    Parameters must increase strictly from 0 to 1 and frames are the image
    frames of the points.  Velocity i is Q cores[i] (gl2 Xi)^H, for the span Q
    of the generator and the reference frame ``ref``, so all velocity norms
    share one pair of strong triangles.
    """

    ts: tuple
    frames: tuple
    Q: np.ndarray
    cores: np.ndarray
    ref: ReferenceFrame

    def __post_init__(self):
        ts = tuple(float(t) for t in self.ts)
        if len(ts) < 2:
            raise ValueError("a curve needs at least two samples")
        if len(self.frames) != len(ts) or len(self.cores) != len(ts):
            raise ValueError("frames, velocity cores and parameters must align")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("curve parameters must increase strictly")
        if abs(ts[0]) > 1e-12 or abs(ts[-1] - 1.0) > 1e-12:
            raise ValueError("curve parameters must run from 0 to 1")
        object.__setattr__(self, "ts", ts)
        object.__setattr__(self, "frames", tuple(np.asarray(F, dtype=np.complex128) for F in self.frames))


def exp_curve(V0: StiefelOperator, X: SkewOperator, steps: int) -> CurveSamples:
    """One-parameter curve t -> exp(tX) V0 with its exact velocities.

    On the span Q of X, with c0 = Q^H gl2 Phi0 and the blocks B(t) of exp(tX)
    from one eigendecomposition, the point at t has the image frame
    F_t = Phi0 + Q B(t) c0 and the velocity X F_t (gl2 Xi)^H = Q S (I + B(t)) c0 (gl2 Xi)^H,
    kept as rank-N factors.  Only the end point exp(X) V0 is built from a
    validated element.
    """
    if steps < 2:
        raise ValueError("steps must be at least 2")
    ts = np.linspace(0.0, 1.0, steps)
    exp_tX = OneParameterGroup(X)
    c0 = X.Q.conj().T @ X.g.l2(V0.Phi)
    moved = exp_tX.block(ts) @ c0
    frames = tuple(V0.Phi + X.Q @ d for d in moved[:-1]) + (V0.Phi + exp_tX(1.0).displacement(V0.Phi),)
    cores = X.S @ (c0 + moved)
    return CurveSamples(ts=tuple(ts), frames=frames, Q=X.Q, cores=cores, ref=V0.ref)


def curve_length(c: CurveSamples, spec: NormSpec, g: GramPair) -> float:
    """Trapezoid-rule length of a sampled curve in the chosen norm.

    Every velocity norm comes from one strong triangle of Q, the reference's
    dual triangle and one batched SVD of the k-by-N cores.
    """
    norms = _norm_of(span_singular_values(h1_triangle(c.Q, g), c.ref.dual_triangle, c.cores), spec).tolist()
    total = 0.0
    for (t0, t1), (n0, n1) in zip(zip(c.ts, c.ts[1:]), zip(norms, norms[1:])):
        total += 0.5 * (t1 - t0) * (n0 + n1)
    return float(total)


def group_log(U: GroupElement) -> SkewOperator:
    """Principal logarithm of a group element near the identity, on the same span.

    With I + B unitary, H = -i B (2I + B)^{-1} is Hermitian and
    log(I + B) = 2 atanh(iH) = W diag(2i arctan mu) W^H for H = W diag(mu) W^H
    (Higham 2008, ch. 11), relatively accurate when B is small.  Requires
    ||U - I|| = ||Q B (gl2 Q)^H|| < 1 in the strong norm, which keeps 2I + B
    well conditioned; the result is checked to lie in the Lie algebra.
    """
    if h1_operator_norm(LowRank(U.Q @ U.B, U.g.l2(U.Q)), U.g) >= 1.0:
        raise LogUnavailable("element is too far from the identity for the principal logarithm")
    H = -1j * np.linalg.solve(2.0 * np.eye(U.B.shape[0]) + U.B, U.B)
    mu, W = np.linalg.eigh(0.5 * (H + H.conj().T))
    return SkewOperator(U.Q, (W * (2j * np.arctan(mu))) @ W.conj().T, U.g)


def distance_upper(
    V0: StiefelOperator, V1: StiefelOperator, spec: NormSpec, steps: int = 64
) -> float:
    """Length of an explicit connecting curve; an upper bound for the distance.

    A group element carrying V0 to V1 is built from their image frames, its
    principal logarithm generates the one-parameter curve, and the trapezoid
    length of that curve is returned.  Raises LogUnavailable when the
    connecting element is too far from the identity.
    """
    g = V0.g
    curve = exp_curve(V0, group_log(frame_unitary(V0.Phi, V1.Phi, g)), steps)
    miss = LowRank(curve.frames[-1] - V1.Phi, V1.ref.dual).frobenius_norm()
    if miss > 1e-8 * max(1.0, V1.factors.frobenius_norm()):
        raise ConvergenceFailure("connecting curve does not reach the target point")
    return curve_length(curve, spec, g)
