"""Invertible operators preserving the weak norm, and their skew generators.

Membership is the quadratic identity U^H gl2 U = gl2; the corresponding
algebra condition is X^H gl2 + gl2 X = 0.  An element moves the span of a
weakly orthonormal n-by-k Q, fixes its weak complement and is stored as Q and
a k-by-k block; dense input is the k = n case Q = gl2^{-1/2}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .basis import canonical_phase, complete_basis, require_orthonormal
from .errors import MembershipDefect
from .space import GramPair, as_operator

__all__ = [
    "GroupElement",
    "SkewOperator",
    "membership_residual",
    "skew_residual",
    "OneParameterGroup",
    "exp_skew",
    "frame_unitary",
    "algebraic_membership_residual",
]

CONSTRUCT_TOL = 1e-8
RCOND_FLOOR = 1e-12


def membership_residual(A, g: GramPair) -> float:
    """Relative Frobenius defect of the form-preservation identity."""
    A = as_operator(A, g.n, "A")
    return float(np.linalg.norm(A.conj().T @ g.l2(A) - g.gl2) / np.linalg.norm(g.gl2))


def skew_residual(X, g: GramPair) -> float:
    X = as_operator(X, g.n, "X")
    gX = g.l2(X)
    return float(np.linalg.norm(gX.conj().T + gX) / np.linalg.norm(g.gl2))


def _frozen(A: np.ndarray) -> np.ndarray:
    A.setflags(write=False)
    return A


def _span_form(element, block: str, defect, identity: str) -> None:
    """Check and freeze the weakly orthonormal span Q and the k-by-k block of an element.

    The pair's own factor gl2^{-1/2} is orthonormal by construction and known
    without building it (``GramPair.is_isqrt_l2``); any other span is checked.
    The block residual ||defect||_F / sqrt(n) is the dense one where gl2 is w I.
    """
    g = element.g
    Q = np.asarray(element.Q, dtype=np.complex128)
    M = np.asarray(getattr(element, block), dtype=np.complex128)
    if Q.ndim != 2 or Q.shape[0] != g.n or M.shape != (Q.shape[1],) * 2:
        raise ValueError(f"need an {g.n}-by-k span and a k-by-k block, got {Q.shape} and {M.shape}")
    if not g.is_isqrt_l2(Q):
        require_orthonormal(Q, g, CONSTRUCT_TOL, "span is not orthonormal")
    res = float(np.linalg.norm(defect(M)) / math.sqrt(g.n))
    if not res <= CONSTRUCT_TOL:
        raise MembershipDefect(f"{identity} residual {res:.3e} exceeds tolerance {CONSTRUCT_TOL:.1e}")
    object.__setattr__(element, "Q", _frozen(Q))
    object.__setattr__(element, block, _frozen(M))


def _operator(element, M) -> np.ndarray:
    """The n-by-n Q M (gl2 Q)^H; for k = n that is gl2^{-1/2} M gl2^{1/2}, which is M when gl2 is w I."""
    Q, g = element.Q, element.g
    return g.from_l2_frame(M) if g.is_isqrt_l2(Q) else (Q @ M) @ g.l2(Q).conj().T


@dataclass(frozen=True)
class GroupElement:
    """Validated member of the weak-isometry group, I + Q B (gl2 Q)^H with I + B unitary."""

    Q: np.ndarray
    B: np.ndarray
    g: GramPair

    def __post_init__(self):
        _span_form(self, "B", lambda B: B + B.conj().T + B.conj().T @ B, "form-preservation")

    @classmethod
    def from_matrix(cls, U, g: GramPair) -> "GroupElement":
        """Dense U as the k = n case, B = gl2^{1/2} U gl2^{-1/2} - I; U is kept as data."""
        U = as_operator(U, g.n, "group element")
        element = cls(g.isqrt_l2, g.to_l2_frame(U) - np.eye(g.n), g)
        object.__setattr__(element, "data", _frozen(U))
        return element

    @cached_property
    def data(self) -> np.ndarray:
        return _frozen(np.eye(self.g.n) + _operator(self, self.B))

    @cached_property
    def inv(self) -> np.ndarray:
        """The dense inverse I + Q B^H (gl2 Q)^H, since (I + B)^-1 = (I + B)^H."""
        return np.eye(self.g.n) + _operator(self, self.B.conj().T)

    def inv_h1_norm(self) -> float:
        """Strong operator norm of U^-1 = I + Q B^H (gl2 Q)^H, from the span.

        In strong coordinates U^-1 - I = L R^H with L = gh1^{1/2} Q B^H and
        R = gh1^{-1/2} gl2 Q.  For the thin QR [L, R] = W [T1, T2], U^-1 acts as
        I + T1 T2^H on the m <= 2k columns of W and as the identity beyond them,
        so the norm is max(1, ||I_m + T1 T2^H||_2), without the 1 when m = n.
        """
        g, k = self.g, self.Q.shape[1]
        T = np.linalg.qr(np.hstack([g.h1_half(self.Q @ self.B.conj().T), g.h1_ihalf(g.l2(self.Q))]), mode="r")
        top = float(np.linalg.norm(np.eye(T.shape[0]) + T[:, :k] @ T[:, k:].conj().T, 2))
        return top if T.shape[0] == g.n else max(1.0, top)

    def displacement(self, F) -> np.ndarray:
        """U F - F = Q B (Q^H gl2 F), accurate to relative rounding when B is small.

        Forming U F and subtracting F instead leaves an absolute error of
        about eps ||F||, which swamps a displacement of that size.
        """
        return self.Q @ (self.B @ (self.Q.conj().T @ self.g.l2(F)))

    def inv_displacement(self, F) -> np.ndarray:
        """U^-1 F - F = Q B^H (Q^H gl2 F), without the dense inverse."""
        return self.Q @ (self.B.conj().T @ (self.Q.conj().T @ self.g.l2(F)))


@dataclass(frozen=True)
class SkewOperator:
    """Validated member of the corresponding Lie algebra, Q S (gl2 Q)^H with S skew-Hermitian."""

    Q: np.ndarray
    S: np.ndarray
    g: GramPair

    def __post_init__(self):
        _span_form(self, "S", lambda S: S + S.conj().T, "skewness")

    @classmethod
    def from_matrix(cls, X, g: GramPair) -> "SkewOperator":
        """Dense X as the k = n case, S = gl2^{1/2} X gl2^{-1/2}; X is kept as data."""
        X = as_operator(X, g.n, "skew operator")
        element = cls(g.isqrt_l2, g.to_l2_frame(X), g)
        object.__setattr__(element, "data", _frozen(X))
        return element

    @cached_property
    def data(self) -> np.ndarray:
        return _frozen(_operator(self, self.S))

    def apply(self, F) -> np.ndarray:
        """X F = Q S (Q^H gl2 F)."""
        return self.Q @ (self.S @ (self.Q.conj().T @ self.g.l2(F)))


class OneParameterGroup:
    """The curve t -> exp(tX) from one eigendecomposition of the k-by-k block.

    i S = W diag(lam) W^H with real lam and unitary W, so exp(tX) is the
    element on the same span with block W diag(expm1(-i t lam)) W^H: exact
    at t = 0 and free of cancellation for small t.
    """

    def __init__(self, X: SkewOperator):
        self.lam, self.W = np.linalg.eigh(0.5j * (X.S - X.S.conj().T))
        self.X = X

    def block(self, t) -> np.ndarray:
        """The k-by-k block of exp(tX), or the stack of blocks for an array of t, unvalidated."""
        return (self.W * np.expm1(-1j * np.multiply.outer(t, self.lam))[..., None, :]) @ self.W.conj().T

    def __call__(self, t: float) -> GroupElement:
        return GroupElement(self.X.Q, self.block(t), self.X.g)


def exp_skew(X: SkewOperator) -> GroupElement:
    """Exponential of an algebra element, via the eigendecomposition of its block."""
    return OneParameterGroup(X)(1.0)


def _joint_span(F0, F1, g: GramPair):
    """Orthonormal basis Q = [F0, C] of the span of both frames, and beta = Q^H gl2 (F1 - F0).

    F1 = Q (E + beta) for E the first N columns of I_k, and beta is as accurate as F1 - F0.
    The basis is completed on D = F1 - F0 scaled to unit norm, so the drop rule of
    ``complete_basis`` is relative to the displacement and keeps its small directions.
    """
    D = F1 - F0
    scale = np.linalg.norm(D)
    Q = np.hstack([F0, complete_basis(F0, D / scale if scale > 0 else D, g)])
    return Q, Q.conj().T @ g.l2(D)


def frame_unitary(F0, F1, g: GramPair) -> GroupElement:
    """Group element on the joint span Q of two orthonormal N-frames, mapping F0 to F1.

    F1 = Q b with b = E + beta (``_joint_span``).  The last k - N columns of
    the QR factor of [b, e_(N+1..k)], each with a canonical phase, complete b
    to a unitary u, so nearby frames give an element near the identity; the
    block is u - I, with first N columns beta.
    """
    F0 = np.asarray(F0, dtype=np.complex128)
    F1 = np.asarray(F1, dtype=np.complex128)
    if F0.shape != F1.shape or F0.ndim != 2 or F0.shape[0] != g.n:
        raise ValueError(f"frames must share shape ({g.n}, N), got {F0.shape} and {F1.shape}")
    for name, F in (("first", F0), ("second", F1)):
        require_orthonormal(F, g, CONSTRUCT_TOL, f"{name} frame is not orthonormal")
    Q, beta = _joint_span(F0, F1, g)
    N, k = F0.shape[1], Q.shape[1]
    eye_k = np.eye(k, dtype=np.complex128)
    rest = np.linalg.qr(np.hstack([eye_k[:, :N] + beta, eye_k[:, N:]]))[0][:, N:]
    B = np.hstack([beta] + [canonical_phase(c)[:, None] for c in rest.T])
    B[N:, N:] -= eye_k[N:, N:]
    return GroupElement(Q, B, g)


def algebraic_membership_residual(U, g: GramPair) -> float:
    """Largest defect of the quadratic membership identity over all unit vectors.

    The value is sup |<U*2 U phi, phi> - 1| over weakly normalized phi, where
    U*2 is the weak adjoint; for members the adjoint equals the inverse, so
    it vanishes up to rounding.  The supremum is exactly the largest
    |eigenvalue| of the Hermitian gl2^{-1/2} (U^H gl2 U - gl2) gl2^{-1/2}.
    """
    U = as_operator(U, g.n, "U")
    sv = np.linalg.svd(U, compute_uv=False)
    if sv[-1] <= RCOND_FLOOR * max(sv[0], 1.0):
        raise ValueError("element is numerically singular")
    D = g.isqrt_l2_congruence(U.conj().T @ g.l2(U) - g.gl2)
    lam = np.linalg.eigvalsh(0.5 * (D + D.conj().T))
    return float(np.max(np.abs(lam)))
