"""Invertible operators preserving the weak norm, and their skew generators.

Membership is the quadratic identity U^H gl2 U = gl2; the corresponding
algebra condition is X^H gl2 + gl2 X = 0.  Elements act on the strong space,
so invertibility there comes for free in finite dimension, but predicates
still guard against numerically singular input.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import eigh

from .basis import canonical_phase, complete_basis, require_orthonormal
from .errors import MembershipDefect
from .space import GramPair, as_operator

__all__ = [
    "GroupElement",
    "SkewOperator",
    "membership_residual",
    "skew_residual",
    "is_group_member",
    "is_lie_algebra_member",
    "OneParameterGroup",
    "exp_skew",
    "bracket",
    "frame_unitary",
    "algebraic_membership_residual",
]

DEFAULT_TOL = 1e-10
CONSTRUCT_TOL = 1e-8
RCOND_FLOOR = 1e-12


def membership_residual(A, g: GramPair) -> float:
    """Relative Frobenius defect of the form-preservation identity."""
    A = as_operator(A, g.n, "A")
    return float(
        np.linalg.norm(A.conj().T @ g.gl2 @ A - g.gl2) / np.linalg.norm(g.gl2)
    )


def skew_residual(X, g: GramPair) -> float:
    X = as_operator(X, g.n, "X")
    return float(np.linalg.norm(X.conj().T @ g.gl2 + g.gl2 @ X) / np.linalg.norm(g.gl2))


def is_group_member(A, g: GramPair, tol: float = DEFAULT_TOL) -> bool:
    """True iff A is invertible and preserves the weak form at tolerance."""
    A = as_operator(A, g.n, "A")
    if not np.all(np.isfinite(A)):
        return False
    sv = np.linalg.svd(A, compute_uv=False)
    if sv[-1] <= RCOND_FLOOR * sv[0] or sv[0] == 0.0:
        return False
    return membership_residual(A, g) <= tol


def is_lie_algebra_member(X, g: GramPair, tol: float = DEFAULT_TOL) -> bool:
    return skew_residual(X, g) <= tol


@dataclass(frozen=True)
class GroupElement:
    """Validated member of the weak-isometry group."""

    data: np.ndarray
    g: GramPair
    tol: float = CONSTRUCT_TOL

    def __post_init__(self):
        data = as_operator(self.data, self.g.n, "group element")
        res = membership_residual(data, self.g)
        if not np.isfinite(res) or res > self.tol:
            raise MembershipDefect(
                f"form-preservation residual {res:.3e} exceeds tolerance {self.tol:.1e}"
            )
        data.setflags(write=False)
        object.__setattr__(self, "data", data)

    @cached_property
    def inv(self) -> np.ndarray:
        return np.linalg.inv(self.data)


@dataclass(frozen=True)
class SkewOperator:
    """Validated member of the corresponding Lie algebra."""

    data: np.ndarray
    g: GramPair

    def __post_init__(self):
        data = as_operator(self.data, self.g.n, "skew operator")
        res = skew_residual(data, self.g)
        if not np.isfinite(res) or res > CONSTRUCT_TOL:
            raise MembershipDefect(
                f"skewness residual {res:.3e} exceeds tolerance {CONSTRUCT_TOL:.1e}"
            )
        data.setflags(write=False)
        object.__setattr__(self, "data", data)


def bracket(X: SkewOperator, Y: SkewOperator) -> SkewOperator:
    """Commutator [X, Y]; the algebra is closed under it."""
    return SkewOperator(X.data @ Y.data - Y.data @ X.data, X.g)


class OneParameterGroup:
    """The curve t -> exp(tX) from one eigendecomposition of the generator.

    In the weak frame M = gl2^{1/2} X gl2^{-1/2} is skew-Hermitian, so
    iM = W diag(lam) W^H with real lam and unitary W.  With Wl = gl2^{-1/2} W
    and Wr = W^H gl2^{1/2}, exp(tX) = I + Wl diag(expm1(-i t lam)) Wr for
    every t: exact at t = 0 and free of cancellation for small t.
    """

    def __init__(self, X: SkewOperator):
        g = X.g
        M = 1j * g.to_l2_frame(X.data)
        lam, W = eigh(0.5 * (M + M.conj().T), check_finite=False)
        self.g = g
        self.lam = lam
        self.left = g.isqrt_l2 @ W
        self.right = W.conj().T @ g.sqrt_l2

    def __call__(self, t: float) -> GroupElement:
        step = (self.left * np.expm1(-1j * t * self.lam)) @ self.right
        return GroupElement(np.eye(self.g.n, dtype=np.complex128) + step, self.g)

    def displacement(self, t: float, F) -> np.ndarray:
        """exp(tX) F - F = Wl diag(expm1(-i t lam)) (Wr F), accurate to relative rounding.

        Forming exp(tX) F and subtracting F instead leaves an absolute error of
        about eps ||F||, which swamps a displacement of that size.
        """
        return (self.left * np.expm1(-1j * t * self.lam)) @ (self.right @ F)


def exp_skew(X: SkewOperator) -> GroupElement:
    """Exponential of an algebra element, via its weak-frame eigendecomposition."""
    return OneParameterGroup(X)(1.0)


def frame_unitary(F0, F1, g: GramPair) -> GroupElement:
    """Group element mapping one orthonormal N-frame onto another.

    F0 is completed by pivoted Gram-Schmidt to an orthonormal basis
    Q = [F0, C] of the joint span, in which F1 has coordinates b = Q^H gl2 F1.
    The last k - N columns of the QR factor of [b, e_(N+1..k)] complete b to a
    unitary u, each with a canonical phase, so nearby frames produce an
    element close to the identity.  The element I + Q (u - I) Q^H gl2 maps F0
    to F1 and fixes the weak orthocomplement of the span.
    """
    F0 = np.asarray(F0, dtype=np.complex128)
    F1 = np.asarray(F1, dtype=np.complex128)
    if F0.shape != F1.shape or F0.ndim != 2 or F0.shape[0] != g.n:
        raise ValueError(f"frames must share shape ({g.n}, N), got {F0.shape} and {F1.shape}")
    for name, F in (("first", F0), ("second", F1)):
        require_orthonormal(F, g, CONSTRUCT_TOL, f"{name} frame is not orthonormal")
    if np.linalg.norm(F1 - F0) <= 1e-14:
        return GroupElement(np.eye(g.n, dtype=np.complex128), g)
    Q = np.hstack([F0, complete_basis(F0, F1, g)])
    N, k = F0.shape[1], Q.shape[1]
    b = Q.conj().T @ (g.gl2 @ F1)
    eye_k = np.eye(k, dtype=np.complex128)
    rest = np.linalg.qr(np.hstack([b, eye_k[:, N:]]))[0][:, N:]
    u = np.hstack([b] + [canonical_phase(c)[:, None] for c in rest.T])
    U = np.eye(g.n, dtype=np.complex128) + (Q @ (u - eye_k)) @ (g.gl2 @ Q).conj().T
    return GroupElement(U, g)


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
    D = g.isqrt_l2 @ (U.conj().T @ g.gl2 @ U - g.gl2) @ g.isqrt_l2
    lam = eigh(0.5 * (D + D.conj().T), eigvals_only=True, check_finite=False)
    return float(np.max(np.abs(lam)))
