"""Invertible operators preserving the weak norm, and their skew generators.

Membership is the quadratic identity U^H gl2 U = gl2; the corresponding
algebra condition is X^H gl2 + gl2 X = 0.  An element moves the span of a
weakly orthonormal n-by-k Q, fixes its weak complement and is stored as Q and
a k-by-k block; every library routine builds its spans from a few frames, so
k is a small multiple of their width and never n, and a product of two
elements, ``_product``, lives on their joint span.  A span,
``_Span``, is where strong norms of operators on it are taken, and the joint
span of two n-by-N frames, ``_TwoFrames``, is the one kernel of every section.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .basis import canonical_phase, complete_basis, require_orthonormal
from .errors import MembershipDefect, NeighborhoodViolation, RankDeficiency
from .space import GramPair, LowRank, as_operator, h1_triangle, span_singular_values

__all__ = [
    "GroupElement",
    "SkewOperator",
    "membership_residual",
    "OneParameterGroup",
    "exp_skew",
    "frame_unitary",
]

CONSTRUCT_TOL = 1e-8
RANGE_CUTOFF = 1e-12


def membership_residual(A, g: GramPair) -> float:
    """Relative Frobenius defect of the form-preservation identity."""
    A = as_operator(A, g.n, "A")
    return float(np.linalg.norm(A.conj().T @ g.l2(A) - g.gl2) / np.linalg.norm(g.gl2))


def _frozen(A: np.ndarray) -> np.ndarray:
    A.setflags(write=False)
    return A


def _span_form(element, block: str, defect, identity: str) -> None:
    """Check and freeze the weakly orthonormal span Q and the k-by-k block of an element.

    The block residual ||defect||_F / sqrt(n), the dense one where gl2 is w I,
    is kept as the element's ``defect``.
    """
    g = element.g
    Q = np.asarray(element.Q, dtype=np.complex128)
    M = np.asarray(getattr(element, block), dtype=np.complex128)
    if Q.ndim != 2 or Q.shape[0] != g.n or M.shape != (Q.shape[1],) * 2:
        raise ValueError(f"need an {g.n}-by-k span and a k-by-k block, got {Q.shape} and {M.shape}")
    require_orthonormal(Q, g, "span is not orthonormal")
    res = float(np.linalg.norm(defect(M)) / math.sqrt(g.n))
    if not res <= CONSTRUCT_TOL:
        raise MembershipDefect(f"{identity} residual {res:.3e} exceeds tolerance {CONSTRUCT_TOL:.1e}")
    object.__setattr__(element, "Q", _frozen(Q))
    object.__setattr__(element, block, _frozen(M))
    object.__setattr__(element, "defect", res)


def _operator(element, M) -> np.ndarray:
    """The n-by-n Q M (gl2 Q)^H."""
    return (element.Q @ M) @ element.g.l2(element.Q).conj().T


@dataclass(frozen=True, eq=False)
class GroupElement:
    """Validated member of the weak-isometry group, I + Q B (gl2 Q)^H with I + B unitary."""

    Q: np.ndarray
    B: np.ndarray
    g: GramPair
    defect: float = field(init=False, repr=False)  # set by _span_form

    def __post_init__(self):
        _span_form(self, "B", lambda B: B + B.conj().T + B.conj().T @ B, "form-preservation")

    @cached_property
    def data(self) -> np.ndarray:
        return _frozen(np.eye(self.g.n) + _operator(self, self.B))

    @cached_property
    def inverse(self) -> "GroupElement":
        """U^-1 = I + Q B^H (gl2 Q)^H on the same span, since (I + B)^-1 = (I + B)^H."""
        return GroupElement(self.Q, self.B.conj().T, self.g)

    @cached_property
    def h1_norm(self) -> float:
        """Strong operator norm of U = I + Q B (gl2 Q)^H, from the span.

        In strong coordinates U - I = L R^H with L = gh1^{1/2} Q B and
        R = gh1^{-1/2} gl2 Q.  For the thin QR [L, R] = W [T1, T2], U acts as
        I + T1 T2^H on the m <= 2k columns of W and as the identity beyond them,
        so the norm is max(1, ||I_m + T1 T2^H||_2), without the 1 when m = n.
        """
        g, k = self.g, self.Q.shape[1]
        T = np.linalg.qr(np.hstack([g.h1_half(self.Q @ self.B), g.h1_ihalf(g.l2(self.Q))]), mode="r")
        top = float(np.linalg.norm(np.eye(T.shape[0]) + T[:, :k] @ T[:, k:].conj().T, 2))
        return top if T.shape[0] == g.n else max(1.0, top)

    def displacement(self, F) -> np.ndarray:
        """U F - F = Q B (Q^H gl2 F), accurate to relative rounding when B is small.

        Forming U F and subtracting F instead leaves an absolute error of
        about eps ||F||, which swamps a displacement of that size.
        """
        return self.Q @ (self.B @ (self.Q.conj().T @ self.g.l2(F)))


def _act(U: GroupElement, F, build):
    """build(F + (U F - F)), the frame F moved by U and validated by ``build``.

    U's defect, up to CONSTRUCT_TOL, can move F beyond FRAME_TOL: a numerical MembershipDefect, not a bad input.
    """
    try:
        return build(F + U.displacement(F))
    except ValueError as exc:
        raise MembershipDefect(f"{exc}, as moved by an element of defect {U.defect:.3e}") from exc


def _product(U: GroupElement, V: GroupElement) -> GroupElement:
    """U V on the joint span Q of both elements; its block comes from D = V Q - Q and U (Q + D) - (Q + D)."""
    g = U.g
    Q = np.hstack([U.Q, complete_basis(U.Q, V.Q, g)])
    D = V.displacement(Q)
    return GroupElement(Q, Q.conj().T @ g.l2(D + U.displacement(Q + D)), g)


@dataclass(frozen=True, eq=False)
class SkewOperator:
    """Validated member of the corresponding Lie algebra, Q S (gl2 Q)^H with S skew-Hermitian."""

    Q: np.ndarray
    S: np.ndarray
    g: GramPair
    defect: float = field(init=False, repr=False)  # set by _span_form

    def __post_init__(self):
        _span_form(self, "S", lambda S: S + S.conj().T, "skewness")

    @cached_property
    def data(self) -> np.ndarray:
        return _frozen(_operator(self, self.S))

    @cached_property
    def factors(self) -> LowRank:
        """X = (Q S)(gl2 Q)^H as thin factors."""
        return LowRank(self.Q @ self.S, self.g.l2(self.Q))

    def apply(self, F) -> np.ndarray:
        """X F = Q S (Q^H gl2 F)."""
        return self.Q @ (self.S @ (self.Q.conj().T @ self.g.l2(F)))


def _lie_split(X: SkewOperator, H, c: float) -> tuple[SkewOperator, SkewOperator]:
    """X = (X - D) + D on the joint span Q' = [Q, complete_basis(Q, H)] of X and the range frame H of P.

    With E = Q'^H gl2 H, P acts on Q' as p = E E^H, and for X's block S'
    padded to Q' the part D has block p S' + S' p - c p S' p: the off-diagonal
    part delta_P^2(X) = X P + P X - 2 P X P at c = 2, and P X + X P - P X P at c = 1.
    """
    g, k = X.g, X.Q.shape[1]
    Q = np.hstack([X.Q, complete_basis(X.Q, H, g)])
    S = np.zeros((Q.shape[1],) * 2, dtype=np.complex128)
    S[:k, :k] = X.S
    E = Q.conj().T @ g.l2(H)
    p = E @ E.conj().T
    pS = p @ S
    D = pS + S @ p - c * (pS @ p)
    return SkewOperator(Q, S - D, g), SkewOperator(Q, D, g)


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


class _Span:
    """A weakly orthonormal n-by-k span Q, on which Q M (gl2 Q)^H has the strong norm of a k-by-k core.

    The core sits between the strong triangles TL and TR of Q and gl2 Q
    (``space.h1_triangle``), formed on first read.
    """

    def __init__(self, Q, g: GramPair):
        self.Q, self.g = Q, g

    TL = cached_property(lambda self: h1_triangle(self.Q, self.g))
    TR = cached_property(lambda self: h1_triangle(self.g.l2(self.Q), self.g, right=True))

    def conjugation_distance(self, c0, d) -> float:
        """Strong norm of U P U^-1 - P, for P's range frame H = Q c0 and U H - H = D = Q d.

        As U^-H gl2 = gl2 U, U P U^-1 - P = D (gl2 H)^H + (H + D)(gl2 D)^H = Q [d, c0 + d][c0, d]^H (gl2 Q)^H.
        """
        return float(span_singular_values(self.TL, self.TR, np.hstack([d, c0 + d]) @ np.hstack([c0, d]).conj().T)[0])


class _TwoFrames(_Span):
    """Two orthonormal N-frames F0 and F1 = Q b on their joint span Q = [F0, C], with b = E + beta.

    beta = Q^H gl2 (F1 - F0) is as accurate as F1 - F0.  The basis is completed
    on D = F1 - F0 scaled to unit norm, so the drop rule of ``complete_basis``
    is relative to the displacement and keeps its small directions.  The weak
    projections onto the spans are P = Q E E^H (gl2 Q)^H and P1 = Q b b^H (gl2 Q)^H.
    """

    def __init__(self, F0, F1, g: GramPair):
        D = F1 - F0
        scale = np.linalg.norm(D)
        super().__init__(np.hstack([F0, complete_basis(F0, D / scale if scale > 0 else D, g)]), g)
        self.beta = self.Q.conj().T @ g.l2(D)
        self.E = np.eye(*self.beta.shape, dtype=np.complex128)
        self.b = self.E + self.beta

    @cached_property
    def projection_distance(self) -> float:
        """||P1 - P|| in the strong norm; ``section_factors`` does not need it."""
        return self.conjugation_distance(self.E, self.beta)

    def bounds(self) -> tuple:
        """The contraction bounds, strong norms of P (I - P1) P, P1 (I - P) P1, (I - P) P1 (I - P), (I - P1) P (I - P1).

        All four below one is the domain of the direct rotation's inverse roots
        and every section's one gate; else NeighborhoodViolation is raised.  As P
        is idempotent, P (I - P1) P = P - P P1 P and (I - P) P1 (I - P) = (I - P) -
        (I - P)(I - P1)(I - P).  For P = L L^H, P1 = L1 L1^H and A = L^H L1, the
        first is L (I - A A^H) L^H and the third G G^H with G = L1 - L A.
        """
        inner, outer = [], []
        for L, L1 in ((self.E, self.b), (self.b, self.E)):
            A = L.conj().T @ L1
            inner.append((L @ (np.eye(A.shape[0]) - A @ (L1.conj().T @ L))) @ L.conj().T)
            G = L1 - L @ A
            outer.append(G @ G.conj().T)
        bounds = tuple(float(span_singular_values(self.TL, self.TR, M)[0]) for M in inner + outer)
        if not max(bounds) < 1.0:
            raise NeighborhoodViolation(
                f"contraction bounds {tuple(round(b, 6) for b in bounds)} must stay below 1"
            )
        return bounds

    def direct_rotation(self) -> tuple:
        """The contraction bounds, Z Y^H, tau and the block T - I = [b Z Y^H - E, -tau] (``section_factors``).

        T carries range(P) onto range(P1) and range(I - P) onto range(I - P1),
        so T P T^-1 = P1, and T = I at P1 = P.  ``bounds`` gates it, and so does
        RankDeficiency when an eigenvalue s^2 of P P1 P on range(P), for the SVD
        Y diag(s) Z^H of the overlap I + beta[:N] = F0^H gl2 F1, is below ``RANGE_CUTOFF``.
        """
        bounds = self.bounds()
        N = self.E.shape[1]
        Y, s, Zh = np.linalg.svd(np.eye(N) + self.beta[:N])
        if s[-1] ** 2 < RANGE_CUTOFF:
            raise RankDeficiency(
                f"restricted operator eigenvalue {s[-1] ** 2:.3e} below cutoff {RANGE_CUTOFF:.1e}"
            )
        Z = Zh.conj().T
        rot = Z @ Y.conj().T
        KZ = self.beta[N:] @ Z
        tau = (self.b @ Z / s) @ KZ.conj().T
        tau[N:] -= (KZ / (s + s * s)) @ KZ.conj().T
        return bounds, rot, tau, np.hstack([self.b @ rot - self.E, -tau])


def frame_unitary(F0, F1, g: GramPair) -> GroupElement:
    """Group element on the joint span Q of two orthonormal N-frames, mapping F0 to F1.

    F1 = Q b with b = E + beta (``_TwoFrames``).  The last k - N columns of
    the QR factor of [b, e_(N+1..k)], each with a canonical phase, complete b
    to a unitary u, so nearby frames give an element near the identity; the
    block is u - I, with first N columns beta.
    """
    F0 = np.asarray(F0, dtype=np.complex128)
    F1 = np.asarray(F1, dtype=np.complex128)
    if F0.shape != F1.shape or F0.ndim != 2 or F0.shape[0] != g.n:
        raise ValueError(f"frames must share shape ({g.n}, N), got {F0.shape} and {F1.shape}")
    for name, F in (("first", F0), ("second", F1)):
        require_orthonormal(F, g, f"{name} frame is not orthonormal")
    span = _TwoFrames(F0, F1, g)
    N, k = F0.shape[1], span.Q.shape[1]
    eye_k = np.eye(k, dtype=np.complex128)
    rest = np.linalg.qr(np.hstack([span.b, eye_k[:, N:]]))[0][:, N:]
    B = np.hstack([span.beta] + [canonical_phase(c)[:, None] for c in rest.T])
    B[N:, N:] -= eye_k[N:, N:]
    return GroupElement(span.Q, B, g)

