"""Isometric embeddings of a fixed reference subspace, presented as operators.

A reference frame spans an N-dimensional subspace S of the coefficient space.
Points of the manifold are operators V that restrict to weak isometries of S
and vanish on its weak orthocomplement; equivalently V = Phi Xi^H gl2 for an
orthonormal image frame Phi.  That frame is the orthonormal N-tuple of the
frame presentation, so one validated value serves both.  The module provides
the tuple and operator metrics, the transitive group action, local cross
sections gated by their contraction bounds and a series square root with a
rigorous truncation bound, both on ``group._TwoFrames``, and the algebra
split relative to the image projection.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .basis import complete_basis, orthonormality_defect, require_orthonormal
from .errors import ConvergenceFailure
from .group import GroupElement, SkewOperator, _TwoFrames, frame_unitary
from .space import GramPair, LowRank, as_operator, h1_operator_norm, h1_triangle, norm_h1, span_singular_values

__all__ = [
    "ReferenceFrame",
    "StiefelOperator",
    "point_difference",
    "tuple_metric",
    "MetricEquivalenceReport",
    "metric_equivalence_report",
    "act",
    "projection_lipschitz_report",
    "binomial_coefficients",
    "binomial_sqrt",
    "binomial_sqrt_truncated",
    "series_tail_bound",
    "sqrt_F",
    "radius_formula",
    "radius_r",
    "SectionFactors",
    "section_factors",
    "translated_section",
    "lie_split_stiefel",
]

FRAME_TOL = 1e-10
OPERATOR_TOL = 1e-8
METRIC_SLACK = 1e-10
SERIES_TOL = 1e-10
SERIES_KMAX = 200_000
SERIES_BLOCK = 8


@dataclass(frozen=True)
class ReferenceFrame:
    """Orthonormal basis of the reference subspace, with its strong-norm bound.

    The constant C = max_i ||xi_i||_h1 controls every Lipschitz estimate tied
    to this frame; it is reported per instance rather than normalized away.
    """

    Xi: np.ndarray
    g: GramPair

    def __post_init__(self):
        Xi = np.asarray(self.Xi, dtype=np.complex128)
        if Xi.ndim != 2 or Xi.shape[0] != self.g.n or Xi.shape[1] < 1:
            raise ValueError(f"reference frame must be n-by-N with N >= 1, got {Xi.shape}")
        require_orthonormal(Xi, self.g, FRAME_TOL, "reference frame is not orthonormal")
        Xi.setflags(write=False)
        object.__setattr__(self, "Xi", Xi)
        object.__setattr__(self, "C", max(norm_h1(Xi[:, i], self.g) for i in range(Xi.shape[1])))

    C: float = 0.0  # filled in __post_init__

    @property
    def n(self) -> int:
        return self.g.n

    @property
    def N(self) -> int:
        return self.Xi.shape[1]

    @cached_property
    def dual(self) -> np.ndarray:
        """gl2 Xi, the right factor of every point: V = Phi dual^H."""
        return self.g.l2(self.Xi)

    @cached_property
    def dual_triangle(self) -> np.ndarray:
        """The strong triangle of ``dual`` (``space.h1_triangle``), shared by every point."""
        return h1_triangle(self.dual, self.g, right=True)


@dataclass(frozen=True)
class StiefelOperator:
    """Isometric embedding of S, stored as its orthonormal image frame Phi.

    The operator V = Phi (gl2 Xi)^H sends each reference vector xi_i to phi_i
    and vanishes on the weak orthocomplement of S by construction; it is built
    only when asked for.  Dense input enters through :meth:`from_matrix`.
    """

    Phi: np.ndarray
    ref: ReferenceFrame

    def __post_init__(self):
        Phi = np.asarray(self.Phi, dtype=np.complex128)
        if Phi.shape != self.ref.Xi.shape:
            raise ValueError(f"image frame must have shape {self.ref.Xi.shape}, got {Phi.shape}")
        require_orthonormal(Phi, self.ref.g, OPERATOR_TOL, "image frame is not orthonormal")
        Phi.setflags(write=False)
        object.__setattr__(self, "Phi", Phi)

    @classmethod
    def from_matrix(cls, V, ref: ReferenceFrame) -> "StiefelOperator":
        """Validate a dense operator as an isometric embedding of S; keep its frame V Xi."""
        V = as_operator(V, ref.n, "V")
        Phi = V @ ref.Xi
        scale = max(1.0, float(np.linalg.norm(V)))
        iso_defect = orthonormality_defect(Phi, ref.g)
        kernel_defect = np.linalg.norm(Phi @ ref.dual.conj().T - V)
        if not (iso_defect <= OPERATOR_TOL * scale and kernel_defect <= OPERATOR_TOL * scale):
            raise ValueError(
                "operator is not an isometric embedding of the reference subspace "
                f"(isometry defect {iso_defect:.3e}, kernel defect {kernel_defect:.3e})"
            )
        return cls(Phi, ref)

    @cached_property
    def V(self) -> np.ndarray:
        """The operator Phi (gl2 Xi)^H."""
        V = self.Phi @ self.ref.dual.conj().T
        V.setflags(write=False)
        return V

    @property
    def g(self) -> GramPair:
        return self.ref.g

    @property
    def n(self) -> int:
        return self.ref.n

    @property
    def N(self) -> int:
        return self.ref.N

    @cached_property
    def projection(self) -> np.ndarray:
        """Weak orthogonal projection V V*2 = Phi (gl2 Phi)^H onto the image subspace."""
        return self.Phi @ self.g.l2(self.Phi).conj().T

    @property
    def factors(self) -> LowRank:
        """V = Phi (gl2 Xi)^H as thin factors."""
        return LowRank(self.Phi, self.ref.dual)

    @cached_property
    def h1_norm(self) -> float:
        """Strong operator norm of V, from the reference's cached triangle."""
        return float(span_singular_values(h1_triangle(self.Phi, self.g), self.ref.dual_triangle)[0])


def _require_same_reference(V: StiefelOperator, V1: StiefelOperator) -> None:
    if V1.ref is not V.ref and not np.allclose(V1.ref.Xi, V.ref.Xi, atol=1e-12):
        raise ValueError("points use different reference frames")


def point_difference(V1: StiefelOperator, V0: StiefelOperator) -> LowRank:
    """V1 - V0 = (Phi1 - Phi0)(gl2 Xi)^H for two points over one reference frame."""
    return LowRank(V1.Phi - V0.Phi, V0.ref.dual)


def tuple_metric(V: StiefelOperator, W: StiefelOperator) -> float:
    """Strong-norm tuple distance (sum_i ||phi_i - psi_i||_h1^2)^(1/2) of the image frames."""
    _require_same_reference(V, W)
    diff = V.Phi - W.Phi
    return float(math.sqrt(sum(norm_h1(diff[:, i], V.g) ** 2 for i in range(V.N))))


@dataclass(frozen=True)
class MetricEquivalenceReport:
    """Two-sided comparison of tuple distance and operator distance."""

    tuple_distance: float
    operator_distance: float
    lower_ok: bool
    upper_ok: bool

    @property
    def ok(self) -> bool:
        return self.lower_ok and self.upper_ok


def metric_equivalence_report(V: StiefelOperator, W: StiefelOperator) -> MetricEquivalenceReport:
    """Check d <= sqrt(N) C ||V - W|| and ||V - W|| <= sqrt(N) d for the tuple distance d."""
    d = tuple_metric(V, W)
    ref = V.ref
    opdist = h1_operator_norm(point_difference(V, W), ref.g)
    root_n = math.sqrt(ref.N)
    return MetricEquivalenceReport(
        tuple_distance=d,
        operator_distance=opdist,
        lower_ok=opdist <= root_n * d + METRIC_SLACK,
        upper_ok=d <= root_n * ref.C * opdist + METRIC_SLACK,
    )


def act(U: GroupElement, V: StiefelOperator) -> StiefelOperator:
    """Left action U . V, with image frame Phi + (U Phi - Phi); the result stays on the manifold."""
    return StiefelOperator(V.Phi + U.displacement(V.Phi), V.ref)


@dataclass(frozen=True)
class LipschitzReport:
    lhs: float
    bound: float

    @property
    def ok(self) -> bool:
        return self.lhs <= self.bound + 1e-10


def projection_lipschitz_report(V1: StiefelOperator, V2: StiefelOperator) -> LipschitzReport:
    """Verify ||P1 - P2|| <= N C (C ||V1|| + 1) ||V1 - V2|| in the strong norm."""
    lhs = _TwoFrames(V1.Phi, V2.Phi, V1.g).projection_distance
    C = V1.ref.C
    factor = V1.N * C * (C * V1.h1_norm + 1.0)
    return LipschitzReport(lhs=lhs, bound=factor * h1_operator_norm(point_difference(V1, V2), V1.g))


# ---------------------------------------------------------------------------
# Series square root


def _coefficient_stream():
    """c_1, c_2, ... of (1+z)^(1/2), by c_(k+1) = c_k (1/2 - k) / (k + 1)."""
    c = 0.5
    for k in itertools.count(1):
        yield c
        c = c * (0.5 - k) / (k + 1)


def binomial_coefficients(count: int) -> np.ndarray:
    """Signed series coefficients c_1..c_count of (1+z)^(1/2)."""
    if count < 1:
        raise ValueError("count must be positive")
    return np.fromiter(itertools.islice(_coefficient_stream(), count), float, count)


def _validated_series_argument(B, g: GramPair):
    """Check weak self-adjointness and spectrum in [-1, 0]; return eigenvalues."""
    B = as_operator(B, g.n, "B")
    M = g.to_l2_frame(B)
    if not np.linalg.norm(M - M.conj().T) <= 1e-8 * max(1.0, np.linalg.norm(M)):
        raise ValueError("series argument is not self-adjoint for the weak product")
    lam = np.linalg.eigvalsh(0.5 * (M + M.conj().T))
    if not (lam[0] >= -1.0 - 1e-10 and lam[-1] <= 1e-10):
        raise ValueError(
            f"series argument has spectrum [{lam[0]:.6e}, {lam[-1]:.6e}] outside [-1, 0]"
        )
    return B, lam


def _partial_sums(Bw, counts) -> list[np.ndarray]:
    """I + sum_(j<=s) c_j Bw^j for each s in the strictly increasing ``counts``.

    Descending Paterson-Stockmeyer (SIAM J. Comput. 1973) in blocks of
    m = SERIES_BLOCK terms over the stored powers Bw^1..Bw^m: Horner's rule
    acc <- Bw^m acc + sum_r c_(qm+r) Bw^r runs from a count's top block q down
    to 0.  A full block's sum is formed once and shared by every count that
    covers it; a count ending inside a block sums its own part.  So each sum
    depends on its own count alone and costs ceil(s/m) - 1 products after the
    m - 1 powers, and memory does not grow with the degree.
    """
    m = SERIES_BLOCK
    coeffs = binomial_coefficients(counts[-1])
    powers = np.empty((min(m, counts[-1]),) + Bw.shape, dtype=np.complex128)
    powers[0] = Bw
    for r in range(1, len(powers)):
        np.matmul(powers[r - 1], Bw, out=powers[r])
    sums = [None] * len(counts)
    for q in reversed(range((counts[-1] - 1) // m + 1)):
        lo, hi = q * m, q * m + m
        full = np.tensordot(coeffs[lo:hi], powers, axes=1) if counts[-1] >= hi else None
        for i, s in enumerate(counts):
            if s > lo:
                block = full if s >= hi else np.tensordot(coeffs[lo:s], powers[: s - lo], axes=1)
                # A sum starts from a copy, so adding I leaves the shared block alone.
                sums[i] = block.copy() if sums[i] is None else powers[-1] @ sums[i] + block
    for total in sums:
        total[np.diag_indices(Bw.shape[0])] += 1.0
    return sums


def _tail_bounds(rho: float, amp: float):
    """|c_(s+1)| rho^(s+1) / (1 - rho) max(1, amp) for s = 1, 2, ...

    |c_k| decreases, so this bounds sum_(k>s) |c_k| rho^k max(1, amp) with no difference of O(1) terms.
    """
    for s, c in enumerate(itertools.islice(_coefficient_stream(), 1, None), 1):
        yield abs(c) * rho ** (s + 1) / (1.0 - rho) * max(1.0, amp)


def _series_terms(rho: float, amp: float) -> int:
    """Fewest terms whose ``series_tail_bound`` is <= SERIES_TOL, at most SERIES_KMAX."""
    if rho >= 1.0:
        raise ConvergenceFailure("the series argument has weak spectral radius 1; its tail bound is infinite")
    for s, bound in enumerate(itertools.islice(_tail_bounds(rho, amp), SERIES_KMAX), 1):
        if bound <= SERIES_TOL:
            return s
    raise ConvergenceFailure(
        f"series truncation bound did not reach tol={SERIES_TOL:.1e} within {SERIES_KMAX} terms"
    )


def binomial_sqrt(B, g: GramPair) -> np.ndarray:
    """Square root of I + B by the binomial series, for -I <= B <= 0 weakly.

    The truncation error after s terms is a scalar function of the weakly
    self-adjoint argument, so its weak norm is at most the scalar tail
    sum_(k>s) |c_k| rho^k on the spectrum, with rho the weak spectral radius;
    switching to the strong norm costs the Gram pencil factor.  The series
    stops at the first s whose geometric majorant of that tail, the value
    ``series_tail_bound`` reports, is below ``SERIES_TOL``.  At rho = 1 the
    majorant is infinite and ConvergenceFailure is raised at once.
    """
    B, lam = _validated_series_argument(B, g)
    rho = min(1.0, float(np.max(np.abs(lam))))
    (total,) = _partial_sums(B, [_series_terms(rho, max(1.0, g.pencil_factor))])
    return total


def binomial_sqrt_truncated(B, g: GramPair, terms) -> list[np.ndarray]:
    """Plain partial sums of the series after each of the given term counts.

    ``terms`` is a strictly increasing sequence of positive counts; one pass
    of the series up to the last count yields every requested partial sum.
    """
    terms = tuple(terms)
    if not terms or terms[0] < 1 or any(b <= a for a, b in zip(terms, terms[1:])):
        raise ValueError(f"terms must be strictly increasing positive counts, got {terms}")
    B, _ = _validated_series_argument(B, g)
    return _partial_sums(B, terms)


def series_tail_bound(terms: int, rho: float, amp: float = 1.0) -> float:
    """Truncation error bound after ``terms`` series terms at spectral radius rho.

    The majorant that also sets the automatic term count, with the strong-norm
    amplification ``amp``.
    """
    if not (0.0 < rho < 1.0):
        raise ValueError("rho must lie in (0, 1)")
    if terms < 1:
        raise ValueError("terms must be positive")
    return next(itertools.islice(_tail_bounds(rho, amp), terms - 1, None))


def sqrt_F(V: StiefelOperator, W: StiefelOperator) -> np.ndarray:
    """((I-P)(I-Q)(I-P))^(1/2) for the image projections P of V and Q of W.

    On the joint span [Phi, C] of the image frames, with K = C^H gl2 Psi for
    W's frame Psi (``group._TwoFrames``), the argument is 0 on range(P),
    I - K K^H on span C and I beyond.  So the series runs on the block -K K^H,
    the result is I - Phi (gl2 Phi)^H + C (S - I)(gl2 C)^H, and its weak error
    is the block's, below ``SERIES_TOL`` by the term count of ``binomial_sqrt``.
    The radius ||K||_2^2 is the largest squared sine of the principal angles
    between the images; at 1 ConvergenceFailure is raised.
    """
    g = V.g
    N = V.N
    span = _TwoFrames(V.Phi, W.Phi, g)
    Q, K = span.Q, span.beta[N:]
    rho = min(1.0, float(np.linalg.norm(K, 2)) ** 2)
    (S,) = _partial_sums(-K @ K.conj().T, [_series_terms(rho, max(1.0, g.pencil_factor))])
    block = -np.eye(Q.shape[1], dtype=np.complex128)
    block[N:, N:] += S
    R = (Q @ block) @ g.l2(Q).conj().T
    R[np.diag_indices(g.n)] += 1.0
    return R


# ---------------------------------------------------------------------------
# Cross sections of the group action


def radius_formula(C: float, N: int, vnorm: float) -> float:
    """Safe section radius for given frame constant, width and operator norm."""
    denom = C * C * N * N * (1.0 + vnorm) * (1.0 + C * N + C * N * vnorm) ** 2
    return min(1.0, 1.0 / denom)


def radius_r(V: StiefelOperator) -> float:
    """Safe section radius at the point V."""
    return radius_formula(V.ref.C, V.N, V.h1_norm)


@dataclass(frozen=True)
class SectionFactors:
    """The cross section, the direct rotation and the correction, with the contraction bounds."""

    sigma: GroupElement
    t: GroupElement
    w: GroupElement
    bounds: tuple


def section_factors(V: StiefelOperator, V1: StiefelOperator) -> SectionFactors:
    """Cross-section data for a point V1 near V.

    The direct rotation T has T P = P1 (P P1 P)^(-1/2), carrying range(P)
    isometrically onto range(P1), and T (I - P) = (I - P1)((I - P)(I - P1)(I - P))^(-1/2)
    for the complements, each inverse root taken on the range of its
    projection; with W = I + Phi1 (Y Z^H - I)(gl2 Phi1)^H, sigma = W T maps V
    to V1.  On the joint span Q = [Phi, C], where Phi1 = Q b with b = E + beta
    (``group._TwoFrames``), M = I + beta[:N] = Y diag(s) Z^H and K = beta[N:]:

        T - I = [b Z Y^H - E, -tau],    sigma - I = [beta, -tau],
        tau = b Z diag(1/s) Z^H K^H - (0; K Z diag(1/(s + s^2)) Z^H K^H),

    as K^H K = I - M^H M and W fixes range(I - P1), which holds T C.  Both
    blocks come from the frame displacement, so sigma Phi - Phi1 is rounding
    relative to Phi1 - Phi.  They exist wherever all four contraction bounds
    are below one, else NeighborhoodViolation is raised; inside the paper's
    safe radius ``radius_r`` they always are.
    """
    g = V.g
    _require_same_reference(V, V1)
    span = _TwoFrames(V.Phi, V1.Phi, g)
    bounds, rot, tau, t = span.direct_rotation()
    return SectionFactors(
        sigma=GroupElement(span.Q, np.hstack([span.beta, -tau]), g),
        t=GroupElement(span.Q, t, g),
        w=GroupElement(V1.Phi, rot.conj().T - np.eye(V.N), g),
        bounds=bounds,
    )


def translated_section(
    V: StiefelOperator, V0: StiefelOperator, V1: StiefelOperator
) -> GroupElement:
    """Section around an arbitrary base point V0 = U V, by translating with U.

    The returned element U sigma, for the section sigma from V to U^-1 V1,
    maps V to V1 and lives on the joint span of both factors.
    """
    g = V.g
    U = frame_unitary(V.Phi, V0.Phi, g)
    sigma = section_factors(V, StiefelOperator(V1.Phi + U.inv_displacement(V1.Phi), V.ref)).sigma
    Q = np.hstack([U.Q, complete_basis(U.Q, sigma.Q, g)])
    D = sigma.displacement(Q)
    return GroupElement(Q, Q.conj().T @ g.l2(D + U.displacement(Q + D)), g)


# ---------------------------------------------------------------------------
# Algebra split


def lie_split_stiefel(X: SkewOperator, P: "ProjectionOperator") -> tuple[SkewOperator, SkewOperator]:
    """Split X into isotropy and complement parts relative to the projection P = H G^H.

    The isotropy part (I-P) X (I-P) kills range(P); the complement part
    P X + X P - P X P = H (G^H X) + (X H - H (G^H X H)) G^H has no
    (I-P)-corner.  Both stay in the algebra and they sum back to X.
    """
    H, G = P.factors.L, P.factors.R
    XH = X.data @ H
    xh = H @ (G.conj().T @ X.data) + (XH - H @ (G.conj().T @ XH)) @ G.conj().T
    return SkewOperator.from_matrix(X.data - xh, X.g), SkewOperator.from_matrix(xh, X.g)
