"""Finite-dimensional model of a Hilbert space carrying two inner products.

A weak product (``l2``) and a strong product (``h1``) are Hermitian
positive-definite forms on C^n, the strong dominating the weak, reached only
through the operators of a :class:`GramPair`.  :func:`build_space`
discretizes scalar fields on a periodic uniform grid: the weak form is the
quadrature weight h^d times the identity and the strong form adds
forward-difference derivative energy, applied by FFT (:class:`GridPair`).

Vectors are plain length-n complex ndarrays.  The operators the library builds
have small rank k, or are I plus one, and are given as a :class:`LowRank` pair
of n-by-k factors, whose strong norms cost two thin QRs instead of an n-by-n
SVD; n-by-n ndarrays enter only at the API boundary and in the oracles.
Operators L M R^H on fixed factors share that n-sized work: each factor is
reduced once to a k-by-k triangle (:func:`h1_triangle`), and the norm of any
core M comes from the triangles alone (:func:`span_singular_values`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partialmethod

import numpy as np

__all__ = [
    "SpaceSpec",
    "GramPair",
    "GridPair",
    "LowRank",
    "build_space",
    "gram_pair_from_matrices",
    "inner_l2",
    "inner_h1",
    "norm_l2",
    "norm_h1",
    "adjoint_l2",
    "h1_singular_values",
    "h1_operator_norm",
    "h1_triangle",
    "span_singular_values",
]

# Hermitian / positive semidefiniteness slack used when validating Gram data.
HERMITIAN_TOL = 1e-12
PSD_FLOOR = -1e-12


def as_operator(A, n=None, name="operator"):
    """Coerce to an n-by-n complex128 array, validating the shape."""
    A = np.asarray(A, dtype=np.complex128)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be square, got shape {A.shape}")
    if n is not None and A.shape[0] != n:
        raise ValueError(f"{name} must be {n}x{n}, got shape {A.shape}")
    return A


def as_vector(x, n, name="vector"):
    x = np.asarray(x, dtype=np.complex128)
    if x.shape != (n,):
        raise ValueError(f"{name} must have shape ({n},), got {x.shape}")
    return x


def _real(value, name: str) -> float:
    """value as a float; ValueError naming ``name`` unless it is a real number (not a boolean) a float can hold."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        raise ValueError(f"{name} must be a number a float can hold") from None


def _require_integers(spec, *names) -> None:
    """Raise ValueError unless each named field of ``spec`` is an integer (not a float or a boolean)."""
    for name in names:
        value = getattr(spec, name)
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class SpaceSpec:
    """Periodic uniform grid description.

    domain_dim  -- spatial dimension, 1, 2 or 3
    grid_points -- points per axis, at least 2
    spacing     -- positive grid spacing h
    """

    domain_dim: int = 1
    grid_points: int = 16
    spacing: float = 0.25

    def __post_init__(self):
        _require_integers(self, "domain_dim", "grid_points")
        object.__setattr__(self, "spacing", _real(self.spacing, "spacing"))
        if self.domain_dim not in (1, 2, 3):
            raise ValueError(f"domain_dim must be 1, 2 or 3, got {self.domain_dim}")
        if self.grid_points < 2:
            raise ValueError(f"grid_points must be >= 2, got {self.grid_points}")
        if not (self.spacing > 0):
            raise ValueError(f"spacing must be positive, got {self.spacing}")

    @property
    def n(self) -> int:
        return self.grid_points**self.domain_dim


@dataclass(frozen=True, eq=False)
class GramPair:
    """Pair of Gram matrices (weak, strong), used through its operators.

    Invariants: both matrices are Hermitian positive definite and
    ``gh1 - gl2`` is positive semidefinite.  The weak-form routines are dense
    products, even when gl2 is w I; a :class:`GridPair` makes them scalings.
    ``h1_half`` and ``h1_ihalf`` give strong coordinates W gh1^{+-1/2} F for a
    unitary W, here I.
    """

    n: int
    gl2: np.ndarray = field(repr=False)
    gh1: np.ndarray = field(repr=False)

    def __post_init__(self):
        gl2 = as_operator(self.gl2, self.n, "gl2")
        gh1 = as_operator(self.gh1, self.n, "gh1")
        for name, G in (("gl2", gl2), ("gh1", gh1)):
            scale = max(1.0, float(np.linalg.norm(G)))
            if np.linalg.norm(G - G.conj().T) > HERMITIAN_TOL * scale:
                raise ValueError(f"{name} is not Hermitian")
            try:
                np.linalg.cholesky(G)
            except np.linalg.LinAlgError:
                raise ValueError(f"{name} is not positive definite") from None
        gap = np.linalg.eigvalsh(gh1 - gl2)
        scale = max(1.0, float(np.linalg.eigvalsh(gh1)[-1]))  # the 2-norm of the definite gh1
        if gap[0] < PSD_FLOOR * scale:
            raise ValueError(
                f"gh1 - gl2 has eigenvalue {gap[0]:.3e}; the strong form must dominate"
            )
        for arr in (gl2, gh1):
            arr.setflags(write=False)
        object.__setattr__(self, "gl2", gl2)
        object.__setattr__(self, "gh1", gh1)

    # Factorizations are computed once per pair and reused by every operation.

    @cached_property
    def _sqrt_pair_l2(self):
        return _hermitian_sqrt_pair(self.gl2)

    @cached_property
    def _sqrt_pair_h1(self):
        return _hermitian_sqrt_pair(self.gh1)

    @property
    def sqrt_l2(self):
        return self._sqrt_pair_l2[0]

    @property
    def isqrt_l2(self):
        return self._sqrt_pair_l2[1]

    @property
    def sqrt_h1(self):
        return self._sqrt_pair_h1[0]

    @property
    def isqrt_h1(self):
        return self._sqrt_pair_h1[1]

    def l2(self, F):
        """gl2 F."""
        return self.gl2 @ F

    def solve_l2(self, B):
        """gl2^{-1} B, by one dense LU solve."""
        return np.linalg.solve(self.gl2, B)

    def h1(self, F):
        return self.gh1 @ F

    def solve_h1(self, B):
        return np.linalg.solve(self.gh1, B)

    def h1_half(self, F):
        return self.sqrt_h1 @ F

    def h1_ihalf(self, F):
        return self.isqrt_h1 @ F

    def to_l2_frame(self, A):
        """Congruence gl2^{1/2} A gl2^{-1/2}; Hermitian iff A is weakly self-adjoint."""
        return self.sqrt_l2 @ A @ self.isqrt_l2

    def from_l2_frame(self, A):
        return self.isqrt_l2 @ A @ self.sqrt_l2

    @cached_property
    def pencil_factor(self) -> float:
        """Largest ratio of strong to weak operator norms, sqrt(mu_max/mu_min).

        mu are the eigenvalues of the (strong, weak) Gram pencil, those of
        gl2^{-1/2} gh1 gl2^{-1/2}; for any operator A,
        ||A||_h1 <= pencil_factor * ||A||_l2 and conversely.
        """
        mu = np.linalg.eigvalsh(self.isqrt_l2 @ self.gh1 @ self.isqrt_l2)
        return float(np.sqrt(mu[-1] / mu[0]))


class GridPair(GramPair):
    """The pair of a periodic grid, applied through the Fourier symbol of its stencil.

    gl2 = w I with w = h^d, and gh1 = w (I + sum_a D_a^H D_a) is diagonal in the
    grid's unitary DFT W, with symbol mu = w (1 + sum_a 4 sin^2(theta_a / 2) / h^2),
    theta_a = 2 pi k_a / m.  So gh1^p F = W^H mu^p W F, the strong coordinates
    are mu^{+-1/2} W F and pencil_factor = sqrt(max mu / min mu).  The matrices
    and their roots are built only when read, without an eigendecomposition.
    """

    def __init__(self, spec: SpaceSpec):
        m, d, h = spec.grid_points, spec.domain_dim, spec.spacing
        w = h**d
        mu = w * (1.0 + sum(np.ix_(*(4.0 * np.sin(np.pi * np.arange(m) / m) ** 2 / h**2,) * d)))
        # The symbol of gh1 - gl2 is mu - w.
        if not (w > 0 and np.all(np.isfinite(mu)) and mu.min() >= w):
            raise ValueError(f"grid symbol {mu.min():.3e} must be finite and at least w = {w:.3e} > 0")
        self.__dict__.update(n=spec.n, spec=spec, l2_weight=float(w), mu=mu)
        self.__dict__["_scales"] = {p: (mu**p)[..., None] for p in (1, -1, 0.5, -0.5)}  # with a column axis

    def _apply(self, F, power, back=True):
        """W^H mu^power W F over the grid axes, or mu^power W F without ``back``."""
        F = np.asarray(F)
        X = F.reshape(self.mu.shape + (F.size // self.n,))
        for axis in range(self.spec.domain_dim):  # one axis at a time: fftn costs more per call
            X = np.fft.fft(X, axis=axis, norm="ortho")
        X = X * self._scales[power]
        for axis in range(self.spec.domain_dim) if back else ():
            X = np.fft.ifft(X, axis=axis, norm="ortho")
        return X.reshape(F.shape)

    h1 = partialmethod(_apply, power=1)
    solve_h1 = partialmethod(_apply, power=-1)
    h1_half = partialmethod(_apply, power=0.5, back=False)
    h1_ihalf = partialmethod(_apply, power=-0.5, back=False)
    # gl2 = w I with w = ``l2_weight``, so the weak form is a scaling: the dense products up to rounding.
    l2 = lambda self, F: self.l2_weight * F
    solve_l2 = lambda self, B: B / self.l2_weight
    to_l2_frame = from_l2_frame = lambda self, A: np.array(A)

    @cached_property
    def gl2(self):
        return self.l2_weight * np.eye(self.n, dtype=np.complex128)

    @cached_property
    def gh1(self):
        """Assembled from the stencil, so it is exactly Hermitian."""
        derivs = (forward_difference(self.spec, a) for a in range(self.spec.domain_dim))
        return self.gl2 + sum(D.conj().T @ self.gl2 @ D for D in derivs)

    @cached_property
    def _sqrt_pair_l2(self):
        eye, root = np.eye(self.n, dtype=np.complex128), np.sqrt(self.l2_weight)
        return root * eye, eye / root

    @cached_property
    def _sqrt_pair_h1(self):
        return tuple(self._apply(np.eye(self.n, dtype=np.complex128), p) for p in (0.5, -0.5))

    @cached_property
    def pencil_factor(self) -> float:
        return float(np.sqrt(self.mu.max() / self.mu.min()))


@dataclass(frozen=True, eq=False)
class LowRank:
    """Operator A = L R^H given by its n-by-k factors, for small k.

    Points, differences of points, tangent vectors and projections of the
    embedding manifolds all have rank at most 2N, so their strong singular
    values come from two thin factors instead of the n-by-n operator.
    """

    L: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        L = np.asarray(self.L, dtype=np.complex128)
        R = np.asarray(self.R, dtype=np.complex128)
        if L.ndim != 2 or L.shape != R.shape or L.shape[1] < 1:
            raise ValueError(
                f"factors must share an (n, k) shape with k >= 1, got {L.shape} and {R.shape}"
            )
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "R", R)

    def frobenius_norm(self) -> float:
        """||L R^H||_F = ||T1 T2^H||_F for the triangular factors of thin QRs of L and R."""
        return float(np.linalg.norm(np.linalg.qr(self.L, mode="r") @ np.linalg.qr(self.R, mode="r").conj().T))


def _hermitian_sqrt_pair(G):
    lam, W = np.linalg.eigh(G)
    root = np.sqrt(lam)
    sqrt = (W * root) @ W.conj().T
    isqrt = (W / root) @ W.conj().T
    return sqrt, isqrt


def forward_difference(spec: SpaceSpec, axis: int) -> np.ndarray:
    """Periodic forward difference along one axis, row-major grid ordering."""
    m, d, h = spec.grid_points, spec.domain_dim, spec.spacing
    if not 0 <= axis < d:
        raise ValueError(f"axis {axis} out of range for dimension {d}")
    # The periodic forward shift (S x)_j = x_(j+1 mod m), minus the identity.
    D1 = (np.roll(np.eye(m), 1, axis=1) - np.eye(m)) / h
    out = np.eye(1)
    for a in range(d):
        out = np.kron(out, D1 if a == axis else np.eye(m))
    return out.astype(np.complex128)


def build_space(spec: SpaceSpec) -> GridPair:
    """Gram pair for a periodic grid: quadrature weights plus difference energy."""
    return GridPair(spec)


def gram_pair_from_matrices(gl2, gh1) -> GramPair:
    """Gram pair from explicit matrices; the strong form must dominate the weak."""
    gl2 = np.asarray(gl2, dtype=np.complex128)
    return GramPair(n=gl2.shape[0], gl2=gl2, gh1=gh1)


def inner_l2(x, y, g: GramPair) -> complex:
    """Weak inner product <x, y>, linear in x and conjugate-linear in y."""
    x = as_vector(x, g.n, "x")
    y = as_vector(y, g.n, "y")
    return complex(y.conj() @ g.l2(x))


def inner_h1(x, y, g: GramPair) -> complex:
    """Strong inner product <x, y>, linear in x and conjugate-linear in y."""
    x = as_vector(x, g.n, "x")
    y = as_vector(y, g.n, "y")
    return complex(y.conj() @ g.h1(x))


def norm_l2(x, g: GramPair) -> float:
    return float(np.sqrt(max(inner_l2(x, x, g).real, 0.0)))


def norm_h1(x, g: GramPair) -> float:
    return float(np.sqrt(max(inner_h1(x, x, g).real, 0.0)))


def adjoint_l2(A, g: GramPair) -> np.ndarray:
    """Adjoint with respect to the weak product: gl2^{-1} A^H gl2 = gl2^{-1} (gl2 A)^H."""
    A = as_operator(A, g.n, "A")
    return g.solve_l2(g.l2(A).conj().T)


def h1_singular_values(A, g: GramPair) -> np.ndarray:
    """Singular values of A as a map of the strong space, descending.

    A dense operand gives the n singular values of gh1^{1/2} A gh1^{-1/2}, read
    from W gh1^{1/2} A gh1^{-1/2} W^H in the pair's strong coordinates, so a
    grid pair takes them by FFT and builds no root.  A :class:`LowRank` operand
    of width k is the core M = I case of :func:`span_singular_values` and gives
    min(n, k), the others being zero.
    """
    if isinstance(A, LowRank):
        if A.L.shape[0] != g.n:
            raise ValueError(f"factors must have {g.n} rows, got {A.L.shape[0]}")
        return span_singular_values(h1_triangle(A.L, g), h1_triangle(A.R, g, right=True))
    A = as_operator(A, g.n, "A")
    return np.linalg.svd(g.h1_half(g.h1_ihalf(A.conj().T).conj().T), compute_uv=False)


def h1_operator_norm(A, g: GramPair) -> float:
    """Operator norm of A as a map of the strong space: its top singular value."""
    return float(h1_singular_values(A, g)[0])


def h1_triangle(F, g: GramPair, right: bool = False) -> np.ndarray:
    """Triangular factor of the thin QR of gh1^{1/2} F, or of gh1^{-1/2} F for a ``right`` factor.

    From the pair's strong coordinates, so up to a diagonal unitary, which no singular value sees.
    """
    return np.linalg.qr((g.h1_ihalf if right else g.h1_half)(F), mode="r")


def span_singular_values(TL, TR, M=None) -> np.ndarray:
    """Strong singular values of L M R^H, descending, from the triangles of its factors.

    With thin QRs gh1^{1/2} L = Q_L TL and gh1^{-1/2} R = Q_R TR (:func:`h1_triangle`),
    the operator is Q_L (TL M TR^H) Q_R^H in the strong frame, so its singular
    values are those of the small core TL M TR^H.  The n-sized work is one
    triangle per factor, however many cores share it; M = None is the identity,
    and a stack of cores gives a stack of singular values.
    """
    core = TL if M is None else TL @ M
    return np.linalg.svd(core @ TR.conj().T, compute_uv=False)
