"""Reference implementations kept deliberately separate from the main routes.

Each oracle recomputes a quantity the library produces elsewhere, using a
different factorization or a definition-level computation, so that agreement
in tests is evidence rather than tautology.  Nothing here is tuned for speed.
"""

from __future__ import annotations

import numpy as np

from .basis import orthonormal_columns
from .errors import RankDeficiency
from .space import GramPair, as_operator

__all__ = ["sqrt_eig", "adjoint_by_definition", "pinv_on_range", "exp_pade", "log_pade"]

SQRT_CLAMP = 1e-14
RANGE_CUTOFF = 1e-12


def sqrt_eig(A, g: GramPair) -> np.ndarray:
    """Square root of a weakly self-adjoint PSD operator via eigendecomposition.

    Eigenvalues below the clamp are treated as exact zeros, so operators with
    a kernel get an exact-kernel square root.  ``np.linalg.eigh`` is LAPACK's
    divide-and-conquer driver (``zheevd``), which keeps the eigenvectors
    orthogonal on tight clusters, where the MRRR driver (``zheevr``) loses
    orthogonality and the root its accuracy.
    """
    A = as_operator(A, g.n, "A")
    M = g.to_l2_frame(A)
    herm = np.linalg.norm(M - M.conj().T)
    if herm > 1e-8 * max(1.0, np.linalg.norm(M)):
        raise ValueError("operator is not self-adjoint for the weak product")
    M = 0.5 * (M + M.conj().T)
    lam, W = np.linalg.eigh(M)
    if lam[0] < -1e-10 * max(1.0, abs(lam[-1])):
        raise ValueError(f"operator has negative eigenvalue {lam[0]:.3e}")
    lam = np.where(lam < SQRT_CLAMP, 0.0, lam)
    R = (W * np.sqrt(lam)) @ W.conj().T
    return g.from_l2_frame(R)


def adjoint_by_definition(A, g: GramPair) -> np.ndarray:
    """Weak adjoint recovered from its defining pairings.

    <A e_i, e_j> = <e_i, B e_j> for all i, j says gl2 B = A^H gl2.  All
    columns are solved at once by ``np.linalg.lstsq``, whose SVD-based driver
    shares no factorization with the LU solve behind ``adjoint_l2``.
    """
    A = as_operator(A, g.n, "A")
    return np.linalg.lstsq(g.gl2, A.conj().T @ g.gl2, rcond=None)[0]


def pinv_on_range(P, A, g: GramPair) -> np.ndarray:
    """Inverse of A restricted to range(P), zero on the weak complement.

    P must be a weak orthogonal projection and A must map range(P) into
    itself.  The restriction is expressed in an explicit orthonormal basis of
    range(P) obtained by pivoted Gram-Schmidt, then inverted densely.
    """
    P = as_operator(P, g.n, "P")
    A = as_operator(A, g.n, "A")
    H = orthonormal_columns(P, g)
    k = H.shape[1]
    if k == 0:
        return np.zeros_like(A)
    AH = A @ H
    small = H.conj().T @ (g.gl2 @ AH)
    leak = np.linalg.norm(AH - H @ small)
    if leak > 1e-10 * max(1.0, np.linalg.norm(AH)):
        raise ValueError("A does not keep range(P) invariant")
    sv = np.linalg.svd(small, compute_uv=False)
    if sv[-1] < RANGE_CUTOFF:
        raise RankDeficiency(
            f"restricted operator has singular value {sv[-1]:.3e} below cutoff"
        )
    inv_small = np.linalg.solve(small, np.eye(k, dtype=np.complex128))
    return H @ inv_small @ H.conj().T @ g.gl2


def exp_pade(X, g: GramPair) -> np.ndarray:
    """Matrix exponential by Pade scaling and squaring (``scipy.linalg.expm``).

    Treats X as a general matrix: no weak frame and no skew structure.
    """
    from scipy.linalg import expm

    return expm(as_operator(X, g.n, "X"))


def log_pade(U, g: GramPair) -> np.ndarray:
    """Principal logarithm by inverse scaling and squaring (``scipy.linalg.logm``).

    Treats U as a general matrix: no weak frame and no unitary structure.
    """
    from scipy.linalg import logm

    return np.asarray(logm(as_operator(U, g.n, "U")), dtype=np.complex128)
