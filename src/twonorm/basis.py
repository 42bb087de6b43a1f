"""Weighted Gram-Schmidt utilities for the weak inner product.

All routines orthonormalize with respect to the gl2 form of a
:class:`~twonorm.space.GramPair`.  Completion is deterministic: candidates are
processed by largest residual norm (ties broken by lowest index), residuals
below ``DROP_TOL`` are discarded, and appended vectors get a canonical phase
so that reruns and nearby inputs produce nearby bases.
"""

from __future__ import annotations

import math

import numpy as np

from .space import GramPair

__all__ = [
    "orthonormal_columns",
    "complete_basis",
    "canonical_phase",
    "orthonormality_defect",
    "require_orthonormal",
    "require_weak_projection",
]

DROP_TOL = 1e-12


def _col_norms(W, g: GramPair):
    quad = np.einsum("ij,ij->j", W.conj(), g.l2(W)).real
    return np.sqrt(np.maximum(quad, 0.0))


def _project_out(B, W, g: GramPair):
    """One block classical Gram-Schmidt sweep of the columns of W against the orthonormal B: W - B (B^H gl2 W)."""
    return W - B @ (g.l2(B).conj().T @ W)


def canonical_phase(v: np.ndarray) -> np.ndarray:
    """Rotate v so its largest-modulus entry is real and positive."""
    j = int(np.argmax(np.abs(v)))
    z = v[j]
    if np.abs(z) == 0.0:
        return v
    return v * (z.conj() / np.abs(z))


def complete_basis(B, candidates, g: GramPair):
    """Extend the orthonormal block B by vectors drawn from ``candidates``.

    Returns only the appended block (possibly zero columns).  Pivoting on the
    residual weak norm makes the outcome independent of candidate order up to
    exact ties, which are broken by the lowest index.
    """
    B = np.asarray(B, dtype=np.complex128)
    W = np.asarray(candidates, dtype=np.complex128)
    if W.ndim != 2 or W.shape[0] != g.n:
        raise ValueError(f"candidates must be {g.n}-by-k, got shape {W.shape}")
    # Two sweeps against the existing basis keep the residuals orthogonal to
    # working precision even when candidates nearly lie in span(B).
    W = _project_out(B, _project_out(B, W, g), g)
    full = np.hstack([B, np.empty_like(W)])  # B, then the appended columns
    k = B.shape[1]
    while W.shape[1] > 0:
        norms = _col_norms(W, g)
        j = int(np.argmax(norms))
        if norms[j] < DROP_TOL:
            break
        # One reorthogonalization pass against everything accepted so far.
        v = _project_out(full[:, :k], W[:, j : j + 1] / norms[j], g)
        W = np.delete(W, j, axis=1)
        nv = _col_norms(v, g)[0]
        if nv < DROP_TOL:
            continue
        full[:, k] = canonical_phase(v[:, 0] / nv)
        W = _project_out(full[:, k : k + 1], W, g)
        k += 1
    return full[:, B.shape[1] : k].copy()


def orthonormal_columns(M, g: GramPair):
    """Orthonormal basis of the column span of M under the weak product."""
    return complete_basis(np.zeros((g.n, 0), dtype=np.complex128), M, g)


def orthonormality_defect(F, g: GramPair) -> float:
    """Frobenius norm of F^H gl2 F - I; zero iff the columns are weakly orthonormal."""
    F = np.asarray(F, dtype=np.complex128)
    return float(np.linalg.norm(F.conj().T @ g.l2(F) - np.eye(F.shape[1])))


def require_orthonormal(F, g: GramPair, tol: float, message: str) -> None:
    """Raise ValueError(message) unless the defect is within tol * max(1, sqrt(N))."""
    defect = orthonormality_defect(F, g)
    if not defect <= tol * max(1.0, math.sqrt(np.shape(F)[1])):
        raise ValueError(f"{message} (defect {defect:.3e})")


def require_weak_projection(P, g: GramPair, tol: float, name: str) -> float:
    """Raise ValueError unless P is idempotent and weakly self-adjoint.

    Both defects are measured in the Frobenius norm against tol times the
    returned scale max(1, ||P||).
    """
    scale = max(1.0, float(np.linalg.norm(P)))
    if not np.linalg.norm(P @ P - P) <= tol * scale:
        raise ValueError(f"{name} is not idempotent")
    M = g.to_l2_frame(P)
    if not np.linalg.norm(M - M.conj().T) <= tol * scale:
        raise ValueError(f"{name} is not self-adjoint for the weak product")
    return scale
