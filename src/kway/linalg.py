"""Hermitian eigendecomposition and trace norm.

Thin, validated wrappers around LAPACK (numpy.linalg.eigh).  All inputs are
square ndarrays, real or complex; Hermiticity is checked up to HERM_TOL.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERM_TOL = 1e-12


class NotHermitianError(ValueError):
    pass


def check_hermitian(h: np.ndarray, tol: float = HERM_TOL) -> np.ndarray:
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise NotHermitianError(f"expected a square matrix, got shape {h.shape}")
    dev = np.max(np.abs(h - h.conj().T)) if h.size else 0.0
    if dev > tol:
        raise NotHermitianError(f"matrix deviates from Hermitian by {dev:g}")
    return h


@dataclass(frozen=True)
class EigenDecomposition:
    eigenvalues: np.ndarray  # real, ascending
    eigenvectors: np.ndarray  # orthonormal columns


def eigh(h: np.ndarray) -> EigenDecomposition:
    h = check_hermitian(h)
    vals, vecs = np.linalg.eigh(h)
    return EigenDecomposition(vals, vecs)


def eigvalsh(h: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh(check_hermitian(h))


def trace_norm(h: np.ndarray) -> float:
    """Sum of the absolute eigenvalues."""
    return float(np.sum(np.abs(eigvalsh(h))))

