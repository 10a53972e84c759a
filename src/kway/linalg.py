"""Hermitian eigensolves.

A thin, validated wrapper around LAPACK (numpy.linalg.eigh).  Inputs are
square ndarrays, real or complex; Hermiticity is checked up to HERM_TOL.
"""
from __future__ import annotations

import numpy as np

HERM_TOL = 1e-12


class NotHermitianError(ValueError):
    pass


def check_hermitian(h: np.ndarray) -> np.ndarray:
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise NotHermitianError(f"expected a square matrix, got shape {h.shape}")
    dev = np.max(np.abs(h - h.conj().T)) if h.size else 0.0
    if not dev <= HERM_TOL:  # NaN fails
        raise NotHermitianError(f"matrix deviates from Hermitian by {dev:g}")
    return h


def eigh(h: np.ndarray):
    """(eigenvalues ascending, orthonormal eigenvectors as columns)."""
    return np.linalg.eigh(check_hermitian(h))
