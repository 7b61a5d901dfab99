"""Dense LU solve for small matrices with a pivot threshold relative to
the matrix norm.

Backed by LAPACK through scipy; this module adds the contract check
(a singular pivot raises :class:`SingularMatrixError`) that
:func:`~blockmg.structured.coarse_projection_norm` relies on.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.linalg

from .errors import DimensionError, SingularMatrixError


def as_matrix(M) -> np.ndarray:
    """Coerce to a 2-D complex ndarray without copying when possible."""
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got ndim={A.ndim}")
    return A


def _pivot_check(A, lu):
    """Raise SingularMatrixError when a pivot falls under 1e-14 times the
    infinity norm of A."""
    piv_mags = np.abs(np.diag(lu))
    thresh = 1e-14 * np.abs(A).sum(axis=1).max(initial=0.0)
    bad = np.flatnonzero(piv_mags <= thresh)
    if bad.size:
        i = int(bad[0])
        raise SingularMatrixError(
            f"singular pivot {piv_mags[i]:.3e} at index {i} (threshold {thresh:.3e})",
            pivot_index=i,
        )


def solve(M, B):
    """Solve M X = B for square nonsingular M.

    Raises SingularMatrixError (carrying the pivot index) when a pivot
    magnitude does not exceed 1e-14 * ||M||_inf.
    """
    A = as_matrix(M)
    if A.shape[0] != A.shape[1]:
        raise DimensionError(f"solve needs a square matrix, got {A.shape}")
    Bm = np.asarray(B, dtype=complex)
    if Bm.ndim == 0 or Bm.shape[0] != A.shape[0]:
        raise DimensionError(
            f"right-hand side shape {Bm.shape} does not match matrix shape {A.shape}")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(A, check_finite=False)
    _pivot_check(A, lu)
    return scipy.linalg.lu_solve((lu, piv), Bm, check_finite=False)

