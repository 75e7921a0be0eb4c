"""Eigenvalues of one real symmetric matrix, from LAPACK through ``numpy.linalg.eigvalsh``."""

from __future__ import annotations

import numpy as np


def symmetric_eigenvalues(matrix) -> np.ndarray:
    """Eigenvalues of a real symmetric matrix, ascending.

    Only the lower triangle is read.  Raises :class:`ValueError` unless the
    input is one square 2-d matrix (``eigvalsh`` alone would batch over a
    stack).
    """
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square 2-d matrix")
    return np.linalg.eigvalsh(a)
