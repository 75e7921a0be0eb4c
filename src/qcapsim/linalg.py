"""Small dense linear algebra for the physics modules.

Two routines:

* :func:`symmetric_eigenvalues` - ascending eigenvalues of one real
  symmetric matrix, from LAPACK through ``numpy.linalg.eigvalsh``.
* :func:`solve_complex` - partial-pivoted Gaussian elimination for a stack
  of complex systems, with an enforced relative-residual contract per
  system and column.  The elimination, and the residual A x - b summed one
  column of A at a time, work on the whole stack at once: one sweep, one call.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularSystem

# largest accepted relative residual ||A x - b|| / ||b|| of a solved column
SOLVE_RESIDUAL_TOL = 1e-10


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


# --- complex Gaussian elimination with partial pivoting --------------------

def _eliminate(a, b) -> None:
    """Solve each system a[i] X = b[i] in place (b[i] gets X).

    ``a`` is (k, n, n) and ``b`` is (k, n, m), both complex128 and
    C-contiguous.  Raises :class:`SingularSystem` at the first zero pivot
    anywhere in the stack.
    """
    n = a.shape[1]
    rows = np.arange(a.shape[0])
    for k in range(n):
        piv = k + np.argmax(np.abs(a[:, k:, k]), axis=1)
        if np.any(np.abs(a[rows, piv, k]) == 0.0):
            raise SingularSystem("zero pivot in complex elimination")
        if np.any(piv != k):
            for arr in (a, b):
                row_k = arr[:, k].copy()
                arr[:, k] = arr[rows, piv]
                arr[rows, piv] = row_k
        lam = a[:, k + 1:, k] / a[:, k, k, None]
        a[:, k + 1:, k + 1:] -= lam[:, :, None] * a[:, k, None, k + 1:]
        b[:, k + 1:] -= lam[:, :, None] * b[:, k, None, :]
    for k in range(n - 1, -1, -1):
        for j in range(k + 1, n):  # elementwise, not matmul: BLAS kernels round differently
            b[:, k] -= a[:, k, j, None] * b[:, j]
        b[:, k] /= a[:, k, k, None]


def solve_complex(matrix, rhs) -> np.ndarray:
    """Solve ``matrix @ x = rhs`` by partial-pivoted elimination.

    ``matrix`` is one square matrix (n, n) or a stack (..., n, n); ``rhs``
    is (..., n) or (..., n, m) with the same leading axes, and the result
    has the shape of ``rhs``.  Raises :class:`SingularSystem` on a zero
    pivot or when any system's column has a relative residual
    ||A x - b|| / ||b|| above ``SOLVE_RESIDUAL_TOL`` or not finite.
    """
    a0 = np.asarray(matrix, dtype=np.complex128)
    b0 = np.asarray(rhs, dtype=np.complex128)
    if a0.ndim < 2 or a0.shape[-1] != a0.shape[-2]:
        raise ValueError("expected a square matrix or a stack of them")
    vector_rhs = b0.ndim == a0.ndim - 1
    b1 = b0[..., None] if vector_rhs else b0
    if b1.ndim != a0.ndim or b1.shape[:-1] != a0.shape[:-1]:
        raise ValueError("rhs shape does not match matrix")
    n, m = b1.shape[-2:]
    a2 = a0.reshape(-1, n, n)
    b2 = b1.reshape(-1, n, m)
    a = np.array(a2, order="C", copy=True)
    x = np.array(b2, order="C", copy=True)
    _eliminate(a, x)
    resid = np.linalg.norm(sum(a2[:, :, j, None] * x[:, j, None, :] for j in range(n)) - b2, axis=1)
    scale = np.linalg.norm(b2[:1] if b2.strides[0] == 0 else b2, axis=1)  # a broadcast rhs once
    rel = resid / np.where(scale > 0.0, scale, 1.0)
    if not np.all(rel <= SOLVE_RESIDUAL_TOL):
        raise SingularSystem(
            f"solve residual {float(np.max(rel)):.3e} exceeds {SOLVE_RESIDUAL_TOL:.1e}"
        )
    x = x.reshape(b1.shape)
    return x[..., 0] if vector_rhs else x
