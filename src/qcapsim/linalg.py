"""Small dense linear algebra implemented in-repo.

Two routines back the physics modules:

* :func:`symmetric_eigenvalues` - eigenvalues of a real symmetric matrix by
  Householder tridiagonalization followed by implicit-shift QL iteration.
  Matrix sizes here stay <= a few hundred (Fock truncations), so a dense
  textbook solver is both adequate and fully auditable.
* :func:`solve_complex` - partial-pivoted Gaussian elimination for a stack
  of complex systems, with an enforced relative-residual contract per
  system and column.  The elimination loops over the matrix order and
  works on the whole stack at once, so a detuning sweep is one call.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SingularSystem

_EPS = float(np.finfo(np.float64).eps)


# --- Householder tridiagonalization ---------------------------------------

def tridiagonalize(a):
    """Reduce a full symmetric matrix to tridiagonal form in place.

    ``a`` (float64, both triangles filled) is destroyed.  Returns (d, e)
    with d the diagonal and e[i] the coupling between rows i-1 and i
    (e[0] = 0).
    """
    n = a.shape[0]
    d = np.zeros(n)
    e = np.zeros(n)
    for i in range(n - 1, 1, -1):
        row = a[i, :i]
        scale = np.sum(np.abs(row))
        if scale == 0.0:
            e[i] = a[i, i - 1]
            continue
        u = row / scale
        h = float(u @ u)
        f = u[i - 1]
        g = -math.sqrt(h) if f >= 0.0 else math.sqrt(h)
        e[i] = scale * g
        h -= f * g
        u = u.copy()
        u[i - 1] = f - g
        p = (a[:i, :i] @ u) / h
        q = p - (float(u @ p) / (2.0 * h)) * u
        a[:i, :i] -= np.outer(q, u) + np.outer(u, q)
    if n > 1:
        e[1] = a[1, 0]
    d[:] = np.diagonal(a)
    return d, e


# --- implicit-shift QL iteration -------------------------------------------

def ql_eigenvalues(d, e):
    """Implicit-shift QL on a tridiagonal (d, e); eigenvalues land in d.

    ``e`` holds the subdiagonal as e[i] = coupling (i, i+1), with
    e[n-1] = 0.  The scalar loop runs on Python-float copies (the same IEEE
    arithmetic, without per-element numpy indexing); on success the
    eigenvalues are written back into ``d``.  Returns 0 on success or the
    1-based index of the eigenvalue whose iteration count overflowed.
    """
    n = len(d)
    out, d, e = d, d.tolist(), e.tolist()
    for l in range(n):
        iters = 0
        while True:
            m = l
            while m < n - 1:
                dd = abs(d[m]) + abs(d[m + 1])
                if abs(e[m]) <= _EPS * dd:
                    break
                m += 1
            if m == l:
                break
            iters += 1
            if iters > 64:
                return l + 1
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            sg = r if g >= 0.0 else -r
            g = d[m] - d[l] + e[l] / (g + sg)
            s = 1.0
            c = 1.0
            pshift = 0.0
            underflow = False
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= pshift
                    e[m] = 0.0
                    underflow = True
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - pshift
                r = (d[i] - g) * s + 2.0 * c * b
                pshift = s * r
                d[i + 1] = g + pshift
                g = c * r - b
            if underflow:
                continue
            d[l] -= pshift
            e[l] = g
            e[m] = 0.0
    out[:] = d
    return 0



def symmetric_eigenvalues(matrix) -> np.ndarray:
    """Eigenvalues of a real symmetric matrix, ascending.

    The input is not modified; symmetry is assumed, only the lower/upper
    consistency the caller guarantees is used.
    """
    a = np.array(matrix, dtype=np.float64, order="C", copy=True)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square 2-d matrix")
    n = a.shape[0]
    if n == 0:
        return np.empty(0)
    if n == 1:
        return a[0, :1].copy()
    d, e = tridiagonalize(a)
    # shift the subdiagonal into e[i] = coupling (i, i+1)
    e[:-1] = e[1:]
    e[-1] = 0.0
    status = ql_eigenvalues(d, e)
    if status != 0:
        raise RuntimeError(f"QL iteration failed to converge at index {status - 1}")
    return np.sort(d)


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
        if k < n - 1:
            b[:, k] -= np.matmul(a[:, k, None, k + 1:], b[:, k + 1:])[:, 0]
        b[:, k] /= a[:, k, k, None]


def solve_complex(matrix, rhs, residual_tol: float | None = 1e-10) -> np.ndarray:
    """Solve ``matrix @ x = rhs`` by partial-pivoted elimination.

    ``matrix`` is one square matrix (n, n) or a stack (..., n, n); ``rhs``
    is (..., n) or (..., n, m) with the same leading axes, and the result
    has the shape of ``rhs``.  Raises :class:`SingularSystem` on a zero
    pivot or when any system's column has a relative residual
    ||A x - b|| / ||b|| above ``residual_tol`` or not finite (pass None to
    skip the residual check).
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
    if residual_tol is not None:
        resid = np.linalg.norm(a2 @ x - b2, axis=1)
        scale = np.linalg.norm(b2, axis=1)
        rel = resid / np.where(scale > 0.0, scale, 1.0)
        if not np.all(rel <= residual_tol):
            raise SingularSystem(
                f"solve residual {float(np.max(rel)):.3e} exceeds {residual_tol:.1e}"
            )
    x = x.reshape(b1.shape)
    return x[..., 0] if vector_rhs else x
