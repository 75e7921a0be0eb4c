"""Three-mode circulator built from pairwise hopping couplings.

Three modes are coupled in a loop by pump-selected hopping interactions
with strengths g and phases phi.  The loop phase

    gauge_flux = phi_1 + phi_3 - phi_2

acts as a synthetic magnetic flux: 0 or pi restores reciprocity, +/- pi/2
makes the two conversion paths interfere fully and the device circulates.
The coupling Hamiltonian is assembled so that this combination is exactly
the flux picked up around the cycle 1 -> 2 -> 3 -> 1 (the phase on the
3 <-> 1 coupling enters with the opposite sign to the other two), which is
what makes gauge invariance and the reciprocity conditions hold for every
phase assignment and not just for special ones.

Scattering follows the standard one-port-per-mode input-output closure
a_out = a_in - sqrt(kappa) a, giving S = I - K (-i delta I - M)^(-1) K.
Reported scalar amplitudes use path naming: S13 is the 1 -> 3 conversion
amplitude, i.e. entry (3,1) of the matrix S in the a_out = S a_in
convention, and S31 is entry (1,3).

A detuning sweep solves A = -i delta I - M at every point with one call of
:func:`cramer_solve`: Cramer's rule on the real and imaginary parts of A,
with the 1e-10 relative-residual contract checked on every point and column.
Its only arithmetic is real +, -, * and /, so its bits depend neither on the
BLAS kernel nor on numpy's SIMD level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import require_positive
from .errors import SingularSystem

# largest accepted relative residual ||A x - b|| / ||b|| of a solved column
SOLVE_RESIDUAL_TOL = 1e-10

SWEEP_CSV_HEADER = (
    "delta_rad_s",
    "ratio_13_31",
    "insertion_loss_dB",
    "reS13",
    "imS13",
    "reS31",
    "imS31",
)


@dataclass(frozen=True)
class CirculatorConfig:
    """Three modes plus the three loop couplings.

    Couplings are indexed opposite their mode pair: g[2] (=g_3) couples
    modes 1 and 2, g[0] (=g_1) couples 2 and 3, g[1] (=g_2) couples 3 and 1;
    same for the phases.  ``detuning`` is the Langevin diagonal: each mode's
    frequency in the frame that the swept probe detuning delta is measured
    in.  In a frame rotating at the probe's reference frequency these are
    the mode detunings (default zero: every mode on resonance); in the lab
    frame they are the absolute mode frequencies and delta is the absolute
    probe frequency.  The frame is the caller's choice: the CLI resolves a
    config file's ``frame`` into this field.
    """

    kappa: tuple[float, float, float]   # rad/s
    g: tuple[float, float, float]       # rad/s
    phi: tuple[float, float, float]     # rad
    detuning: tuple[float, float, float] = (0.0, 0.0, 0.0)  # rad/s

    def __post_init__(self):
        for name in ("kappa", "g", "phi", "detuning"):
            if len(getattr(self, name)) != 3:
                raise ValueError(f"{name} must have exactly 3 entries")
        for k in self.kappa:
            require_positive(k, "decay rate (rad/s)")
        if not all(gi >= 0.0 and math.isfinite(gi) for gi in self.g):  # also rejects NaN
            raise ValueError(f"coupling strengths must be finite and >= 0, got {self.g}")
        if not all(math.isfinite(v) for v in (*self.phi, *self.detuning)):
            raise ValueError(f"phases and detunings must be finite, got {self.phi}, {self.detuning}")


def coupling_matrix(config: CirculatorConfig) -> np.ndarray:
    """Hermitian coupling matrix h (rad/s), zero diagonal.

    h[i][j] is the coefficient of a_i^dag a_j.  The phase of the 3 <-> 1
    coupling enters with the opposite sign to the other two so that the
    cycle 1 -> 2 -> 3 -> 1 accumulates exactly the loop phase
    phi_1 + phi_3 - phi_2.
    """
    g1, g2, g3 = config.g
    p1, p2, p3 = config.phi
    h = np.zeros((3, 3), dtype=np.complex128)
    h[0, 1] = g3 * np.exp(-1j * p3)
    h[1, 2] = g1 * np.exp(-1j * p1)
    h[0, 2] = g2 * np.exp(-1j * p2)
    h[1, 0] = np.conj(h[0, 1])
    h[2, 1] = np.conj(h[1, 2])
    h[2, 0] = np.conj(h[0, 2])
    return h


def langevin_matrix(config: CirculatorConfig) -> np.ndarray:
    """Drift matrix M of d a/dt = M a + sqrt(kappa) a_in (rad/s).

    Diagonal entries are -(i delta_n + kappa_n/2), with delta_n the
    config's ``detuning``; the coupling block is -i h, so
    i M + (i/2) diag(kappa) is Hermitian for any phases.
    """
    h = coupling_matrix(config) + np.diag(np.asarray(config.detuning, dtype=np.float64))
    return -1j * h - np.diag(np.asarray(config.kappa, dtype=np.float64)) / 2.0


def _mul(xr, xi, yr, yi):
    """Real and imaginary parts of the product (xr + i xi)(yr + i yi)."""
    return xr * yr - xi * yi, xr * yi + xi * yr


_SHIFT = {1: np.array([1, 2, 0]), 2: np.array([2, 0, 1])}  # _SHIFT[d][i] = (i + d) mod 3


def cramer_solve(a_re, a_im, k) -> np.ndarray:
    """X = A^-1 diag(k) for a stack of complex 3 x 3 matrices A = a_re + i a_im.

    ``a_re`` and ``a_im`` are (3, 3, n), entry first so that each operation
    runs over the n points; X is (n, 3, 3) complex.  Each A is scaled, exactly,
    by the power of two that brings its largest part into [0.5, 1), so that no
    cofactor or determinant overflows.  Cramer's rule in real +, -, * and /:
    with indices mod 3 the cofactor of (i, j) is
    A[i+1, j+1] A[i+2, j+2] - A[i+1, j+2] A[i+2, j+1].  Raises
    :class:`SingularSystem` when a determinant is zero or not finite, or when
    a column's relative residual ||A x - b|| / ||b|| (b = k_j e_j) is above
    ``SOLVE_RESIDUAL_TOL`` or not finite.
    """
    biggest = np.maximum(np.abs(a_re), np.abs(a_im)).max(axis=(0, 1))
    scale = np.ldexp(1.0, -np.frexp(biggest)[1])
    ar, ai = a_re * scale, a_im * scale

    def shifted(di, dj):  # entry (i + di, j + dj) mod 3 at every (i, j)
        rows, cols = _SHIFT[di][:, None], _SHIFT[dj]
        return ar[rows, cols], ai[rows, cols]

    p_re, p_im = _mul(*shifted(1, 1), *shifted(2, 2))
    q_re, q_im = _mul(*shifted(1, 2), *shifted(2, 1))
    c_re, c_im = p_re - q_re, p_im - q_im  # the nine signed cofactors
    t_re, t_im = _mul(ar[0], ai[0], c_re[0], c_im[0])  # det A along row 0
    det_re, det_im = t_re[0] + t_re[1] + t_re[2], t_im[0] + t_im[1] + t_im[2]
    det2 = det_re * det_re + det_im * det_im
    if not np.all(np.isfinite(det2) & (det2 > 0.0)):
        raise SingularSystem("zero or non-finite determinant in the 3 x 3 solve")
    w_re, w_im = det_re / det2 * k[:, None], -det_im / det2 * k[:, None]  # k_j / det, (3, n)
    x_re, x_im = _mul(c_re.transpose(1, 0, 2), c_im.transpose(1, 0, 2), w_re, w_im)
    r_re, r_im = -np.diag(k)[:, :, None], 0.0
    for m in range(3):  # A x - b, one column of A at a time
        p_re, p_im = _mul(ar[:, m, None], ai[:, m, None], x_re[None, m], x_im[None, m])
        r_re, r_im = r_re + p_re, r_im + p_im
    rel = np.sqrt((r_re * r_re + r_im * r_im).sum(axis=0)) / k[:, None]
    if not np.all(rel <= SOLVE_RESIDUAL_TOL):
        raise SingularSystem(
            f"solve residual {float(np.max(rel)):.3e} exceeds {SOLVE_RESIDUAL_TOL:.1e}"
        )
    x = np.empty((scale.size, 3, 3), dtype=np.complex128)
    x.real = (x_re * scale).transpose(2, 0, 1)  # (s A)^-1 = A^-1 / s
    x.imag = (x_im * scale).transpose(2, 0, 1)
    return x


def scattering_matrix(config: CirculatorConfig, delta) -> np.ndarray:
    """Scattering matrix S(delta) = I - K (-i delta I - M)^(-1) K.

    ``delta`` is one detuning (result (3, 3)) or a 1-d array of n
    detunings (result (n, 3, 3)), solved as one stack by :func:`cramer_solve`
    (:class:`SingularSystem` on failure).  K = diag(sqrt(kappa)).  Matrix
    convention: a_out = S a_in, so S[i, j] connects input j to output i.
    """
    deltas = np.asarray(delta, dtype=np.float64)
    a = -langevin_matrix(config)
    kd = np.sqrt(np.asarray(config.kappa, dtype=np.float64))
    a_re = np.broadcast_to(a.real[:, :, None], (3, 3, deltas.size))
    a_im = np.repeat(a.imag[:, :, None], deltas.size, axis=2)
    a_im[[0, 1, 2], [0, 1, 2]] -= deltas.reshape(-1)  # only the diagonal moves with delta
    x = cramer_solve(a_re, a_im, kd)
    s = np.eye(3) - kd[:, None] * x  # K X with diagonal K: row i of X scaled by sqrt(kappa_i)
    return s.reshape(deltas.shape + (3, 3))


# --- detuning sweep ----------------------------------------------------------

@dataclass(frozen=True)
class SweepResult:
    """Scattering over a detuning grid plus the derived circulator figures.

    ``s13`` is the 1 -> 3 conversion amplitude S[3,1] and ``s31`` the
    3 -> 1 amplitude S[1,3]; ratio_13_31 = |s13|/|s31| and the insertion
    loss is -10 log10 |s13|^2, with each |.| the ``np.hypot`` of the parts.
    """

    detuning_grid: np.ndarray      # rad/s, (n,)
    smatrices: np.ndarray          # (n, 3, 3) complex
    ratio_13_31: np.ndarray        # (n,)
    insertion_loss_dB: np.ndarray  # (n,)

    @property
    def s13(self) -> np.ndarray:
        return self.smatrices[:, 2, 0]

    @property
    def s31(self) -> np.ndarray:
        return self.smatrices[:, 0, 2]

    def columns(self) -> np.ndarray:
        """The emitted table as an (n, 7) float array, ``SWEEP_CSV_HEADER`` order."""
        s13, s31 = self.s13, self.s31
        return np.column_stack((
            self.detuning_grid, self.ratio_13_31, self.insertion_loss_dB,
            s13.real, s13.imag, s31.real, s31.imag,
        ))


def sweep(config: CirculatorConfig, deltas) -> SweepResult:
    """Scattering over the 1-d detuning grid ``deltas`` (rad/s).

    :class:`ValueError` names the first detuning that is not finite.  Then
    all points are solved as one stack (:class:`SingularSystem` on a zero or
    non-finite determinant or a relative residual above ``SOLVE_RESIDUAL_TOL``).
    Returns the full complex matrices with the 1 -> 3 / 3 -> 1 asymmetry ratio
    and the insertion loss of the forward path; :class:`ValueError` names the
    first detuning where either is not finite (|S13| or |S31| is 0 or underflows).
    """
    deltas = np.asarray(deltas, dtype=np.float64)
    bad = ~np.isfinite(deltas)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"detuning {deltas[i]} rad/s at grid point {i} is not finite")
    s_out = scattering_matrix(config, deltas)
    s13 = np.hypot(s_out[:, 2, 0].real, s_out[:, 2, 0].imag)
    s31 = np.hypot(s_out[:, 0, 2].real, s_out[:, 0, 2].imag)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = s13 / s31
        insertion_loss = -10.0 * np.log10(s13**2)
    bad = ~(np.isfinite(ratio) & np.isfinite(insertion_loss))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(
            f"the 1->3/3->1 ratio or the insertion loss is not finite at detuning "
            f"{deltas[i]:.6g} rad/s (|S13| = {s13[i]:.3g}, |S31| = {s31[i]:.3g})"
        )
    return SweepResult(
        detuning_grid=deltas,
        smatrices=s_out,
        ratio_13_31=ratio,
        insertion_loss_dB=insertion_loss,
    )
