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

A detuning sweep builds the (n, 3, 3) stack -i delta I - M and solves it
with one call of :func:`qcapsim.linalg.solve_complex`, which enforces the
1e-10 relative-residual contract on every point.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .constants import require_positive
from .linalg import solve_complex

SWEEP_CSV_HEADER = (
    "delta_rad_s",
    "ratio_13_31",
    "insertion_loss_dB",
    "reS13",
    "imS13",
    "reS31",
    "imS31",
)


class Frame(enum.Enum):
    LAB = "lab"
    ROTATING = "rotating"


@dataclass(frozen=True)
class CirculatorConfig:
    """Three modes plus the three loop couplings.

    Couplings are indexed opposite their mode pair: g[2] (=g_3) couples
    modes 1 and 2, g[0] (=g_1) couples 2 and 3, g[1] (=g_2) couples 3 and 1;
    same for the phases.  In the rotating frame the Langevin diagonal uses
    ``detuning`` (default zero: every mode on resonance in its own frame)
    and the swept probe detuning is applied globally; in the lab frame the
    diagonal carries the absolute mode frequencies.
    """

    omega: tuple[float, float, float]   # rad/s
    kappa: tuple[float, float, float]   # rad/s
    g: tuple[float, float, float]       # rad/s
    phi: tuple[float, float, float]     # rad
    frame: Frame = Frame.ROTATING
    detuning: tuple[float, float, float] = (0.0, 0.0, 0.0)  # rad/s

    def __post_init__(self):
        for name in ("omega", "kappa", "g", "phi", "detuning"):
            if len(getattr(self, name)) != 3:
                raise ValueError(f"{name} must have exactly 3 entries")
        for w in self.omega:
            require_positive(w, "mode frequency (rad/s)")
        for k in self.kappa:
            require_positive(k, "decay rate (rad/s)")
        if not all(gi >= 0.0 and math.isfinite(gi) for gi in self.g):  # also rejects NaN
            raise ValueError(f"coupling strengths must be finite and >= 0, got {self.g}")
        if not all(math.isfinite(v) for v in (*self.phi, *self.detuning)):
            raise ValueError(f"phases and detunings must be finite, got {self.phi}, {self.detuning}")

    @property
    def gauge_flux(self) -> float:
        """Loop phase phi_1 + phi_3 - phi_2 (rad)."""
        return self.phi[0] + self.phi[2] - self.phi[1]


def coupling_matrix(config: CirculatorConfig) -> np.ndarray:
    """Hermitian coupling matrix h (rad/s), zero diagonal.

    h[i][j] is the coefficient of a_i^dag a_j.  The phase of the 3 <-> 1
    coupling enters with the opposite sign to the other two so that the
    cycle 1 -> 2 -> 3 -> 1 accumulates exactly ``gauge_flux``.
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

    Diagonal entries are -(i w_n + kappa_n/2) in the lab frame or
    -(i delta_n + kappa_n/2) in the rotating frame; the coupling block is
    -i h, so i M + (i/2) diag(kappa) is Hermitian for any phases.
    """
    diag_freqs = config.omega if config.frame is Frame.LAB else config.detuning
    h = coupling_matrix(config) + np.diag(np.asarray(diag_freqs, dtype=np.float64))
    return -1j * h - np.diag(np.asarray(config.kappa, dtype=np.float64)) / 2.0


def scattering_matrix(config: CirculatorConfig, delta) -> np.ndarray:
    """Scattering matrix S(delta) = I - K (-i delta I - M)^(-1) K.

    ``delta`` is one detuning (result (3, 3)) or a 1-d array of n
    detunings (result (n, 3, 3)), solved as one stack.  K = diag(sqrt(kappa));
    every column comes from a residual-checked pivoted solve
    (:class:`SingularSystem` on failure).  Matrix convention: a_out = S a_in,
    so S[i, j] connects input j to output i.
    """
    deltas = np.asarray(delta, dtype=np.float64)
    m = langevin_matrix(config)
    kd = np.sqrt(np.asarray(config.kappa, dtype=np.float64))
    a = -1j * deltas[..., None, None] * np.eye(3) - m
    x = solve_complex(a, np.broadcast_to(np.diag(kd).astype(np.complex128), a.shape))
    return np.eye(3) - kd[:, None] * x  # K X with diagonal K: row i of X scaled by sqrt(kappa_i)


# --- detuning sweep ----------------------------------------------------------

@dataclass(frozen=True)
class SweepResult:
    """Scattering over a detuning grid plus the derived circulator figures.

    ``s13`` is the 1 -> 3 conversion amplitude S[3,1] and ``s31`` the
    3 -> 1 amplitude S[1,3]; ratio_13_31 = |s13|/|s31| and the insertion
    loss is -10 log10 |s13|^2.
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


def sweep(
    config: CirculatorConfig, delta_min: float, delta_max: float, n_points: int
) -> SweepResult:
    """Scattering over a uniform detuning grid (rad/s).

    All points are solved as one stack; :class:`SingularSystem` is raised
    when any point hits a zero pivot or a relative solve residual above
    ``linalg.SOLVE_RESIDUAL_TOL``.  Returns the full complex matrices along
    with the 1 -> 3 / 3 -> 1 asymmetry ratio and the insertion loss of the
    forward path; :class:`ValueError` names the first detuning where either
    is not finite (|S13| or |S31| is 0.0 or underflows).
    """
    if n_points < 2:
        raise ValueError(f"n_points must be >= 2, got {n_points}")
    if not (math.isfinite(delta_min) and math.isfinite(delta_max)):
        raise ValueError(f"detunings out of range: [{delta_min}, {delta_max}] rad/s must be finite")
    deltas = np.linspace(delta_min, delta_max, n_points)
    s_out = scattering_matrix(config, deltas)
    s13 = np.abs(s_out[:, 2, 0])
    s31 = np.abs(s_out[:, 0, 2])
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
