"""Quantization of the capacitor-inductor mode formed on the nonlinear stack.

The sinusoidally driven capacitor, shunted by a resonant inductor, is a
quartic anharmonic oscillator:

    H = hbar*omega (n + 1/2) - (hbar*tau/4) * omega^2 * (a + a^dag)^4,

with tau the nonlinear time constant set by the capacitor area and the
temperature.  This module provides the photon amplitude, tau, the
Hamiltonian coefficients, an exact-diagonalization oracle in a truncated
Fock basis, the perturbative/engineering anharmonicity estimates, and the
photon-number validity limit of the quartic truncation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import linalg
from .capacitance import CapacitorDesign, linear_capacitance_C0
from .constants import (
    CONSTANTS,
    ghz_to_rad_per_s,
    require_positive,
    require_positive_temperature,
    um2_to_m2,
)
from .errors import CutoffNotConverged, NonPositiveArea, NonPositiveTemperature, PerturbativeRegimeExceeded

# printed engineering coefficients (T in K, f in GHz, S in um^2)
ANHARMONICITY_COEFF_PRINTED = 42.85   # percent: A = 42.85 * f / (S T^3)
PHOTON_LIMIT_COEFF_PRINTED = 41.7     # n_max = 41.7 * T / f

# above tau*omega = 1/12 the quartic term competes with the level spacing
# and perturbative estimates stop being meaningful
STRONG_ANHARMONICITY_THRESHOLD = 1.0 / 12.0

CONVERGENCE_CUTOFF_STEP = 20
CONVERGENCE_RTOL = 1e-9
SUGGESTED_CUTOFF_MAX = 80


@dataclass(frozen=True)
class OscillatorSpec:
    """One quantized mode of the nonlinear capacitor."""

    omega: float          # rad/s
    tau: float            # s, nonlinear time constant
    area_S: float         # m^2
    temperature_T: float  # K
    fock_cutoff: int = 120

    def __post_init__(self):
        require_positive(self.omega, "omega")
        if not (self.tau >= 0.0 and math.isfinite(self.tau)):  # also rejects NaN
            raise ValueError(f"tau must be finite and >= 0, got {self.tau}")
        require_positive(self.area_S, "area_S", NonPositiveArea)
        require_positive(self.temperature_T, "temperature_T", NonPositiveTemperature)
        if self.fock_cutoff < 10:
            raise ValueError(f"fock_cutoff must be >= 10, got {self.fock_cutoff}")

    @property
    def strongly_anharmonic(self) -> bool:
        """True when tau*omega exceeds 1/12 (perturbative formulas unreliable)."""
        return self.tau * self.omega > STRONG_ANHARMONICITY_THRESHOLD


@dataclass(frozen=True)
class SpectrumResult:
    """Sorted spectrum of the truncated quartic Hamiltonian."""

    eigenvalues: np.ndarray   # J, ascending
    omega_10: float           # rad/s
    omega_21: float           # rad/s
    anharmonicity_A: float    # dimensionless fraction |1 - w21/w10|

    def to_json_dict(self) -> dict:
        return {
            "eigenvalues_J": [float(v) for v in self.eigenvalues],
            "omega10_rad_s": float(self.omega_10),
            "omega21_rad_s": float(self.omega_21),
            "anharmonicity_fraction": float(self.anharmonicity_A),
        }


@dataclass(frozen=True)
class AnharmonicityEstimate:
    """Printed engineering anharmonicity next to its re-derivation.

    ``percent_printed`` evaluates the published coefficient 42.85 as-is;
    ``percent_symbolic`` is 3*tau*omega re-derived in SI.  The two agree to
    about 0.4%% (the published coefficient is a 4-digit rounding), so a
    ratio far from 1 signals a regression.
    """

    percent_printed: float
    percent_symbolic: float
    ratio_printed_to_symbolic: float


# --- photon amplitude and nonlinear time constant ---------------------------

def photon_amplitude(spec: OscillatorSpec):
    """Single-photon number-density fluctuation scale of the mode.

    Returns (chi, psi) with chi = sqrt(k_B T ln16 / 2 pi S hbar v_F^2)
    in (1/m^2) sqrt(s) and psi = chi*sqrt(omega) in 1/m^2.
    """
    den = 2.0 * math.pi * spec.area_S * CONSTANTS.hbar * CONSTANTS.v_F_default**2
    require_positive(den, "2 pi S hbar v_F^2")
    chi = math.sqrt(CONSTANTS.k_B * spec.temperature_T * math.log(16.0) / den)
    require_positive(chi, "photon amplitude chi")
    return chi, chi * math.sqrt(spec.omega)


def nonlinear_time_constant(area_S: float, temperature_T: float) -> float:
    """Nonlinear time constant tau = pi hbar^3 v_F^2 / 8 ln^2(16) S (k_B T)^3.

    Also evaluates the equivalent chi-based form
    pi^3 S hbar^5 v_F^6 chi^4 / 2 ln^4(16) (k_B T)^5 and insists the two
    agree to 1e-10 relative, as a transcription guard.  Raises
    :class:`ValueError` when tau or any intermediate of either form is not
    a finite, normal float > 0, since both forms would then have lost
    digits.
    """
    require_positive(area_S, "area_S", NonPositiveArea)
    require_positive_temperature(temperature_T)
    kT = CONSTANTS.k_B * temperature_T
    ln16 = math.log(16.0)
    v_F = CONSTANTS.v_F_default
    try:  # float ** raises on overflow, and / on an underflowed divisor
        kT3, kT5 = kT**3, kT**5
        chi_sq = kT * ln16 / (2.0 * math.pi * area_S * CONSTANTS.hbar * v_F**2)
        chi4 = chi_sq**2
    except (OverflowError, ZeroDivisionError):
        kT3 = kT5 = chi4 = math.inf
    den_closed = 8.0 * ln16**2 * area_S * kT3
    # S enters the chi form after the constants, so no partial product of
    # it leaves the normal range unless chi^4 itself does
    num_chi = math.pi**3 * CONSTANTS.hbar**5 * v_F**6 * area_S * chi4
    den_chi = 2.0 * ln16**4 * kT5
    for value in (kT3, kT5, chi4, den_closed, num_chi, den_chi):
        require_positive(value, "an intermediate of the nonlinear time constant")
    closed = math.pi * CONSTANTS.hbar**3 * v_F**2 / den_closed
    require_positive(closed, "nonlinear time constant (s)")
    if abs(closed - num_chi / den_chi) > 1e-10 * abs(closed):
        raise ArithmeticError(
            "the two closed forms of the nonlinear time constant disagree; "
            "constants or formulas were mistranscribed"
        )
    return closed


def resonant_inductance(design: CapacitorDesign, T: float, omega: float) -> float:
    """Tank inductance L = 1/(omega^2 S C_0) that resonates the linear
    capacitance at ``omega`` (henry)."""
    require_positive(omega, "omega")
    c0_total = design.area_S * linear_capacitance_C0(design, T)
    try:
        den = omega**2 * c0_total
    except OverflowError:
        den = math.inf
    require_positive(den, "omega^2 S C_0")
    inductance = 1.0 / den
    require_positive(inductance, "tank inductance (H)")
    return inductance


def hamiltonian_coefficients(spec: OscillatorSpec) -> tuple[float, float]:
    """(linear, quartic) energy coefficients of the mode Hamiltonian in J.

    ``linear`` multiplies (n + 1/2); ``quartic`` multiplies (a + a^dag)^4
    and enters H with an overall minus sign (softening nonlinearity).
    """
    return CONSTANTS.hbar * spec.omega, CONSTANTS.hbar * spec.tau * spec.omega**2 / 4.0


# --- Fock-basis oracle -------------------------------------------------------

def position_ladder_matrix(cutoff: int) -> np.ndarray:
    """Matrix of (a + a^dag) in the number basis, truncated at ``cutoff``."""
    x = np.zeros((cutoff, cutoff))
    idx = np.arange(cutoff - 1)
    amp = np.sqrt(idx + 1.0)
    x[idx, idx + 1] = amp
    x[idx + 1, idx] = amp
    return x


def hamiltonian_matrix(spec: OscillatorSpec, cutoff: int | None = None) -> np.ndarray:
    """Truncated Hamiltonian matrix (J), exactly symmetric by construction.

    The quartic block is the explicit product of four ladder-sum matrices;
    its upper triangle is mirrored once so the matrix is symmetric to the
    bit even if the BLAS product were not.
    """
    n = spec.fock_cutoff if cutoff is None else cutoff
    x = position_ladder_matrix(n)
    x2 = x @ x
    x4 = x2 @ x2
    x4 = np.triu(x4) + np.triu(x4, 1).T
    linear, quartic = hamiltonian_coefficients(spec)
    h = -quartic * x4
    diag = linear * (np.arange(n) + 0.5)
    h[np.diag_indices(n)] += diag
    return h


def suggested_fock_cutoff(tau_omega: float) -> int:
    """Largest truncation whose +20 stability check can still pass.

    The softening quartic is unbounded below, so past roughly
    tau*omega * cutoff^2 ~ 20 the truncated edge states bind below the
    physical ground state and the low spectrum collapses with cutoff.
    This returns the largest cutoff keeping tau*omega * (cutoff+20)^2
    below 12 (a safety margin against that collapse), clamped to
    [10, SUGGESTED_CUTOFF_MAX].  For strongly nonlinear modes even the
    minimum cutoff may not converge; :func:`fock_diagonalize` then raises.
    """
    if tau_omega <= 0.0:
        return SUGGESTED_CUTOFF_MAX
    safe = int(math.floor(math.sqrt(12.0 / tau_omega))) - CONVERGENCE_CUTOFF_STEP
    return max(10, min(SUGGESTED_CUTOFF_MAX, safe))


def _parity_block_eigenvalues(h: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of ``h`` from its even and odd Fock blocks.

    (a + a^dag)^4 only couples number states of equal parity, so the
    off-parity entries of :func:`hamiltonian_matrix` are exactly 0.0 and
    each block is diagonalized on its own.
    """
    blocks = [linalg.symmetric_eigenvalues(h[p::2, p::2]) for p in (0, 1)]
    return np.sort(np.concatenate(blocks))


def fock_diagonalize(spec: OscillatorSpec) -> SpectrumResult:
    """Exact spectrum of the truncated quartic Hamiltonian.

    Diagonalizes the even and odd parity blocks at the requested cutoff
    and again at cutoff + 20; the three lowest levels must agree to 1e-9
    relative or :class:`CutoffNotConverged` is raised.  Only meaningful in the
    perturbative window: the untruncated quartic Hamiltonian is unbounded
    below, so large tau*omega makes the low spectrum collapse with cutoff
    (that situation is reported as a convergence failure, and a
    :class:`PerturbativeRegimeExceeded` warning is emitted past
    tau*omega = 1/12).
    """
    if spec.strongly_anharmonic:
        warnings.warn(
            f"tau*omega = {spec.tau * spec.omega:.3g} > 1/12: perturbative regime "
            "exceeded; truncated-basis spectrum may not converge",
            PerturbativeRegimeExceeded,
            stacklevel=2,
        )
    evals = _parity_block_eigenvalues(hamiltonian_matrix(spec))
    evals_check = _parity_block_eigenvalues(
        hamiltonian_matrix(spec, cutoff=spec.fock_cutoff + CONVERGENCE_CUTOFF_STEP)
    )
    for k in range(3):
        denom = max(abs(evals_check[k]), abs(evals[k]))
        if abs(evals[k] - evals_check[k]) > CONVERGENCE_RTOL * denom:
            raise CutoffNotConverged(
                f"level {k} moved by {abs(evals[k] - evals_check[k]) / denom:.3e} "
                f"relative when the cutoff grew from {spec.fock_cutoff} to "
                f"{spec.fock_cutoff + CONVERGENCE_CUTOFF_STEP}"
            )
    omega_10 = (evals[1] - evals[0]) / CONSTANTS.hbar
    omega_21 = (evals[2] - evals[1]) / CONSTANTS.hbar
    return SpectrumResult(
        eigenvalues=evals,
        omega_10=omega_10,
        omega_21=omega_21,
        anharmonicity_A=abs(1.0 - omega_21 / omega_10),
    )


# --- engineering estimates ---------------------------------------------------

def anharmonicity_engineering(T: float, f: float, S: float) -> AnharmonicityEstimate:
    """Anharmonicity estimate from the published coefficient, in percent.

    ``T`` in K, ``f`` in GHz, ``S`` in um^2.  The printed field evaluates
    42.85 * f / (S T^3) exactly as published; the symbolic field re-derives
    3*tau*omega from SI constants.
    """
    require_positive_temperature(T)
    require_positive(f, "frequency (GHz)")
    require_positive(S, "area (um^2)")
    tau = nonlinear_time_constant(um2_to_m2(S), T)  # first: it checks the range of S and T
    printed = ANHARMONICITY_COEFF_PRINTED * f / (S * T**3)
    symbolic = 3.0 * tau * ghz_to_rad_per_s(f) * 100.0
    return AnharmonicityEstimate(
        percent_printed=printed,
        percent_symbolic=symbolic,
        ratio_printed_to_symbolic=printed / symbolic,
    )


def photon_number_limit(T: float, f: float) -> float:
    """Photon-number ceiling 41.7 * T / f of the quartic truncation
    (published coefficient; T in K, f in GHz).

    Provenance: the quartic model holds while hbar*omega*n < 2 k_B T, i.e.
    n_max = 2 k_B T / (h f); see :func:`photon_number_limit_derived`.
    """
    require_positive_temperature(T)
    require_positive(f, "frequency (GHz)")
    return PHOTON_LIMIT_COEFF_PRINTED * T / f


def photon_number_limit_derived(T: float, f: float) -> float:
    """n_max = 2 k_B T / (h f) re-derived from constants (T in K, f in GHz)."""
    require_positive_temperature(T)
    require_positive(f, "frequency (GHz)")
    hf = CONSTANTS.h * f * 1e9
    require_positive(hf, "photon energy h f (J)")
    n_max = 2.0 * CONSTANTS.k_B * T / hf
    require_positive(n_max, "derived photon-number limit")
    return n_max
