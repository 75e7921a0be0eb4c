"""Scalar formulas of the quantized capacitor-inductor mode; no numpy.

The sinusoidally driven capacitor, shunted by a resonant inductor, is a
quartic anharmonic oscillator:

    H = hbar*omega (n + 1/2) - (hbar*tau/4) * omega^2 * (a + a^dag)^4,

with tau the nonlinear time constant set by the capacitor area and the
temperature.  This module provides the mode specification, tau, the photon
amplitude, the tank inductance, the Hamiltonian coefficients, the Fock
cutoff rule, the printed anharmonicity formula and the
photon-number validity limit of the quartic truncation, all in ``math``.
The Fock-basis oracle, which needs matrices, is in :mod:`qcapsim.oscillator`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .capacitor import linear_capacitance_C0
from .constants import (
    H, HBAR, K_B, V_F, ghz_to_hz, require_positive, require_positive_temperature,
)
from .errors import PerturbativeRegimeExceeded

# printed engineering coefficients (T in K, f in GHz, S in um^2)
ANHARMONICITY_COEFF_PRINTED = 42.85   # percent: A = 42.85 * f / (S T^3)
PHOTON_LIMIT_COEFF_PRINTED = 41.7     # n_max = 41.7 * T / f

# above tau*omega = 1/12 the quartic term competes with the level spacing
# and perturbative estimates stop being meaningful
STRONG_ANHARMONICITY_THRESHOLD = 1.0 / 12.0

# the Fock oracle checks its low levels again at cutoff + this step
CONVERGENCE_CUTOFF_STEP = 20
SUGGESTED_CUTOFF_MAX = 80
# largest accepted Fock cutoff: it bounds the dense parity blocks
# (two of order (cutoff + 20)/2) before anything is allocated
FOCK_CUTOFF_MAX = 1000


@dataclass(frozen=True)
class OscillatorSpec:
    """One quantized mode of the nonlinear capacitor: what the Fock oracle reads.
    The cutoff has no default; :func:`suggested_fock_cutoff` is the cutoff rule."""

    omega: float          # rad/s
    tau: float            # s, nonlinear time constant
    fock_cutoff: int

    def __post_init__(self):
        require_positive(self.omega, "omega")
        if not (self.tau >= 0.0 and math.isfinite(self.tau)):  # also rejects NaN
            raise ValueError(f"tau must be finite and >= 0, got {self.tau}")
        if not 10 <= self.fock_cutoff <= FOCK_CUTOFF_MAX:
            raise ValueError(
                f"fock_cutoff must be in [10, {FOCK_CUTOFF_MAX}], got {self.fock_cutoff}"
            )


def warn_if_strongly_anharmonic(tau_omega: float, consequence: str, where: str = "") -> None:
    """Warn :class:`PerturbativeRegimeExceeded` when tau*omega exceeds 1/12.

    The message reads "tau*omega = <value> > 1/12<where>: perturbative
    regime exceeded; <consequence>".  The warning is attributed to the line
    that called this helper's caller: the line that asked for the formula.
    """
    if tau_omega > STRONG_ANHARMONICITY_THRESHOLD:
        warnings.warn(
            f"tau*omega = {tau_omega:.3g} > 1/12{where}: perturbative regime exceeded; "
            f"{consequence}",
            PerturbativeRegimeExceeded,
            stacklevel=3,
        )


# --- photon amplitude and nonlinear time constant ---------------------------

def photon_amplitude(area_S: float, temperature_T: float, omega: float):
    """Single-photon number-density fluctuation scale of a mode at omega
    (rad/s) on a capacitor of area S (m^2) at temperature T (K).

    Returns (chi, psi) with chi = sqrt(k_B T ln16 / 2 pi S hbar v_F^2)
    in (1/m^2) sqrt(s) and psi = chi*sqrt(omega) in 1/m^2.
    """
    require_positive(area_S, "area_S")
    require_positive_temperature(temperature_T)
    require_positive(omega, "omega")
    den = 2.0 * math.pi * area_S * HBAR * V_F**2
    require_positive(den, "2 pi S hbar v_F^2")
    chi = math.sqrt(K_B * temperature_T * math.log(16.0) / den)
    require_positive(chi, "photon amplitude chi")
    return chi, chi * math.sqrt(omega)


def nonlinear_time_constant(area_S: float, temperature_T: float) -> float:
    """Nonlinear time constant tau = pi hbar^3 v_F^2 / 8 ln^2(16) S (k_B T)^3.

    The printed formulas (anharmonicity, single-photon rate) do not read
    tau: they guard their own S T^3 through :func:`_printed_denominator`.
    Raises :class:`ValueError` when the denominator or tau is not a finite,
    normal float > 0.
    """
    require_positive(area_S, "area_S")
    require_positive_temperature(temperature_T)
    try:  # float ** raises on overflow
        den = 8.0 * math.log(16.0)**2 * area_S * (K_B * temperature_T)**3
    except OverflowError:
        den = math.inf
    require_positive(den, "an intermediate of the nonlinear time constant")
    tau = math.pi * HBAR**3 * V_F**2 / den
    require_positive(tau, "nonlinear time constant (s)")
    return tau


def resonant_inductance(area_S: float, T: float, omega: float) -> float:
    """Tank inductance L = 1/(omega^2 S C_0) that resonates the linear
    capacitance of area ``area_S`` (m^2) at ``omega`` (henry)."""
    require_positive(area_S, "area_S")
    require_positive(omega, "omega")
    c0_total = area_S * linear_capacitance_C0(T)
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
    return HBAR * spec.omega, HBAR * spec.tau * spec.omega**2 / 4.0


def suggested_fock_cutoff(tau_omega: float) -> int:
    """Largest truncation whose +20 stability check can still pass.

    The softening quartic is unbounded below, so past roughly
    tau*omega * cutoff^2 ~ 20 the truncated edge states bind below the
    physical ground state and the low spectrum collapses with cutoff.
    This returns the largest cutoff keeping tau*omega * (cutoff+20)^2
    below 12 (a safety margin against that collapse), clamped to
    [10, SUGGESTED_CUTOFF_MAX].  For strongly nonlinear modes even the
    minimum cutoff may not converge; :func:`qcapsim.oscillator.fock_diagonalize`
    then raises.
    """
    if tau_omega <= 0.0:
        return SUGGESTED_CUTOFF_MAX
    root = math.sqrt(12.0 / tau_omega)  # inf for a subnormal tau_omega, which int() refuses
    if root >= SUGGESTED_CUTOFF_MAX + CONVERGENCE_CUTOFF_STEP:  # the clamp reads the maximum
        return SUGGESTED_CUTOFF_MAX
    safe = int(math.floor(root)) - CONVERGENCE_CUTOFF_STEP
    return max(10, min(SUGGESTED_CUTOFF_MAX, safe))


# --- engineering estimates ---------------------------------------------------

def _printed_denominator(S: float, T: float) -> float:
    """S T^3 of the printed formulas (S in um^2, T in K); :class:`ValueError`
    unless it is a finite, normal float > 0."""
    try:  # float ** raises on overflow
        den = S * T**3
    except OverflowError:
        den = math.inf
    require_positive(den, "S T^3 of the printed formula")
    return den


def anharmonicity_percent_printed(T: float, f: float, S: float) -> float:
    """Anharmonicity 42.85 * f / (S T^3) percent as published (T in K, f in
    GHz, S in um^2): a 4-digit rounding of 3*tau*omega, to about 0.4%."""
    require_positive_temperature(T)
    require_positive(f, "frequency (GHz)")
    require_positive(S, "area (um^2)")
    return ANHARMONICITY_COEFF_PRINTED * f / _printed_denominator(S, T)


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
    hf = H * ghz_to_hz(f)
    require_positive(hf, "photon energy h f (J)")
    n_max = 2.0 * K_B * T / hf
    require_positive(n_max, "derived photon-number limit")
    return n_max
