"""Scalar formulas of the quantized capacitor-inductor mode; no numpy.

The sinusoidally driven capacitor, shunted by a resonant inductor, is a
quartic anharmonic oscillator:

    H = hbar*omega (n + 1/2) - (hbar*tau/4) * omega^2 * (a + a^dag)^4,

with tau the nonlinear time constant set by the capacitor area and the
temperature.  This module provides the mode specification, tau, the photon
amplitude, the tank inductance, the Hamiltonian coefficients, the Fock
cutoff rule, the perturbative/engineering anharmonicity estimates and the
photon-number validity limit of the quartic truncation, all in ``math``.
The Fock-basis oracle, which needs matrices, is in :mod:`qcapsim.oscillator`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .capacitor import linear_capacitance_C0
from .constants import (
    H, HBAR, K_B, V_F, ghz_to_hz, ghz_to_rad_per_s, require_positive, require_positive_temperature,
    um2_to_m2,
)
from .errors import NonPositiveArea, PerturbativeRegimeExceeded

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


def warn_if_strongly_anharmonic(
    tau_omega: float, consequence: str, where: str = "", stacklevel: int = 1
) -> None:
    """Warn :class:`PerturbativeRegimeExceeded` when tau*omega exceeds 1/12.

    The message reads "tau*omega = <value> > 1/12<where>: perturbative
    regime exceeded; <consequence>".  ``stacklevel`` counts from the caller:
    1 attributes the warning to the calling line, 2 to its caller.
    """
    if tau_omega > STRONG_ANHARMONICITY_THRESHOLD:
        warnings.warn(
            f"tau*omega = {tau_omega:.3g} > 1/12{where}: perturbative regime exceeded; "
            f"{consequence}",
            PerturbativeRegimeExceeded,
            stacklevel=stacklevel + 1,
        )


# --- photon amplitude and nonlinear time constant ---------------------------

def photon_amplitude(area_S: float, temperature_T: float, omega: float):
    """Single-photon number-density fluctuation scale of a mode at omega
    (rad/s) on a capacitor of area S (m^2) at temperature T (K).

    Returns (chi, psi) with chi = sqrt(k_B T ln16 / 2 pi S hbar v_F^2)
    in (1/m^2) sqrt(s) and psi = chi*sqrt(omega) in 1/m^2.
    """
    require_positive(area_S, "area_S", NonPositiveArea)
    require_positive_temperature(temperature_T)
    require_positive(omega, "omega")
    den = 2.0 * math.pi * area_S * HBAR * V_F**2
    require_positive(den, "2 pi S hbar v_F^2")
    chi = math.sqrt(K_B * temperature_T * math.log(16.0) / den)
    require_positive(chi, "photon amplitude chi")
    return chi, chi * math.sqrt(omega)


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
    kT = K_B * temperature_T
    ln16 = math.log(16.0)
    try:  # float ** raises on overflow, and / on an underflowed divisor
        kT3, kT5 = kT**3, kT**5
        chi_sq = kT * ln16 / (2.0 * math.pi * area_S * HBAR * V_F**2)
        chi4 = chi_sq**2
    except (OverflowError, ZeroDivisionError):
        kT3 = kT5 = chi4 = math.inf
    den_closed = 8.0 * ln16**2 * area_S * kT3
    # S enters the chi form after the constants, so no partial product of
    # it leaves the normal range unless chi^4 itself does
    num_chi = math.pi**3 * HBAR**5 * V_F**6 * area_S * chi4
    den_chi = 2.0 * ln16**4 * kT5
    for value in (kT3, kT5, chi4, den_closed, num_chi, den_chi):
        require_positive(value, "an intermediate of the nonlinear time constant")
    closed = math.pi * HBAR**3 * V_F**2 / den_closed
    require_positive(closed, "nonlinear time constant (s)")
    if abs(closed - num_chi / den_chi) > 1e-10 * abs(closed):
        raise ArithmeticError(
            "the two closed forms of the nonlinear time constant disagree; "
            "constants or formulas were mistranscribed"
        )
    return closed


def resonant_inductance(area_S: float, T: float, omega: float) -> float:
    """Tank inductance L = 1/(omega^2 S C_0) that resonates the linear
    capacitance of area ``area_S`` (m^2) at ``omega`` (henry)."""
    require_positive(area_S, "area_S", NonPositiveArea)
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
    safe = int(math.floor(math.sqrt(12.0 / tau_omega))) - CONVERGENCE_CUTOFF_STEP
    return max(10, min(SUGGESTED_CUTOFF_MAX, safe))


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
    return AnharmonicityEstimate(
        percent_printed=ANHARMONICITY_COEFF_PRINTED * f / (S * T**3),
        percent_symbolic=3.0 * tau * ghz_to_rad_per_s(f) * 100.0,
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
    hf = H * ghz_to_hz(f)
    require_positive(hf, "photon energy h f (J)")
    n_max = 2.0 * K_B * T / hf
    require_positive(n_max, "derived photon-number limit")
    return n_max
