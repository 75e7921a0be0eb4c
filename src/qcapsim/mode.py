"""The quantized capacitor-inductor mode and its Fock-basis oracle.

The sinusoidally driven capacitor, shunted by a resonant inductor, is a
quartic anharmonic oscillator:

    H = hbar*omega (n + 1/2) - (hbar*tau/4) * omega^2 * (a + a^dag)^4,

with tau the nonlinear time constant set by the capacitor area and the
temperature.  This module provides the mode specification, tau, the photon
amplitude, the tank inductance, the Hamiltonian coefficients, the Fock
cutoff rule, the printed anharmonicity formula and the photon-number
validity limit of the quartic truncation.  The Fock-basis oracle builds H
in a truncated Fock basis from the closed-form bands of its quartic term
and diagonalizes it exactly, one parity block at a time, with a
cutoff-stability check on the lowest levels.  Importing this module loads
no numpy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .capacitor import linear_capacitance_C0
from .constants import (
    H, HBAR, K_B, V_F, ghz_to_hz, require_positive, require_positive_temperature,
)
from .errors import CutoffNotConverged, PerturbativeRegimeExceeded

# printed engineering coefficients (T in K, f in GHz, S in um^2)
ANHARMONICITY_COEFF_PRINTED = 42.85   # percent: A = 42.85 * f / (S T^3)
PHOTON_LIMIT_COEFF_PRINTED = 41.7     # n_max = 41.7 * T / f

# above tau*omega = 1/12 the quartic term competes with the level spacing
# and perturbative estimates stop being meaningful
STRONG_ANHARMONICITY_THRESHOLD = 1.0 / 12.0

# the Fock oracle's three lowest levels must agree at cutoff and cutoff + STEP, to RTOL
CONVERGENCE_CUTOFF_STEP = 20
CONVERGENCE_RTOL = 1e-9
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
class SpectrumResult:
    """Sorted spectrum of the truncated quartic Hamiltonian."""

    eigenvalues: np.ndarray   # J, ascending
    omega_10: float           # rad/s
    omega_21: float           # rad/s
    anharmonicity_A: float    # dimensionless fraction |1 - w21/w10|


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
    minimum cutoff may not converge; :func:`fock_diagonalize` then raises.
    """
    if tau_omega <= 0.0:
        return SUGGESTED_CUTOFF_MAX
    root = math.sqrt(12.0 / tau_omega)  # inf for a subnormal tau_omega, which int() refuses
    if root >= SUGGESTED_CUTOFF_MAX + CONVERGENCE_CUTOFF_STEP:  # the clamp reads the maximum
        return SUGGESTED_CUTOFF_MAX
    safe = int(math.floor(root)) - CONVERGENCE_CUTOFF_STEP
    return max(10, min(SUGGESTED_CUTOFF_MAX, safe))


# --- Fock-basis oracle -------------------------------------------------------

def _parity_blocks(spec: OscillatorSpec, n: int) -> list[np.ndarray]:
    """Even and odd Fock blocks of the Hamiltonian truncated at ``n`` (J).

    With x = P(a + a^dag)P, x^2 has the diagonal d_k = 2k + 1, except
    d_{n-1} = n - 1 at the truncation corner, and the second diagonal
    o_k = sqrt((k + 1)(k + 2)).  Squaring it gives the only three bands of
    x^4: d_k^2 + o_k^2 + o_{k-2}^2 on the main diagonal, o_k (d_k + d_{k+2})
    on the second and o_k o_{k+2} on the fourth.  This is the truncated
    operator (PxP)^4, not the untruncated P x^4 P.  The bands couple only
    states of equal parity, so block p (states p, p+2, ...) takes every
    other entry of each band; each block is exactly symmetric.
    """
    import numpy as np

    linear, quartic = hamiltonian_coefficients(spec)
    k = np.arange(n, dtype=np.float64)
    d = 2.0 * k + 1.0
    d[-1] = n - 1.0
    o_sq = (k[:-2] + 1.0) * (k[:-2] + 2.0)
    o = np.sqrt(o_sq)
    x4_main = d * d
    x4_main[:-2] += o_sq
    x4_main[2:] += o_sq
    bands = (
        linear * (k + 0.5) - quartic * x4_main,
        -quartic * (o * (d[:-2] + d[2:])),
        -quartic * (o[:-2] * o[2:]),
    )
    blocks = []
    for p in (0, 1):
        m = (n - p + 1) // 2
        block = np.zeros((m, m))
        flat = block.reshape(-1)
        for j, band in enumerate(bands):  # j-th diagonal above and below
            flat[j : m * (m - j) : m + 1] = band[p::2]
            flat[j * m :: m + 1] = band[p::2]
        blocks.append(block)
    return blocks


def _parity_block_eigenvalues(spec: OscillatorSpec, n: int) -> np.ndarray:
    """Ascending eigenvalues at cutoff ``n``: each parity block is solved on
    its own and the two spectra are merged."""
    import numpy as np

    from . import linalg

    blocks = [linalg.symmetric_eigenvalues(b) for b in _parity_blocks(spec, n)]
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
    warn_if_strongly_anharmonic(spec.tau * spec.omega, "truncated-basis spectrum may not converge")
    evals = _parity_block_eigenvalues(spec, spec.fock_cutoff)
    evals_check = _parity_block_eigenvalues(spec, spec.fock_cutoff + CONVERGENCE_CUTOFF_STEP)
    for k in range(3):
        denom = max(abs(evals_check[k]), abs(evals[k]))
        if abs(evals[k] - evals_check[k]) > CONVERGENCE_RTOL * denom:
            raise CutoffNotConverged(
                f"level {k} moved by {abs(evals[k] - evals_check[k]) / denom:.3e} "
                f"relative when the cutoff grew from {spec.fock_cutoff} to "
                f"{spec.fock_cutoff + CONVERGENCE_CUTOFF_STEP}"
            )
    omega_10 = (evals[1] - evals[0]) / HBAR
    omega_21 = (evals[2] - evals[1]) / HBAR
    return SpectrumResult(
        eigenvalues=evals,
        omega_10=omega_10,
        omega_21=omega_21,
        anharmonicity_A=abs(1.0 - omega_21 / omega_10),
    )


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
