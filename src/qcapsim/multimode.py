"""Multi-mode interactions mediated by the shared nonlinear capacitor.

With several LC modes biased on one quantum capacitor, the quartic term
mixes them with coefficients gamma_nml = tau * w_n * sqrt(w_m w_l).  A
strong coherent pump on mode 0 at Omega selects, under the rotating-wave
approximation, either a hopping (beam-splitter) interaction when
2*Omega = w1 - w2 or a parametric (pair-creation) interaction when
2*Omega = w1 + w2, with pump-enhanced strength G = 3*gamma_012*n at pump
photon number n = |a|^2.  This module classifies that selection, evaluates
the published single-photon rate formula next to its SI re-derivation, and
provides the quantum RC charging time.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .constants import E, HBAR, TWO_PI, V_F, ghz_to_rad_per_s, require_positive, um2_to_m2
from .errors import AmbiguousResonance, NonPositiveArea
from .mode import nonlinear_time_constant

# printed engineering coefficient: g0 = 2 pi x 0.143 f sqrt(f1 f2)/(S T^3) GHz
SINGLE_PHOTON_RATE_COEFF_PRINTED = 0.143

DEFAULT_RESONANCE_TOLERANCE = TWO_PI * 1e6  # rad/s, ~typical linewidth


@dataclass(frozen=True)
class PumpSpec:
    """Strong coherent drive on the pump mode.

    ``photon_number`` is n = |a|^2, the mean pump photon number that G
    scales with; ``phase_theta`` is the drive phase that ends up doubled in
    the selected interaction.
    """

    Omega: float           # rad/s
    photon_number: float   # dimensionless
    phase_theta: float     # rad

    def __post_init__(self):
        require_positive(self.Omega, "Omega")
        if not (self.photon_number >= 0.0 and math.isfinite(self.photon_number)):
            raise ValueError(f"photon_number must be finite and >= 0, got {self.photon_number}")
        if not math.isfinite(self.phase_theta):
            raise ValueError(f"phase_theta must be finite, got {self.phase_theta}")


class InteractionKind(enum.Enum):
    HOPPING = "hopping"
    PARAMETRIC = "parametric"
    OFF_RESONANT = "off_resonant"


@dataclass(frozen=True)
class InteractionClassification:
    """Which pump-selected interaction survives the RWA, and how strong."""

    kind: InteractionKind
    detuning: float  # rad/s, residual mismatch of the matched (or nearest) condition
    G: float         # rad/s, pump-enhanced interaction rate


def gamma_nml(tau: float, omega_n: float, omega_m: float, omega_l: float) -> float:
    """Three-mode coupling coefficient tau * w_n * sqrt(w_m w_l) (rad/s).

    Symmetric under exchange of m and l.
    """
    for omega in (omega_n, omega_m, omega_l):
        require_positive(omega, "mode frequency")
    return tau * omega_n * math.sqrt(omega_m * omega_l)


def classify_interaction(
    pump: PumpSpec,
    omega_1: float,
    omega_2: float,
    tau: float,
    tolerance: float = DEFAULT_RESONANCE_TOLERANCE,
) -> InteractionClassification:
    """Classify the pump-selected two-mode interaction.

    Hopping when |2*Omega - |w1 - w2|| <= tolerance (the frequency
    difference selects photon exchange regardless of which mode is
    higher), parametric when |2*Omega - (w1 + w2)| <= tolerance,
    otherwise off-resonant (reported with the smaller residual so RWA
    validity can be judged).  Raises :class:`AmbiguousResonance` if both
    conditions match, which requires min(w1, w2) <= tolerance, and
    :class:`ValueError` if G is not finite (G = 0 is valid).
    """
    if tolerance < 0.0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    d_hop = abs(2.0 * pump.Omega - abs(omega_1 - omega_2))
    d_par = abs(2.0 * pump.Omega - (omega_1 + omega_2))
    strength = 3.0 * gamma_nml(tau, pump.Omega, omega_1, omega_2) * pump.photon_number
    if not math.isfinite(strength):
        raise ValueError(f"interaction rate G out of range: {strength} rad/s is not finite")
    hop = d_hop <= tolerance
    par = d_par <= tolerance
    if hop and par:
        raise AmbiguousResonance(
            f"both resonance conditions satisfied within tolerance {tolerance:g} rad/s"
        )
    if hop:
        kind, detuning = InteractionKind.HOPPING, d_hop
    elif par:
        kind, detuning = InteractionKind.PARAMETRIC, d_par
    else:
        kind, detuning = InteractionKind.OFF_RESONANT, min(d_hop, d_par)
    return InteractionClassification(kind=kind, detuning=detuning, G=strength)


@dataclass(frozen=True)
class SinglePhotonRate:
    """Published single-photon rate formula next to its SI re-derivation.

    The published coefficient 0.143 reproduces gamma_012, while the same
    text defines g0 = 3*gamma_012; the ratio field makes the factor-3
    inconsistency visible and parameter-independent.  Tests pin the
    published values; both numbers are first-class outputs.
    """

    g0_printed_rad_s: float
    g0_symbolic_rad_s: float   # 3 * gamma_012 from SI constants
    ratio_symbolic_to_printed: float


def single_photon_rate_engineering(
    T: float, f: float, f1: float, f2: float, S: float
) -> SinglePhotonRate:
    """Single-photon interaction rate for pump f and modes f1, f2 (GHz),
    capacitor area S (um^2), temperature T (K).

    ``g0_printed_rad_s`` evaluates 2 pi x 0.143 f sqrt(f1 f2)/(S T^3) GHz
    exactly as published; ``g0_symbolic_rad_s`` is 3*gamma_012 with tau
    re-derived in SI.
    """
    for name, value in (("T", T), ("f", f), ("f1", f1), ("f2", f2), ("S", S)):
        require_positive(value, name)
    tau = nonlinear_time_constant(um2_to_m2(S), T)  # first: it checks the range of S and T
    printed = (
        2.0 * math.pi * SINGLE_PHOTON_RATE_COEFF_PRINTED
        * f * math.sqrt(f1 * f2) / (S * T**3) * 1e9
    )
    symbolic = 3.0 * gamma_nml(tau, ghz_to_rad_per_s(f), ghz_to_rad_per_s(f1), ghz_to_rad_per_s(f2))
    return SinglePhotonRate(
        g0_printed_rad_s=printed,
        g0_symbolic_rad_s=symbolic,
        ratio_symbolic_to_printed=symbolic / printed,
    )


def quantum_rc_time(S: float, E_F: float) -> float:
    """Quantum charging time S |E_F| / (hbar v_F^2) of the capacitor (s).

    Equals S * C_Q(T -> 0) / sigma_Q with the quantum conductance
    sigma_Q = 2 e^2 / pi hbar; vanishes at zero bias.
    """
    require_positive(S, "area (m^2)", NonPositiveArea)
    return S * abs(E_F) / (HBAR * V_F**2)


def quantum_conductance() -> float:
    """Zero-bias quantum conductance sigma_Q = 2 e^2 / pi hbar (S)."""
    return 2.0 * E**2 / (math.pi * HBAR)
