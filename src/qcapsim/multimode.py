"""Multi-mode interactions mediated by the shared nonlinear capacitor.

With several LC modes biased on one quantum capacitor, the quartic term
mixes them with coefficients gamma_nml = tau * w_n * sqrt(w_m w_l).  A
strong coherent pump on mode 0 at Omega selects, under the rotating-wave
approximation, either a hopping (beam-splitter) interaction when
2*Omega = w1 - w2 or a parametric (pair-creation) interaction when
2*Omega = w1 + w2, with pump-enhanced strength G = 3*gamma_012*n at pump
photon number n = |a|^2.  This module classifies that selection and
evaluates the published single-photon rate formula.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .constants import require_positive
from .mode import _printed_denominator

# printed engineering coefficient: g0 = 2 pi x 0.143 f sqrt(f1 f2)/(S T^3) GHz
SINGLE_PHOTON_RATE_COEFF_PRINTED = 0.143


@dataclass(frozen=True)
class PumpSpec:
    """Strong coherent drive on the pump mode.

    ``photon_number`` is n = |a|^2, the mean pump photon number that G
    scales with.
    """

    Omega: float           # rad/s
    photon_number: float   # dimensionless

    def __post_init__(self):
        require_positive(self.Omega, "Omega")
        if not (self.photon_number >= 0.0 and math.isfinite(self.photon_number)):
            raise ValueError(f"photon_number must be finite and >= 0, got {self.photon_number}")


class InteractionKind(enum.Enum):
    HOPPING = "hopping"
    PARAMETRIC = "parametric"
    OFF_RESONANT = "off_resonant"


@dataclass(frozen=True)
class InteractionClassification:
    """Which pump-selected interaction survives the RWA, and how strong."""

    kind: InteractionKind
    detuning: float  # rad/s, residual mismatch of the matched (or nearest) condition
    G: float         # rad/s, pump-enhanced interaction rate g0 * n
    g0: float        # rad/s, single-photon rate 3 * gamma_012


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
    tolerance: float,
) -> InteractionClassification:
    """Classify the pump-selected two-mode interaction.

    Hopping when |2*Omega - |w1 - w2|| <= tolerance (the frequency
    difference selects photon exchange regardless of which mode is
    higher), parametric when |2*Omega - (w1 + w2)| <= tolerance,
    otherwise off-resonant (reported with the smaller residual so RWA
    validity can be judged).  Raises :class:`ValueError` if both conditions
    match, which requires min(w1, w2) <= tolerance, or if G or the detuning
    is not finite (G = 0 is valid).
    """
    if tolerance < 0.0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    d_hop = abs(2.0 * pump.Omega - abs(omega_1 - omega_2))
    d_par = abs(2.0 * pump.Omega - (omega_1 + omega_2))
    g0 = 3.0 * gamma_nml(tau, pump.Omega, omega_1, omega_2)
    strength = g0 * pump.photon_number
    if not math.isfinite(strength):
        raise ValueError(f"interaction rate G out of range: {strength} rad/s is not finite")
    hop = d_hop <= tolerance
    par = d_par <= tolerance
    if hop and par:
        raise ValueError(
            f"both resonance conditions satisfied within tolerance {tolerance:g} rad/s"
        )
    if hop:
        kind, detuning = InteractionKind.HOPPING, d_hop
    elif par:
        kind, detuning = InteractionKind.PARAMETRIC, d_par
    else:
        kind, detuning = InteractionKind.OFF_RESONANT, min(d_hop, d_par)
    if not math.isfinite(detuning):
        raise ValueError(f"resonance detuning out of range: {detuning} rad/s is not finite")
    return InteractionClassification(kind=kind, detuning=detuning, G=strength, g0=g0)


def single_photon_rate_printed(T: float, f: float, f1: float, f2: float, S: float) -> float:
    """Single-photon rate 2 pi x 0.143 f sqrt(f1 f2)/(S T^3) GHz as published,
    in rad/s (T in K; pump f and modes f1, f2 in GHz; S in um^2).

    0.143 reproduces gamma_012, while the same text defines g0 = 3*gamma_012
    (:attr:`InteractionClassification.g0`), three times this rate.  Raises
    :class:`ValueError` unless the rate is a finite, normal float > 0.
    """
    for name, value in (("T", T), ("f", f), ("f1", f1), ("f2", f2), ("S", S)):
        require_positive(value, name)
    den = _printed_denominator(S, T)
    printed = 2.0 * math.pi * SINGLE_PHOTON_RATE_COEFF_PRINTED * f * math.sqrt(f1 * f2) / den * 1e9
    require_positive(printed, "printed single-photon rate (rad/s)")
    return printed
