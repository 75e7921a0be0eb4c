"""Scalar model of the graphene/dielectric/graphene capacitor; no numpy.

The dielectric-thickness design rules, the geometric and linear
capacitances, and the coefficients of the low-voltage charge and energy
series.  Everything here is a closed-form scalar in ``math``,
so the CLI's scalar commands run without importing numpy; the quantum
capacitance itself, which a sweep evaluates on whole voltage grids, is in
:mod:`qcapsim.capacitance`.  All quantities are SI and per unit area unless
noted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import (
    E, EPSILON_0, HBAR, K_B, PI_HBAR_VF_SQ, V_F, f_per_m2_to_ff_per_um2, require_positive,
    require_positive_temperature,
)

# dielectric thickness window: thick enough to block tunneling, thin enough
# that the quantum capacitance stays an order of magnitude below C_G
THICKNESS_MIN = 3e-9
THICKNESS_MAX = 70e-9
DOMINANCE_MAX_RATIO = 0.1


@dataclass(frozen=True)
class DesignReport:
    """Outcome of the dielectric-thickness design rules."""

    C_G_areal: float        # F/m^2
    C_0_areal: float        # F/m^2
    dominance_ratio: float  # C_0 / C_G
    thickness_ok: bool
    dominance_ok: bool


# --- capacitances -----------------------------------------------------------

def _cq_prefactor(T: float) -> float:
    """2 e^2 k_B T / (pi (hbar v_F)^2), the finite-T capacitance scale.

    Raises :class:`ValueError` when the scale is not a finite, normal float
    (T so small that it underflows, and every capacitance would read 0).
    """
    scale = 2.0 * E**2 * K_B * T / PI_HBAR_VF_SQ
    require_positive(scale, "capacitance scale 2 e^2 k_B T / pi (hbar v_F)^2")
    return scale


def geometric_capacitance(thickness_t: float, relative_permittivity: float) -> float:
    """Parallel-plate capacitance eps0 * eps_r / t per unit area (F/m^2) of a
    dielectric of thickness t (m).  Raises :class:`ValueError` unless t is a
    finite, normal float > 0 and eps_r is finite and >= 1."""
    require_positive(thickness_t, "dielectric_thickness_t")
    epsr = relative_permittivity
    if not (epsr >= 1.0 and math.isfinite(epsr)):  # also rejects NaN
        raise ValueError(f"relative_permittivity must be finite and >= 1, got {epsr}")
    return EPSILON_0 * epsr / thickness_t


def linear_capacitance_C0(T: float) -> float:
    """Low-voltage linear capacitance 2 e^2 k_B T ln(16) / pi (hbar v_F)^2
    per unit area (F/m^2); linear in T."""
    require_positive_temperature(T)
    return _cq_prefactor(T) * math.log(16.0)


# --- low-voltage series expansions ------------------------------------------

def charge_series_coefficients(T: float) -> tuple[float, float]:
    """c1 (1/(m^2 V)) and c3 (1/(m^2 V^3)) of the low-voltage carrier density
    N = c1 V + c3 V^3.

    N(V) = (4 e k_B T / pi (hbar v_F)^2) [ln(2) V + e^2 V^3 / 96 (k_B T)^2].
    Accurate to better than 0.01% of the integrated capacitance for
    e|V| <= 0.2 k_B T, against the closed-form charge integral that the
    test suite keeps as its oracle.
    """
    require_positive_temperature(T)
    kT = K_B * T
    pref = 4.0 * E * kT / PI_HBAR_VF_SQ
    return pref * math.log(2.0), pref * E**2 / (96.0 * kT**2)


def energy_series_coefficients(T: float) -> tuple[float, float]:
    """a and b of the stored energy per unit area U = a N^2 - b N^4 (J/m^2),
    a quartic expansion in the carrier number density N (1/m^2).

    a = pi (hbar v_F)^2 / 2 ln(16) k_B T, so that d^2U/dN^2 = 2 a at N = 0
    equals 2 e^2 / C_0, and b = pi^3 (hbar v_F)^6 / 8 ln^4(16) (k_B T)^5.

    b is 12 times what the charge model implies.  Take c1 and c3 of
    N = c1 V + c3 V^3 from :func:`charge_series_coefficients`.  Inverting
    the series gives V = N/c1 - c3 N^3/c1^4 + O(N^5), and integrating
    U = int e V dN gives U = e N^2 / 2 c1 - e c3 N^4 / 4 c1^4.  The
    quadratic term is a N^2.  The quartic term is
    pi^3 (hbar v_F)^6 N^4 / 96 ln^4(16) (k_B T)^5, where b has 8 in place
    of 96.  The published coefficients 42.85 and 0.143 follow b through the
    nonlinear time constant, so it is kept as published; the test suite pins
    the factor 12, and ``verify-paper`` flags it as
    ``quartic_coefficient_ratio``.
    """
    require_positive_temperature(T)
    kT = K_B * T
    ln16 = math.log(16.0)
    scale = PI_HBAR_VF_SQ / (2.0 * kT)
    return scale / ln16, scale * (math.pi**2 / 4.0) * (HBAR * V_F / (ln16 * kT)) ** 4


# --- design rules ------------------------------------------------------------

def design_check(thickness_t: float, relative_permittivity: float, T: float) -> DesignReport:
    """Check the dielectric thickness window and quantum-capacitance dominance.

    thickness_ok requires 3 nm < t < 70 nm; dominance_ok requires
    C_0/C_G <= 0.1 so the quantum capacitance controls the series
    combination by an order of magnitude.  Checks t, then eps_r, then T;
    raises :class:`ValueError` when C_G in fF/um^2 or C_0/C_G is not finite.
    """
    cg = geometric_capacitance(thickness_t, relative_permittivity)
    c0 = linear_capacitance_C0(T)
    ratio = c0 / cg
    if not (math.isfinite(f_per_m2_to_ff_per_um2(cg)) and math.isfinite(ratio)):
        raise ValueError(f"design out of range: C_G = {f_per_m2_to_ff_per_um2(cg):.4g} fF/um^2 "
                         f"and C_0/C_G = {ratio:.4g} must be finite")
    thickness_ok = THICKNESS_MIN < thickness_t < THICKNESS_MAX
    dominance_ok = ratio <= DOMINANCE_MAX_RATIO
    return DesignReport(
        C_G_areal=cg,
        C_0_areal=c0,
        dominance_ratio=ratio,
        thickness_ok=thickness_ok,
        dominance_ok=dominance_ok,
    )
