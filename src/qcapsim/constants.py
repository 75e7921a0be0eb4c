"""Physical constants and unit conversions.

The constants are plain module floats, CODATA 2018, plus the graphene
Fermi velocity convention v_F = c/300; nothing sets them.  Every other
module computes in SI internally; the engineering units used for I/O (GHz,
fF/um^2, um^2, nm, phases in units of pi) are converted at the boundary
with the helpers below.
"""

from __future__ import annotations

import math
import sys

SPEED_OF_LIGHT = 299792458.0  # m/s, exact
E = 1.602176634e-19           # elementary charge, C (exact)
K_B = 1.380649e-23            # Boltzmann constant, J/K (exact)
HBAR = 1.054571817e-34        # reduced Planck constant, J*s
H = 6.62607015e-34            # Planck constant, J*s (exact)
EPSILON_0 = 8.8541878128e-12  # vacuum permittivity, F/m
# graphene Fermi velocity, fixed to c/300 exactly: it enters squared in the
# nonlinear time constant and the coupling rates, so every derived number
# rests on this convention
V_F = SPEED_OF_LIGHT / 300.0  # m/s
# pi (hbar v_F)^2 (J^2 m^2): graphene's density of states per unit area is
# 2|E| / PI_HBAR_VF_SQ, and the capacitance, charge and energy formulas carry it
PI_HBAR_VF_SQ = math.pi * (HBAR * V_F) ** 2

TWO_PI = 2.0 * math.pi


# --- engineering-unit conversions (only the directions the package uses) --

def ghz_to_rad_per_s(f_ghz):
    """Frequency in GHz -> angular frequency in rad/s."""
    return TWO_PI * 1e9 * f_ghz


def ghz_to_hz(f_ghz):
    """Frequency in GHz -> Hz."""
    return f_ghz * 1e9


def um2_to_m2(area_um2):
    """Area in um^2 -> m^2."""
    return area_um2 * 1e-12


def nm_to_m(t_nm):
    """Length in nm -> m."""
    return t_nm * 1e-9


def m_to_nm(t_m):
    """Length in m -> nm."""
    return t_m * 1e9


def f_per_m2_to_ff_per_um2(c_areal):
    """Areal capacitance in F/m^2 -> fF/um^2."""
    return c_areal * 1e3


def farad_to_femtofarad(c):
    """Capacitance in F -> fF."""
    return c * 1e15


def pi_units_to_rad(phi_over_pi):
    """Phase in units of pi -> radians."""
    return phi_over_pi * math.pi


# --- input checks ---------------------------------------------------------

def require_positive(value: float, name: str) -> None:
    """Raise :class:`ValueError` unless ``value`` is a finite, normal float > 0.

    The chained comparison is False for NaN; subnormals are rejected because
    the formulas built on them have already lost digits.
    """
    if not (sys.float_info.min <= value <= sys.float_info.max):
        raise ValueError(f"{name} out of range: must be a finite, normal float > 0, got {value}")


def require_positive_temperature(T: float) -> None:
    """Raise :class:`ValueError` naming the temperature unless T is a
    finite, normal float > 0 K."""
    require_positive(T, "temperature (K)")
