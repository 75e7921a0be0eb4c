"""Model of the graphene/dielectric/graphene capacitor.

The dielectric-thickness design rules, the geometric and linear
capacitances, the coefficients of the low-voltage charge and energy
series, the finite-temperature quantum capacitance with its
zero-temperature limit and its series combination with the geometric
capacitance, and the (T, V) sweep.  The quantum capacitance takes scalars
or whole numpy arrays through one path, so a point gives the same bits
alone or inside a sweep.  Importing this module loads no numpy.  All
quantities are SI and per unit area unless noted; engineering units
(fF/um^2) appear only at the emission boundary.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .constants import (
    E, EPSILON_0, HBAR, K_B, PI_HBAR_VF_SQ, V_F, f_per_m2_to_ff_per_um2, require_positive,
    require_positive_temperature,
)

SWEEP_CSV_HEADER = ("T_K", "V_volt", "CQ_fF_per_um2", "Cseries_fF_per_um2")

# dielectric thickness window: thick enough to block tunneling, thin enough
# that the quantum capacitance stays an order of magnitude below C_G
THICKNESS_MIN = 3e-9
THICKNESS_MAX = 70e-9
DOMINANCE_MAX_RATIO = 0.1


class DesignReport(NamedTuple):
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


# --- numerically stable ln[2(1 + cosh x)] ----------------------------------
#
# 2(1 + cosh x) = (2 cosh(x/2))^2 = e^|x| (1 + e^-|x|)^2, so the logarithm
# is |x| + 2 log1p(e^-|x|): exact for all x and immune to cosh overflow
# (the naive form dies near |x| ~ 710).

def ln_2_plus_2cosh(x):
    """Stable elementwise ln[2(1 + cosh x)]; one numpy path for scalars and
    arrays, so a point gives the same bits alone or inside a sweep."""
    import numpy as np

    ax = np.abs(np.asarray(x, dtype=np.float64))
    return ax + 2.0 * np.log1p(np.exp(-ax))


def _cq_areal(T: float, V):
    """Quantum capacitance per unit area; V may be a scalar or array."""
    import numpy as np

    scale = _cq_prefactor(T)  # first: it rejects a T whose 2 k_B T underflows
    x = E * np.asarray(V, dtype=np.float64) / (2.0 * K_B * T)
    return scale * ln_2_plus_2cosh(x)


def quantum_capacitance_T0(voltage: float):
    """Zero-temperature limit e^3 |V| / pi (hbar v_F)^2 of the quantum
    capacitance per unit area.  Piecewise linear, vanishing at V = 0."""
    import numpy as np

    V = np.asarray(voltage, dtype=np.float64)
    out = E**3 * np.abs(V) / PI_HBAR_VF_SQ
    return float(out) if out.ndim == 0 else out


def series_capacitance(c_g, c_q):
    """Series combination C_G*C_Q/(C_G + C_Q) per unit area (F/m^2);
    either capacitance may be a scalar or an array."""
    return c_g * c_q / (c_g + c_q)


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


# --- sweeps -------------------------------------------------------------------

class CapacitanceSweep(NamedTuple):
    """Grid of (T, V) -> (C_Q, C_series) rows, SI units internally."""

    T_K: np.ndarray          # (n,)
    V_volt: np.ndarray       # (n,)
    CQ_areal: np.ndarray     # F/m^2
    Cseries_areal: np.ndarray  # F/m^2

    def columns(self) -> np.ndarray:
        """The emitted (n, 4) table in K, V, fF/um^2, fF/um^2."""
        import numpy as np

        return np.column_stack((self.T_K, self.V_volt, f_per_m2_to_ff_per_um2(self.CQ_areal),
                                f_per_m2_to_ff_per_um2(self.Cseries_areal)))


def _cq_column(T: float, V: np.ndarray) -> np.ndarray:
    """C_Q over the V grid at one sweep temperature, T = 0 included."""
    if T == 0.0:
        return quantum_capacitance_T0(V)
    require_positive_temperature(T)
    return _cq_areal(T, V)


def capacitance_sweep(c_g: float, T_list, V_grid) -> CapacitanceSweep:
    """Evaluate C_Q and its series combination with C_G = ``c_g`` (F/m^2)
    over a (T, V) grid.

    T = 0 entries are allowed and dispatch to the explicit
    zero-temperature branch; all other temperatures must be positive.
    Rows run T-major: the whole V grid at the first temperature, then at
    the next.  :class:`ValueError` names the first cell whose emitted C_Q or
    series capacitance is not finite: V is not, or C_Q or C_G*C_Q overflows.
    """
    import numpy as np

    V = np.asarray(V_grid, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        cq = np.concatenate([_cq_column(T, V) for T in T_list])
        cseries = series_capacitance(c_g, cq)
        bad = ~(np.isfinite(f_per_m2_to_ff_per_um2(cq))
                & np.isfinite(f_per_m2_to_ff_per_um2(cseries)))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(
            f"sweep out of range at T = {T_list[i // V.size]:g} K, V = {V[i % V.size]:.6g} V: "
            "the voltage, C_Q or the series capacitance in fF/um^2 is not finite"
        )
    return CapacitanceSweep(
        T_K=np.repeat(np.asarray(T_list, dtype=np.float64) + 0.0, V.size),  # -0 K reads 0
        V_volt=np.tile(V, len(T_list)),
        CQ_areal=cq,
        Cseries_areal=cseries,
    )
