"""Graphene quantum capacitance on voltage grids.

Implements the finite-temperature differential capacitance per unit area,
its zero-temperature limit, the series combination with the parallel-plate
(geometric) capacitance, and the (T, V) sweep.  These take scalars or whole
numpy arrays through one path, so a point gives the same bits alone or
inside a sweep.  The scalar formulas of the model (design, design rules,
C_G, C_0, the charge and energy series, the closed-form charge) are in the
numpy-free :mod:`qcapsim.capacitor` and are re-exported here.  All
quantities are SI and per unit area unless noted; engineering units
(fF/um^2) appear only at the emission boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# re-exported so that every name this module has defined stays importable
from .capacitor import (  # noqa: F401
    DOMINANCE_MAX_RATIO,
    THICKNESS_MAX,
    THICKNESS_MIN,
    CapacitorDesign,
    DesignReport,
    OperatingPoint,
    _cq_prefactor,
    charge_energy_T0,
    charge_numeric,
    charge_series,
    charge_series_cubic_coefficient,
    design_check,
    energy_series,
    geometric_capacitance,
    linear_capacitance_C0,
)
from .constants import CONSTANTS, f_per_m2_to_ff_per_um2, require_positive_temperature

SWEEP_CSV_HEADER = ("T_K", "V_volt", "CQ_fF_per_um2", "Cseries_fF_per_um2")


# --- numerically stable ln[2(1 + cosh x)] ----------------------------------
#
# 2(1 + cosh x) = (2 cosh(x/2))^2 = e^|x| (1 + e^-|x|)^2, so the logarithm
# is |x| + 2 log1p(e^-|x|): exact for all x and immune to cosh overflow
# (the naive form dies near |x| ~ 710).

def ln_2_plus_2cosh(x):
    """Stable elementwise ln[2(1 + cosh x)]; one numpy path for scalars and
    arrays, so a point gives the same bits alone or inside a sweep."""
    ax = np.abs(np.asarray(x, dtype=np.float64))
    return ax + 2.0 * np.log1p(np.exp(-ax))


# --- capacitances -----------------------------------------------------------

def _cq_areal(T: float, V):
    """Quantum capacitance per unit area; V may be a scalar or array."""
    x = CONSTANTS.e * np.asarray(V, dtype=np.float64) / (2.0 * CONSTANTS.k_B * T)
    return _cq_prefactor(T) * ln_2_plus_2cosh(x)


def quantum_capacitance(design: CapacitorDesign, op: OperatingPoint) -> float:
    """Differential quantum capacitance per unit area (F/m^2) at finite T.

    Even in the voltage; strictly positive; grows linearly with T at zero
    bias and linearly with |V| at large bias.
    """
    require_positive_temperature(op.temperature_T)
    return float(_cq_areal(op.temperature_T, op.voltage_V))


def quantum_capacitance_T0(design: CapacitorDesign, voltage: float):
    """Zero-temperature limit e^3 |V| / pi (hbar v_F)^2 of the quantum
    capacitance per unit area.  Piecewise linear, vanishing at V = 0."""
    V = np.asarray(voltage, dtype=np.float64)
    out = CONSTANTS.e**3 * np.abs(V) / (math.pi * (CONSTANTS.hbar * CONSTANTS.v_F_default) ** 2)
    return float(out) if out.ndim == 0 else out


def series_capacitance(design: CapacitorDesign, op: OperatingPoint) -> float:
    """Series combination C_G*C_Q/(C_G + C_Q) per unit area (F/m^2)."""
    require_positive_temperature(op.temperature_T)
    cg = geometric_capacitance(design)
    cq = quantum_capacitance(design, op)
    return cg * cq / (cg + cq)


# --- sweeps -------------------------------------------------------------------

@dataclass(frozen=True)
class CapacitanceSweep:
    """Grid of (T, V) -> (C_Q, C_series) rows, SI units internally."""

    T_K: np.ndarray          # (n,)
    V_volt: np.ndarray       # (n,)
    CQ_areal: np.ndarray     # F/m^2
    Cseries_areal: np.ndarray  # F/m^2

    def columns(self) -> np.ndarray:
        """The emitted (n, 4) table in K, V, fF/um^2, fF/um^2."""
        return np.column_stack((
            self.T_K,
            self.V_volt,
            f_per_m2_to_ff_per_um2(self.CQ_areal),
            f_per_m2_to_ff_per_um2(self.Cseries_areal),
        ))


def capacitance_sweep(design: CapacitorDesign, T_list, V_grid) -> CapacitanceSweep:
    """Evaluate C_Q and the series capacitance over a (T, V) grid.

    T = 0 entries are allowed and dispatch to the explicit
    zero-temperature branch; all other temperatures must be positive.
    """
    V = np.asarray(V_grid, dtype=np.float64)
    cg = geometric_capacitance(design)
    t_col, v_col, cq_col, cs_col = [], [], [], []
    for T in T_list:
        if T == 0.0:
            cq = np.asarray(quantum_capacitance_T0(design, V))
        else:
            require_positive_temperature(T)
            cq = np.asarray(_cq_areal(T, V))
        cs = cg * cq / (cg + cq)
        t_col.append(np.full_like(V, float(T)))
        v_col.append(V)
        cq_col.append(cq)
        cs_col.append(cs)
    return CapacitanceSweep(
        T_K=np.concatenate(t_col),
        V_volt=np.concatenate(v_col),
        CQ_areal=np.concatenate(cq_col),
        Cseries_areal=np.concatenate(cs_col),
    )
