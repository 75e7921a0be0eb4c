"""Graphene quantum capacitance on voltage grids.

Implements the finite-temperature differential capacitance per unit area,
its zero-temperature limit, the series combination with the parallel-plate
(geometric) capacitance, and the (T, V) sweep.  These take scalars or whole
numpy arrays through one path, so a point gives the same bits alone or
inside a sweep.  The scalar formulas of the model (design, design rules,
C_G, C_0, the charge and energy series) are in the numpy-free
:mod:`qcapsim.capacitor`.  All quantities are SI and per unit area unless
noted; engineering units (fF/um^2) appear only at the emission boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .capacitor import _cq_prefactor
from .constants import E, K_B, PI_HBAR_VF_SQ, f_per_m2_to_ff_per_um2, require_positive_temperature

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
    scale = _cq_prefactor(T)  # first: it rejects a T whose 2 k_B T underflows
    x = E * np.asarray(V, dtype=np.float64) / (2.0 * K_B * T)
    return scale * ln_2_plus_2cosh(x)


def quantum_capacitance_T0(voltage: float):
    """Zero-temperature limit e^3 |V| / pi (hbar v_F)^2 of the quantum
    capacitance per unit area.  Piecewise linear, vanishing at V = 0."""
    V = np.asarray(voltage, dtype=np.float64)
    out = E**3 * np.abs(V) / PI_HBAR_VF_SQ
    return float(out) if out.ndim == 0 else out


def series_capacitance(c_g, c_q):
    """Series combination C_G*C_Q/(C_G + C_Q) per unit area (F/m^2);
    either capacitance may be a scalar or an array."""
    return c_g * c_q / (c_g + c_q)


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
        T_K=np.repeat(np.asarray(T_list, dtype=np.float64), V.size),
        V_volt=np.tile(V, len(T_list)),
        CQ_areal=cq,
        Cseries_areal=cseries,
    )
