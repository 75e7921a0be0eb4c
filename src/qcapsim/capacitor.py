"""Scalar model of the graphene/dielectric/graphene capacitor; no numpy.

The stack's design and its dielectric-thickness rules, the geometric and
linear capacitances, the zero-temperature charge and energy, the
low-voltage charge/energy series used for field quantization, and the
closed-form charge integral that is their oracle.  Everything here is a
closed-form scalar in ``math``, so the CLI's scalar commands run without
importing numpy; the quantum capacitance itself, which a sweep evaluates
on whole voltage grids, is in :mod:`qcapsim.capacitance`.  All quantities
are SI and per unit area unless noted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import (
    E, EPSILON_0, HBAR, K_B, PI_HBAR_VF_SQ, V_F, f_per_m2_to_ff_per_um2, m_to_nm, require_positive,
    require_positive_temperature,
)
from .errors import NonPositiveThickness

# dielectric thickness window: thick enough to block tunneling, thin enough
# that the quantum capacitance stays an order of magnitude below C_G
THICKNESS_MIN = 3e-9
THICKNESS_MAX = 70e-9
DOMINANCE_MAX_RATIO = 0.1


@dataclass(frozen=True)
class CapacitorDesign:
    """Dielectric of the layered capacitor stack: it sets C_G and the
    thickness window of the design rules, and enters nothing else."""

    dielectric_thickness_t: float      # m
    relative_permittivity: float = 4.0

    def __post_init__(self):
        require_positive(self.dielectric_thickness_t, "dielectric_thickness_t", NonPositiveThickness)
        epsr = self.relative_permittivity
        if not (epsr >= 1.0 and math.isfinite(epsr)):  # also rejects NaN
            raise ValueError(f"relative_permittivity must be finite and >= 1, got {epsr}")


@dataclass(frozen=True)
class DesignReport:
    """Outcome of the dielectric-thickness design rules."""

    C_G_areal: float        # F/m^2
    C_0_areal: float        # F/m^2
    dominance_ratio: float  # C_0 / C_G
    thickness_ok: bool
    dominance_ok: bool
    messages: tuple[str, ...]


# --- capacitances -----------------------------------------------------------

def _cq_prefactor(T: float) -> float:
    """2 e^2 k_B T / (pi (hbar v_F)^2), the finite-T capacitance scale.

    Raises :class:`ValueError` when the scale is not a finite, normal float
    (T so small that it underflows, and every capacitance would read 0).
    """
    scale = 2.0 * E**2 * K_B * T / PI_HBAR_VF_SQ
    require_positive(scale, "capacitance scale 2 e^2 k_B T / pi (hbar v_F)^2")
    return scale


def _require_operating_point(T: float, V: float) -> None:
    """Raise :class:`NonPositiveTemperature` unless T is a finite, normal
    float > 0 K, and :class:`ValueError` unless V is finite (either sign)."""
    require_positive_temperature(T)
    if not math.isfinite(V):
        raise ValueError(f"voltage must be finite, got {V}")


def geometric_capacitance(design: CapacitorDesign) -> float:
    """Parallel-plate capacitance eps0 * eps_r / t per unit area (F/m^2)."""
    return EPSILON_0 * design.relative_permittivity / design.dielectric_thickness_t


def linear_capacitance_C0(T: float) -> float:
    """Low-voltage linear capacitance 2 e^2 k_B T ln(16) / pi (hbar v_F)^2
    per unit area (F/m^2); linear in T."""
    require_positive_temperature(T)
    return _cq_prefactor(T) * math.log(16.0)


# --- zero-temperature charge and energy ------------------------------------

def charge_energy_T0(voltage: float) -> tuple[float, float]:
    """Stored charge and energy per unit area at T = 0.

    Q = e^3 |V| V / 2 pi (hbar v_F)^2 (odd in V) and
    U = e^3 |V|^3 / 6 pi (hbar v_F)^2 (even, >= 0).  Kept separate from the
    finite-T path: both are non-analytic at V = 0 and must not be expanded
    around it.
    """
    q = E**3 * abs(voltage) * voltage / (2.0 * PI_HBAR_VF_SQ)
    u = E**3 * abs(voltage) ** 3 / (6.0 * PI_HBAR_VF_SQ)
    return q, u


# --- low-voltage series expansions ------------------------------------------

def _charge_series_scale(T: float) -> tuple[float, float]:
    """k_B T and the charge-series prefactor 4 e k_B T / pi (hbar v_F)^2."""
    kT = K_B * T
    return kT, 4.0 * E * kT / PI_HBAR_VF_SQ


def charge_series(T: float, V: float) -> float:
    """Cubic-order charge density e*N (C/m^2) from the low-voltage expansion.

    N(V) = (4 e k_B T / pi (hbar v_F)^2) [ln(2) V + e^2 V^3 / 96 (k_B T)^2].
    Accurate to better than 0.01% of the integrated capacitance for
    e|V| <= 0.2 k_B T; see :func:`charge_numeric` for the oracle.
    """
    _require_operating_point(T, V)
    kT, pref = _charge_series_scale(T)
    n_density = pref * (math.log(2.0) * V + E**2 * V**3 / (96.0 * kT**2))
    return E * n_density


def charge_series_cubic_coefficient(T: float) -> float:
    """d^3N/dV^3 / 6 of the expansion behind :func:`charge_series` (1/(m^2 V^3))."""
    require_positive_temperature(T)
    kT, pref = _charge_series_scale(T)
    return pref * E**2 / (96.0 * kT**2)


def energy_series(T: float, n_density: float) -> float:
    """Stored energy per unit area (J/m^2) as a quartic expansion in the
    carrier number density N (1/m^2).

    U(N) = (pi (hbar v_F)^2 / 2 k_B T) * [N^2/ln(16)
           - (pi^2/4) (hbar v_F / ln(16) k_B T)^4 N^4].
    The leading term carries the linear capacitance: d^2U/dN^2 at N = 0
    equals 2 e^2 / C_0.

    The quartic term is 12 times what the charge model implies.  Write the
    series of :func:`charge_series` as N = c1 V + c3 V^3, with
    c1 = 4 e k_B T ln(2) / pi (hbar v_F)^2 and c3 from
    :func:`charge_series_cubic_coefficient`.  Inverting it gives
    V = N/c1 - c3 N^3/c1^4 + O(N^5), and integrating U = int e V dN gives
    U = e N^2 / 2 c1 - e c3 N^4 / 4 c1^4.  The quadratic term is the one
    above.  The quartic term is pi^3 (hbar v_F)^6 N^4 / 96 ln^4(16) (k_B T)^5,
    where the formula above has 8 in place of 96.  The published
    coefficients 42.85 and 0.143 follow this formula through the nonlinear
    time constant, so it is kept as published; the test suite pins the
    factor 12, and ``verify-paper`` flags it as ``quartic_coefficient_ratio``.
    """
    require_positive_temperature(T)
    kT = K_B * T
    hv = HBAR * V_F
    ln16 = math.log(16.0)
    quadratic = n_density**2 / ln16
    quartic = (math.pi**2 / 4.0) * (hv / (ln16 * kT)) ** 4 * n_density**4
    return (PI_HBAR_VF_SQ / (2.0 * kT)) * (quadratic - quartic)


# --- charge: closed-form integral of the capacitance ---------------------------
#
# With x = e v / 2 k_B T and X = e|V| / 2 k_B T,
#     Q(V) = sign(V) * prefactor * (2 k_B T / e) * I(X),
#     I(X) = int_0^X ln(2 + 2 cosh x) dx = X^2/2 + 2 [Li2(-e^-X) + pi^2/12],
# because d/dx Li2(-e^-x) = ln(1 + e^-x) and ln(2 + 2 cosh x) = x + 2 ln(1 + e^-x).
# Li2 on [-1, 0) goes through the Landen map Li2(z) = -Li2(w) - ln^2(1 - z)/2,
# w = z/(z - 1) in (0, 1/2], where the power series in w converges at least
# like 2^-k.  Below _CHARGE_TAYLOR_MAX_X the bracket cancels against the
# linear term, so I takes its Taylor series 2 ln2 X + X^3/12 - X^5/480
# (= X^2/2 + 2 [X ln2 - X^2/4 + X^3/24 - X^5/960]); the first dropped term,
# X^7/10080, is 7e-17 relative at the seam and the closed form loses < 1e-13
# there to the cancellation.

_CHARGE_TAYLOR_MAX_X = 1e-2


def _li2_series(w: float) -> float:
    """sum_k w^k / k^2 for 0 <= w <= 1/2, to double precision."""
    total, power = 0.0, w
    for k in range(1, 64):  # bounded so a NaN cannot loop forever
        term = power / (k * k)
        total += term
        if term <= 1e-17 * total:
            break
        power *= w
    return total


def _charge_integral(X: float) -> float:
    """I(X) = int_0^X ln(2 + 2 cosh x) dx for X >= 0."""
    if X < _CHARGE_TAYLOR_MAX_X:
        X2 = X * X
        return X * (2.0 * math.log(2.0) + X2 * (1.0 / 12.0 - X2 / 480.0))
    q = math.exp(-X)  # -z; underflows to 0 harmlessly for X > ~745
    ln_1mz = math.log1p(q)
    li2_tail = math.pi**2 / 12.0 - _li2_series(q / (1.0 + q)) - 0.5 * ln_1mz**2
    return 0.5 * X * X + 2.0 * li2_tail


def charge_numeric(T: float, V: float) -> float:
    """Charge density Q(V) = integral of C_Q from 0 to V (C/m^2).

    Evaluates the closed form of the integral to double precision at every
    voltage and temperature; odd in V.  The oracle for the series forms.
    """
    _require_operating_point(T, V)
    kT = K_B * T
    X = E * abs(V) / (2.0 * kT)
    q = _cq_prefactor(T) * (2.0 * kT / E) * _charge_integral(X)
    return math.copysign(q, V)


# --- design rules ------------------------------------------------------------

def design_check(design: CapacitorDesign, T: float) -> DesignReport:
    """Check the dielectric thickness window and quantum-capacitance dominance.

    thickness_ok requires 3 nm < t < 70 nm; dominance_ok requires
    C_0/C_G <= 0.1 so the quantum capacitance controls the series
    combination by an order of magnitude.
    """
    require_positive_temperature(T)
    cg = geometric_capacitance(design)
    c0 = linear_capacitance_C0(T)
    ratio = c0 / cg
    thickness_ok = THICKNESS_MIN < design.dielectric_thickness_t < THICKNESS_MAX
    dominance_ok = ratio <= DOMINANCE_MAX_RATIO
    t_nm = m_to_nm(design.dielectric_thickness_t)
    messages = [
        f"C_G = {f_per_m2_to_ff_per_um2(cg):.4g} fF/um^2, "
        f"C_0 = {f_per_m2_to_ff_per_um2(c0):.4g} fF/um^2 at T = {T:g} K "
        f"(ratio {ratio:.4g})",
    ]
    if thickness_ok:
        messages.append(f"thickness {t_nm:.4g} nm inside the 3-70 nm window")
    else:
        messages.append(
            f"thickness {t_nm:.4g} nm outside the 3-70 nm window: "
            "either tunneling leakage or geometric-capacitance takeover"
        )
    if dominance_ok:
        messages.append("quantum capacitance dominates the series combination")
    else:
        messages.append(
            f"C_0/C_G = {ratio:.4g} > {DOMINANCE_MAX_RATIO}: geometric capacitance "
            "no longer negligible"
        )
    return DesignReport(
        C_G_areal=cg,
        C_0_areal=c0,
        dominance_ratio=ratio,
        thickness_ok=thickness_ok,
        dominance_ok=dominance_ok,
        messages=tuple(messages),
    )
