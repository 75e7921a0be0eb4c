"""Test oracles: identities of the model that no ``qcap-sim`` command computes.

The scalar quantum capacitance (a thin wrapper over the sweep kernel
``_cq_areal``, so its tests exercise the kernel), the T = 0 charge and
energy, the closed-form charge integral that checks the low-voltage charge
series (it and the scalar capacitance share one (T, V) check), the Fermi
energy, the quantum RC charging time with the quantum conductance, and the
all-orders perturbation series of the quartic oscillator's lowest levels, in
floats and, to low order, in exact rationals.
The tests import them from here; the package keeps only what a command
reads.
"""

import math
from fractions import Fraction

import numpy as np

from qcapsim.capacitor import _cq_areal, _cq_prefactor
from qcapsim.constants import (
    E, HBAR, K_B, PI_HBAR_VF_SQ, V_F, require_positive, require_positive_temperature,
)


# --- capacitance, charge and energy ------------------------------------------

def _require_operating_point(T: float, V: float) -> None:
    """Raise :class:`ValueError` unless T is a finite, normal float > 0 K
    and V is finite (either sign)."""
    require_positive_temperature(T)
    if not math.isfinite(V):
        raise ValueError(f"voltage must be finite, got {V}")


def quantum_capacitance(T: float, V: float) -> float:
    """Differential quantum capacitance per unit area (F/m^2) at finite T.

    Even in the voltage; strictly positive; grows linearly with T at zero
    bias and linearly with |V| at large bias.
    """
    _require_operating_point(T, V)
    return float(_cq_areal(T, V))


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


# --- energy scales and the quantum RC time --------------------------------------

def fermi_energy(voltage: float) -> float:
    """Fermi energy e*V/2 (J) of either graphene electrode at bias ``voltage``.

    Odd in V; negative bias gives a negative Fermi energy.
    """
    return E * voltage / 2.0


def quantum_rc_time(S: float, E_F: float) -> float:
    """Quantum charging time S |E_F| / (hbar v_F^2) of the capacitor (s).

    Equals S * C_Q(T -> 0) / sigma_Q with the quantum conductance
    sigma_Q = 2 e^2 / pi hbar; vanishes at zero bias.
    """
    require_positive(S, "area (m^2)")
    return S * abs(E_F) / (HBAR * V_F**2)


def quantum_conductance() -> float:
    """Zero-bias quantum conductance sigma_Q = 2 e^2 / pi hbar (S)."""
    return 2.0 * E**2 / (math.pi * HBAR)


# --- the quartic oscillator as a perturbation series ----------------------------
#
# H / hbar omega = p^2/2 + x^2/2 + lam x^4, x = (a + a^dag)/sqrt(2), lam = -tau omega.
# x^4 moves a Fock state by at most 4, so the order-k Rayleigh-Schrodinger state
# of level m lies in n <= m + 4k: the recursion needs no truncation.

def _ladder(v: np.ndarray) -> np.ndarray:
    """a + a^dag applied to a Fock-basis vector whose last entry is 0."""
    root = np.sqrt(np.arange(1.0, len(v)))
    out = np.zeros_like(v)
    out[1:] += root * v[:-1]
    out[:-1] += root * v[1:]
    return out


def quartic_series(orders: int = 60) -> np.ndarray:
    """c[n, k] with E_n / hbar omega = sum_k c[n, k] lam^k, n <= 2, k <= ``orders``."""
    size = 4 * orders + 3
    c = np.zeros((3, orders + 1))
    for m in range(3):
        gap = m - np.arange(size, dtype=float)
        gap[m] = math.inf  # every correction is orthogonal to |m>
        psi = np.zeros((orders + 1, size))
        psi[0, m], c[m, 0] = 1.0, m + 0.5
        for k in range(1, orders + 1):
            v = 0.25 * _ladder(_ladder(_ladder(_ladder(psi[k - 1]))))  # x^4
            c[m, k] = v[m]
            psi[k] = (v - c[m, 1:k + 1] @ psi[k - 1::-1]) / gap
    return c


def _raise_lower(v: dict) -> dict:
    """a + a^dag on {n: coefficient of e_n}, e_n = (a^dag)^n |0>: a^dag e_n = e_{n+1},
    a e_n = n e_{n-1}."""
    out = {}
    for n, c in v.items():
        out[n + 1] = out.get(n + 1, 0) + c
        if n:
            out[n - 1] = out.get(n - 1, 0) + n * c
    return out


def quartic_series_exact(orders: int) -> list[list[Fraction]]:
    """The c[n, k] of :func:`quartic_series` as exact rationals.  In the unnormalized,
    orthogonal basis e_n the recursion has rational entries: E_k is the e_m coefficient
    of x^4 psi_{k-1}, with x^4 = (a + a^dag)^4 / 4.  Order 20 takes about 0.1 s."""
    c = []
    for m in range(3):
        psi, energies = [{m: Fraction(1)}], [Fraction(2 * m + 1, 2)]
        for k in range(1, orders + 1):
            v = {n: x / 4 for n, x in _raise_lower(_raise_lower(_raise_lower(_raise_lower(
                psi[k - 1])))).items()}
            energies.append(v.get(m, Fraction(0)))
            for j in range(1, k + 1):
                for n, x in psi[k - j].items():
                    v[n] = v.get(n, 0) - energies[j] * x
            psi.append({n: x / (m - n) for n, x in v.items() if x and n != m})
        c.append(energies)
    return c


def _series_sum(coefficients: np.ndarray, lam: float) -> float:
    """math.fsum of c_k lam^k, stopped at the first term below 1e-18 of the k = 1 one."""
    terms = coefficients * lam ** np.arange(len(coefficients))
    small = np.flatnonzero(np.abs(terms[2:]) < 1e-18 * abs(terms[1]))
    if not small.size:
        raise ValueError(f"the series does not reach 1e-18 of its first correction at {lam}")
    return math.fsum(terms[:small[0] + 2])


def quartic_levels(tau_omega: float) -> tuple[list[float], float]:
    """E_0..E_2 / hbar omega at lam = -tau_omega, and the anharmonicity
    A = 1 - omega_21/omega_10, with omega_10 - omega_21 summed term by term
    from 2 c[1] - c[0] - c[2] so that nothing cancels."""
    c, lam = quartic_series(), -tau_omega
    levels = [_series_sum(row, lam) for row in c]
    omega_10 = _series_sum(c[1] - c[0], lam)
    return levels, _series_sum(2.0 * c[1] - c[0] - c[2], lam) / omega_10
