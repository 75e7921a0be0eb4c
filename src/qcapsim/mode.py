"""The quantized capacitor-inductor mode, its Fock-basis oracle, and the
couplings that the same quartic term gives several modes on one capacitor.

The sinusoidally driven capacitor, shunted by a resonant inductor, is a
quartic anharmonic oscillator:

    H = hbar*omega (n + 1/2) - (hbar*tau/4) * omega^2 * (a + a^dag)^4,

with tau the nonlinear time constant set by the capacitor area and the
temperature.  This module provides the mode specification, tau, the photon
amplitude, the tank inductance, the Hamiltonian coefficients, the Fock
cutoff rule, the printed anharmonicity and single-photon rate formulas and
the photon-number validity limit of the quartic truncation.  The three lowest
levels come from the all-orders perturbation series of Bender and Wu, Phys.
Rev. 184, 1231 (1969), summed from a constant table of its coefficients with
an error bound.  The Fock-basis oracle builds H in a truncated Fock basis
from the closed-form bands of its quartic term and diagonalizes it exactly,
one parity block at a time, with a cutoff-stability check on the lowest
levels.  Modes on one capacitor mix
with gamma_nml = tau * w_n * sqrt(w_m w_l); under the rotating-wave
approximation a pump at Omega keeps hopping when 2*Omega = |w1 - w2| and
pair creation when 2*Omega = w1 + w2, at G = 3*gamma_012*n for n pump
photons.  Importing this module loads no numpy.
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple

from .capacitor import linear_capacitance_C0
from .constants import (
    H, HBAR, K_B, V_F, ghz_to_hz, require_positive, require_positive_temperature,
)
from .errors import CutoffNotConverged, PerturbativeRegimeExceeded

# printed engineering coefficients (T in K, f in GHz, S in um^2)
ANHARMONICITY_COEFF_PRINTED = 42.85   # percent: A = 42.85 * f / (S T^3)
PHOTON_LIMIT_COEFF_PRINTED = 41.7     # n_max = 41.7 * T / f
SINGLE_PHOTON_RATE_COEFF_PRINTED = 0.143  # g0 = 2 pi x 0.143 f sqrt(f1 f2)/(S T^3) GHz

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


class OscillatorSpec(NamedTuple("OscillatorSpec", [("omega", float), ("tau", float),
                                                   ("fock_cutoff", int)])):
    """One quantized mode of the nonlinear capacitor: what the Fock oracle reads,
    omega (rad/s), the nonlinear time constant tau (s) and the Fock cutoff.
    The cutoff has no default; :func:`suggested_fock_cutoff` is the cutoff rule."""

    __slots__ = ()

    def __new__(cls, omega: float, tau: float, fock_cutoff: int):
        require_positive(omega, "omega")
        if not (tau >= 0.0 and math.isfinite(tau)):  # also rejects NaN
            raise ValueError(f"tau must be finite and >= 0, got {tau}")
        if not 10 <= fock_cutoff <= FOCK_CUTOFF_MAX:
            raise ValueError(f"fock_cutoff must be in [10, {FOCK_CUTOFF_MAX}], got {fock_cutoff}")
        return super().__new__(cls, omega, tau, fock_cutoff)


class SpectrumResult(NamedTuple):
    """Lowest levels of the quartic mode, ascending: every level of the
    truncated Hamiltonian from the Fock oracle, levels 0..2 from the series."""

    eigenvalues: np.ndarray | list[float]   # J, ascending
    omega_10: float           # rad/s
    omega_21: float           # rad/s
    anharmonicity_A: float    # dimensionless fraction |1 - w21/w10|


class InteractionClassification(NamedTuple):
    """Which pump-selected interaction survives the RWA, and how strong."""

    kind: str        # "hopping", "parametric" or "off_resonant"
    detuning: float  # rad/s, residual mismatch of the matched (or nearest) condition
    G: float         # rad/s, pump-enhanced interaction rate g0 * n
    g0: float        # rad/s, single-photon rate 3 * gamma_012


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


# --- all-orders perturbation series -------------------------------------------

# c[n][k], k = 0..80, with E_n / (hbar omega) = sum_k c[n][k] lam^k and lam = -tau*omega: the
# Rayleigh-Schrodinger coefficients of levels 0..2 (Bender and Wu), each the float nearest the
# exact rational; c[0][4] = -30885/128.  tests/oracles.py::quartic_series recomputes them.
QUARTIC_SERIES = tuple(tuple(float(c) for c in row.split()) for row in (
    """0.5 0.75 -2.625 20.8125
-241.2890625 3580.98046875 -63982.8134765625 1329733.7270507812
-31448214.69277954 833541603.2631683 -24478940702.783947 789333316003.1055
-27738776963540.207 1055646658311543.1 -4.3268106835381336e+16 1.9008171976016983e+18
-8.912101753640963e+19 4.4425508899895236e+21 -2.3464643068107018e+23 1.3091502610499908e+25
-7.693999853820453e+26 4.7512407734325795e+28 -3.075792951128501e+30 2.083010094337957e+32
-1.4729049213794384e+34 1.0855229600526034e+36 -8.324836275314336e+37 6.633293711124319e+39
-5.483924313296076e+41 4.697824207836404e+43 -4.165026998061164e+45 3.817348955023337e+47
-3.6129955401647935e+49 3.527780019823064e+51 -3.55023393767496e+53 3.6791747647803483e+55
-3.923016002565476e+57 4.300550974916455e+59 -4.8432727833023997e+61 5.599611620005775e+63
-6.641863775171779e+65 8.077156253185162e+67 -1.0064686392203724e+70 1.2842940883529758e+72
-1.6773049007495362e+74 2.2408587122242347e+76 -3.0609313123365915e+78 4.2728781479635774e+80
-6.092776581200402e+82 8.870459544916484e+84 -1.3180418404121386e+87 1.9979651069704557e+89
-3.088535074853337e+91 4.866984062630107e+93 -7.81543229858812e+95 1.2784405122052614e+98
-2.129593466906451e+100 3.611278340384288e+102 -6.232146118842915e+104 1.0941974374707062e+107
-1.9539281261482588e+109 3.547757534615078e+111 -6.54807077713891e+113 1.2282091444115373e+116
-2.3405605657576883e+118 4.5305253288401786e+120 -8.905415543786074e+122 1.7771976834869753e+125
-3.599939438333929e+127 7.400097112745381e+129 -1.5433698956244888e+132 3.2651509179034393e+134
-7.005673518072955e+136 1.524140904136392e+139 -3.361603147382675e+141 7.5150798264209714e+143
-1.7025836531798963e+146 3.9083635067754947e+148 -9.089059902059954e+150 2.1409587605085118e+153
-5.10731421605469e+155""",
    """1.5 3.75 -20.625 244.6875
-4066.2890625 83220.64453125 -1979439.5947265625 53028921.33544922
-1570096501.5834045 50750567380.24269 -1775709749440.3206 66840559526799.13
-2693973537552312.5 1.1581864137825141e+17 -5.294177771869245e+18 2.565808587188248e+20
-1.315043669805121e+22 7.110707427292933e+23 -4.047371226258963e+25 2.4199526037388136e+27
-1.5168784682622658e+29 9.949230692891719e+30 -6.816388104449345e+32 4.8699183339028e+34
-3.622526106265714e+36 2.8014650345948715e+38 -2.249278681265073e+40 1.8725051280293043e+42
-1.6143439236781196e+44 1.4396797047257704e+46 -1.3266777772186088e+48 1.2619874702172812e+50
-1.2379984818033876e+52 1.251322921245648e+54 -1.3020664424154563e+56 1.3936748701140418e+58
-1.5332849834738707e+60 1.7326184755308035e+62 -2.0095694002494877e+64 2.3907773499959114e+66
-2.9156877660852634e+68 3.642932094836694e+70 -4.660404356663819e+72 6.1013219954324e+74
-8.170108640732581e+76 1.1184605618964891e+79 -1.5645771572894767e+81 2.2354234714741687e+83
-3.260770281062764e+85 4.85396666705769e+87 -7.370811135814884e+89 1.1413217887711698e+92
-1.8014159990751883e+94 2.8971950502806333e+96 -4.7462395126579025e+98 7.917453167375553e+100
-1.3444544918506354e+103 2.323256108628126e+105 -4.084215448572511e+107 7.30222672382578e+109
-1.3274426383207871e+112 2.452859044547785e+114 -4.6058749078262544e+116 8.7866699110988e+118
-1.7025599827005677e+121 3.349986274884965e+123 -6.6918437647087115e+125 1.3567922230489312e+128
-2.7915868996735086e+130 5.827300202609262e+132 -1.23387978339461e+135 2.649602926820457e+137
-5.769084418453923e+139 1.2734124790339138e+142 -2.84896801368282e+144 6.459286957781354e+146
-1.4838309251386004e+149 3.4531333051463706e+151 -8.139532994470846e+153 1.942999943161759e+156
-4.696398308065423e+158""",
    """2.5 9.75 -76.875 1254.9375
-27939.4921875 749994.50390625 -22962672.846679688 778046922.1186523
-28647708383.42697 1132814253088.5322 -47725711090099.78 2130353209516811.0
-1.0035000351443627e+17 4.973547109445757e+18 -2.5877470457792607e+20 1.4109560787307648e+22
-8.05017252033835e+23 4.800046168276917e+25 -2.987670251373376e+27 1.9390650238194453e+29
-1.3108792865594156e+31 9.22118637298109e+32 -6.7423254059241205e+34 5.118919238481303e+36
-4.0312788209692755e+38 3.2897255995941596e+40 -2.7790326463343943e+42 2.427842672433299e+44
-2.1914367289965308e+46 2.0418393948900574e+48 -1.9620777255096894e+50 1.9428799168841646e+52
-1.980885691295007e+54 2.077879614614133e+56 -2.240822660768991e+58 2.482639400340961e+60
-2.823874814135652e+62 3.2955089642388457e+64 -3.943454231543472e+66 4.835618881673165e+68
-6.07299683522471e+70 7.807194756676192e+72 -1.0268406537600522e+75 1.381057036044048e+77
-1.8985145523728893e+79 2.666315558985015e+81 -3.8239645644678334e+83 5.598061687438199e+85
-8.361935951389775e+87 1.2739482752216256e+90 -1.9788337334511285e+92 3.132723550101036e+94
-5.052873737195081e+96 8.30065064787922e+98 -1.3883594994374523e+101 2.3635863565907032e+103
-4.0943877952397647e+105 7.214845419317924e+107 -1.2928924623266344e+110 2.3554604615703587e+112
-4.361659756594148e+114 8.206886303559833e+116 -1.5687266624948381e+119 3.0454622459838937e+121
-6.003357976530969e+123 1.2013549637904302e+126 -2.439992126746303e+128 5.02865820205379e+130
-1.051409048355323e+133 2.2297646216193402e+135 -4.795438166434758e+137 1.0456735277265572e+140
-2.3114329064358272e+142 5.1785097432751944e+144 -1.1756814504699599e+147 2.7043376812247887e+149
-6.301522524641068e+151 1.4872095394119042e+154 -3.554442366042096e+156 8.601529681319086e+158
-2.1072628561612892e+161"""))


# the rows that series_spectrum sums: E_0..E_2, omega_10 and omega_10 - omega_21
_SERIES_ROWS = (*QUARTIC_SERIES, [b - a for a, b, _ in zip(*QUARTIC_SERIES)],
                [2.0 * b - a - c for a, b, c in zip(*QUARTIC_SERIES)])


def _series_sum(row, lam: float) -> tuple[float, float]:
    """``math.fsum`` of row[k] lam^k up to the first pair of consecutive terms
    that is either below 1e-17 of the sum or smaller than the next pair (the
    smallest terms of the asymptotic series), and the larger term of that pair,
    the error bound; the bound is inf when the row ends first."""
    terms, power, total = [row[0], row[1] * lam], lam, 0.0
    for k, c in enumerate(row[2:]):
        power *= lam
        terms.append(c * power)  # terms[k + 2]
        bound = max(abs(terms[k]), abs(terms[k + 1]))
        if bound <= 1e-17 * abs(total) or max(abs(terms[k + 1]), abs(terms[k + 2])) > bound:
            return math.fsum(terms[:k]), bound
        total += terms[k]
    return math.fsum(terms), math.inf


def series_spectrum(spec: OscillatorSpec) -> tuple[SpectrumResult, float]:
    """Levels 0..2 of the quartic mode from :data:`QUARTIC_SERIES`, without a
    matrix, and the largest relative error bound of E_0..E_2, omega_10 and A.

    Each level, omega_10 from c[1] - c[0] and omega_10 - omega_21 from
    2 c[1] - c[0] - c[2] are summed term by term, so that nothing cancels.
    Warns :class:`PerturbativeRegimeExceeded` past tau*omega = 1/12, then
    raises :class:`CutoffNotConverged` when the bound exceeds 1e-9, the Fock
    oracle's tolerance.  Reads only omega and tau of ``spec``.
    """
    tau_omega = spec.tau * spec.omega
    warn_if_strongly_anharmonic(tau_omega, "the perturbation series may not converge")
    sums = [_series_sum(row, -tau_omega) for row in _SERIES_ROWS]
    # relative bounds; a sum of 0 is exact only with a bound of 0
    rel = [bound / abs(value) if value else math.inf if bound else 0.0 for value, bound in sums]
    rel[4] += rel[3]  # A = (omega_10 - omega_21) / omega_10
    worst, name = max(zip(rel, ("E_0", "E_1", "E_2", "omega_10", "A")))
    if not worst <= CONVERGENCE_RTOL:  # also rejects NaN
        raise CutoffNotConverged(
            f"the perturbation series bounds {name} only to {worst:.3e} relative, above "
            f"{CONVERGENCE_RTOL:g}, at tau*omega = {tau_omega:.4g}"
        )
    (e0, _), (e1, _), (e2, _), (w10, _), (gap, _) = sums
    linear = HBAR * spec.omega
    return SpectrumResult(
        eigenvalues=[e0 * linear, e1 * linear, e2 * linear],
        omega_10=w10 * spec.omega,
        omega_21=(w10 - gap) * spec.omega,
        anharmonicity_A=gap / w10,
    ), worst


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


# --- pump-selected multimode couplings ----------------------------------------

def gamma_nml(tau: float, omega_n: float, omega_m: float, omega_l: float) -> float:
    """Three-mode coupling coefficient tau * w_n * sqrt(w_m w_l) (rad/s).

    Symmetric under exchange of m and l.
    """
    for omega in (omega_n, omega_m, omega_l):
        require_positive(omega, "mode frequency")
    return tau * omega_n * math.sqrt(omega_m * omega_l)


def classify_interaction(Omega: float, photon_number: float, omega_1: float, omega_2: float,
                         tau: float, tolerance: float) -> InteractionClassification:
    """Classify the two-mode interaction that a pump at Omega (rad/s)
    carrying n = |a|^2 = ``photon_number`` photons selects.

    Hopping when |2*Omega - |w1 - w2|| <= tolerance (the frequency
    difference selects photon exchange regardless of which mode is
    higher), parametric when |2*Omega - (w1 + w2)| <= tolerance,
    otherwise off-resonant (reported with the smaller residual so RWA
    validity can be judged).  Raises :class:`ValueError` unless Omega is a
    finite, normal float > 0 and n and the tolerance (rad/s) are finite and
    >= 0; then warns :class:`PerturbativeRegimeExceeded` past
    tau*Omega = 1/12.  Raises :class:`ValueError` if both conditions match,
    which requires min(w1, w2) <= tolerance, or if G or the detuning is not
    finite (G = 0 is valid).
    """
    require_positive(Omega, "Omega")
    if not (photon_number >= 0.0 and math.isfinite(photon_number)):
        raise ValueError(f"photon_number must be finite and >= 0, got {photon_number}")
    if not (tolerance >= 0.0 and math.isfinite(tolerance)):  # also rejects NaN
        raise ValueError(f"tolerance must be finite and >= 0 rad/s, got {tolerance}")
    warn_if_strongly_anharmonic(tau * Omega, "the rates are first-order", " at the pump")
    d_hop = abs(2.0 * Omega - abs(omega_1 - omega_2))
    d_par = abs(2.0 * Omega - (omega_1 + omega_2))
    g0 = 3.0 * gamma_nml(tau, Omega, omega_1, omega_2)
    strength = g0 * photon_number
    if not math.isfinite(strength):
        raise ValueError(f"interaction rate G out of range: {strength} rad/s is not finite")
    hop = d_hop <= tolerance
    par = d_par <= tolerance
    if hop and par:
        raise ValueError(
            f"both resonance conditions satisfied within tolerance {tolerance:g} rad/s"
        )
    if hop:
        kind, detuning = "hopping", d_hop
    elif par:
        kind, detuning = "parametric", d_par
    else:
        kind, detuning = "off_resonant", min(d_hop, d_par)
    if not math.isfinite(detuning):
        raise ValueError(f"resonance detuning out of range: {detuning} rad/s is not finite")
    return InteractionClassification(kind=kind, detuning=detuning, G=strength, g0=g0)
