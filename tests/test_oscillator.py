import json
import math
import sys
import warnings

import numpy as np
import pytest

from oracles import quartic_levels, quartic_series, quartic_series_exact
from qcapsim.capacitor import linear_capacitance_C0
from qcapsim.cli import main
from qcapsim.constants import H, HBAR, K_B, V_F
from qcapsim.errors import CutoffNotConverged, PerturbativeRegimeExceeded
from qcapsim.mode import (
    CONVERGENCE_CUTOFF_STEP,
    FOCK_CUTOFF_MAX,
    QUARTIC_SERIES,
    OscillatorSpec,
    _parity_block_eigenvalues,
    _parity_blocks,
    anharmonicity_percent_printed,
    classify_interaction,
    fock_diagonalize,
    hamiltonian_coefficients,
    nonlinear_time_constant,
    photon_amplitude,
    photon_number_limit,
    photon_number_limit_derived,
    resonant_inductance,
    series_spectrum,
    suggested_fock_cutoff,
    warn_if_strongly_anharmonic,
)

AREA = 1e-10          # 100 um^2
OMEGA = 2.0 * math.pi * 4e9

# frozen from direct SI evaluation; test_photon_amplitude_consistent_with_time_constant
# checks the closed form against the chi-based one
TAU_100UM2_1K = 2.2733510880631623e-13


def _spec(tau_omega: float, cutoff: int = 80) -> OscillatorSpec:
    return OscillatorSpec(omega=OMEGA, tau=tau_omega / OMEGA, fock_cutoff=cutoff)


def _ladder_oracle(cutoff: int) -> np.ndarray:
    """(a + a^dag) in the number basis truncated at ``cutoff``: <n+1|a^dag|n> = sqrt(n+1)."""
    x = np.zeros((cutoff, cutoff))
    idx = np.arange(cutoff - 1)
    x[idx, idx + 1] = x[idx + 1, idx] = np.sqrt(idx + 1.0)
    return x


def hamiltonian_matrix(spec: OscillatorSpec) -> np.ndarray:
    """Truncated Hamiltonian matrix (J): the parity blocks that
    :func:`fock_diagonalize` solves, interleaved, with exact 0.0 between
    states of opposite parity."""
    n = spec.fock_cutoff
    h = np.zeros((n, n))
    for p, block in enumerate(_parity_blocks(spec, n)):
        h[p::2, p::2] = block
    return h


def _product_oracle(spec: OscillatorSpec) -> np.ndarray:
    """Brute-force truncated Hamiltonian: the fourth matrix power of the ladder sum."""
    n = spec.fock_cutoff
    linear, quartic = hamiltonian_coefficients(spec)
    x4 = np.linalg.matrix_power(_ladder_oracle(n), 4)
    return np.diag(linear * (np.arange(n) + 0.5)) - quartic * x4


# --- photon amplitude ---------------------------------------------------------

def test_photon_amplitude_direct_value():
    chi, psi = photon_amplitude(AREA, 1.0, OMEGA)
    expected_chi = math.sqrt(K_B * 1.0 * math.log(16.0) / (2.0 * math.pi * AREA * HBAR * V_F**2))
    assert chi == pytest.approx(expected_chi, rel=1e-14, abs=0.0)
    assert chi == pytest.approx(24052.316207695065, rel=1e-12, abs=0.0)
    assert psi == pytest.approx(3813088055.864373, rel=1e-12, abs=0.0)


def test_photon_amplitude_scalings():
    base = photon_amplitude(AREA, 1.0, OMEGA)
    assert photon_amplitude(AREA, 1.0, 4 * OMEGA)[1] == pytest.approx(
        2.0 * base[1], rel=1e-14, abs=0.0
    )
    assert photon_amplitude(4 * AREA, 1.0, OMEGA)[0] == pytest.approx(
        base[0] / 2.0, rel=1e-14, abs=0.0
    )


def test_photon_amplitude_validation():
    for bad in (0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="area_S"):
            photon_amplitude(bad, 1.0, OMEGA)
        with pytest.raises(ValueError, match="temperature"):
            photon_amplitude(AREA, bad, OMEGA)
        with pytest.raises(ValueError, match="omega"):
            photon_amplitude(AREA, 1.0, bad)


def test_photon_amplitude_consistent_with_time_constant():
    # tau = pi^3 S hbar^5 v_F^6 chi^4 / 2 ln^4(16) (k_B T)^5 with chi from
    # photon_amplitude: a second transcription of the closed form, over
    # temperatures from 50 mK to 300 K and areas from 0.01 um^2 to 1 mm^2
    ln16 = math.log(16.0)
    for T in (0.05, 0.25, 1.0, 4.0, 20.0, 300.0):
        kT = K_B * T
        for S in (1e-14, 1e-12, 1e-10, 1e-8, 1e-6):
            chi, _ = photon_amplitude(S, T, OMEGA)
            chi_form = math.pi**3 * S * HBAR**5 * V_F**6 * chi**4 / (2.0 * ln16**4 * kT**5)
            assert nonlinear_time_constant(S, T) == pytest.approx(chi_form, rel=1e-12, abs=0.0)


# --- nonlinear time constant ----------------------------------------------------

def test_nonlinear_tau_frozen_value():
    tau = nonlinear_time_constant(AREA, 1.0)
    assert tau == pytest.approx(TAU_100UM2_1K, rel=1e-12, abs=0.0)
    assert tau == pytest.approx(2.275e-13, rel=1e-3, abs=0.0)


def test_nonlinear_tau_scalings():
    tau = nonlinear_time_constant(AREA, 1.0)
    assert tau / nonlinear_time_constant(AREA, 2.0) == pytest.approx(8.0, rel=1e-12, abs=0.0)
    assert tau / nonlinear_time_constant(10 * AREA, 1.0) == pytest.approx(10.0, rel=1e-12, abs=0.0)


def test_nonlinear_tau_input_validation():
    with pytest.raises(ValueError, match="temperature"):
        nonlinear_time_constant(AREA, 0.0)
    with pytest.raises(ValueError, match="area_S"):
        nonlinear_time_constant(0.0, 1.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="temperature"):
            nonlinear_time_constant(AREA, bad)
        with pytest.raises(ValueError, match="area_S"):
            nonlinear_time_constant(bad, 1.0)


# --- resonant inductance ----------------------------------------------------------

def test_resonant_inductance_round_trip():
    L = resonant_inductance(AREA, 1.0, OMEGA)
    assert L == pytest.approx(2.8106181934452614e-07, rel=1e-12, abs=0.0)
    c0_total = AREA * linear_capacitance_C0(1.0)
    assert 1.0 / math.sqrt(L * c0_total) == pytest.approx(OMEGA, rel=1e-12, abs=0.0)


def test_resonant_inductance_quadruples_when_frequency_halves():
    assert resonant_inductance(AREA, 1.0, OMEGA / 2) == pytest.approx(
        4.0 * resonant_inductance(AREA, 1.0, OMEGA), rel=1e-14, abs=0.0
    )


# --- Hamiltonian coefficients -------------------------------------------------------

def test_hamiltonian_coefficients():
    harmonic = OscillatorSpec(omega=OMEGA, tau=0.0, fock_cutoff=40)
    linear, quartic = hamiltonian_coefficients(harmonic)
    assert linear == HBAR * OMEGA and quartic == 0.0

    tau = nonlinear_time_constant(AREA, 1.0)
    spec = OscillatorSpec(omega=OMEGA, tau=tau, fock_cutoff=40)
    linear, quartic = hamiltonian_coefficients(spec)
    assert quartic / linear == pytest.approx(tau * OMEGA / 4.0, rel=1e-14, abs=0.0)
    assert quartic / linear == pytest.approx(1.428e-3, rel=1e-3, abs=0.0)


def test_hamiltonian_matrix_exactly_symmetric():
    spec = _spec(1e-3, cutoff=90)
    h = hamiltonian_matrix(spec)
    assert np.array_equal(h, h.T)


def test_quartic_diagonal_from_operator_algebra():
    # brute-force ladder algebra: <n|(a+a^dag)^4|n> = 6 n^2 + 6 n + 3 below
    # the truncation corner, and the Hamiltonian's diagonal carries exactly it
    spec = _spec(1.0, cutoff=30)
    linear, quartic = hamiltonian_coefficients(spec)
    x4 = np.linalg.matrix_power(_ladder_oracle(30), 4)
    n = np.arange(20)
    assert np.allclose(np.diagonal(x4)[:20], 6 * n**2 + 6 * n + 3, rtol=1e-13, atol=0)
    quartic_diag = (linear * (np.arange(30) + 0.5) - np.diagonal(hamiltonian_matrix(spec))) / quartic
    assert np.max(np.abs(quartic_diag - np.diagonal(x4))) <= 1e-13 * np.max(np.abs(x4))


@pytest.mark.parametrize("cutoff", [10, 11, 12, 21, 100, 120])
@pytest.mark.parametrize("tau_omega", [1e-3, 1.0])
def test_hamiltonian_matrix_matches_product_oracle(cutoff, tau_omega):
    # the closed-form bands are the truncated (PxP)^4, including the last two
    # rows, the truncation corner where it differs from P x^4 P
    spec = _spec(tau_omega, cutoff=cutoff)
    got = hamiltonian_matrix(spec)
    ref = _product_oracle(spec)
    assert got.shape == ref.shape == (cutoff, cutoff)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


# --- Fock diagonalization oracles ----------------------------------------------------

@pytest.mark.parametrize("cutoff", [10, 21, 40, 99, 100])
def test_hamiltonian_off_parity_entries_exactly_zero(cutoff):
    # (a + a^dag)^4 only couples number states of equal parity, which is what
    # lets fock_diagonalize solve the even and odd blocks separately
    h = hamiltonian_matrix(_spec(1e-3, cutoff=cutoff))
    off_parity = np.add.outer(np.arange(cutoff), np.arange(cutoff)) % 2 == 1
    assert np.all(h[off_parity] == 0.0)


@pytest.mark.parametrize("cutoff", [21, 40, 99, 100])
@pytest.mark.parametrize("tau_omega", [0.0, 1e-6, 1e-4, None])
def test_parity_blocked_spectrum_matches_eigvalsh(cutoff, tau_omega):
    # None: tau*omega*(cutoff + 20)^2 = 10, near the edge of the convergent window
    tau_omega = 10.0 / (cutoff + 20) ** 2 if tau_omega is None else tau_omega
    spec = _spec(tau_omega, cutoff=cutoff)
    got = fock_diagonalize(spec).eigenvalues
    ref = np.linalg.eigvalsh(_product_oracle(spec))
    assert got.shape == (cutoff,)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_harmonic_limit_exact_spectrum():
    spec = OscillatorSpec(omega=OMEGA, tau=0.0, fock_cutoff=40)
    result = fock_diagonalize(spec)
    expected = HBAR * OMEGA * (np.arange(40) + 0.5)
    assert np.max(np.abs(result.eigenvalues - expected)) <= 1e-12 * HBAR * OMEGA
    spacings = np.diff(result.eigenvalues)
    assert np.var(spacings) < 1e-12 * (HBAR * OMEGA) ** 2
    assert result.anharmonicity_A == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("tau_omega", [1e-5, 1e-4])
def test_first_order_perturbation_energies(tau_omega):
    # E_n = hbar w (n + 1/2) - (hbar tau w^2/4)(6 n^2 + 6 n + 3) to first order
    result = fock_diagonalize(_spec(tau_omega))
    for n in range(3):
        first_order = HBAR * OMEGA * (n + 0.5) - (HBAR * tau_omega * OMEGA / 4.0) * (
            6 * n**2 + 6 * n + 3
        )
        assert result.eigenvalues[n] == pytest.approx(first_order, rel=1e-6, abs=0.0)


@pytest.mark.parametrize("tau_omega", [1e-5, 1e-4, 1e-3])
def test_second_order_perturbation_energies(tau_omega):
    # through second order: E_n += -2 lambda^2 (34 n^3 + 51 n^2 + 59 n + 21),
    # lambda = tau*omega/4; the residual is third order, ~= 520 tau_omega^3
    result = fock_diagonalize(_spec(tau_omega))
    lam = tau_omega / 4.0
    for n in range(3):
        pt = (
            (n + 0.5)
            - lam * (6 * n**2 + 6 * n + 3)
            - 2.0 * lam**2 * (34 * n**3 + 51 * n**2 + 59 * n + 21)
        )
        got = result.eigenvalues[n] / (HBAR * OMEGA)
        assert abs(got - pt) / abs(pt) < 600.0 * tau_omega**3 + 1e-12


@pytest.mark.parametrize("tau_omega", [1e-5, 1e-4, 1e-3])
def test_anharmonicity_second_order_envelope(tau_omega):
    # A = 3 tau_omega (1 + 15.75 tau_omega) + O(tau_omega^3), third-order
    # coefficient ~= 336
    result = fock_diagonalize(_spec(tau_omega))
    second_order = 3.0 * tau_omega * (1.0 + 15.75 * tau_omega)
    assert abs(result.anharmonicity_A / second_order - 1.0) < 500.0 * tau_omega**2 + 1e-10


def test_quartic_series_coefficients():
    c = quartic_series()
    # the ground state's series (Bender and Wu, Phys. Rev. 184, 1231 (1969))
    for k, exact in enumerate((0.5, 3.0 / 4.0, -21.0 / 8.0, 333.0 / 16.0, -30885.0 / 128.0)):
        assert c[0, k] == pytest.approx(exact, rel=1e-15, abs=0.0)
    # every level through second order, as the perturbation tests above spell it
    for n in range(3):
        assert c[n, 1] == pytest.approx((6 * n**2 + 6 * n + 3) / 4.0, rel=1e-15, abs=0.0)
        assert c[n, 2] == pytest.approx(
            -(34 * n**3 + 51 * n**2 + 59 * n + 21) / 8.0, rel=1e-15, abs=0.0)


# the Fock oracle's relative error in A: its rounding, amplified by the
# 1/tau_omega of the level-spacing difference
@pytest.mark.parametrize("tau_omega, a_rel", [(1e-5, 1e-9), (1e-4, 2e-11), (1e-3, 3e-12)])
def test_fock_levels_match_the_all_orders_series(tau_omega, a_rel):
    result = fock_diagonalize(_spec(tau_omega))
    levels, anharmonicity = quartic_levels(tau_omega)
    for n in range(3):
        assert result.eigenvalues[n] / (HBAR * OMEGA) == pytest.approx(
            levels[n], rel=1e-12, abs=0.0)
    assert result.anharmonicity_A == pytest.approx(anharmonicity, rel=a_rel, abs=0.0)


# --- the all-orders series: the default spectrum of `qubit` ---------------------------

def test_series_table_is_the_oracle_recursion():
    # every entry within 1e-14 of the float recursion; the low orders are the exact rationals
    # rounded once, Bender and Wu's 1/2, 3/4, -21/8, 333/16, -30885/128 among them
    oracle = quartic_series(80)
    assert [len(row) for row in QUARTIC_SERIES] == [81, 81, 81]
    for n, row in enumerate(QUARTIC_SERIES):
        assert list(row) == pytest.approx(oracle[n].tolist(), rel=1e-14, abs=0.0)
    exact = quartic_series_exact(20)
    assert [list(row[:21]) for row in QUARTIC_SERIES] == [[float(c) for c in e] for e in exact]
    assert QUARTIC_SERIES[0][:5] == (0.5, 0.75, -2.625, 20.8125, -30885 / 128)


@pytest.mark.parametrize("tau_omega", np.geomspace(1e-7, 5e-3, 9).tolist())
def test_series_spectrum_matches_the_oracle_series(tau_omega):
    spectrum, bound = series_spectrum(_spec(tau_omega))
    levels, anharmonicity = quartic_levels(tau_omega)
    got = [e / (HBAR * OMEGA) for e in spectrum.eigenvalues]
    assert got == pytest.approx(levels, rel=1e-12, abs=0.0)
    assert spectrum.omega_10 / OMEGA == pytest.approx(levels[1] - levels[0], rel=1e-12, abs=0.0)
    assert spectrum.anharmonicity_A == pytest.approx(anharmonicity, rel=1e-12, abs=0.0)
    assert 0.0 < bound <= 1e-15


def test_series_spectrum_answers_wherever_the_default_fock_oracle_did():
    """Every tau*omega up to 0.008 at which the Fock oracle converges at its
    suggested cutoff, the default of `qubit` before the series: the series
    answers too, and its levels agree to 1e-9 relative.  A meets the
    benchmark's tolerance (1e-9 relative plus 1e-9 absolute, in percent)
    wherever the Fock oracle's own drift in A, between the cutoff and
    cutoff + 20, is within it, and that tolerance plus the drift elsewhere:
    the drift reaches 1.4e-8 relative near 0.0079, where the series is the
    converged value."""
    grid = np.geomspace(1e-9, 2e-5, 40).tolist() + [2e-5 * k for k in range(2, 401)]
    answered, within_tolerance = [], 0
    for tau_omega in grid:
        spec = _spec(tau_omega, cutoff=suggested_fock_cutoff(tau_omega))
        try:
            fock = fock_diagonalize(spec)
        except CutoffNotConverged:
            continue
        series, bound = series_spectrum(spec)
        assert bound <= 1e-9
        assert series.eigenvalues == pytest.approx(fock.eigenvalues[:3].tolist(), rel=1e-9, abs=0.0)
        check = _parity_block_eigenvalues(spec, spec.fock_cutoff + CONVERGENCE_CUTOFF_STEP)
        drift = abs(abs(1.0 - (check[2] - check[1]) / (check[1] - check[0])) - fock.anharmonicity_A)
        percent = 100.0 * fock.anharmonicity_A
        tolerance = 1e-9 * percent + 1e-9
        assert abs(100.0 * series.anharmonicity_A - percent) <= tolerance + 100.0 * drift
        if 100.0 * drift <= tolerance:
            assert abs(100.0 * series.anharmonicity_A - percent) <= tolerance
            within_tolerance += 1
        answered.append(tau_omega)
    assert len(answered) > 400 and max(answered) == pytest.approx(0.00792, rel=1e-9, abs=0.0)
    assert within_tolerance > 0.9 * len(answered)


def test_series_spectrum_raises_past_its_reach():
    # tau*omega = 0.0095 is just past the last point (0.00944) that meets 1e-9
    series_spectrum(_spec(0.0094))
    with pytest.raises(CutoffNotConverged, match=r"bounds A only to 1\.154e-09 relative, above 1e-09"):
        series_spectrum(_spec(0.0095))
    with pytest.warns(PerturbativeRegimeExceeded, match="the perturbation series may not converge"):
        with pytest.raises(CutoffNotConverged):
            series_spectrum(_spec(0.1))


def test_series_spectrum_is_exact_in_the_harmonic_limit():
    spectrum, bound = series_spectrum(_spec(0.0))
    assert [e / (HBAR * OMEGA) for e in spectrum.eigenvalues] == [0.5, 1.5, 2.5]
    assert (spectrum.omega_10, spectrum.omega_21, spectrum.anharmonicity_A, bound) == (
        OMEGA, OMEGA, 0.0, 0.0)


def test_anharmonicity_matches_first_order_when_tiny():
    rng = np.random.default_rng(40)
    for tau_omega in 10 ** rng.uniform(-6, math.log10(5e-5), size=6):
        result = fock_diagonalize(_spec(float(tau_omega)))
        assert abs(result.anharmonicity_A - 3 * tau_omega) / (3 * tau_omega) < 1e-3


def test_cutoff_stability_across_perturbative_window():
    # inside the plateau the +20 re-diagonalization check passes for random
    # nonlinearity strengths and truncations
    rng = np.random.default_rng(42)
    for _ in range(8):
        tau_omega = float(10 ** rng.uniform(-6, -3))
        cutoff = int(rng.integers(60, 91))
        result = fock_diagonalize(_spec(tau_omega, cutoff=cutoff))
        assert result.eigenvalues[0] > 0.0


def test_cutoff_convergence_enforced():
    # tau*omega = 2e-2: edge states of the softening quartic collapse below
    # the physical ground state for any cutoff pair >= 80, so the +20
    # stability check must fail loudly
    with pytest.raises(CutoffNotConverged):
        fock_diagonalize(_spec(2e-2, cutoff=80))


def test_strong_anharmonicity_warns():
    with pytest.warns(PerturbativeRegimeExceeded, match="truncated-basis spectrum may not converge"):
        with pytest.raises(CutoffNotConverged):
            fock_diagonalize(_spec(0.1, cutoff=10))


def test_strong_anharmonicity_threshold_is_one_twelfth():
    # one home for the tau*omega > 1/12 test: fock_diagonalize and classify_interaction
    with pytest.warns(PerturbativeRegimeExceeded) as record:
        classify_interaction(OMEGA, 1.0, OMEGA / 2.0, OMEGA * 2.5, 0.0834 / OMEGA, 0.0)
        with pytest.raises(CutoffNotConverged):
            fock_diagonalize(_spec(0.0834, cutoff=10))
    assert [str(w.message) for w in record] == [
        "tau*omega = 0.0834 > 1/12 at the pump: perturbative regime exceeded; "
        "the rates are first-order",
        "tau*omega = 0.0834 > 1/12: perturbative regime exceeded; "
        "truncated-basis spectrum may not converge",
    ]
    # each attributed to the line that called the formula
    assert [w.filename for w in record] == [__file__, __file__]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warn_if_strongly_anharmonic(1.0 / 12.0, "silent at the threshold")
        warn_if_strongly_anharmonic(0.0, "silent in the harmonic limit")


def test_suggested_fock_cutoff():
    assert suggested_fock_cutoff(0.0) == 80
    assert suggested_fock_cutoff(1e-4) == 80
    assert suggested_fock_cutoff(5.7e-3) in range(20, 31)
    assert suggested_fock_cutoff(1.0) == 10
    # min(80, floor(x) - 20) is 80 exactly when x >= 100, so the rule clamps
    # before 12/tau_omega, inf for a subnormal tau_omega, reaches int()
    for tau_omega in (5e-324, 1e-315, 1e-310, 2.3e-308, 1e-300, 12.0 / 100.0**2):
        assert suggested_fock_cutoff(tau_omega) == 80
    for tau_omega in np.geomspace(1e-300, 1.0, 2001).tolist():
        floor_rule = math.floor(math.sqrt(12.0 / tau_omega)) - 20
        assert suggested_fock_cutoff(tau_omega) == max(10, min(80, floor_rule))
    # the suggestion converges for the published example parameters
    tau = nonlinear_time_constant(AREA, 1.0)
    cutoff = suggested_fock_cutoff(tau * OMEGA)
    result = fock_diagonalize(
        OscillatorSpec(omega=OMEGA, tau=tau, fock_cutoff=cutoff)
    )
    assert result.eigenvalues[0] == pytest.approx(0.49562463 * HBAR * OMEGA, rel=1e-6, abs=0.0)


def test_spectrum_json_shape(capsys):
    # both paths write the same keys, pinned in order here: the series (golden
    # qubit_T1.json) its three levels, the Fock oracle (not pinned) every level
    for flags, n_levels in (([], 3), (["--cutoff", "30"], 30)):
        assert main(["qubit", "--format", "json", *flags]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert list(doc) == [
            "T_K", "f_GHz", "S_um2", "fock_cutoff", "tau_s", "tau_omega", "chi_per_m2_sqrt_s",
            "psi_per_m2", "tank_inductance_H", "anharmonicity_percent_printed",
            "anharmonicity_percent_symbolic", "n_max_printed", "n_max_derived",
            "anharmonicity_percent_fock", "spectrum",
        ]
        spectrum = doc["spectrum"]
        assert list(spectrum) == ["eigenvalues_J", "omega10_rad_s", "omega21_rad_s"]
        levels = spectrum["eigenvalues_J"]
        assert len(levels) == n_levels
        assert spectrum["omega10_rad_s"] == pytest.approx(
            (levels[1] - levels[0]) / HBAR, rel=1e-9, abs=0.0)
        assert spectrum["omega21_rad_s"] == pytest.approx(
            (levels[2] - levels[1]) / HBAR, rel=1e-9, abs=0.0)
        assert doc["anharmonicity_percent_fock"] == pytest.approx(
            100.0 * abs(1.0 - spectrum["omega21_rad_s"] / spectrum["omega10_rad_s"]),
            rel=1e-9, abs=0.0)


def test_spec_carries_only_what_the_fock_oracle_reads():
    assert OscillatorSpec._fields == ("omega", "tau", "fock_cutoff")
    # no default cutoff: suggested_fock_cutoff is the one cutoff rule
    assert OscillatorSpec._field_defaults == {}


def test_spec_validation():
    with pytest.raises(ValueError):
        OscillatorSpec(omega=OMEGA, tau=0.0, fock_cutoff=9)
    OscillatorSpec(omega=OMEGA, tau=0.0, fock_cutoff=FOCK_CUTOFF_MAX)
    with pytest.raises(ValueError, match=str(FOCK_CUTOFF_MAX)):
        OscillatorSpec(omega=OMEGA, tau=0.0, fock_cutoff=FOCK_CUTOFF_MAX + 1)
    with pytest.raises(ValueError):
        OscillatorSpec(omega=0.0, tau=0.0, fock_cutoff=40)
    with pytest.raises(ValueError):
        OscillatorSpec(omega=OMEGA, tau=-1e-15, fock_cutoff=40)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            OscillatorSpec(omega=bad, tau=0.0, fock_cutoff=40)
        with pytest.raises(ValueError):
            OscillatorSpec(omega=OMEGA, tau=bad, fock_cutoff=40)


# --- engineering estimates ------------------------------------------------------------

def test_anharmonicity_engineering_published_values():
    half_kelvin = anharmonicity_percent_printed(0.5, 4.0, 100.0)
    assert half_kelvin == pytest.approx(13.71, rel=0.01, abs=0.0)
    assert half_kelvin == pytest.approx(13.712, rel=1e-6, abs=0.0)

    # the published T = 1 K value 1.1714 is inconsistent with the published
    # formula, which gives 1.714; the formula value is authoritative here
    one_kelvin = anharmonicity_percent_printed(1.0, 4.0, 100.0)
    assert one_kelvin == pytest.approx(1.714, rel=1e-6, abs=0.0)
    assert abs(one_kelvin - 1.1714) / 1.1714 > 0.4


def test_anharmonicity_engineering_area_scaling():
    a = anharmonicity_percent_printed(1.0, 4.0, 100.0)
    b = anharmonicity_percent_printed(1.0, 4.0, 200.0)
    assert a == pytest.approx(2.0 * b, rel=1e-14, abs=0.0)


def test_anharmonicity_printed_coefficient_consistent_with_symbolic():
    # validates the 42.85 coefficient against 3 tau omega across random draws
    rng = np.random.default_rng(41)
    for _ in range(50):
        T = float(rng.uniform(0.1, 10.0))
        f = float(rng.uniform(0.5, 20.0))
        S = float(rng.uniform(1.0, 1000.0))
        symbolic = 300.0 * nonlinear_time_constant(S * 1e-12, T) * 2e9 * math.pi * f
        assert abs(anharmonicity_percent_printed(T, f, S) / symbolic - 1.0) < 5e-3


def test_photon_number_limit_published_values():
    assert photon_number_limit(1.0, 1.0) == pytest.approx(41.7, rel=1e-12, abs=0.0)
    assert photon_number_limit(1.0, 4.0) == pytest.approx(10.425, rel=1e-12, abs=0.0)
    assert photon_number_limit_derived(1.0, 4.0) == pytest.approx(10.42, rel=1e-3, abs=0.0)
    assert photon_number_limit(2.0, 1.0) == pytest.approx(
        2.0 * photon_number_limit(1.0, 1.0), rel=1e-6, abs=0.0
    )


def test_engineering_estimates_reject_non_finite_and_nonpositive_inputs():
    for bad in (0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="temperature"):
            anharmonicity_percent_printed(bad, 4.0, 100.0)
        with pytest.raises(ValueError):
            anharmonicity_percent_printed(1.0, bad, 100.0)
        with pytest.raises(ValueError):
            anharmonicity_percent_printed(1.0, 4.0, bad)
        for limit in (photon_number_limit, photon_number_limit_derived):
            with pytest.raises(ValueError, match="temperature"):
                limit(bad, 1.0)
            with pytest.raises(ValueError):
                limit(1.0, bad)
        with pytest.raises(ValueError):
            resonant_inductance(AREA, 1.0, bad)
        with pytest.raises(ValueError, match="area_S"):
            resonant_inductance(bad, 1.0, OMEGA)


def test_nonlinear_time_constant_range_is_checked_not_trapped():
    # across the whole float range tau is either a normal float or a
    # ValueError: no OverflowError or ZeroDivisionError escapes
    grid = [10.0**k for k in range(-307, 308, 7)]
    returned = 0
    for T in grid:
        for S in grid:
            try:
                tau = nonlinear_time_constant(S, T)
            except ValueError:
                continue
            assert sys.float_info.min <= tau <= sys.float_info.max
            returned += 1
    assert returned > 100


@pytest.mark.parametrize("S,T", [(AREA, 1e300), (AREA, 1e-300), (1e288, 1.0), (1e-288, 1.0)])
def test_nonlinear_time_constant_rejects_out_of_range_scales(S, T):
    with pytest.raises(ValueError, match="out of range"):
        nonlinear_time_constant(S, T)


def test_scalar_formulas_reject_results_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        photon_number_limit_derived(1.0, 1e-300)
    with pytest.raises(ValueError, match="out of range"):
        resonant_inductance(AREA, 1.0, 1e-290)
    with pytest.raises(ValueError, match="out of range"):
        resonant_inductance(AREA, 1.0, 1e160)
    # the printed formula guards its own S T^3: T**3 overflows, or S T^3 under- or overflows
    for T, S in ((1e300, 100.0), (1e-200, 1e-200), (1e100, 1e100)):
        with pytest.raises(ValueError, match="S T\\^3 of the printed formula out of range"):
            anharmonicity_percent_printed(T, 4.0, S)
    with pytest.raises(ValueError, match="out of range"):
        photon_amplitude(1e-300, 1.0, OMEGA)


def test_photon_number_limit_derived_matches_printed_coefficient():
    # 2 k_B/(h * 1 GHz) = 41.67, the published 41.7 rounds it to 3 digits
    assert photon_number_limit_derived(1.0, 1.0) == pytest.approx(
        2.0 * K_B / (H * 1e9), rel=1e-14, abs=0.0
    )
    assert photon_number_limit_derived(1.0, 1.0) == pytest.approx(41.7, rel=1e-3, abs=0.0)
