import json
import math
import warnings

import numpy as np
import pytest

from oracles import fermi_energy, quantum_conductance, quantum_rc_time
from qcapsim.capacitor import quantum_capacitance_T0
from qcapsim.cli import main
from qcapsim.constants import E, HBAR, V_F, ghz_to_rad_per_s
from qcapsim.errors import PerturbativeRegimeExceeded
from qcapsim.multimode import classify_interaction, gamma_nml, single_photon_rate_printed
from qcapsim.mode import nonlinear_time_constant, photon_number_limit_derived

TWO_PI = 2.0 * math.pi


def _ghz(f):
    return TWO_PI * f * 1e9


# --- coupling coefficient -------------------------------------------------------

def test_gamma_degenerate_case():
    omega = _ghz(3.0)
    assert gamma_nml(1e-13, omega, omega, omega) == pytest.approx(
        1e-13 * omega**2, rel=1e-14, abs=0.0
    )


def test_gamma_symmetric_in_last_two_modes():
    assert gamma_nml(2e-13, _ghz(4.0), _ghz(2.0), _ghz(10.0)) == gamma_nml(
        2e-13, _ghz(4.0), _ghz(10.0), _ghz(2.0)
    )


def test_gamma_published_example():
    # direct evaluation with the quoted tau = 2.275e-13 s
    tau = 2.275e-13
    direct = tau * _ghz(4.0) * math.sqrt(_ghz(2.0) * _ghz(10.0))
    got = gamma_nml(tau, _ghz(4.0), _ghz(2.0), _ghz(10.0))
    assert got == pytest.approx(direct, rel=1e-14, abs=0.0)
    assert got == pytest.approx(1.606e8, rel=1e-3, abs=0.0)


def test_gamma_rejects_nonpositive_frequencies():
    with pytest.raises(ValueError):
        gamma_nml(1e-13, 0.0, _ghz(1.0), _ghz(1.0))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            gamma_nml(1.0, bad, 1.0, 1.0)
        with pytest.raises(ValueError):
            gamma_nml(1.0, 1.0, 1.0, bad)


# --- interaction classification ----------------------------------------------------

TAU = nonlinear_time_constant(1e-10, 1.0)
TOL = TWO_PI * 1e6  # the 1 MHz default of coupling --tolerance-mhz


def test_classify_hopping_published_example():
    result = classify_interaction(_ghz(4.0), 1.0, _ghz(2.0), _ghz(10.0), TAU, TOL)
    assert result.kind == "hopping"
    assert result.detuning == pytest.approx(0.0, abs=1e-3)


def test_classify_parametric():
    result = classify_interaction(_ghz(6.0), 1.0, _ghz(2.0), _ghz(10.0), TAU, TOL)
    assert result.kind == "parametric"


def test_classify_off_resonant():
    result = classify_interaction(_ghz(5.0), 1.0, _ghz(2.0), _ghz(10.0), TAU, TOL)
    assert result.kind == "off_resonant"
    assert result.detuning == pytest.approx(_ghz(2.0), rel=1e-12, abs=0.0)


def test_classify_ambiguous_raises():
    tol = TWO_PI * 1e6
    omega_2 = tol / 4.0
    with pytest.raises(ValueError, match="both resonance conditions"):
        classify_interaction(_ghz(1.0), 1.0, 2.0 * _ghz(1.0), omega_2, TAU, tolerance=tol)


def test_classification_strength_quadratic_in_pump():
    # G = 3 gamma_012 |a|^2 is quadratic in the pump amplitude |a|: linear in n = |a|^2
    def strength(n):
        return classify_interaction(_ghz(4.0), n, _ghz(2.0), _ghz(10.0), TAU, TOL).G

    assert strength(4.0) == 4.0 * strength(1.0)
    assert strength(1.0) == pytest.approx(
        3.0 * gamma_nml(TAU, _ghz(4.0), _ghz(2.0), _ghz(10.0)), rel=1e-14, abs=0.0
    )


def test_classification_mutually_exclusive_for_separated_modes():
    # hopping and parametric can only coincide when a mode frequency drops
    # below the tolerance itself
    rng = np.random.default_rng(52)
    tol = TWO_PI * 1e6
    for _ in range(100):
        omega_1 = float(rng.uniform(10 * tol, _ghz(12.0)))
        omega_2 = float(rng.uniform(10 * tol, _ghz(12.0)))
        pump = float(rng.uniform(_ghz(0.5), _ghz(12.0)))
        result = classify_interaction(pump, 1.0, omega_1, omega_2, TAU, tolerance=tol)
        assert result.kind in ("hopping", "parametric", "off_resonant")


def test_classification_rejects_non_finite_strength():
    with pytest.raises(ValueError, match="out of range"):
        classify_interaction(_ghz(4.0), 1e300, _ghz(2.0), _ghz(10.0), TAU, TOL)
    silent_result = classify_interaction(_ghz(4.0), 0.0, _ghz(2.0), _ghz(10.0), TAU, TOL)
    assert silent_result.G == 0.0


def _coupling_record(capsys):
    # no golden pins the coupling record's keys: `coupling` writes them itself
    assert main(["coupling", "--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)


def test_classification_json_shape(capsys):
    doc = _coupling_record(capsys)
    assert list(doc) == [
        "T_K", "f_GHz", "f1_GHz", "f2_GHz", "S_um2", "pump_photons", "kind", "detuning_rad_s",
        "G_rad_s", "g0_printed_rad_s", "g0_symbolic_rad_s", "ratio_symbolic_to_printed",
    ]
    expected = classify_interaction(
        ghz_to_rad_per_s(4.0), 1.0, ghz_to_rad_per_s(2.0), ghz_to_rad_per_s(10.0), TAU, TOL,
    )
    assert doc["kind"] == expected.kind == "hopping"
    assert doc["detuning_rad_s"] == pytest.approx(expected.detuning, rel=1e-11, abs=0.0)
    assert doc["G_rad_s"] == pytest.approx(expected.G, rel=1e-11, abs=0.0)


# --- published single-photon rates ---------------------------------------------------

def test_single_photon_rate_published_values():
    rate_1k = single_photon_rate_printed(1.0, 4.0, 2.0, 10.0, 100.0)
    assert rate_1k / (TWO_PI * 1e6) == pytest.approx(25.55, rel=5e-3, abs=0.0)
    rate_4k = single_photon_rate_printed(4.0, 4.0, 2.0, 10.0, 100.0)
    assert rate_4k / (TWO_PI * 1e3) == pytest.approx(399.2, rel=5e-3, abs=0.0)
    rate_quarter = single_photon_rate_printed(0.25, 4.0, 2.0, 10.0, 100.0)
    assert rate_quarter / (TWO_PI * 1e9) == pytest.approx(1.635, rel=5e-3, abs=0.0)


def test_single_photon_rate_exact_scalings():
    base = single_photon_rate_printed(1.0, 4.0, 2.0, 10.0, 100.0)
    hot = single_photon_rate_printed(4.0, 4.0, 2.0, 10.0, 100.0)
    cold = single_photon_rate_printed(0.25, 4.0, 2.0, 10.0, 100.0)
    big = single_photon_rate_printed(1.0, 4.0, 2.0, 10.0, 1000.0)
    assert base / hot == pytest.approx(64.0, rel=1e-12, abs=0.0)
    assert cold / base == pytest.approx(64.0, rel=1e-12, abs=0.0)
    assert base / big == pytest.approx(10.0, rel=1e-12, abs=0.0)


def test_symbolic_rate_is_thrice_the_printed_formula():
    # the defining relation g0 = 3 gamma_012 sits a parameter-independent
    # factor ~3 above the published coefficient formula
    rng = np.random.default_rng(50)
    ratios = []
    for _ in range(50):
        T = float(rng.uniform(0.2, 6.0))
        f = float(rng.uniform(0.5, 12.0))
        f1 = float(rng.uniform(0.5, 12.0))
        f2 = float(rng.uniform(0.5, 12.0))
        S = float(rng.uniform(1.0, 500.0))
        tau = nonlinear_time_constant(S * 1e-12, T)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            g0 = classify_interaction(
                ghz_to_rad_per_s(f), 1.0, ghz_to_rad_per_s(f1), ghz_to_rad_per_s(f2), tau, TOL,
            ).g0
        # the classification warns for exactly the draws past tau*Omega = 1/12
        past = tau * ghz_to_rad_per_s(f) > 1.0 / 12.0
        assert [w.category for w in caught] == [PerturbativeRegimeExceeded] * past
        ratios.append(g0 / single_photon_rate_printed(T, f, f1, f2, S))
    ratios = np.asarray(ratios)
    assert np.all(np.abs(ratios / 3.0 - 1.0) < 5e-3)
    assert np.max(ratios) - np.min(ratios) < 1e-12 * 3.0


def test_single_photon_rate_json_shape(capsys):
    doc = _coupling_record(capsys)
    printed = single_photon_rate_printed(1.0, 4.0, 2.0, 10.0, 100.0)
    g0 = classify_interaction(
        ghz_to_rad_per_s(4.0), 1.0, ghz_to_rad_per_s(2.0), ghz_to_rad_per_s(10.0), TAU, TOL,
    ).g0
    assert doc["g0_printed_rad_s"] == pytest.approx(printed, rel=1e-11, abs=0.0)
    assert doc["g0_symbolic_rad_s"] == pytest.approx(g0, rel=1e-11, abs=0.0)
    assert doc["ratio_symbolic_to_printed"] == pytest.approx(g0 / printed, rel=1e-11, abs=0.0)


# The abstract: ultrastrong coupling "is easily reached with small number of
# pump photons at temperatures around 1K and capacitor areas of the order of
# 1um^2".  At T = 1 K, S = 1 um^2, a 4 GHz pump and modes at 2 and 10 GHz,
# the pump photon number |a|^2 that makes G = 0.1 w1 (the usual ultrastrong
# threshold), for G = 3 gamma |a|^2 (the defining relation) and G = gamma |a|^2
# (the printed 0.143 coefficient), each with the published tau and with tau/12
# (the quartic term that the charge model implies).
@pytest.mark.parametrize(
    "rate_factor,tau_divisor,photons",
    [
        (3.0, 1.0, 0.0260907985556),
        (3.0, 12.0, 0.313089582667),
        (1.0, 1.0, 0.0782723956667),
        (1.0, 12.0, 0.939268748001),
    ],
)
def test_abstract_ultrastrong_claim(rate_factor, tau_divisor, photons):
    tau = nonlinear_time_constant(1e-12, 1.0) / tau_divisor
    omega_1 = _ghz(2.0)
    gamma = gamma_nml(tau, _ghz(4.0), omega_1, _ghz(10.0))
    needed = 0.1 * omega_1 / (rate_factor * gamma)
    assert needed == pytest.approx(photons, rel=1e-9, abs=0.0)
    # inside the photon range of the quartic model, n_max = 2 k_B T / h f = 10.4
    assert needed < photon_number_limit_derived(1.0, 4.0)


# --- quantum RC time -------------------------------------------------------------------

def test_quantum_rc_zero_bias():
    assert quantum_rc_time(1e-10, 0.0) == 0.0


def test_quantum_rc_linear_scalings():
    ef = fermi_energy(1e-3)
    assert quantum_rc_time(1e-10, 2 * ef) == pytest.approx(
        2.0 * quantum_rc_time(1e-10, ef), rel=1e-14, abs=0.0
    )
    assert quantum_rc_time(2e-10, ef) == pytest.approx(
        2.0 * quantum_rc_time(1e-10, ef), rel=1e-14, abs=0.0
    )
    assert quantum_rc_time(1e-10, -ef) == quantum_rc_time(1e-10, ef)


def test_quantum_rc_published_example():
    got = quantum_rc_time(1e-10, fermi_energy(1e-3))
    direct = 1e-10 * 0.5 * E * 1e-3 / (HBAR * V_F**2)
    assert got == pytest.approx(direct, rel=1e-14, abs=0.0)
    assert got == pytest.approx(7.6e-11, rel=2e-3, abs=0.0)


def test_quantum_rc_consistency_with_capacitance_and_conductance():
    # S * C_Q(T->0)(V) / sigma_Q must equal S |E_F| / (hbar v_F^2), both
    # sides computed through independent code paths
    rng = np.random.default_rng(51)
    area = 1e-10  # 100 um^2
    sigma_q = quantum_conductance()
    assert sigma_q == pytest.approx(
        2.0 * E**2 / (math.pi * HBAR), rel=1e-14, abs=0.0
    )
    for v in rng.uniform(-0.5, 0.5, size=200):
        via_capacitance = area * quantum_capacitance_T0(v) / sigma_q
        direct = quantum_rc_time(area, fermi_energy(v))
        assert abs(via_capacitance - direct) <= 1e-10 * max(direct, 1e-300)


def test_quantum_rc_rejects_nonpositive_area():
    with pytest.raises(ValueError, match=r"area \(m\^2\)"):
        quantum_rc_time(0.0, 1e-22)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=r"area \(m\^2\)"):
            quantum_rc_time(bad, 1e-22)


@pytest.mark.parametrize("index", range(5))
@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_single_photon_rate_rejects_bad_inputs(index, bad):
    args = [1.0, 4.0, 2.0, 10.0, 100.0]
    args[index] = bad
    with pytest.raises(ValueError):
        single_photon_rate_printed(*args)


# --- domain types ----------------------------------------------------------------------

def test_single_photon_rate_rejects_out_of_range_temperature():
    with pytest.raises(ValueError, match="S T\\^3 of the printed formula out of range"):
        single_photon_rate_printed(1e300, 4.0, 2.0, 10.0, 100.0)


def test_single_photon_rate_rejects_a_rate_out_of_range():
    # every input is normal, but the rate underflows to 0 or overflows
    for args in ((1.0, 1e-250, 2.0, 10.0, 1e150), (1.0, 4.0, 2.3e-308, 2.3e-308, 100.0),
                 (1.0, 1e300, 1e300, 1e300, 1e-300)):
        with pytest.raises(ValueError, match="printed single-photon rate \\(rad/s\\) out of range"):
            single_photon_rate_printed(*args)


def test_classify_interaction_uses_the_photon_number_as_given():
    # the pump reaches classify_interaction as Omega and n; G is exactly
    # 3 gamma n: n is used as given, never through |a| = sqrt(n)
    gamma = gamma_nml(TAU, _ghz(4.0), _ghz(2.0), _ghz(10.0))
    for n in (2.0, 0.1, 1e-3, 7.3e3):
        result = classify_interaction(_ghz(4.0), n, _ghz(2.0), _ghz(10.0), TAU, TOL)
        assert result.g0 == 3.0 * gamma
        assert result.G == 3.0 * gamma * n


def test_classify_interaction_checks_the_pump_before_warning():
    # Omega, then n, and both before the strong-anharmonicity warning: a pump
    # at tau*Omega = 1 that fails a check raises without warning
    def classify(Omega, n):
        return classify_interaction(Omega, n, _ghz(2.0), _ghz(10.0), 1.0 / _ghz(4.0), 0.0)

    omega_message = "Omega out of range: must be a finite, normal float > 0, got "
    for bad in (0.0, -1.0, 5e-324, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"^{omega_message}{bad}$"):
            classify(bad, -1.0)
    for bad in (-1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"^photon_number must be finite and >= 0, got {bad}$"):
            classify(_ghz(4.0), bad)
