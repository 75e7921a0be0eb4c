"""The names ``qcapsim`` exports, which it imports lazily on first access."""

import importlib

import pytest

import qcapsim

# every exported name, grouped by its one home: the module that defines it
EXPORTS = {
    "capacitor": (
        "CapacitorDesign", "DesignReport", "charge_energy_T0", "charge_numeric",
        "charge_series", "design_check", "energy_series", "geometric_capacitance",
        "linear_capacitance_C0",
    ),
    "capacitance": (
        "CapacitanceSweep", "capacitance_sweep", "quantum_capacitance",
        "quantum_capacitance_T0", "series_capacitance",
    ),
    "circulator": (
        "CirculatorConfig", "Frame", "SweepResult", "config_from_engineering_dict",
        "coupling_matrix", "langevin_matrix", "scattering_matrix", "sweep",
    ),
    "constants": ("CONSTANTS", "PhysicalConstants", "fermi_energy"),
    "errors": (
        "AmbiguousResonance", "ConfigError", "CutoffNotConverged", "NonPositiveArea",
        "NonPositiveTemperature", "NonPositiveThickness", "PerturbativeRegimeExceeded",
        "SingularSystem",
    ),
    "multimode": (
        "InteractionClassification", "InteractionKind", "PumpSpec", "SinglePhotonRate",
        "classify_interaction", "gamma_nml", "quantum_conductance", "quantum_rc_time",
        "single_photon_rate_engineering",
    ),
    "mode": (
        "AnharmonicityEstimate", "OscillatorSpec", "anharmonicity_engineering",
        "hamiltonian_coefficients", "nonlinear_time_constant", "photon_amplitude",
        "photon_number_limit", "photon_number_limit_derived", "resonant_inductance",
    ),
    "oscillator": ("SpectrumResult", "fock_diagonalize"),
}
CASES = [(module, name) for module, names in EXPORTS.items() for name in names]


@pytest.mark.parametrize("module,name", CASES, ids=[name for _, name in CASES])
def test_export_resolves_to_its_defining_object(module, name):
    value = getattr(qcapsim, name)
    assert value is getattr(importlib.import_module(f"qcapsim.{module}"), name)
    if hasattr(value, "__module__"):
        assert value.__module__ == f"qcapsim.{module}"
    assert name in dir(qcapsim)


def test_exports_are_exactly_the_pinned_names():
    assert qcapsim._MODULE_OF == {name: module for module, name in CASES}


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        qcapsim.no_such_name
    assert not hasattr(qcapsim, "complex_solve")
