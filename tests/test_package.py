"""The names ``qcapsim`` exports, which it imports lazily on first access."""

import importlib
import sys

import pytest

import qcapsim

# every name the package exported when it still imported its modules eagerly,
# grouped by the module that defined it then
EXPORTS = {
    "capacitance": (
        "CapacitanceSweep", "CapacitorDesign", "DesignReport", "OperatingPoint",
        "capacitance_sweep", "charge_energy_T0", "charge_numeric", "charge_series",
        "design_check", "energy_series", "geometric_capacitance", "linear_capacitance_C0",
        "quantum_capacitance", "quantum_capacitance_T0", "series_capacitance",
    ),
    "circulator": (
        "CirculatorConfig", "Frame", "SweepResult", "config_from_engineering_dict",
        "coupling_matrix", "langevin_matrix", "pump_constraint_check", "scattering_matrix",
        "sweep",
    ),
    "constants": ("CONSTANTS", "PhysicalConstants", "fermi_energy", "thermal_energy"),
    "errors": (
        "AmbiguousResonance", "ConfigError", "CutoffNotConverged", "NonPositiveArea",
        "NonPositiveTemperature", "NonPositiveThickness", "PerturbativeRegimeExceeded",
        "SingularSystem",
    ),
    "multimode": (
        "InteractionClassification", "InteractionKind", "ModeSet", "PumpSpec",
        "SinglePhotonRate", "classify_interaction", "gamma_nml", "quantum_conductance",
        "quantum_rc_time", "single_photon_rate_engineering",
    ),
    "oscillator": (
        "AnharmonicityEstimate", "OscillatorSpec", "SpectrumResult",
        "anharmonicity_engineering", "fock_diagonalize", "hamiltonian_coefficients",
        "hamiltonian_matrix", "nonlinear_time_constant", "photon_amplitude",
        "photon_number_limit", "photon_number_limit_derived", "resonant_inductance",
    ),
}
CASES = [(module, name) for module, names in EXPORTS.items() for name in names]


@pytest.mark.parametrize("module,name", CASES, ids=[name for _, name in CASES])
def test_export_resolves_to_its_defining_object(module, name):
    value = getattr(qcapsim, name)
    # the same object at the module that defines it now, and at the old path
    assert value is getattr(sys.modules[value.__module__], name)
    assert value is getattr(importlib.import_module(f"qcapsim.{module}"), name)
    assert name in dir(qcapsim)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        qcapsim.no_such_name
    assert not hasattr(qcapsim, "complex_solve")
