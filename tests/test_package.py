"""Every public name has one home, the module that defines it, and is imported
from there: ``import qcapsim`` exports nothing but ``__version__``."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qcapsim

SRC_DIR = Path(__file__).resolve().parent.parent / "src"

# every public name of the modeling layer, grouped by its one home
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
        "CirculatorConfig", "SweepResult", "coupling_matrix", "langevin_matrix",
        "scattering_matrix", "sweep",
    ),
    "constants": (
        "E", "EPSILON_0", "H", "HBAR", "K_B", "PI_HBAR_VF_SQ", "SPEED_OF_LIGHT", "V_F",
        "fermi_energy",
    ),
    "errors": (
        "AmbiguousResonance", "ConfigError", "CutoffNotConverged", "NonPositiveArea",
        "NonPositiveTemperature", "NonPositiveThickness", "PerturbativeRegimeExceeded",
        "SingularSystem",
    ),
    "multimode": (
        "InteractionClassification", "InteractionKind", "PumpSpec", "classify_interaction",
        "gamma_nml", "quantum_conductance", "quantum_rc_time", "single_photon_rate_printed",
    ),
    "mode": (
        "OscillatorSpec", "anharmonicity_percent_printed", "hamiltonian_coefficients",
        "nonlinear_time_constant", "photon_amplitude", "photon_number_limit",
        "photon_number_limit_derived", "resonant_inductance",
    ),
    "oscillator": ("SpectrumResult", "fock_diagonalize"),
}
CASES = [(module, name) for module, names in EXPORTS.items() for name in names]

PROBE = (
    "import json, sys\n"
    "import qcapsim\n"
    "loaded = sorted(m for m in sys.modules if m.startswith('qcapsim.') or m == 'numpy')\n"
    "try:\n"
    "    qcapsim.fock_diagonalize\n"
    "    missing = False\n"
    "except AttributeError:\n"
    "    missing = True\n"
    "print(json.dumps([loaded, missing]))\n"
)


@pytest.mark.parametrize("module,name", CASES, ids=[name for _, name in CASES])
def test_export_resolves_to_its_defining_object(module, name):
    value = getattr(importlib.import_module(f"qcapsim.{module}"), name)
    if hasattr(value, "__module__"):
        assert value.__module__ == f"qcapsim.{module}"
    assert not hasattr(qcapsim, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        qcapsim.no_such_name
    assert not hasattr(qcapsim, "complex_solve")


def test_import_loads_no_submodule_and_exports_no_name():
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR) + (os.pathsep + path if path else ""))
    result = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == [[], True]
