"""qcapsim: nonlinear graphene quantum capacitors for cryogenic microwave circuits.

Computes the quantum-capacitance model of a graphene/dielectric/graphene
stack, quantizes the anharmonic LC mode it forms, derives the pump-selected
multimode interaction rates, and simulates the three-mode circulator those
couplings enable.

The names below are imported from their modules on first access (PEP 562),
so ``import qcapsim`` loads no submodule, and numpy only loads with the
first name that needs it.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "capacitor": (
        "CapacitorDesign",
        "DesignReport",
        "OperatingPoint",
        "charge_energy_T0",
        "charge_numeric",
        "charge_series",
        "design_check",
        "energy_series",
        "geometric_capacitance",
        "linear_capacitance_C0",
    ),
    "capacitance": (
        "CapacitanceSweep",
        "capacitance_sweep",
        "quantum_capacitance",
        "quantum_capacitance_T0",
        "series_capacitance",
    ),
    "circulator": (
        "CirculatorConfig",
        "Frame",
        "SweepResult",
        "config_from_engineering_dict",
        "coupling_matrix",
        "langevin_matrix",
        "pump_constraint_check",
        "scattering_matrix",
        "sweep",
    ),
    "constants": ("CONSTANTS", "PhysicalConstants", "fermi_energy", "thermal_energy"),
    "errors": (
        "AmbiguousResonance",
        "ConfigError",
        "CutoffNotConverged",
        "NonPositiveArea",
        "NonPositiveTemperature",
        "NonPositiveThickness",
        "PerturbativeRegimeExceeded",
        "SingularSystem",
    ),
    "multimode": (
        "InteractionClassification",
        "InteractionKind",
        "ModeSet",
        "PumpSpec",
        "SinglePhotonRate",
        "classify_interaction",
        "gamma_nml",
        "quantum_conductance",
        "quantum_rc_time",
        "single_photon_rate_engineering",
    ),
    "mode": (
        "AnharmonicityEstimate",
        "OscillatorSpec",
        "anharmonicity_engineering",
        "hamiltonian_coefficients",
        "nonlinear_time_constant",
        "photon_amplitude",
        "photon_number_limit",
        "photon_number_limit_derived",
        "resonant_inductance",
    ),
    "oscillator": ("SpectrumResult", "fock_diagonalize", "hamiltonian_matrix"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    return globals().setdefault(name, value)


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
