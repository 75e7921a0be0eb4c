"""qcapsim: nonlinear graphene quantum capacitors for cryogenic microwave circuits.

Computes the quantum-capacitance model of a graphene/dielectric/graphene
stack, quantizes the anharmonic LC mode it forms, derives the pump-selected
multimode interaction rates, and simulates the three-mode circulator those
couplings enable.
"""

from .capacitance import (
    CapacitanceSweep,
    CapacitorDesign,
    DesignReport,
    OperatingPoint,
    capacitance_sweep,
    charge_energy_T0,
    charge_numeric,
    charge_series,
    design_check,
    energy_series,
    geometric_capacitance,
    linear_capacitance_C0,
    quantum_capacitance,
    quantum_capacitance_T0,
    series_capacitance,
)
from .circulator import (
    CirculatorConfig,
    Frame,
    SweepResult,
    config_from_engineering_dict,
    coupling_matrix,
    langevin_matrix,
    pump_constraint_check,
    scattering_matrix,
    sweep,
)
from .constants import CONSTANTS, PhysicalConstants, fermi_energy, thermal_energy
from .errors import (
    AmbiguousResonance,
    ConfigError,
    CutoffNotConverged,
    NonPositiveArea,
    NonPositiveTemperature,
    NonPositiveThickness,
    PerturbativeRegimeExceeded,
    SingularSystem,
)
from .multimode import (
    InteractionClassification,
    InteractionKind,
    ModeSet,
    PumpSpec,
    SinglePhotonRate,
    classify_interaction,
    gamma_nml,
    quantum_conductance,
    quantum_rc_time,
    single_photon_rate_engineering,
)
from .oscillator import (
    AnharmonicityEstimate,
    OscillatorSpec,
    SpectrumResult,
    anharmonicity_engineering,
    fock_diagonalize,
    hamiltonian_coefficients,
    hamiltonian_matrix,
    nonlinear_time_constant,
    photon_amplitude,
    photon_number_limit,
    photon_number_limit_derived,
    resonant_inductance,
)

__version__ = "0.1.0"
