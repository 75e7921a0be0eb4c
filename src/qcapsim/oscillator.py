"""Fock-basis oracle of the quantized capacitor-inductor mode.

The quartic Hamiltonian

    H = hbar*omega (n + 1/2) - (hbar*tau/4) * omega^2 * (a + a^dag)^4

is built as a matrix in a truncated Fock basis and diagonalized exactly,
with a cutoff-stability check on the lowest levels.  The scalar formulas of
the mode (its specification, tau, the photon amplitude, the engineering
estimates and the photon-number limit) are in the numpy-free
:mod:`qcapsim.mode` and are re-exported here.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import linalg
from .constants import CONSTANTS
from .errors import CutoffNotConverged, PerturbativeRegimeExceeded

# re-exported so that every name this module has defined stays importable
from .mode import (  # noqa: F401
    ANHARMONICITY_COEFF_PRINTED,
    CONVERGENCE_CUTOFF_STEP,
    PHOTON_LIMIT_COEFF_PRINTED,
    STRONG_ANHARMONICITY_THRESHOLD,
    SUGGESTED_CUTOFF_MAX,
    AnharmonicityEstimate,
    OscillatorSpec,
    anharmonicity_engineering,
    hamiltonian_coefficients,
    nonlinear_time_constant,
    photon_amplitude,
    photon_number_limit,
    photon_number_limit_derived,
    resonant_inductance,
    suggested_fock_cutoff,
)

CONVERGENCE_RTOL = 1e-9


@dataclass(frozen=True)
class SpectrumResult:
    """Sorted spectrum of the truncated quartic Hamiltonian."""

    eigenvalues: np.ndarray   # J, ascending
    omega_10: float           # rad/s
    omega_21: float           # rad/s
    anharmonicity_A: float    # dimensionless fraction |1 - w21/w10|

    def to_json_dict(self) -> dict:
        return {
            "eigenvalues_J": [float(v) for v in self.eigenvalues],
            "omega10_rad_s": float(self.omega_10),
            "omega21_rad_s": float(self.omega_21),
            "anharmonicity_fraction": float(self.anharmonicity_A),
        }


# --- Fock-basis oracle -------------------------------------------------------

def position_ladder_matrix(cutoff: int) -> np.ndarray:
    """Matrix of (a + a^dag) in the number basis, truncated at ``cutoff``."""
    x = np.zeros((cutoff, cutoff))
    idx = np.arange(cutoff - 1)
    amp = np.sqrt(idx + 1.0)
    x[idx, idx + 1] = amp
    x[idx + 1, idx] = amp
    return x


def hamiltonian_matrix(spec: OscillatorSpec, cutoff: int | None = None) -> np.ndarray:
    """Truncated Hamiltonian matrix (J), exactly symmetric by construction.

    The quartic block is the explicit product of four ladder-sum matrices;
    its upper triangle is mirrored once so the matrix is symmetric to the
    bit even if the BLAS product were not.
    """
    n = spec.fock_cutoff if cutoff is None else cutoff
    x = position_ladder_matrix(n)
    x2 = x @ x
    x4 = x2 @ x2
    x4 = np.triu(x4) + np.triu(x4, 1).T
    linear, quartic = hamiltonian_coefficients(spec)
    h = -quartic * x4
    diag = linear * (np.arange(n) + 0.5)
    h[np.diag_indices(n)] += diag
    return h


def _parity_block_eigenvalues(h: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of ``h`` from its even and odd Fock blocks.

    (a + a^dag)^4 only couples number states of equal parity, so the
    off-parity entries of :func:`hamiltonian_matrix` are exactly 0.0 and
    each block is diagonalized on its own.
    """
    blocks = [linalg.symmetric_eigenvalues(h[p::2, p::2]) for p in (0, 1)]
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
    if spec.strongly_anharmonic:
        warnings.warn(
            f"tau*omega = {spec.tau * spec.omega:.3g} > 1/12: perturbative regime "
            "exceeded; truncated-basis spectrum may not converge",
            PerturbativeRegimeExceeded,
            stacklevel=2,
        )
    evals = _parity_block_eigenvalues(hamiltonian_matrix(spec))
    evals_check = _parity_block_eigenvalues(
        hamiltonian_matrix(spec, cutoff=spec.fock_cutoff + CONVERGENCE_CUTOFF_STEP)
    )
    for k in range(3):
        denom = max(abs(evals_check[k]), abs(evals[k]))
        if abs(evals[k] - evals_check[k]) > CONVERGENCE_RTOL * denom:
            raise CutoffNotConverged(
                f"level {k} moved by {abs(evals[k] - evals_check[k]) / denom:.3e} "
                f"relative when the cutoff grew from {spec.fock_cutoff} to "
                f"{spec.fock_cutoff + CONVERGENCE_CUTOFF_STEP}"
            )
    omega_10 = (evals[1] - evals[0]) / CONSTANTS.hbar
    omega_21 = (evals[2] - evals[1]) / CONSTANTS.hbar
    return SpectrumResult(
        eigenvalues=evals,
        omega_10=omega_10,
        omega_21=omega_21,
        anharmonicity_A=abs(1.0 - omega_21 / omega_10),
    )
