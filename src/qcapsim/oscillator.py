"""Fock-basis oracle of the quantized capacitor-inductor mode.

The quartic Hamiltonian

    H = hbar*omega (n + 1/2) - (hbar*tau/4) * omega^2 * (a + a^dag)^4

is built in a truncated Fock basis from the closed-form bands of its
quartic term and diagonalized exactly, one parity block at a time, with a
cutoff-stability check on the lowest levels.  The scalar formulas of
the mode (its specification, tau, the photon amplitude, the engineering
estimates and the photon-number limit) are in the numpy-free
:mod:`qcapsim.mode`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .constants import HBAR
from .errors import CutoffNotConverged
from .mode import (
    CONVERGENCE_CUTOFF_STEP, OscillatorSpec, hamiltonian_coefficients, warn_if_strongly_anharmonic,
)

CONVERGENCE_RTOL = 1e-9


@dataclass(frozen=True)
class SpectrumResult:
    """Sorted spectrum of the truncated quartic Hamiltonian."""

    eigenvalues: np.ndarray   # J, ascending
    omega_10: float           # rad/s
    omega_21: float           # rad/s
    anharmonicity_A: float    # dimensionless fraction |1 - w21/w10|


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
