"""Acceptance suite: every exit criterion at its stated tolerance.

Each check prints one ``[acceptance N] ...: PASS/FAIL`` line (run pytest
with ``-s`` or read captured output on failure).

Criterion 5 checks the Fock-basis oracle against perturbation theory
through second order, at its original tolerances: the diagonalized
anharmonicity within 0.1% of A2 = 3*tau*omega*(1 + 15.75*tau*omega) and
the three lowest levels within 1e-6 relative of
E_n = hbar*omega*[(n + 1/2) - lam*(6n^2 + 6n + 3)
                  - 2*lam^2*(34n^3 + 51n^2 + 59n + 21)],  lam = tau*omega/4,
for tau*omega in {1e-5, 1e-4, 1e-3}.  First order cannot meet these
tolerances: the exact spectrum contains the second-order shifts, which
move the anharmonicity from 3*tau*omega by 15.75*tau*omega relative
(1.6e-3 at 1e-4 and 1.6e-2 at 1e-3, against 1e-3) and the n = 2 level
3.14e-5 away from first order at tau*omega = 1e-3 (against 1e-6).  What
is left against second order is the third-order residue (at most
3.3e-4 on A and 5.2e-7 on the levels, both at tau*omega = 1e-3).
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from oracles import (
    charge_energy_T0,
    charge_numeric,
    fermi_energy,
    quantum_capacitance,
    quantum_conductance,
    quantum_rc_time,
)
from qcapsim.capacitor import (
    charge_series_coefficients,
    geometric_capacitance,
    linear_capacitance_C0,
    quantum_capacitance_T0,
)
from qcapsim.circulator import (
    CirculatorConfig,
    cramer_solve,
    langevin_matrix,
    scattering_matrix,
    sweep,
)
from qcapsim.cli import _verify_rows
from qcapsim.constants import E, HBAR, K_B, f_per_m2_to_ff_per_um2
from qcapsim.mode import (
    OscillatorSpec, anharmonicity_percent_printed, fock_diagonalize, nonlinear_time_constant,
    single_photon_rate_printed,
)

TWO_PI = 2.0 * math.pi
GHZ = TWO_PI * 1e9

AREA = 1e-10  # 100 um^2

# one line per criterion check; echoed in the pytest terminal summary
ACCEPTANCE_LINES = []


def _report(criterion, label, ok):
    line = f"[acceptance {criterion}] {label}: {'PASS' if ok else 'FAIL'}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    return ok


def test_criterion_1_geometric_capacitance():
    value = f_per_m2_to_ff_per_um2(geometric_capacitance(7e-9, 4.0))
    ok = abs(value - 5.06) / 5.06 <= 0.005
    assert _report(1, f"geometric capacitance {value:.4f} vs 5.06 fF/um^2 (0.5%)", ok)


def test_criterion_2_linear_capacitance():
    areal = f_per_m2_to_ff_per_um2(linear_capacitance_C0(1.0))
    total = AREA * linear_capacitance_C0(1.0) * 1e15
    ok = abs(areal - 0.0563) / 0.0563 <= 0.01 and abs(total - 5.63) / 5.63 <= 0.01
    assert _report(
        2, f"linear capacitance {areal:.5f} fF/um^2 and {total:.4f} fF vs 0.0563 / 5.63 (1%)", ok
    )


def test_criterion_3_single_photon_rates():
    r1 = single_photon_rate_printed(1.0, 4.0, 2.0, 10.0, 100.0)
    r4 = single_photon_rate_printed(4.0, 4.0, 2.0, 10.0, 100.0)
    rq = single_photon_rate_printed(0.25, 4.0, 2.0, 10.0, 100.0)
    ok = (
        abs(r1 / (TWO_PI * 25.55e6) - 1.0) <= 0.005
        and abs(r4 / (TWO_PI * 399.2e3) - 1.0) <= 0.005
        and abs(rq / (TWO_PI * 1.635e9) - 1.0) <= 0.005
        and abs(r1 / r4 - 64.0) <= 1e-9
        and abs(rq / r1 - 64.0) <= 1e-9
    )
    assert _report(
        3,
        "single-photon rates 2pi x {25.55 MHz, 399.2 kHz, 1.635 GHz} (0.5%) with exact 64x ratios",
        ok,
    )


def test_criterion_4_anharmonicity_values_and_flag():
    half_kelvin = anharmonicity_percent_printed(0.5, 4.0, 100.0)
    ok = abs(half_kelvin - 13.71) / 13.71 <= 0.01

    # T = 1 K: the published 1.1714 disagrees with the published formula
    # (1.714); the verification report must mark it FLAG, not FAIL
    computed = next(row[6] for row in _verify_rows() if row[0] == "anharmonicity_1k_pct")
    flagged = (
        abs(computed - 1.714) / 1.714 <= 0.01
        and abs(computed - 1.1714) / 1.1714 > 0.01
    )
    ok = ok and flagged
    assert _report(
        4,
        f"anharmonicity {half_kelvin:.4f}% vs 13.71% (1%); T=1 K case flagged inconsistent",
        ok,
    )


@pytest.mark.parametrize("tau_omega", [1e-5, 1e-4, 1e-3])
def test_criterion_5_fock_anharmonicity(tau_omega):
    omega = TWO_PI * 4e9
    spec = OscillatorSpec(omega=omega, tau=tau_omega / omega, fock_cutoff=80)
    start = time.perf_counter()
    result = fock_diagonalize(spec)
    elapsed = time.perf_counter() - start
    second_order = 3.0 * tau_omega * (1.0 + 15.75 * tau_omega)
    deviation = abs(result.anharmonicity_A - second_order) / second_order
    first_order_dev = abs(result.anharmonicity_A - 3.0 * tau_omega) / (3.0 * tau_omega)
    ok = deviation <= 1e-3 and elapsed < 1.0
    assert _report(
        5,
        f"fock anharmonicity at tau*omega={tau_omega:g}: |A/A2 - 1| = {deviation:.3e} <= 1e-3 "
        f"vs second order A2 = 3tw(1 + 15.75tw) (first order |A/3tw - 1| = {first_order_dev:.3e}), "
        f"{elapsed * 1e3:.0f} ms",
        ok,
    ), (
        f"diagonalized A deviates from second-order A2 = {second_order:.6e} by {deviation:.3e} "
        f"(bar 1e-3) or took {elapsed:.2f} s (bar 1 s)"
    )


@pytest.mark.parametrize("tau_omega", [1e-5, 1e-4, 1e-3])
def test_criterion_5_fock_energies(tau_omega):
    omega = TWO_PI * 4e9
    spec = OscillatorSpec(omega=omega, tau=tau_omega / omega, fock_cutoff=80)
    start = time.perf_counter()
    result = fock_diagonalize(spec)
    elapsed = time.perf_counter() - start
    lam = tau_omega / 4.0
    worst = 0.0
    for n in range(3):
        second_order = HBAR * omega * (
            (n + 0.5)
            - lam * (6 * n**2 + 6 * n + 3)
            - 2.0 * lam**2 * (34 * n**3 + 51 * n**2 + 59 * n + 21)
        )
        worst = max(worst, abs(result.eigenvalues[n] - second_order) / abs(second_order))
    ok = worst <= 1e-6 and elapsed < 1.0
    assert _report(
        5,
        f"fock energies at tau*omega={tau_omega:g}: worst E0..E2 deviation from second-order "
        f"perturbation theory {worst:.3e} <= 1e-6, {elapsed * 1e3:.0f} ms",
        ok,
    ), (
        f"levels deviate from second-order perturbation theory by {worst:.3e} (bar 1e-6) "
        f"or took {elapsed:.2f} s (bar 1 s)"
    )


def test_criterion_6_series_expansion_oracle():
    start = time.perf_counter()
    worst = 0.0
    for T in (0.25, 1.0, 4.0):
        c1, c3 = charge_series_coefficients(T)
        for frac in (0.05, 0.1, 0.2):
            v = frac * K_B * T / E
            series = E * (c1 * v + c3 * v**3)
            oracle = charge_numeric(T, v)
            worst = max(worst, abs(series - oracle) / abs(oracle))
    series_ok = worst <= 1e-4

    v = 10e-3
    T_cold = E * v / (200.0 * K_B)
    cold = quantum_capacitance(T_cold, v)
    limit = quantum_capacitance_T0(v)
    limit_ok = abs(cold - limit) / limit <= 0.01
    elapsed = time.perf_counter() - start
    ok = series_ok and limit_ok and elapsed < 1.0
    assert _report(
        6,
        f"series vs closed-form charge worst {worst:.2e} <= 1e-4; T->0 limit at k_BT=e|V|/200 within 1%",
        ok,
    )


def _paper_circulator(dphi):
    return CirculatorConfig(kappa=(2.0 * GHZ,) * 3, g=(1.0 * GHZ,) * 3, phi=(dphi, 0.0, 0.0))


def test_criterion_7_circulator_reciprocity_and_isolation():
    start = time.perf_counter()
    grid = np.linspace(-4 * GHZ, 4 * GHZ, 1001)

    sym = sweep(_paper_circulator(0.0), grid)
    reciprocity_ok = float(np.max(np.abs(np.abs(sym.s13) - np.abs(sym.s31)))) <= 1e-10

    fwd = sweep(_paper_circulator(math.pi / 2), grid)
    ratio_ok = float(np.max(fwd.ratio_13_31)) > 10.0

    bwd = sweep(_paper_circulator(-math.pi / 2), grid)
    swap = max(
        float(np.max(np.abs(np.abs(fwd.s13) - np.abs(bwd.s31)))),
        float(np.max(np.abs(np.abs(fwd.s31) - np.abs(bwd.s13)))),
    )
    reciprocal_ok = swap <= 1e-10

    il_ok = float(np.min(fwd.insertion_loss_dB)) < 1.0
    elapsed = time.perf_counter() - start
    ok = reciprocity_ok and ratio_ok and reciprocal_ok and il_ok and elapsed < 1.0
    assert _report(
        7,
        "circulator: reciprocity at 0 flux (1e-10), ratio > 10 at +pi/2, reciprocal curve at "
        f"-pi/2 (swap dev {swap:.1e}), insertion loss < 1 dB, {elapsed * 1e3:.0f} ms",
        ok,
    )


def test_criterion_8_quantum_rc_identity():
    rng = np.random.default_rng(80)
    sigma_q = quantum_conductance()
    worst = 0.0
    for v in rng.uniform(-0.5, 0.5, size=500):
        via_capacitance = AREA * quantum_capacitance_T0(v) / sigma_q
        direct = quantum_rc_time(AREA, fermi_energy(v))
        if direct > 0.0:
            worst = max(worst, abs(via_capacitance - direct) / direct)
    ok = worst <= 1e-10
    assert _report(8, f"quantum RC identity worst relative deviation {worst:.2e} <= 1e-10", ok)


def test_criterion_9_property_suites():
    start = time.perf_counter()
    rng = np.random.default_rng(90)
    instances = 0

    # parity: C even, Q odd, U even (200 draws)
    for v in rng.uniform(0.0, 0.4, size=200):
        assert quantum_capacitance(1.0, v) == pytest.approx(
            quantum_capacitance(1.0, -v), rel=1e-14, abs=0.0
        )
        qp, up = charge_energy_T0(v)
        qm, um = charge_energy_T0(-v)
        assert qm == -qp and um == up
        instances += 1

    # exact scaling laws of tau and the published rate formula (200 draws)
    for _ in range(200):
        T = float(rng.uniform(0.1, 8.0))
        S = float(rng.uniform(1.0, 500.0)) * 1e-12
        assert nonlinear_time_constant(S, T) / nonlinear_time_constant(S, 2 * T) == pytest.approx(
            8.0, rel=1e-12, abs=0.0
        )
        f, f1, f2 = (float(x) for x in rng.uniform(0.5, 12.0, size=3))
        r = single_photon_rate_printed(T, f, f1, f2, S * 1e12)
        r_hot = single_photon_rate_printed(2 * T, f, f1, f2, S * 1e12)
        assert r / r_hot == pytest.approx(8.0, rel=1e-12, abs=0.0)
        instances += 1

    # gauge invariance of |S| under flux-preserving phase shifts (60 x 3)
    base = _paper_circulator(math.pi / 2)
    probe_deltas = rng.uniform(-3 * GHZ, 3 * GHZ, size=3)
    reference = [np.abs(scattering_matrix(base, d)) for d in probe_deltas]
    for _ in range(60):
        alpha = float(rng.uniform(-math.pi, math.pi))
        shifted = dataclasses.replace(
            base, phi=(base.phi[0] + alpha, base.phi[1] + alpha, base.phi[2])
        )
        for d, ref in zip(probe_deltas, reference):
            assert np.max(np.abs(np.abs(scattering_matrix(shifted, d)) - ref)) < 1e-10
            instances += 1

    # passivity of the hopping network across the sweep (2 x 200 points)
    for dphi in (math.pi / 2, 0.7):
        result = sweep(_paper_circulator(dphi), np.linspace(-4 * GHZ, 4 * GHZ, 200))
        for s in result.smatrices:
            assert np.max(np.linalg.svd(s, compute_uv=False)) <= 1.0 + 1e-9
            instances += 1

    # hermiticity of the Langevin generator (200 random configs)
    for _ in range(200):
        config = CirculatorConfig(
            detuning=tuple(rng.uniform(0.5, 5.0) * GHZ for _ in range(3)),
            kappa=tuple(rng.uniform(0.1, 3.0) * GHZ for _ in range(3)),
            g=tuple(rng.uniform(0.0, 2.0) * GHZ for _ in range(3)),
            phi=tuple(rng.uniform(-math.pi, math.pi) for _ in range(3)),
        )
        m = langevin_matrix(config)
        generator = 1j * m + 0.5j * np.diag(np.asarray(config.kappa))
        assert np.max(np.abs(generator - generator.conj().T)) <= 1e-14 * np.max(np.abs(generator))
        instances += 1

    # solver residuals (300 random circulator configs and detunings through the closed
    # form), each recomputed here and checked against numpy.linalg.solve
    for _ in range(300):
        omega = tuple(rng.uniform(0.5, 5.0) * GHZ for _ in range(3))
        kappa = tuple(rng.uniform(0.1, 3.0) * GHZ for _ in range(3))
        g = tuple(rng.uniform(0.0, 2.0) * GHZ for _ in range(3))
        phi = tuple(rng.uniform(-math.pi, math.pi) for _ in range(3))
        lab = rng.uniform() < 0.5  # lab frame: the diagonal is the mode frequencies
        config = CirculatorConfig(kappa, g, phi, detuning=omega if lab else (0.0, 0.0, 0.0))
        a = -1j * rng.uniform(-6.0, 6.0) * GHZ * np.eye(3) - langevin_matrix(config)
        k = np.sqrt(np.asarray(config.kappa))
        x = cramer_solve(a.real[:, :, None], a.imag[:, :, None], k)[0]
        b = np.diag(k)
        assert np.all(np.linalg.norm(a @ x - b, axis=0) <= 1e-10 * np.linalg.norm(b, axis=0))
        ref = np.linalg.solve(a, b)
        assert np.all(np.linalg.norm(x - ref, axis=0) <= 1e-10 * np.linalg.norm(ref, axis=0))
        instances += 1

    elapsed = time.perf_counter() - start
    ok = instances >= 1000 and elapsed < 30.0
    assert _report(
        9, f"property suites: {instances} randomized instances in {elapsed:.1f} s (< 30 s)", ok
    )
