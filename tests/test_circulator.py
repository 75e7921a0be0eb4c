import dataclasses
import json
import math
import os
import platform
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from qcapsim import circulator, cli
from qcapsim.circulator import (
    SWEEP_CSV_HEADER,
    CirculatorConfig,
    coupling_matrix,
    cramer_solve,
    langevin_matrix,
    scattering_matrix,
    sweep,
)
from qcapsim.errors import SingularSystem

TWO_PI = 2.0 * math.pi
GHZ = TWO_PI * 1e9


def paper_config(dphi: float) -> CirculatorConfig:
    """Published parameter set with the loop flux placed on phi_1, every
    mode on resonance in the rotating frame."""
    return CirculatorConfig(
        kappa=(2.0 * GHZ, 2.0 * GHZ, 2.0 * GHZ),
        g=(1.0 * GHZ, 1.0 * GHZ, 1.0 * GHZ),
        phi=(dphi, 0.0, 0.0),
    )


def gauge_flux(config: CirculatorConfig) -> float:
    """The loop phase phi_1 + phi_3 - phi_2 (rad) of the module docstring."""
    return config.phi[0] + config.phi[2] - config.phi[1]


# --- config ----------------------------------------------------------------------

def test_gauge_flux_definition():
    config = CirculatorConfig(kappa=(GHZ, GHZ, GHZ), g=(GHZ, GHZ, GHZ), phi=(0.2, 0.5, 0.4))
    assert gauge_flux(config) == pytest.approx(0.2 + 0.4 - 0.5, rel=1e-6, abs=0.0)


def test_config_validation():
    # a config file's omega is checked where it is read, in the CLI
    # (test_cli.py::test_circulator_config_checks_omega_and_detuning_in_both_frames)
    with pytest.raises(ValueError):
        CirculatorConfig(kappa=(0.0, GHZ, GHZ), g=(0, 0, 0), phi=(0, 0, 0))
    with pytest.raises(ValueError):
        CirculatorConfig(kappa=(GHZ,) * 3, g=(-GHZ, 0, 0), phi=(0, 0, 0))
    with pytest.raises(ValueError, match="exactly 3 entries"):
        CirculatorConfig(kappa=(GHZ,) * 3, g=(0, 0, 0), phi=(0, 0, 0), detuning=(0, 0))
    nan = float("nan")
    ok = dict(kappa=(GHZ,) * 3, g=(0, 0, 0), phi=(0, 0, 0))
    for bad in (nan, float("inf"), -float("inf")):
        for name in ("kappa", "g", "phi", "detuning"):
            with pytest.raises(ValueError):
                CirculatorConfig(**{**ok, name: (bad, GHZ, GHZ)})


# --- Langevin matrix ----------------------------------------------------------------

def test_langevin_uncoupled_diagonal_lab_frame():
    # in the lab frame the diagonal carries the absolute mode frequencies
    config = CirculatorConfig(
        kappa=(0.1 * GHZ, 0.2 * GHZ, 0.3 * GHZ),
        g=(0.0, 0.0, 0.0),
        phi=(0.0, 0.0, 0.0),
        detuning=(1.0 * GHZ, 2.0 * GHZ, 3.0 * GHZ),
    )
    m = langevin_matrix(config)
    expected = np.diag([-(1j * w + k / 2.0) for w, k in zip(config.detuning, config.kappa)])
    assert np.allclose(m, expected, rtol=0, atol=0)


def test_langevin_pinned_first_row_entry():
    # entry (1,2) must be -i g_3 e^{-i phi_3}
    config = CirculatorConfig(
        kappa=(GHZ, GHZ, GHZ),
        g=(0.3 * GHZ, 0.5 * GHZ, 0.7 * GHZ),
        phi=(0.1, 0.2, 0.3),
    )
    m = langevin_matrix(config)
    assert m[0, 1] == pytest.approx(-1j * 0.7 * GHZ * np.exp(-1j * 0.3), rel=1e-14, abs=0.0)
    # third row carries g_2 with phi_2 and g_1 with phi_1
    assert m[2, 0] == pytest.approx(-1j * 0.5 * GHZ * np.exp(+1j * 0.2), rel=1e-14, abs=0.0)
    assert m[2, 1] == pytest.approx(-1j * 0.3 * GHZ * np.exp(+1j * 0.1), rel=1e-14, abs=0.0)


def test_langevin_generator_is_hermitian():
    rng = np.random.default_rng(60)
    for _ in range(200):
        config = CirculatorConfig(  # lab-frame and rotating-frame sized diagonals
            kappa=tuple(rng.uniform(0.1, 3.0) * GHZ for _ in range(3)),
            g=tuple(rng.uniform(0.0, 2.0) * GHZ for _ in range(3)),
            phi=tuple(rng.uniform(-math.pi, math.pi) for _ in range(3)),
            detuning=tuple(rng.uniform(-5.0, 5.0) * GHZ for _ in range(3)),
        )
        m = langevin_matrix(config)
        generator = 1j * m + 0.5j * np.diag(np.asarray(config.kappa))
        scale = np.max(np.abs(generator))
        assert np.max(np.abs(generator - generator.conj().T)) <= 1e-14 * scale


def test_coupling_matrix_loop_flux():
    config = CirculatorConfig(kappa=(GHZ, GHZ, GHZ), g=(GHZ, GHZ, GHZ), phi=(0.4, 0.9, 0.2))
    h = coupling_matrix(config)
    # amplitude product around the 1 -> 2 -> 3 -> 1 cycle carries the flux
    # (h[i, j] moves a photon from mode j to mode i)
    loop = h[1, 0] * h[2, 1] * h[0, 2]
    assert np.angle(loop) == pytest.approx(gauge_flux(config), rel=1e-12, abs=0.0)


# --- scattering ------------------------------------------------------------------------

def test_uncoupled_scattering_is_full_reflection():
    config = CirculatorConfig(
        kappa=(0.5 * GHZ, 1.0 * GHZ, 2.0 * GHZ),
        g=(0.0, 0.0, 0.0),
        phi=(0.0, 0.0, 0.0),
    )
    s = scattering_matrix(config, 0.0)
    assert np.allclose(np.diagonal(s), -1.0, rtol=0, atol=1e-12)
    off = s - np.diag(np.diagonal(s))
    assert np.max(np.abs(off)) < 1e-14


def test_reciprocity_at_zero_flux():
    result = sweep(paper_config(0.0), np.linspace(-4 * GHZ, 4 * GHZ, 1001))
    assert np.max(np.abs(np.abs(result.s13) - np.abs(result.s31))) < 1e-10
    assert np.max(np.abs(result.ratio_13_31 - 1.0)) < 1e-10


def test_reciprocity_at_pi_flux():
    result = sweep(paper_config(math.pi), np.linspace(-4 * GHZ, 4 * GHZ, 501))
    smats = result.smatrices
    assert np.max(np.abs(np.abs(smats) - np.abs(np.transpose(smats, (0, 2, 1))))) < 1e-10


def test_quarter_flux_circulates_forward():
    result = sweep(paper_config(math.pi / 2), np.linspace(-4 * GHZ, 4 * GHZ, 1001))
    assert np.max(result.ratio_13_31) > 10.0
    # ideal operating point: reflectionless and lossless forward conversion
    center = np.argmin(np.abs(result.detuning_grid))
    assert abs(result.s13[center]) == pytest.approx(1.0, abs=1e-12)
    assert result.insertion_loss_dB[center] == pytest.approx(0.0, abs=1e-10)
    assert abs(result.smatrices[center][0, 0]) < 1e-12


def test_opposite_flux_gives_pointwise_reciprocal_curve():
    forward = sweep(paper_config(math.pi / 2), np.linspace(-4 * GHZ, 4 * GHZ, 1001))
    backward = sweep(paper_config(-math.pi / 2), np.linspace(-4 * GHZ, 4 * GHZ, 1001))
    assert np.max(np.abs(np.abs(forward.s13) - np.abs(backward.s31))) < 1e-10
    assert np.max(np.abs(np.abs(forward.s31) - np.abs(backward.s13))) < 1e-10


def test_flux_extremized_at_quarter_turns():
    # at the operating detuning the asymmetry is extremal at +/- pi/2
    ratios = []
    for k in range(24):
        config = paper_config(k * math.pi / 12.0)
        s = scattering_matrix(config, 0.0)
        ratios.append(abs(s[2, 0]) / abs(s[0, 2]))
    assert int(np.argmax(ratios)) == 6    # + pi/2
    assert int(np.argmin(ratios)) == 18   # - pi/2 (= 3 pi/2)


def test_gauge_invariance_of_amplitudes():
    rng = np.random.default_rng(61)
    base = paper_config(math.pi / 2)
    deltas = rng.uniform(-3 * GHZ, 3 * GHZ, size=5)
    reference = [np.abs(scattering_matrix(base, d)) for d in deltas]
    for _ in range(40):
        alpha = float(rng.uniform(-math.pi, math.pi))
        shifted = dataclasses.replace(
            base, phi=(base.phi[0] + alpha, base.phi[1] + alpha, base.phi[2])
        )
        assert gauge_flux(shifted) == pytest.approx(gauge_flux(base), rel=1e-12, abs=0.0)
        for d, ref in zip(deltas, reference):
            assert np.max(np.abs(np.abs(scattering_matrix(shifted, d)) - ref)) < 1e-10


def test_hopping_network_is_passive():
    # beam-splitter couplings only: no gain, S stays unitary-bounded
    result = sweep(paper_config(math.pi / 2), np.linspace(-4 * GHZ, 4 * GHZ, 334))
    for s in result.smatrices:
        assert np.max(np.linalg.svd(s, compute_uv=False)) <= 1.0 + 1e-9


def test_scattering_solve_residual_contract():
    config = paper_config(math.pi / 2)
    m = langevin_matrix(config)
    k = np.diag(np.sqrt(np.asarray(config.kappa)))
    for delta in (-2.3 * GHZ, 0.0, 1.7 * GHZ):
        a = -1j * delta * np.eye(3) - m
        s = scattering_matrix(config, delta)
        x = np.linalg.solve(np.diag(np.sqrt(np.asarray(config.kappa))), np.eye(3) - s)
        resid = np.linalg.norm(a @ x - k, axis=0) / np.linalg.norm(k, axis=0)
        assert np.max(resid) < 1e-10


def test_lab_frame_resonances():
    config = CirculatorConfig(  # lab frame: the diagonal is the mode frequencies
        kappa=(0.05 * GHZ,) * 3,
        g=(0.0, 0.0, 0.0),
        phi=(0.0, 0.0, 0.0),
        detuning=(1.0 * GHZ, 2.0 * GHZ, 3.0 * GHZ),
    )
    # probing at delta = omega_n hits mode n's resonance: full reflection
    s = scattering_matrix(config, 2.0 * GHZ)
    assert s[1, 1] == pytest.approx(-1.0, abs=1e-12)
    # far off every resonance the mode barely responds
    s_off = scattering_matrix(config, 10.0 * GHZ)
    assert abs(s_off[1, 1] - 1.0) < 0.01


def test_sweep_output_shapes_and_rows():
    result = sweep(paper_config(math.pi / 2), np.linspace(-1 * GHZ, 1 * GHZ, 11))
    assert result.smatrices.shape == (11, 3, 3)
    rows = result.columns()
    assert rows.shape == (11, len(SWEEP_CSV_HEADER)) and rows.dtype == np.float64
    assert rows[0][0] == pytest.approx(-1 * GHZ, rel=1e-12, abs=0.0)
    il = -10.0 * math.log10(rows[0][3] ** 2 + rows[0][4] ** 2)
    assert il == pytest.approx(rows[0][2], rel=1e-9, abs=0.0)


def test_sweep_solves_one_stack(monkeypatch):
    # one solve per sweep, looked up on the circulator module at call time
    calls = []

    def counting_solve(a_re, a_im, k):
        calls.append((np.shape(a_re), np.shape(a_im)))
        return cramer_solve(a_re, a_im, k)

    monkeypatch.setattr(circulator, "cramer_solve", counting_solve)
    sweep(paper_config(math.pi / 2), np.linspace(-GHZ, GHZ, 57))
    assert calls == [((3, 3, 57), (3, 3, 57))]


def test_sweep_rejects_non_finite_detuning_range():
    # a nan inside the grid, then an infinite end: the first non-finite cell is named
    for cell, value in ((3, math.nan), (10, math.inf)):
        deltas = np.linspace(-GHZ, GHZ, 11)
        deltas[cell] = value
        with pytest.raises(ValueError, match=f"detuning {value} rad/s at grid point {cell} is"):
            sweep(paper_config(0.0), deltas)


def _bundled(name, frame):
    doc = json.loads(resources.files("qcapsim").joinpath("configs", name).read_text())
    deltas = np.linspace(doc["delta_min_GHz"], doc["delta_max_GHz"], doc["n_points"]) * GHZ
    return cli._circulator_config({**doc["circulator"], "frame": frame}), deltas


def _random_configs(n, frame):
    """Configs whose diagonal is drawn as mode frequencies (lab) or detunings (rotating)."""
    rng = np.random.default_rng(2401)
    for _ in range(n):
        omega = tuple(rng.uniform(0.5, 3.0, 3) * GHZ)
        kappa = tuple(rng.uniform(0.05, 3.0, 3) * GHZ)
        g = tuple(rng.uniform(0.0, 2.0, 3) * GHZ)
        phi = tuple(rng.uniform(-math.pi, math.pi, 3))
        detuning = tuple(rng.uniform(-0.5, 0.5, 3) * GHZ)
        yield CirculatorConfig(
            kappa=kappa, g=g, phi=phi, detuning=omega if frame == "lab" else detuning
        ), np.linspace(-6.0, 6.0, 401) * GHZ


def eliminate(a, b):
    """Solve each a[i] x = b[i] of (n, 3, 3) complex stacks by partial-pivoted
    Gaussian elimination: the general solver the closed form replaced, kept as
    an oracle."""
    a, x = np.array(a, dtype=np.complex128), np.array(b, dtype=np.complex128)
    rows = np.arange(len(a))
    for k in range(3):
        piv = k + np.argmax(np.abs(a[:, k:, k]), axis=1)
        for arr in (a, x):
            row_k = arr[:, k].copy()
            arr[:, k] = arr[rows, piv]
            arr[rows, piv] = row_k
        lam = a[:, k + 1:, k] / a[:, k, k, None]
        a[:, k + 1:, k + 1:] -= lam[:, :, None] * a[:, k, None, k + 1:]
        x[:, k + 1:] -= lam[:, :, None] * x[:, k, None, :]
    for k in range(2, -1, -1):
        for j in range(k + 1, 3):
            x[:, k] -= a[:, k, j, None] * x[:, j]
        x[:, k] /= a[:, k, k, None]
    return x


@pytest.mark.parametrize("frame", ["lab", "rotating"])
def test_row_scaled_s_is_the_matmul_s_bit_for_bit(frame, monkeypatch):
    # S = I - K X with diagonal K: scaling the rows of the closed form's X by sqrt(kappa)
    # must give the stacked matmul's every bit, and S must agree with the pivoted elimination
    solved = []

    def recording_solve(a_re, a_im, k):
        solved.append(cramer_solve(a_re, a_im, k))
        return solved[-1]

    monkeypatch.setattr(circulator, "cramer_solve", recording_solve)
    cases = [_bundled("paper_fig4.json", frame), _bundled("paper_fig5.json", frame),
             *_random_configs(8, frame)]
    for config, deltas in cases:
        k = np.diag(np.sqrt(np.asarray(config.kappa)))
        s = scattering_matrix(config, deltas)
        assert s.tobytes() == (np.eye(3) - k @ solved[-1]).tobytes()
        a = -1j * deltas[:, None, None] * np.eye(3) - langevin_matrix(config)
        x = eliminate(a, np.broadcast_to(k.astype(np.complex128), a.shape))
        assert np.max(np.abs(s - (np.eye(3) - k @ x))) <= 1e-14


BLAS_PROBE = """
import hashlib, numpy as np
from qcapsim.circulator import CirculatorConfig, sweep
rng, digest = np.random.default_rng(2020), hashlib.sha256()
for _ in range(40):
    config = CirculatorConfig(*(tuple(rng.uniform(lo, hi, 3) * 2e9 * np.pi) for lo, hi in
                                ((0.5, 3.0), (0.2, 2.0))), phi=tuple(rng.uniform(-np.pi, np.pi, 3)))
    result = sweep(config, np.linspace(-12e9 * np.pi, 12e9 * np.pi, 300))
    digest.update(result.smatrices.tobytes() + result.ratio_13_31.tobytes())
print(digest.hexdigest())
"""


def _openblas_on_x86_64():
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return False
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy before 1.26 has no mode="dicts"
        return False
    return "openblas" in blas.lower()


@pytest.mark.skipif(not _openblas_on_x86_64(), reason="needs numpy on OpenBLAS on x86_64")
def test_sweep_bytes_do_not_depend_on_the_blas_kernel():
    # OpenBLAS picks its zgemm kernel by CPU, and numpy its SIMD loops; neither may
    # move a bit of S or of the 1->3/3->1 ratio (the loss still moves: it takes complex
    # np.abs and np.log10).  The third child holds numpy to its X86_V2 baseline; this
    # numpy accepts exactly these four names, and the older names raise an ImportWarning
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("OPENBLAS_CORETYPE", None)
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    digests = []
    for run_env in (env, dict(env, OPENBLAS_CORETYPE="Prescott"),
                    dict(env, NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR X86_V3")):
        result = subprocess.run([sys.executable, "-c", BLAS_PROBE], capture_output=True, text=True, env=run_env)
        assert result.returncode == 0, result.stderr
        digests.append(result.stdout)
    assert digests[0] == digests[1] == digests[2]


# --- the closed-form 3 x 3 solve ------------------------------------------------------

def solve(a, k):
    """``cramer_solve`` on an (n, 3, 3) complex stack: X = A^-1 diag(k), (n, 3, 3)."""
    a = np.moveaxis(np.asarray(a, dtype=np.complex128), 0, -1)
    return cramer_solve(a.real, a.imag, np.asarray(k, dtype=np.float64))


def _random_stack(rng, k):
    return rng.normal(size=(k, 3, 3)) + 1j * rng.normal(size=(k, 3, 3))


def test_solve_identity_returns_rhs():
    k = np.array([1.0, 2.0, 0.5])
    x = solve(np.eye(3)[None], k)
    assert np.allclose(x[0], np.diag(k), rtol=0, atol=1e-15)


def test_solve_diagonal_inverse():
    a = np.diag([2.0, 4.0j, -1.0])
    k = np.array([1.5, 2.0, 3.0])
    x = solve(a[None], k)
    expected = np.diag([k[0] / 2.0, -0.25j * k[1], -k[2]])
    assert np.allclose(x[0], expected, rtol=1e-14, atol=0)


def test_solve_random_residuals():
    rng = np.random.default_rng(103)
    a = _random_stack(rng, 300)
    k = rng.uniform(0.1, 3.0, size=3)
    x = solve(a, k)
    for ai, xi in zip(a, x):
        assert np.linalg.norm(ai @ xi - np.diag(k)) <= 1e-12 * np.linalg.norm(k)


def test_solve_singular_raises():
    with pytest.raises(SingularSystem):
        solve(np.zeros((1, 3, 3)), np.ones(3))


def test_solve_rank_deficient_raises():
    a = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 0.0, 1.0]])
    with pytest.raises(SingularSystem):
        solve(a[None], np.ones(3))


def test_solve_stack_equals_each_member():
    rng = np.random.default_rng(108)
    a = _random_stack(rng, 40)
    k = rng.uniform(0.1, 3.0, size=3)
    x = solve(a, k)
    for i in range(40):
        assert np.array_equal(x[i], solve(a[i:i + 1], k)[0])


def test_solve_stack_with_one_singular_member_raises():
    rng = np.random.default_rng(107)
    a = _random_stack(rng, 9)
    a[4] = [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 0.0, 1.0]]
    with pytest.raises(SingularSystem, match="determinant"):
        solve(a, np.ones(3))


def test_solve_non_finite_residual_raises():
    # det A = 2**-400 is finite and nonzero, but k_3 / det A overflows, so X holds inf and nan
    a = np.stack([np.eye(3), np.diag([1.0, 1.0, 2.0**-400])])
    with pytest.raises(SingularSystem, match="residual nan"):
        with np.errstate(over="ignore", invalid="ignore"):
            solve(a, [1.0, 1.0, 2.0**700])


def test_solve_finite_residual_above_the_bound_raises():
    # det A = -3e-5 is not zero, but A is so close to singular (condition number ~1e7)
    # that the cofactors' rounding leaves a residual of ~1e-9, above SOLVE_RESIDUAL_TOL
    a = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0 + 1e-5]])
    with pytest.raises(SingularSystem, match=r"residual \d\.\d{3}e-09 exceeds 1\.0e-10"):
        solve(a[None], np.ones(3))
