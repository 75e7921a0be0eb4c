"""Output checks: every request's stdout is compared with an oracle.

* ``golden_bytes``   - byte-for-byte against ``tests/golden``;
* ``golden_numeric`` - the rule of ``test_golden_files_numeric``: rel 1e-9,
                       abs 1e-12, ratio cells above 1e6 skipped;
* ``circulator``     - S(delta) from ``numpy.linalg.solve`` of the Langevin
                       system this module builds from the config;
* ``capacitance``    - the closed-form quantum/series capacitance;
* ``qubit``          - levels 0..2 and the anharmonicity from
                       ``numpy.linalg.eigvalsh`` of a Hamiltonian built here;
* ``design_check`` and ``coupling`` - the published closed forms.

Each check returns None when the output is right, else a one-line reason.
Physical constants are CODATA 2018, restated here so the oracle does not
import the program it checks.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np

E = 1.602176634e-19
K_B = 1.380649e-23
HBAR = 1.054571817e-34
EPS0 = 8.8541878128e-12
V_F = 299792458.0 / 300.0
TWO_PI = 2.0 * math.pi

REL, ABS = 1e-9, 1e-12
CIRC_HEADER = ("delta_rad_s", "ratio_13_31", "insertion_loss_dB",
               "reS13", "imS13", "reS31", "imS31")
CAP_HEADER = ("T_K", "V_volt", "CQ_fF_per_um2", "Cseries_fF_per_um2")


def _table(text: str, fmt: str, header) -> np.ndarray:
    """Rows of a CSV or JSON table as a float array in ``header`` order."""
    if fmt == "json":
        rows = [[rec[k] for k in header] for rec in json.loads(text)]
    else:
        reader = csv.reader(io.StringIO(text))
        if tuple(next(reader)) != tuple(header):
            raise ValueError("unexpected CSV header")
        rows = list(reader)
    return np.array(rows, dtype=np.float64).reshape(-1, len(header))


def _record(text: str, fmt: str) -> dict:
    if fmt == "json":
        return json.loads(text)
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(rows) != 1:
        raise ValueError(f"expected one CSV record, got {len(rows)}")
    return {k: (v if v in ("true", "false") or k == "kind" else float(v))
            for k, v in rows[0].items()}


def _close(got, want, rel=REL, abs_=ABS) -> bool:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    return got.shape == want.shape and bool(
        np.all(np.abs(got - want) <= rel * np.abs(want) + abs_))


def _golden_bytes(spec, out, golden_dir):
    if out != (golden_dir / spec["golden"]).read_text():
        return f"output differs from golden {spec['golden']}"
    return None


def _golden_numeric(spec, out, golden_dir):
    want = list(csv.DictReader(io.StringIO((golden_dir / spec["golden"]).read_text())))
    got = list(csv.DictReader(io.StringIO(out)))
    if len(got) != len(want):
        return f"{len(got)} rows, golden {spec['golden']} has {len(want)}"
    for i, (w, g) in enumerate(zip(want, got)):
        for key in w:
            a, b = float(w[key]), float(g[key])
            if key == "ratio_13_31" and min(abs(a), abs(b)) > 1e6:
                continue  # blocked-direction amplitude is roundoff noise there
            if not abs(b - a) <= REL * abs(a) + ABS:
                return f"row {i} {key}: {b!r} vs golden {a!r}"
    return None


def circulator_smatrix(doc: dict, deltas: np.ndarray) -> np.ndarray:
    """S(delta) = I - K (-i delta I - M)^-1 K for an engineering-unit config."""
    c = doc["circulator"]
    ghz = lambda v: TWO_PI * 1e9 * np.asarray(v, dtype=np.float64)  # noqa: E731
    g1, g2, g3 = ghz(c["g"])
    p1, p2, p3 = np.pi * np.asarray(c["phi"], dtype=np.float64)
    h = np.zeros((3, 3), dtype=np.complex128)
    h[0, 1] = g3 * np.exp(-1j * p3)   # modes 1-2 couple through g_3
    h[1, 2] = g1 * np.exp(-1j * p1)   # modes 2-3 through g_1
    h[0, 2] = g2 * np.exp(-1j * p2)   # modes 3-1 through g_2
    h = h + h.conj().T
    diag = c["omega"] if c.get("frame", "rotating") == "lab" else c.get("detuning", [0.0] * 3)
    kappa = ghz(c["kappa"])
    m = -1j * (h + np.diag(ghz(diag))) - np.diag(kappa) / 2.0
    k = np.diag(np.sqrt(kappa)).astype(np.complex128)
    a = -1j * deltas[:, None, None] * np.eye(3) - m
    x = np.linalg.solve(a, np.broadcast_to(k, a.shape))
    return np.eye(3) - k @ x


def _circulator(spec, out, golden_dir):
    doc = spec["config"]
    got = _table(out, spec["format"], CIRC_HEADER)
    n = int(doc["n_points"])
    if got.shape[0] != n:
        return f"{got.shape[0]} rows, expected {n}"
    want_delta = np.linspace(TWO_PI * 1e9 * doc["delta_min_GHz"],
                             TWO_PI * 1e9 * doc["delta_max_GHz"], n)
    span = np.max(np.abs(want_delta))
    if not _close(got[:, 0], want_delta, rel=0.0, abs_=REL * span):
        return "detuning grid differs"
    s = circulator_smatrix(doc, want_delta)
    s13, s31 = s[:, 2, 0], s[:, 0, 2]
    for col, want in ((3, s13.real), (4, s13.imag), (5, s31.real), (6, s31.imag)):
        if not _close(got[:, col], want):
            return f"column {CIRC_HEADER[col]} differs from the numpy solve"
    a13, a31 = np.abs(s13), np.abs(s31)
    keep = (np.maximum(got[:, 1], a13 / np.maximum(a31, 1e-300)) <= 1e6) & (a31 > 0)
    if not _close(got[keep, 1], a13[keep] / a31[keep]):
        return "ratio_13_31 differs from the numpy solve"
    keep = a13 > 1e-6
    if not _close(got[keep, 2], -20.0 * np.log10(a13[keep]), abs_=1e-9):
        return "insertion_loss_dB differs from the numpy solve"
    return None


def _capacitance(spec, out, golden_dir):
    got = _table(out, spec["format"], CAP_HEADER)
    v = np.linspace(-spec["vmax"], spec["vmax"], int(spec["n_points"]))
    temps = np.repeat(np.asarray(spec["T"], dtype=np.float64), v.size)
    volts = np.tile(v, len(spec["T"]))
    if got.shape[0] != volts.size:
        return f"{got.shape[0]} rows, expected {volts.size}"
    pref = 2.0 * E**2 * K_B * temps / (np.pi * (HBAR * V_F) ** 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.abs(E * volts / (2.0 * K_B * temps))
        cq = np.where(temps > 0.0, pref * (x + 2.0 * np.log1p(np.exp(-x))),
                      E**3 * np.abs(volts) / (np.pi * (HBAR * V_F) ** 2))
    cg = EPS0 * spec["epsr"] / (spec["thickness_nm"] * 1e-9)
    cs = cg * cq / (cg + cq)
    want = np.column_stack([temps, volts, cq * 1e3, cs * 1e3])
    for col, name in enumerate(CAP_HEADER):
        if not _close(got[:, col], want[:, col]):
            return f"column {name} differs from the closed form"
    return None


def tau_seconds(T: float, s_um2: float) -> float:
    """Nonlinear time constant pi hbar^3 v_F^2 / 8 ln^2(16) S (k_B T)^3."""
    kT = K_B * T
    return math.pi * HBAR**3 * V_F**2 / (8.0 * math.log(16.0) ** 2 * s_um2 * 1e-12 * kT**3)


def fock_levels(T: float, f_ghz: float, s_um2: float, cutoff: int) -> np.ndarray:
    """All levels of hbar w (n + 1/2) - (hbar tau w^2 / 4)(a + a^dag)^4, ascending."""
    omega = TWO_PI * 1e9 * f_ghz
    tau = tau_seconds(T, s_um2)
    amp = np.sqrt(np.arange(1, cutoff, dtype=np.float64))
    x = np.diag(amp, 1) + np.diag(amp, -1)
    x4 = np.linalg.matrix_power(x, 4)
    h = np.diag(HBAR * omega * (np.arange(cutoff) + 0.5)) - (HBAR * tau * omega**2 / 4.0) * x4
    return np.linalg.eigvalsh(h)


def _qubit(spec, out, golden_dir):
    rec = _record(out, spec["format"])
    T, f, S = spec["T"], spec["f"], spec["S"]
    tw = tau_seconds(T, S) * TWO_PI * 1e9 * f
    cutoff = spec["cutoff"]
    if cutoff is None:  # the CLI default: the largest convergence-safe cutoff
        cutoff = max(10, min(80, int(math.floor(math.sqrt(12.0 / tw))) - 20))
    if int(rec["fock_cutoff"]) != cutoff:
        return f"fock_cutoff {rec['fock_cutoff']} != {cutoff}"
    if not _close(rec["tau_omega"], tw):
        return "tau_omega differs from the closed form"
    levels = fock_levels(T, f, S, cutoff)
    w10, w21 = levels[1] - levels[0], levels[2] - levels[1]
    anh = abs(1.0 - w21 / w10) * 100.0
    if not _close(rec["anharmonicity_percent_fock"], anh, abs_=1e-9):
        return f"anharmonicity {rec['anharmonicity_percent_fock']!r} vs eigvalsh {float(anh)!r}"
    if spec["format"] == "json":
        got = rec["spectrum"]["eigenvalues_J"]
        if len(got) != cutoff or not _close(got[:3], levels[:3]):
            return "levels 0..2 differ from eigvalsh"
    return None


def _design_check(spec, out, golden_dir):
    rec = _record(out, "csv")
    cg = EPS0 * spec["epsr"] / (spec["thickness_nm"] * 1e-9)
    c0 = 2.0 * E**2 * K_B * spec["T"] * math.log(16.0) / (math.pi * (HBAR * V_F) ** 2)
    want = {"C_G_fF_per_um2": cg * 1e3, "C_0_fF_per_um2": c0 * 1e3, "dominance_ratio": c0 / cg}
    for key, value in want.items():
        if not _close(rec[key], value):
            return f"{key} {rec[key]!r} vs closed form {value!r}"
    expect_ok = ("true" if 3.0 < spec["thickness_nm"] < 70.0 else "false",
                 "true" if c0 / cg <= 0.1 else "false")
    if (rec["thickness_ok"], rec["dominance_ok"]) != expect_ok:
        return "design-rule flags differ"
    return None


def _coupling(spec, out, golden_dir):
    rec = _record(out, "csv")
    f, f1, f2, S, T = spec["f"], spec["f1"], spec["f2"], spec["S"], spec["T"]
    printed = TWO_PI * 0.143 * f * math.sqrt(f1 * f2) / (S * T**3) * 1e9
    if rec["kind"] != "hopping":
        return f"kind {rec['kind']!r}, expected hopping"
    if not _close(rec["g0_printed_rad_s"], printed):
        return "g0_printed_rad_s differs from the published formula"
    if not 2.9 < rec["ratio_symbolic_to_printed"] < 3.1:
        return "g0 definition factor is not ~3"
    return None


CHECKS = {
    "golden_bytes": _golden_bytes,
    "golden_numeric": _golden_numeric,
    "circulator": _circulator,
    "capacitance": _capacitance,
    "qubit": _qubit,
    "design_check": _design_check,
    "coupling": _coupling,
}


def failure_line(argv, reason: str, stderr: str) -> str:
    """One-line report of a failed request, with the last stderr line."""
    last = stderr.strip().splitlines()[-1:]
    return " ".join(argv) + f": {reason}" + (f" [{last[0]}]" if last else "")


def check(spec: dict, returncode, out: str, golden_dir: Path):
    """None if the request succeeded with correct output, else the reason."""
    if returncode != 0:
        return f"exit code {returncode}"
    try:
        return CHECKS[spec["kind"]](spec, out, golden_dir)
    except (ValueError, KeyError, TypeError, IndexError, json.JSONDecodeError) as exc:
        return f"unparsable output: {type(exc).__name__}: {exc}"
