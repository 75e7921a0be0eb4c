"""Seeded request generation for the three benchmark workloads.

Everything here is a pure function of (workload, seed, seconds): the same
arguments give byte-identical argv lists and config files.  Request sizes
are drawn by jittered stratification over a continuous range (one draw per
equal-probability stratum, then a seeded shuffle), so every seed covers the
size range evenly: p50 and the tail do not jump between seeds, and there are
no gaps between discrete size classes for p50 to fall into.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

from checks import TWO_PI, tau_seconds

WORKLOADS = ("cli-cold", "sweep-warm", "fock-warm")

# Nominal cost of one request on a 2-core x86 host (seconds), used only to
# turn --seconds into a fixed request count: the count never depends on
# elapsed time, so every run of one seed times the same sequence in full.
NOMINAL_REQUEST_S = {"cli-cold": 1.0, "sweep-warm": 0.15, "fock-warm": 0.05}

# The seven bundled paper commands of the cold-start workload.
PAPER_COMMANDS = (
    (("verify-paper",), {"kind": "golden_bytes", "golden": "verify_paper.csv"}),
    (("sweep-capacitance", "--config", "paper_fig2.json"),
     {"kind": "golden_bytes", "golden": "fig2_capacitance.csv"}),
    (("circulator", "--config", "paper_fig4.json"),
     {"kind": "golden_numeric", "golden": "fig4_circulator.csv"}),
    (("circulator", "--config", "paper_fig5.json"),
     {"kind": "golden_numeric", "golden": "fig5_circulator.csv"}),
    (("qubit", "--T", "1"),
     {"kind": "qubit", "T": 1.0, "f": 4.0, "S": 100.0, "cutoff": None, "format": "csv"}),
    (("design-check",),
     {"kind": "design_check", "thickness_nm": 7.0, "epsr": 4.0, "T": 1.0}),
    (("coupling",),
     {"kind": "coupling", "T": 1.0, "f": 4.0, "f1": 2.0, "f2": 10.0, "S": 100.0}),
)

PAPER_CIRCULATOR = {
    "omega": [1.0, 1.05, 2.05], "kappa": [2.0, 2.0, 2.0], "g": [1.0, 1.0, 1.0],
    "phi": [0.5, 0.0, 0.0], "frame": "rotating",
}
# Fixed (seed-independent) warm-up requests of the in-process workloads, so
# that setup_s does not vary with the seed.  Both output formats and every
# code path of the workload run once before the first timed request.
WARMUP = {
    "sweep-warm": (
        (("circulator", "--config", "paper_fig4.json", "--points", "200"),
         {"kind": "circulator", "format": "csv", "config": {
             "circulator": PAPER_CIRCULATOR, "delta_min_GHz": -4.0,
             "delta_max_GHz": 4.0, "n_points": 200}}),
        (("sweep-capacitance", "--config", "paper_fig2.json", "--format", "json"),
         {"kind": "capacitance", "T": [0.0, 0.25, 1.0, 4.0], "vmax": 0.05,
          "n_points": 201, "thickness_nm": 7.0, "epsr": 4.0, "S": 100.0,
          "format": "json"}),
    ),
    "fock-warm": (
        (("qubit", "--T", "1"),
         {"kind": "qubit", "T": 1.0, "f": 4.0, "S": 100.0, "cutoff": None, "format": "csv"}),
        (("qubit", "--T", "2", "--cutoff", "40", "--format", "json"),
         {"kind": "qubit", "T": 2.0, "f": 4.0, "S": 100.0, "cutoff": 40, "format": "json"}),
    ),
}


def request_count(workload: str, seconds: int) -> int:
    """Fixed number of timed requests for a run of nominally ``seconds``."""
    n = max(1, round(seconds / NOMINAL_REQUEST_S[workload]))
    if workload == "cli-cold":
        # Whole cycles of the seven commands, at least six: with 42 samples
        # the tail (p76) falls inside the class of fig5 invocations instead
        # of at the noisy top of the five cheap commands.
        return 7 * max(6, math.ceil(n / 7))
    # at least 20, so that p50 has ten samples beyond it
    if workload == "sweep-warm":
        return 4 * max(5, math.ceil(n / 4))
    return 2 * max(10, math.ceil(n / 2))


def _sig(x: float) -> float:
    """Round to 6 significant digits so argv and JSON carry exact values."""
    return float(f"{x:.6g}")


def _strata(rng: random.Random, n: int) -> list[float]:
    """One uniform draw inside each of n equal strata of [0, 1), in stratum order."""
    return [(i + rng.random()) / n for i in range(n)]


def _log_uniform(u: float, lo: float, hi: float) -> int:
    return int(round(math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))))


def _circulator_request(rng, n_points, fmt, workdir: Path, name: str):
    frame = rng.choice(("rotating", "lab"))
    doc = {
        "circulator": {
            "omega": [_sig(rng.uniform(0.5, 3.0)) for _ in range(3)],
            "kappa": [_sig(rng.uniform(0.5, 3.0)) for _ in range(3)],
            "g": [_sig(rng.uniform(0.2, 2.0)) for _ in range(3)],
            "phi": [_sig(rng.uniform(-1.0, 1.0)) for _ in range(3)],
            "detuning": [_sig(rng.uniform(-0.5, 0.5)) for _ in range(3)],
            "frame": frame,
        },
        "delta_min_GHz": _sig(rng.uniform(-6.0, -2.0)),
        "delta_max_GHz": _sig(rng.uniform(2.0, 6.0)),
        "n_points": n_points,
    }
    (workdir / name).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    argv = ["circulator", "--config", name, "--format", fmt]
    check = {"kind": "circulator", "config": doc, "format": fmt}
    return argv, check, n_points


def _capacitance_request(rng, n_points, fmt):
    temps = [0.0, _sig(rng.uniform(0.1, 0.5)), _sig(rng.uniform(0.5, 2.0)),
             _sig(rng.uniform(2.0, 6.0))]
    vmax = _sig(rng.uniform(0.01, 0.2))
    thickness = _sig(rng.uniform(4.0, 60.0))
    epsr = _sig(rng.uniform(2.0, 10.0))
    area = _sig(rng.uniform(10.0, 1000.0))
    argv = [
        "sweep-capacitance", "--T", ",".join(repr(t) for t in temps),
        "--vmax", repr(vmax), "--points", str(n_points),
        "--thickness-nm", repr(thickness), "--epsr", repr(epsr), "--S", repr(area),
        "--format", fmt,
    ]
    check = {"kind": "capacitance", "T": temps, "vmax": vmax, "n_points": n_points,
             "thickness_nm": thickness, "epsr": epsr, "S": area, "format": fmt}
    return argv, check, n_points * len(temps)


def _qubit_request(rng, cutoff, fmt):
    # Keep a draw only if tau*omega*(cutoff+20)^2 < 12, the margin that lets
    # the +20 cutoff stability check pass.  The ranges keep tau*omega above
    # ~3e-5: the QL eigensolver converges much faster on a nearly diagonal H
    # (tau*omega ~ 1e-9), which would make the cost depend on the seed.
    while True:
        T = _sig(rng.uniform(0.5, 2.5))
        f = _sig(rng.uniform(2.0, 8.0))
        S = _sig(math.exp(rng.uniform(math.log(50.0), math.log(500.0))))
        if tau_seconds(T, S) * TWO_PI * 1e9 * f * (cutoff + 20) ** 2 < 12.0:
            break
    argv = ["qubit", "--T", repr(T), "--f", repr(f), "--S", repr(S),
            "--cutoff", str(cutoff), "--format", fmt]
    check = {"kind": "qubit", "T": T, "f": f, "S": S, "cutoff": cutoff, "format": fmt}
    return argv, check, 1


def generate(workload: str, seed: int, seconds: int, workdir: Path) -> list[dict]:
    """The timed requests of one run; config files are written under ``workdir``.

    Each request is ``{"argv": [...], "check": {...}, "work": units}``, where
    work counts grid points emitted (detuning points, or (T, V) cells), one
    spectrum, or one invocation.  Config paths in argv are relative: the
    program runs with ``workdir`` as its working directory, so argv does not
    depend on where the run lives.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    n = request_count(workload, seconds)
    if workload == "cli-cold":
        order = list(PAPER_COMMANDS)
        rng.shuffle(order)
        return [{"argv": list(order[i % 7][0]), "check": order[i % 7][1], "work": 1}
                for i in range(n)]

    # jittered strata of the size range; formats alternate along it
    n_circ = 3 * n // 4 if workload == "sweep-warm" else n
    requests = []
    for i, u in enumerate(_strata(rng, n_circ) + _strata(rng, n - n_circ)):
        fmt = "csv" if i % 2 == 0 else "json"
        if workload == "fock-warm":
            argv, check, work = _qubit_request(rng, 20 + min(80, int(u * 81)), fmt)
        elif i < n_circ:
            argv, check, work = _circulator_request(
                rng, _log_uniform(u, 50, 4000), fmt, workdir, f"circulator_{i:04d}.json")
        else:
            argv, check, work = _capacitance_request(rng, _log_uniform(u, 50, 5000), fmt)
        requests.append({"argv": argv, "check": check, "work": work})
    rng.shuffle(requests)
    return requests


def warmup_requests(workload: str) -> list[dict]:
    """Untimed requests that precede the first timed one in a warm process."""
    return [{"argv": list(argv), "check": check, "work": 0}
            for argv, check in WARMUP.get(workload, ())]
