"""qcapsim benchmark: one workload, one seed, every output checked.

Usage (from the repository root):

    python3 perfbench/run.py --workload {cli-cold,sweep-warm,fock-warm}
                             --seed N --seconds S --trace {0,1}

Workloads (closed loop, one client, one measured process at a time):

* ``cli-cold``   - each request spawns ``python -m qcapsim.cli`` on one of
                   the seven bundled paper commands, in a seed-shuffled order;
* ``sweep-warm`` - one long-lived process calls ``qcapsim.cli.main`` on
                   seed-generated circulator (3/4) and capacitance (1/4)
                   sweeps, half CSV and half JSON;
* ``fock-warm``  - the same on ``qubit`` requests with the Fock cutoff drawn
                   from 20 to 100.

Inputs are generated from the seed alone, before anything is timed, into a
temporary directory inside the checkout.  ``--seconds`` fixes the request
count through a nominal per-request cost; elapsed time never cuts a run, so
each run of one seed times the same sequence in full.  BLAS is pinned to one
thread in every measured process.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the sequence
untraced and then with layer spans installed (see ``spans.py``) and prints
the per-layer metrics.  The last stdout line is the JSON result; the lines
before it are a readable summary.  Without ``src/qcapsim`` and
``tests/golden`` next to this directory the run exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# BLAS runs on one thread here (host probe, output checks) and in every
# measured process, which inherits this environment.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import checks  # noqa: E402  (numpy loads after the BLAS pin)
import inputs  # noqa: E402
import spans  # noqa: E402
from probe import host_probe_ms  # noqa: E402
from stats import tail  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
# Set-up is repeated and its median reported: spawns of the measured process
# (warm workloads) or untimed invocations (cli-cold).
SETUP_REPEATS = 5
# The cold workload's untimed warm-up invocation; it also writes the
# byte-code caches before the first timed request.
COLD_WARMUP = {"argv": ["verify-paper"],
               "check": {"kind": "golden_bytes", "golden": "verify_paper.csv"}, "work": 0}
CHILD_TIMEOUT_S = 170


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Run:
    """Timings, failures and spans gathered by one benchmark run."""

    def __init__(self):
        self.setup_s: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.timed: dict[str, list[tuple]] = {"untraced": [], "traced": []}  # (s, work)
        self.probes_ms: list[float] = []
        self.imports: list[dict] = []
        self.spans: list[dict] = []
        self.blas_env: dict = {}

    def check(self, req, code, out, err) -> None:
        self.attempted += 1
        reason = checks.check(req["check"], code, out, GOLDEN)
        if reason:
            self.failures.append(checks.failure_line(req["argv"], reason, err))

    def collect(self, result, requests) -> None:
        """Fold in the result of one worker process that ran ``requests``."""
        self.imports.append(result["imports"])
        self.blas_env = result["blas_env"]
        self.failures.extend(result["warmup_failures"])
        if "timed" in result:
            timed = result["timed"]
            self.failures.extend(timed["failures"])
            self.probes_ms.extend(timed["probes_ms"])
            for mode, latencies in timed["latencies_s"].items():
                self.attempted += len(latencies)
                self.timed[mode].extend((dt, r["work"]) for r, dt in zip(requests, latencies))
        if "spans" in result:
            self.spans.append(result["spans"])


# --- cli-cold: one process per request -----------------------------------------

def _spawn_cli(argv, workdir, env):
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "qcapsim.cli", *argv], cwd=workdir,
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return proc.returncode, out, err, time.perf_counter() - t0


def run_cold(run, requests, workdir, trace):
    env = child_env()
    run.blas_env = {k: env.get(k) for k in BLAS_ENV}
    for _ in range(SETUP_REPEATS):
        code, out, err, dt = _spawn_cli(COLD_WARMUP["argv"], workdir, env)
        run.setup_s.append(dt)
        run.check(COLD_WARMUP, code, out, err)
    # with tracing, each request runs untraced and traced back to back, in
    # alternating order, as in the warm workloads
    modes = ("untraced", "traced") if trace else ("untraced",)
    for i, req in enumerate(requests):
        run.probes_ms.append(host_probe_ms())
        for mode in modes if i % 2 == 0 else modes[::-1]:
            if mode == "untraced":
                code, out, err, dt = _spawn_cli(req["argv"], workdir, env)
                run.timed["untraced"].append((dt, req["work"]))
                run.check(req, code, out, err)
                continue
            plan = {"src": str(SRC), "golden_dir": str(GOLDEN), "warmup": [],
                    "handshake": False, "untraced": False, "traced": True, "requests": [req]}
            result = _run_worker(plan, workdir, env, f"traced_{i}", None)
            run.collect(result, [req])
            # a cold request's latency is the whole traced process
            run.timed["traced"][-1] = (result["wall_s"], req["work"])


# --- warm workloads: one long-lived process ------------------------------------

def _run_worker(plan, workdir, env, tag, command):
    """Spawn worker.py on ``plan``; with a handshake, answer READY with ``command``."""
    plan_path = workdir / f"plan_{tag}.json"
    result_path = workdir / f"result_{tag}.json"
    plan_path.write_text(json.dumps(plan))
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(plan_path),
                             str(result_path)], cwd=workdir, env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    ready_s = None
    try:
        if plan["handshake"]:
            line = proc.stdout.readline()
            ready_s = time.perf_counter() - t0
            if line.strip() == "READY":
                proc.stdin.write(command + "\n")
                proc.stdin.flush()
        proc.stdin.close()
        proc.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    wall_s = time.perf_counter() - t0
    if proc.returncode != 0 or not result_path.exists():
        raise RuntimeError(f"measured process exited with code {proc.returncode}")
    result = json.loads(result_path.read_text())
    result.update(ready_s=ready_s, wall_s=wall_s)
    return result


def run_warm(run, workload, requests, workdir, trace):
    warmup = inputs.warmup_requests(workload)
    plan = {"src": str(SRC), "golden_dir": str(GOLDEN), "warmup": warmup, "handshake": True,
            "untraced": True, "traced": bool(trace), "requests": requests}
    env = child_env()
    for k in range(SETUP_REPEATS):
        last = k == SETUP_REPEATS - 1
        result = _run_worker(plan, workdir, env, str(k), "run" if last else "exit")
        run.setup_s.append(result["ready_s"])
        run.attempted += len(warmup)  # warm-up requests are checked in every spawn
        run.collect(result, requests)


# --- metrics -------------------------------------------------------------------

def _rate(timed) -> float:
    return sum(w for _, w in timed) / sum(dt for dt, _ in timed)


def end_to_end(run) -> tuple[dict, list[str]]:
    lat_ms = [dt * 1e3 for dt, _ in run.timed["untraced"]]
    pct, tail_ms, beyond = tail(lat_ms)
    p50 = statistics.median(lat_ms)
    metrics = {
        "latency_ms.p50": (p50, "ms"),
        "latency_ms.tail": (tail_ms, "ms"),
        "work_per_s": (_rate(run.timed["untraced"]), "1/s"),
        "setup_s": (statistics.median(run.setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0, "MB"),
    }
    calib = statistics.median(run.probes_ms)
    notes = [
        f"latency_ms.tail is p{pct}: {beyond} of {len(lat_ms)} samples beyond it",
        f"setup_s samples: {', '.join(f'{s:.4f}' for s in run.setup_s)}",
        f"host.calib_ms = {calib:.4f} (p50 / calib = {p50 / calib:.3f}; diagnostic, not gated)",
    ]
    return metrics, notes


def per_layer(run) -> tuple[dict, list[str]]:
    summary = spans.merge(run.spans)
    values = {
        "import.numpy_ms": statistics.median(i["numpy_ms"] for i in run.imports),
        "import.qcapsim_ms": statistics.median(i["qcapsim_ms"] for i in run.imports),
        "import.modules": statistics.median_low(i["modules"] for i in run.imports),
        **spans.layer_metrics(summary),
        "host.calib_ms": statistics.median(run.probes_ms),
        "trace.overhead_ratio": _rate(run.timed["traced"]) / _rate(run.timed["untraced"]),
    }
    with open(ROOT / "BENCHMARK.json") as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    metrics = {name: (value, units[name]) for name, value in values.items()}
    notes = [
        f"spans installed: {', '.join(summary['installed'])}",
        f"spans missing: {', '.join(summary['missing']) or 'none'}",
        f"tracing overhead: traced / untraced work_per_s = {values['trace.overhead_ratio']:.4f}",
    ]
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qcapsim benchmark")
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qcapsim" / "cli.py").is_file() or not GOLDEN.is_dir():
        print(f"perfbench: no qcapsim checkout around {HERE} (need src/qcapsim and "
              "tests/golden)", file=sys.stderr)
        return 2
    run = Run()
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        requests = inputs.generate(args.workload, args.seed, args.seconds, workdir)
        if args.workload == "cli-cold":
            if args.trace:
                # one cycle of the seven commands, untraced and traced
                requests = requests[:len(inputs.PAPER_COMMANDS)]
            run_cold(run, requests, workdir, args.trace)
        else:
            run_warm(run, args.workload, requests, workdir, args.trace)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics, notes = (per_layer if args.trace else end_to_end)(run)
    failed = len(run.failures)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"BLAS threads {run.blas_env}")
    for name, (value, unit) in metrics.items():
        shown = f"{value:>16}" if isinstance(value, int) else f"{value:>16.6g}"
        print(f"  {name:<28} {shown} {unit}")
    for note in notes:
        print(f"  {note}")
    print(f"  fail_ratio = {failed}/{run.attempted} = {failed / max(run.attempted, 1):.6g}")
    for reason in run.failures[:10]:
        print(f"  FAILED {reason}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
