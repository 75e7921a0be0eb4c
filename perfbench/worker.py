"""Measured process: imports the program once and serves a request plan.

Usage: ``python worker.py PLAN.json RESULT.json`` with ``src/`` on
PYTHONPATH and the generated inputs in the working directory.

It times ``import numpy`` then ``import qcapsim.cli`` before anything else
is imported, runs the plan's warm-up requests, and, when the plan asks for a
handshake, prints ``READY`` and waits for ``run`` or ``exit`` on stdin.  It
then runs each request untraced, traced under the layer spans of
``spans.py``, or both, as the plan says.  Each request calls ``qcapsim.cli.main(argv)`` in-process with stdout captured in
memory; only that call is timed.  The host probe and the output check run
between requests, untimed.  The result goes to RESULT.json.
"""

import sys
import time

_t0 = time.perf_counter()
_modules0 = len(sys.modules)
import numpy  # noqa: E402,F401
_t1 = time.perf_counter()
import qcapsim.cli  # noqa: E402
_t2 = time.perf_counter()
IMPORTS = {
    "numpy_ms": (_t1 - _t0) * 1e3,
    "qcapsim_ms": (_t2 - _t1) * 1e3,
    "modules": len(sys.modules) - _modules0,
}

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import probe  # noqa: E402
import spans  # noqa: E402

def call_cli(argv):
    """One timed request: (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = qcapsim.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is a failed request, not a failed benchmark
            code = "exception"
            traceback.print_exc(file=err)
    dt = time.perf_counter() - t0
    return code, out.getvalue(), err.getvalue(), dt


def run_requests(requests, golden_dir, modes, tracer=None):
    """Time every request once per mode ("untraced", "traced").

    With both modes a request runs twice back to back, the order alternating
    from one request to the next, so that host drift and warm caches cancel
    out of the traced / untraced ratio.
    """
    timed = {mode: [] for mode in modes}
    probes, failures = [], []
    for i, req in enumerate(requests):
        probes.append(probe.host_probe_ms())
        for mode in modes if i % 2 == 0 else modes[::-1]:
            if mode == "traced":
                tracer.install()
            try:
                code, out, err, dt = call_cli(req["argv"])
            finally:
                if mode == "traced":
                    tracer.uninstall()
                    tracer.end_request()
            timed[mode].append(dt)
            reason = checks.check(req["check"], code, out, golden_dir)
            if reason:
                failures.append(checks.failure_line(req["argv"], reason, err))
    return {"latencies_s": timed, "probes_ms": probes, "failures": failures}


def main() -> int:
    plan = json.loads(Path(sys.argv[1]).read_text())
    src = Path(plan["src"]).resolve()
    if src not in Path(qcapsim.cli.__file__).resolve().parents:
        print(f"qcapsim imported from {qcapsim.cli.__file__}, not from {src}", file=sys.stderr)
        return 3
    golden_dir = Path(plan["golden_dir"])
    warm = [(req, call_cli(req["argv"])) for req in plan["warmup"]]
    command = "run"
    if plan["handshake"]:
        print("READY", flush=True)
        command = sys.stdin.readline().strip()
    result = {
        "imports": IMPORTS,
        "blas_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "warmup_failures": [],
    }
    for req, (code, out, err, _) in warm:
        reason = checks.check(req["check"], code, out, golden_dir)
        if reason:
            result["warmup_failures"].append(checks.failure_line(req["argv"], reason, err))
    if command == "run":
        modes = tuple(mode for mode in ("untraced", "traced") if plan[mode])
        tracer = spans.Tracer() if plan["traced"] else None
        result["timed"] = run_requests(plan["requests"], golden_dir, modes, tracer)
        if tracer is not None:
            result["spans"] = tracer.summary()
    Path(sys.argv[2]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
