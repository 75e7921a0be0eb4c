"""Print one sha256 of (exit code, stdout, stderr) per benchmark request.

For each workload and seed, the requests that ``perfbench/inputs.py`` gives
(the workload's warm-ups, then ``generate(workload, seed, seconds, dir)``,
with ``seconds`` the benchmark's ``run_seconds`` from ``BENCHMARK.json``)
run in this process through ``qcapsim.cli.main``, with ``dir`` as the
working directory.  Each prints one line, ``<workload> <seed> <index>
<sha256>``, where index 0 is the first warm-up.  Every warning is shown,
as ``<category>: <message>`` with no file or line, so that a line's hash
depends neither on the requests before it nor on where the code lives.

Two checkouts print the same lines exactly when every request gives the
same bytes and exit code, so comparing a change with its parent takes one
``diff``::

    PYTHONPATH=src python tests/request_hashes.py > change.txt
    (cd ../parent && PYTHONPATH=src python tests/request_hashes.py) > parent.txt
    diff parent.txt change.txt

pytest does not collect this file; it is a script, not a test.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import inputs  # noqa: E402  (perfbench's request generator, only read)

from qcapsim.cli import main  # noqa: E402


def request_hash(argv: list[str]) -> str:
    """sha256 of the JSON list [exit code, stdout, stderr] of one ``main(argv)`` call;
    an exception that escapes ``main`` stands in for the exit code as its type and text."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback in a real run
            code = f"{type(exc).__name__}: {exc}"
    return hashlib.sha256(json.dumps([code, out.getvalue(), err.getvalue()]).encode()).hexdigest()


def main_hashes(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=list(inputs.WORKLOADS),
                        choices=inputs.WORKLOADS)
    parser.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    args = parser.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    warnings.simplefilter("always")
    warnings.formatwarning = lambda message, category, *_: f"{category.__name__}: {message}\n"
    home = os.getcwd()
    for workload in args.workloads:
        for seed in args.seeds:
            with tempfile.TemporaryDirectory() as workdir:
                requests = inputs.warmup_requests(workload)
                requests += inputs.generate(workload, seed, seconds, Path(workdir))
                os.chdir(workdir)
                try:
                    for index, request in enumerate(requests):
                        print(workload, seed, index, request_hash(request["argv"]))
                finally:
                    os.chdir(home)
    return 0


if __name__ == "__main__":
    sys.exit(main_hashes())
