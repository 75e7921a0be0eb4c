"""Host calibration probe: a fixed pure-Python plus numpy loop.

Timed between requests, it tracks how fast the host runs right now, so host
drift can be told apart from a change to the program.  Diagnostic only.
"""

from __future__ import annotations

import time

import numpy as np

_MATRIX = np.linspace(-1.0, 1.0, 64 * 64).reshape(64, 64)


def host_probe_ms() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc += (i * i) % 7
    a = _MATRIX
    for _ in range(20):
        a = np.tanh(a @ _MATRIX * 0.05)
    float(a.sum()) + acc
    return (time.perf_counter() - t0) * 1e3
