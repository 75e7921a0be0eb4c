"""Order statistics for the end-to-end metrics (stdlib only)."""

from __future__ import annotations

import math

# Candidate tail percentiles, ascending.
TAIL_LADDER = tuple(range(50, 100)) + (99.5, 99.9, 99.99)
TAIL_MIN_BEYOND = 10


def nearest_rank(sorted_values: list[float], p: float) -> tuple[float, int]:
    """Nearest-rank p-th percentile and the number of samples above its rank."""
    n = len(sorted_values)
    rank = max(1, math.ceil(p / 100.0 * n))
    return sorted_values[rank - 1], n - rank


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest ladder percentile with at least ten samples beyond it.

    Returns (percentile, value, samples beyond).  Needs at least 20 samples,
    the fewest for which p50 itself has ten beyond.
    """
    ordered = sorted(values)
    best = None
    for p in TAIL_LADDER:
        value, beyond = nearest_rank(ordered, p)
        if beyond < TAIL_MIN_BEYOND:
            break
        best = (p, value, beyond)
    if best is None:
        raise ValueError(f"{len(values)} samples: need at least {2 * TAIL_MIN_BEYOND}")
    return best
