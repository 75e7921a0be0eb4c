"""Deterministic CSV/JSON table emission.

Numbers are serialized with 12 significant digits so that golden-file
comparisons are byte-stable across runs; data files never carry
timestamps (run metadata goes to a sidecar written by the CLI).
``table_csv`` / ``table_json`` give the bytes of ``csv_text`` / ``json_text``
for an all-float (n, k) array in one pass, through ndarray methods alone.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Iterable, Sequence


def format_sig(value) -> str:
    """Format a number with 12 significant digits."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, (int,)) and not isinstance(value, bool):
        return str(value)
    return f"{float(value):.12g}"


def _round_sig(value):
    """Round a float to 12 significant digits (used for JSON payloads)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return value
    if isinstance(value, int):
        return value
    return float(f"{value:.12g}")


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Render a CSV table with \\n line endings and 12-digit numbers."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([v if isinstance(v, str) else format_sig(v) for v in row])
    return buf.getvalue()


def _walk_round(obj):
    if isinstance(obj, dict):
        return {k: _walk_round(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_walk_round(v) for v in obj]
    return _round_sig(obj)


def json_text(payload) -> str:
    """Render JSON with floats rounded to 12 significant digits."""
    return json.dumps(_walk_round(payload), indent=2) + "\n"


# json.dumps spellings of the non-finite floats
_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def table_csv(header: Sequence[str], values) -> str:
    """``csv_text(header, values.tolist())`` for an (n, k) float array."""
    n, k = values.shape
    row = ",".join(["%.12g"] * k) + "\n"
    return csv_text(header, ()) + (row * n) % tuple(values.ravel().tolist())


def _respelled(flat):
    """Where ``repr`` may spell a value otherwise than ``%.12g``, elsewhere the shortest text
    that reads back: nan, +-inf, subnormals, and within 1e-11 of an integer, as all |x| >= 1e11 are."""
    mag = abs(flat)
    mag[~(mag <= 1.7976931348623157e308)] = 0.0  # nan, +-inf: no inf - inf, re-spelled as 0 is
    return (abs(mag - mag.round()) <= 1e-11 * mag) | (mag < 1e-307)


def table_json(header: Sequence[str], values) -> str:
    """``json_text`` of one ``dict(zip(header, row))`` record per array row."""
    if len(values) == 0:
        return "[]\n"
    flat = values.ravel()
    texts = (("%.12g\n" * flat.size) % tuple(flat.tolist())).split()
    for i in _respelled(flat).nonzero()[0].tolist():
        texts[i] = _JSON_NON_FINITE.get(texts[i]) or repr(float(texts[i]))
    record = "  {\n" + ",\n".join(f"    {json.dumps(key)}: %s" for key in header) + "\n  }"
    return "[\n" + ",\n".join([record] * len(values)) % tuple(texts) + "\n]\n"
