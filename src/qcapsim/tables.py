"""Deterministic CSV/JSON table emission.

Numbers are serialized with 12 significant digits so that golden-file
comparisons are byte-stable across runs; data files never carry
timestamps (run metadata goes to a sidecar written by the CLI).  JSON
spells a float as ``repr`` of it rounded to 12 digits (:func:`json_float`),
in the ``json.dumps(indent=2)`` layout.  ``table_csv`` / ``table_json`` give
the bytes of ``csv_text`` / ``json_text`` for an all-float (n, k) array in
one ``%`` pass, through ndarray methods alone.
"""

from __future__ import annotations

import csv
import io
from json.encoder import encode_basestring_ascii
from typing import Iterable, Sequence


def format_sig(value) -> str:
    """Format a number with 12 significant digits."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, int):
        return str(value)
    return f"{float(value):.12g}"


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Render a CSV table with \\n line endings and 12-digit numbers."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([v if isinstance(v, str) else format_sig(v) for v in row])
    return buf.getvalue()


# json.dumps spellings of the non-finite floats, keyed by their %.12g text
_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def json_float(value) -> str:
    """JSON text of a float: ``repr`` of it rounded to 12 digits, from the ``%.12g`` text."""
    text = "%.12g" % value
    if "e" not in text:
        return text if "." in text else _JSON_NON_FINITE.get(text) or text + ".0"
    if "e-" in text and abs(value) >= 2.2250738585072014e-308:  # normal: repr writes the same
        return text
    return repr(float(text))  # e+ (repr spells it out below 1e16) and subnormals (fewer digits)


def _json(obj, newline: str) -> str:
    """``json.dumps(obj, indent=2)`` at the depth of ``newline``; floats by ``json_float``."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None or isinstance(obj, bool):
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, (int, float)):
        return int.__repr__(obj) if isinstance(obj, int) else json_float(obj)
    inner = newline + "  "
    if isinstance(obj, dict):
        items = [f"{encode_basestring_ascii(k)}: {_json(v, inner)}" for k, v in obj.items()]
    elif isinstance(obj, (list, tuple)):
        items = [_json(v, inner) for v in obj]
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    start, end = "{}" if isinstance(obj, dict) else "[]"
    return start + inner + ("," + inner).join(items) + newline + end if items else start + end


def json_text(payload) -> str:
    """Render JSON like ``json.dumps(indent=2)``, with floats rounded to 12 significant digits."""
    return _json(payload, "\n") + "\n"


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
    """``json_text`` of one ``dict(zip(header, row))`` record per array row, in one ``%`` pass."""
    if len(values) == 0:
        return "[]\n"
    cells = values.ravel().tolist()
    picked = _respelled(values.ravel())
    for i in picked.nonzero()[0].tolist():
        cells[i] = json_float(cells[i])
    keys = ["    " + encode_basestring_ascii(key).replace("%", "%%") + ": " for key in header]
    # each row's picks as bytes, which drop trailing zeros; one record template per pattern
    rows = picked.reshape(values.shape).view(f"S{values.shape[1]}").ravel().tolist()
    records = {row: "  {\n" + ",\n".join(key + ("%s" if s else "%.12g") for key, s in zip(
        keys, row.ljust(len(keys), b"\0"))) + "\n  }" for row in set(rows)}
    return "[\n" + ",\n".join(map(records.__getitem__, rows)) % tuple(cells) + "\n]\n"
