"""Deterministic CSV/JSON table emission.

Numbers are serialized with 12 significant digits so that golden-file
comparisons are byte-stable across runs; data files never carry
timestamps (run metadata goes to a sidecar written by the CLI).  JSON
spells a float as ``repr`` of it rounded to 12 digits (:func:`json_float`),
in the ``json.dumps(indent=2)`` layout.  ``table_csv`` / ``table_json`` give
the bytes of ``csv_text`` / ``json_text`` for an all-float (n, k) array from
one numpy kernel, :func:`_spell`: y = |x| * 10**(11 - e) is within 3.4e-4 of
its exact value, so ``rint(y)`` is the 12-digit mantissa unless y lies within
1e-3 of a tie.  Those near-ties, nan, +-inf, |x| < 2**-986 and, in JSON,
|x| >= 1e12 keep Python's own spelling (README, under "Command line").
Importing this module loads no numpy; the kernel's tables are built on first use.
"""

from __future__ import annotations

import csv
import functools
import io
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace
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


# --- the %.12g kernel of table_csv and table_json -----------------------------

_BLOCK_CELLS = 8192  # cells per kernel pass: its temporaries stay near 1 MB
_EXP_MIN = -297  # the decimal exponent of 2**-986; the kernel's index of exponent e is e - _EXP_MIN
_POISON = 606  # the index of every cell left to Python: its scale is NaN


@functools.cache
def _kernel_tables():
    """The lookup tables of :func:`_spell`, built with numpy arithmetic."""
    import numpy as np

    u = np.uint64
    pow10 = 10.0 ** np.arange(-308, 309)  # within one ulp of 10**j
    e_lo = np.floor((np.arange(2048) - 1023) * np.log10(2.0)).astype(np.int64)  # e or e - 1
    L0, threshold = np.full(2048, _POISON), np.full(2048, np.nan)  # by biased binary exponent
    L0[37:2047], threshold[37:2047] = e_lo[37:2047] - _EXP_MIN, pow10[e_lo[37:2047] + 309]
    d = np.arange(48, 58, dtype=u)
    digits, zeros = d, (d == 48).astype(np.int8)  # the ASCII digits of 0..9999, trailing zeros
    for shift in (8, 16, 24):
        digits, zeros = (digits[:, None] | d << u(shift)).ravel(), ((1 + zeros)[:, None] * (d == 48)).ravel()
    s2 = 8 - 2 * zeros  # twice the significant digits of a group; 0000 after the first adds none
    s2[0] = -16
    x = np.arange(_EXP_MIN, _EXP_MIN + _POISON + 1)
    cls = np.where((x >= -4) & (x < 12), x + 4, 16) * 26  # layout class: fixed point, or 16
    expw = np.where(cls < 16 * 26, u(0), digits[abs(x) % 10000] >> np.where(abs(x) < 100, u(16), u(8))
                    << u(16) | np.where(x < 0, u(101 | 45 << 8), u(101 | 43 << 8)))  # "e-05", "e+308"
    # by JSON flag, class, 2 * significant digits + sign: the prefix word ("-", "0.000"),
    # and masks over the two digit words that keep, shift up past the point, or write it
    lead = np.array([int.from_bytes(b"0.000"[:5 - c] * (c < 4), "little") for c in range(17)], u)
    K = np.array([0] * 4 + list(range(1, 13)) + [1])[:, None]  # digits before the point
    dot0 = np.array([[0], [2]])[:, None] * (K > 0) * (np.arange(17) < 16)[:, None]  # JSON's ".0"
    end = np.where(np.arange(13) <= K, K + dot0, np.arange(13) + 1)[..., None]
    K, at = K[..., None], K[..., None] - [0, 8]  # at: the point's byte in each word
    low = (~u(0) >> u(64) - u(8) * np.arange(9, dtype=u)).take  # n low bytes set, n clipped
    masks = (low(np.minimum(K, end) - [0, 8], mode="clip"), low(end - [0, 8], mode="clip") & ~low(at + 1, mode="clip"),
             np.where((K > 0) & (end > K) & (at >= 0) & (at < 8), u(46) << u(8) * (at % 8).astype(u), u(0)))
    prefix = np.stack([lead, lead << u(8) | u(45)], axis=1)[:, None, :, None]  # by class, sign
    shape = (2, 17, 13, 2)  # JSON flag, class, significant digits, sign
    layout = [np.broadcast_to(prefix, shape + (1,))] + [np.broadcast_to(m[:, :, :, None], shape + (2,)) for m in masks]
    return SimpleNamespace(
        L0=L0, threshold=threshold, scale=np.append(pow10[616:10:-1], np.nan), cls=cls, expw=expw,
        digits=np.append(digits, digits[1000]), s2=np.append(s2, s2[1000]),
        layout=np.concatenate(layout, axis=-1).reshape(2, -1, 7))


def _spell(x, json: bool, out) -> None:
    """Write each float of ``x`` as ``format_sig(x)`` (``json_float(x)`` if ``json``) into its
    row of the (n, 4) uint64 ``out``: NUL-padded ASCII in text order."""
    import numpy as np

    t, u = _kernel_tables(), np.uint64
    a = np.abs(x)
    zero = a == 0.0
    a += zero  # a zero is spelled as 1, whose digit is then set to 0
    E = a.view(np.int64) >> 52
    L = t.L0.take(E, mode="clip")  # the index of the decimal exponent e
    L += a >= t.threshold.take(E, mode="clip")
    y = t.scale.take(L, mode="clip") * a  # |x| * 10**(11 - e)
    q = np.rint(y)
    fall = ~(np.abs(y - q) <= 0.499)  # near-ties, and the NaN of every poisoned cell
    L += q >= 1e12  # a carry into the next decade
    if json:
        fall |= L > 11 - _EXP_MIN  # from 1e12 on, repr drops or moves the exponent
    h, l = np.divmod(q.astype(np.int64), 100000000)
    m, l = np.divmod(l, 10000)
    row = t.cls.take(L, mode="clip") + np.signbit(x)  # the layout
    row += np.maximum(np.maximum(t.s2.take(h, mode="clip"), t.s2.take(m, mode="clip") + 8),
                      t.s2.take(l, mode="clip") + 16)
    w0 = (t.digits.take(h, mode="clip") | t.digits.take(m, mode="clip") << u(32)) - zero
    w1 = t.digits.take(l, mode="clip") | u(48 << 32)  # the 12 digits, then JSON's "0"
    # a 7-word row per cell, unpacked into columns: ufuncs on (n, 2) slices of it loop 2 words at a time
    prefix, keep0, keep1, shift0, shift1, point0, point1 = t.layout[int(json)].take(row, axis=0, mode="clip").T
    out[:, 0] = prefix
    out[:, 1] = w0 & keep0 | w0 << u(8) & shift0 | point0
    out[:, 2] = w1 & keep1 | (w1 << u(8) | w0 >> u(56)) & shift1 | point1
    out[:, 3] = t.expw.take(L, mode="clip")
    fall = fall.nonzero()[0]
    spell = json_float if json else format_sig
    text = b"".join(spell(v).encode().ljust(32, b"\0") for v in x[fall].tolist())
    out[fall] = np.frombuffer(text, u).reshape(-1, 4)


def _table_text(values, head: str, json_keys: Sequence[str] = ()) -> str:
    """``head``, then the rows of the (n, k) float array ``values``: CSV lines, or with
    ``json_keys`` the records of a JSON list up to its closing bracket."""
    import numpy as np

    values = np.asarray(values, dtype=np.float64)
    n, k = values.shape
    sep = np.array([ord(c) << 56 for c in "," * (k - 1) + "\n"], np.uint64)  # a CSV cell's top byte
    keys = [b",\n    " + encode_basestring_ascii(key).encode() + b": " for key in json_keys]
    keys[:1] = [b"\n  },\n  {\n" + key[2:] for key in keys[:1]]  # a record closes the one before
    row = np.frombuffer(b"".join(key.rjust(-len(key) % 8 + len(key), b"\0") + bytes(32) for key in keys),
                        np.uint64)  # a JSON row: the words of each key, then 4 zero words for its cell
    text, skip, step = bytearray(head.encode()), 10 * bool(keys), max(1, _BLOCK_CELLS // max(k, 1))
    with np.errstate(invalid="ignore"):  # nan, inf and signalling NaNs meet the NaN scale
        for start in range(0, n, step):
            block = values[start:start + step]
            cells = np.empty((block.size, 4), np.uint64)
            _spell(block.ravel(), bool(keys), cells)
            cells.shape = (len(block), 4 * k)
            if keys:
                cells, grid = np.tile(row, (len(block), 1)), cells
                cells[:, row == 0] = grid
            else:
                cells[:, 3::4] |= sep
            text += cells.tobytes().translate(None, b"\0")[skip:]  # the first record opens with head
            skip = 0
    text += b"\n  }\n]\n" if keys else b""
    return text.decode()


def _require_width(header: Sequence[str], values) -> None:
    """TypeError unless the (n, k) array ``values`` has one column per ``header`` entry."""
    if len(header) != values.shape[1]:
        raise TypeError(f"{len(header)} keys for {values.shape[1]} columns")


def table_csv(header: Sequence[str], values) -> str:
    """``csv_text(header, values.tolist())`` for an (n, k) float array."""
    _require_width(header, values)
    return _table_text(values, csv_text(header, ()))


def table_json(header: Sequence[str], values) -> str:
    """``json_text`` of one ``dict(zip(header, row))`` record per row of an (n, k) float array."""
    _require_width(header, values)
    return _table_text(values, "[\n  {\n", header) if len(values) else "[]\n"
