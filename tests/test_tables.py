import json
import math
import subprocess
import sys
import warnings
from json.encoder import encode_basestring_ascii

import numpy as np
import pytest

from qcapsim import cli
from qcapsim.tables import (
    _BLOCK_CELLS,
    _kernel_tables,
    csv_text,
    format_sig,
    json_float,
    json_text,
    table_csv,
    table_json,
)
from test_readme import _src_env

SPECIAL = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e300, -1e300,
           1e-300, -1e-300, 1.0, -1.0, 1e16, 123456789012345.0, 1.0 / 3.0]


def test_format_sig_twelve_digits():
    assert format_sig(1.0 / 3.0) == "0.333333333333"
    assert format_sig(2.2733510880631623e-13) == "2.27335108806e-13"
    assert format_sig(5) == "5"
    assert format_sig(True) == "true"


def test_csv_text_quotes_embedded_commas():
    text = csv_text(("name", "value"), [("a, with comma", 1.5)])
    assert text == 'name,value\n"a, with comma",1.5\n'


def test_csv_text_uses_unix_line_endings():
    text = csv_text(("a",), [(1,), (2,)])
    assert "\r" not in text
    assert text.endswith("\n")


# --- oracles: the earlier emitters, which the one-pass ones must match byte for byte ----

def _oracle_walk_round(obj):
    if isinstance(obj, dict):
        return {k: _oracle_walk_round(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_oracle_walk_round(v) for v in obj]
    return float(f"{obj:.12g}") if isinstance(obj, float) else obj


def oracle_json_text(payload):
    """Round every float to 12 digits, then ``json.dumps(indent=2)``."""
    return json.dumps(_oracle_walk_round(payload), indent=2) + "\n"


def _respelled(flat):
    """Where ``repr`` may spell a value otherwise than ``%.12g``, elsewhere the shortest text
    that reads back: nan, +-inf, subnormals, and within 1e-11 of an integer, as all |x| >= 1e11 are."""
    mag = abs(flat)
    mag[~(mag <= 1.7976931348623157e308)] = 0.0  # nan, +-inf: no inf - inf, re-spelled as 0 is
    return (abs(mag - mag.round()) <= 1e-11 * mag) | (mag < 1e-307)


def percent_table_csv(header, values):
    """The earlier ``table_csv``: one ``%.12g`` conversion per cell in one ``%`` pass."""
    n, k = values.shape
    row = ",".join(["%.12g"] * k) + "\n"
    return csv_text(header, ()) + (row * n) % tuple(values.ravel().tolist())


def percent_table_json(header, values):
    """The earlier ``table_json``: one ``%`` pass through one record template per pattern
    of re-spelled cells."""
    if len(values) == 0:
        return "[]\n"
    cells = values.ravel().tolist()
    picked = _respelled(values.ravel())
    for i in picked.nonzero()[0].tolist():
        cells[i] = json_float(cells[i])
    keys = ["    " + encode_basestring_ascii(key).replace("%", "%%") + ": " for key in header]
    rows = picked.reshape(values.shape).view(f"S{values.shape[1]}").ravel().tolist()
    records = {row: "  {\n" + ",\n".join(key + ("%s" if s else "%.12g") for key, s in zip(
        keys, row.ljust(len(keys), b"\0"))) + "\n  }" for row in set(rows)}
    return "[\n" + ",\n".join(map(records.__getitem__, rows)) % tuple(cells) + "\n]\n"


def _records(header, values):
    return [dict(zip(header, row)) for row in values.tolist()]


def test_json_text_rounds_floats():
    doc = json.loads(json_text({"x": 1.0 / 3.0, "nested": [2.0 / 3.0]}))
    assert doc["x"] == float("0.333333333333")
    assert doc["nested"][0] == float("0.666666666667")


def test_json_text_preserves_non_numeric_values():
    doc = json.loads(json_text({"s": "text", "b": True, "n": None, "i": 7}))
    assert doc == {"s": "text", "b": True, "n": None, "i": 7}


def _table(n, seed=7):
    """n rows of random floats spanning 1e-300..1e300, with SPECIAL sprinkled in."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n, 4)) * 10.0 ** rng.integers(-300, 300, (n, 4))
    flat = values.ravel()
    flat[: len(SPECIAL)] = SPECIAL[: flat.size]
    if n > 4:
        flat[rng.integers(0, flat.size, 40)] = rng.choice(SPECIAL, 40)
    return values


@pytest.mark.parametrize("n", [0, 1, 1000])
def test_table_emitters_match_record_emitters(n):
    header = ("T_K", "insertion_loss_dB", "ratio_13_31", "x")
    values = _table(n)
    assert table_csv(header, values) == csv_text(header, values.tolist())
    expected = oracle_json_text(_records(header, values))
    assert table_json(header, values) == expected
    assert json_text(_records(header, values)) == expected


def test_table_json_empty_and_non_finite_spellings():
    assert table_json(("a",), np.empty((0, 1))) == "[]\n"
    text = table_json(("nan", "inf"), np.array([[math.nan, -math.inf], [math.inf, 1e16]]))
    assert text == (
        '[\n  {\n    "nan": NaN,\n    "inf": -Infinity\n  },\n'
        '  {\n    "nan": Infinity,\n    "inf": 1e+16\n  }\n]\n'
    )


def test_table_json_non_finite_raises_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        text = table_json(("a", "b", "c"), np.array([[math.nan, math.inf, -math.inf]]))
    assert text == '[\n  {\n    "a": NaN,\n    "b": Infinity,\n    "c": -Infinity\n  }\n]\n'


# The values whose repr is not their %.12g text, one class per clause of the mask,
# each with values just inside and just outside the class's bound.
SPELLING_CLASSES = {
    "non_finite": [math.nan, math.inf, -math.inf, 1.5, -2.5, 1.7976931348623157e308],
    # %g drops the ".0" that repr keeps; 12 digits can round up to an integer
    "integral": [0.0, -0.0, 1.0, -7.0, 2.9999999999999, 2.99999999999, 2.9999999999,
                 0.99999999999996, 0.9999999999, 12.0000000000004, 12.000000001,
                 1.0000000000049, -1.0000000000049, 1.00000000002, 49999999999.5,
                 99999999999.9, 123456.000000001, 123456.0000001],
    # from 1e12 %g spells an exponent, repr only from 1e16
    "exponent": [999999999999.6, 999999999999.4, 9999999999999999.0]
                + [sign * m * 10.0 ** e for e in range(11, 18) for sign in (1.0, -1.0)
                   for m in (1.0, 1.5, 1.23456789012, 9.99999999999, 1.0000000000001)],
    # a subnormal holds fewer than 12 digits
    "subnormal": [5e-324, -5e-324, 1e-310, 2.5e-308, 2.225073858507e-308,
                  2.2250738585072014e-308, 9.99e-308, 1.00000000001e-307, 1.23456789012e-300],
}


@pytest.mark.parametrize("name", sorted(SPELLING_CLASSES))
def test_table_json_spelling_classes(name):
    values = np.array(SPELLING_CLASSES[name])
    for shape in ((-1, 1), (1, -1)):
        table = values.reshape(shape)
        header = tuple(f"c{j}" for j in range(table.shape[1]))
        expected = oracle_json_text(_records(header, table))
        assert table_json(header, table) == expected
        assert json_text(_records(header, table)) == expected


@pytest.mark.parametrize(
    "value,text",
    [
        (999999999999.6, "1000000000000.0"),
        (9999999999999999.0, "1e+16"),
        (1e12, "1000000000000.0"),
        (-1.5e15, "-1500000000000000.0"),
        (1.23456789012e16, "1.23456789012e+16"),
        (2.9999999999999, "3.0"),
        (0.99999999999996, "1.0"),
        (-0.0, "-0.0"),
        (5e-324, "5e-324"),
        (2.5e-308, "2.5e-308"),
        (1.0 / 3.0, "0.333333333333"),
    ],
)
def test_table_json_spellings(value, text):
    assert table_json(("x",), np.array([[value]])) == f'[\n  {{\n    "x": {text}\n  }}\n]\n'


def test_values_outside_the_mask_keep_their_twelve_digit_spelling():
    rng = np.random.default_rng(1412)
    n = 20000
    bits = rng.integers(0, 2**63, n, dtype=np.uint64).view(np.float64)  # every exponent
    values = np.concatenate([
        np.where(np.isfinite(bits), bits, 0.0) * rng.choice([1.0, -1.0], n),
        rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n),
        rng.integers(-10**9, 10**9, n) / 10.0 ** rng.integers(0, 12, n),  # short decimals
        rng.integers(-10**6, 10**6, n) + rng.choice([1e-12, 1e-10, 1e-8, 0.5], n),
        rng.integers(1, 10**6, n) * 5e-324,  # subnormals down to the smallest
    ])
    outside = values[~_respelled(values)].tolist()
    assert len(outside) > len(values) // 3  # the mask is no catch-all
    for x in outside:
        text = "%.12g" % x
        assert repr(float(text)) == text, x


# --- the one float spelling and the one-walk json_text, against the oracles -----------

# every spelling class of json_float: non-finite, signed zeros, subnormals and the
# normal/subnormal edge, near-integers, the decades where %g and repr disagree on the
# exponent, and the small numbers that both write with a negative exponent
ORACLE_FLOATS = [
    math.nan, math.inf, -math.inf, 0.0, -0.0,
    5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 2.2250738585071999e-308,
    2.225073858507e-308, -2.5e-308, 1.00000000001e-307,
    1.0, -7.0, 2.9999999999999, 0.99999999999996, 12.0000000000004, 99999999999.9,
    *[sign * m * 10.0 ** e for e in range(11, 18) for sign in (1.0, -1.0)
      for m in (1.0, 1.5, 1.23456789012, 9.99999999999)],
    999999999999.6, 9999999999999999.0, 1e300, 1.7976931348623157e308,
    1e-5, -1e-5, 1.5e-5, 1e-4, 9.99999999999e-5, 0.0001234, 1.0 / 3.0, -2.0 / 3.0,
]


@pytest.mark.parametrize("value", ORACLE_FLOATS, ids=repr)
def test_json_float_is_the_rounded_repr(value):
    assert json_float(value) == json.dumps(float("%.12g" % value))
    assert json_float(np.float64(value)) == json_float(value)


def test_json_float_matches_the_oracle_on_random_bit_patterns():
    rng = np.random.default_rng(1801)
    bits = rng.integers(0, 2**64, 20000, dtype=np.uint64).view(np.float64).tolist()
    near = rng.integers(-10**6, 10**6, 20000) * (1.0 + rng.choice([0, 1e-13, 1e-11], 20000))
    for x in bits + near.tolist():
        assert json_float(x) == json.dumps(float("%.12g" % x)), x


ORACLE_RECORDS = {
    "nested": {"a": {"b": {"c": [1.0 / 3.0, {"d": [2.5, []]}]}}, "e": {}},
    "lists_and_tuples": [[1, 2.0, (3.0, -0.0)], (), [[]], ({},)],
    "empty_dict": {},
    "empty_list": [],
    "scalars": {"t": True, "f": False, "n": None, "i": -12, "big": 10**30, "s": ""},
    "non_ascii": {"Ω₁ ≈ τ": "grüße \u2603 \"quoted\" \\ \n\t", "\x00": "\x7f"},
    "np_float64": {"x": np.float64(1.0 / 3.0), "y": [np.float64(1e16), np.float64(math.nan)]},
    "floats": {f"v{i}": v for i, v in enumerate(ORACLE_FLOATS)},
    "top_level_scalar": 2.9999999999999,
    "top_level_string": "loss_%",
}


@pytest.mark.parametrize("name", sorted(ORACLE_RECORDS))
def test_json_text_matches_the_oracle(name):
    assert json_text(ORACLE_RECORDS[name]) == oracle_json_text(ORACLE_RECORDS[name])


@pytest.mark.parametrize(
    "value",
    [np.float32(1.5), np.int64(3), {1, 2}, object()],
    ids=["np.float32(1.5)", "np.int64(3)", "{1, 2}", "object()"],  # repr(object()) has an address
)
def test_json_text_rejects_what_json_dumps_rejects(value):
    with pytest.raises(TypeError):
        oracle_json_text({"x": value})
    with pytest.raises(TypeError):
        json_text({"x": value})


# one value the mask picks and one it leaves, per column of a 7-column table
PICKED = [3.0, math.nan, 1e16, -0.0, 5e-324, math.inf, 12.0000000000004]
LEFT = [1.0 / 3.0, -2.5, 1e-5, 123.456, -7.77e-200, 6.62607015e-34, 0.1]


def test_table_json_every_pattern_of_respelled_cells():
    header = tuple(f"c{j}" for j in range(7))
    values = np.array([[PICKED[j] if r >> j & 1 else LEFT[j] for j in range(7)]
                       for r in range(128)])
    patterns = _respelled(values.ravel()).reshape(values.shape)
    assert [sum(int(b) << j for j, b in enumerate(row)) for row in patterns.tolist()] == list(
        range(128)
    )
    assert table_json(header, values) == oracle_json_text(_records(header, values))
    assert table_json(header, values[::-1]) == oracle_json_text(_records(header, values[::-1]))


@pytest.mark.parametrize("shape", [(5, 1), (1, 1), (9, 7), (0, 1), (0, 7)])
def test_table_json_shapes_match_the_oracles(shape):
    rng = np.random.default_rng(sum(shape))
    values = rng.choice(PICKED + LEFT, shape)
    header = tuple(f"col_{j}" for j in range(shape[1]))
    assert table_json(header, values) == oracle_json_text(_records(header, values))


@pytest.mark.parametrize("key", ["loss_%", "a%sb", "%%", "100%d"])
def test_table_json_takes_a_percent_in_a_header_key(key):
    header = (key, "x")
    values = np.array([[1.5, 2.5], [3.0, math.nan]])
    assert table_json(header, values) == oracle_json_text(_records(header, values))
    assert json_text(_records(header, values)) == oracle_json_text(_records(header, values))


@pytest.mark.parametrize("width", [2, 3, 5, 8])
def test_table_json_rejects_a_header_of_another_width(width):
    header = tuple(f"c{j}" for j in range(width))
    values = np.array([[1.0 / 3.0, 3.0, math.nan, 0.5]] * 3)
    for emit in (table_json, table_csv):
        with pytest.raises(TypeError, match=f"^{width} keys for 4 columns$"):
            emit(header, values)


# --- the numpy kernel of table_csv / table_json against Python's own spelling -----------

def _kernel_corpus():
    """Seeded random bit patterns over every exponent, and every class the kernel leaves
    to Python or must carry: subnormals, signed zeros, nan, +-inf, powers of ten and their
    neighbours, near-ties, carries into the next decade, integers, and |x| >= 1e12."""
    rng = np.random.default_rng(2020)
    n = 4000
    tens = np.array([float(f"1e{j}") for j in range(-323, 309)])
    mantissas = rng.integers(10**11, 10**12, n).astype(float)
    values = np.concatenate([
        rng.integers(0, 2**64, 3 * n, dtype=np.uint64).view(np.float64),
        tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf),
        (mantissas + 0.5) * 10.0 ** rng.integers(-320, 290, n),  # ties at the 13th digit
        (mantissas * 10 + rng.choice([4.0, 5.0, 6.0], n)) / 10.0 ** rng.integers(0, 25, n),
        [9.999999999995e-5, 999999999999.5, 9.9999999999995e11, 99999999999.95, 0.99999999999951,
         2.0 ** -986, np.nextafter(2.0 ** -986, 0.0), 2.2250738585072014e-308, 1.7976931348623157e308],
        rng.integers(-10**17, 10**17, n).astype(float),  # integral, and |x| >= 1e12
        rng.integers(-10**6, 10**6, n) / 10.0 ** rng.integers(0, 12, n),  # short decimals
        rng.integers(1, 10**6, n) * 5e-324,  # subnormals down to the smallest
        [0.0, math.nan, math.inf, 1e16, 1e300],
    ])
    return np.concatenate([values, -values])


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_kernel_spells_every_cell_as_python_does(fmt):
    values = _kernel_corpus()
    if fmt == "csv":
        expected = "x\n" + "".join("%.12g\n" % v for v in values.tolist())
        assert table_csv(("x",), values[:, None]) == expected
    else:
        expected = "[\n" + ",\n".join(f'  {{\n    "x": {json_float(v)}\n  }}' for v in values.tolist()) + "\n]\n"
        assert table_json(("x",), values[:, None]) == expected


def test_kernel_powers_of_ten_are_within_one_ulp():
    # the exactness argument of the kernel assumes it; Python parses 1e<j> correctly rounded
    scale = _kernel_tables().scale[:-1]  # 10**(11 - e) for e = -297..308
    exact = np.array([float(f"1e{j}") for j in range(308, -298, -1)])
    assert np.max(np.abs(scale.view(np.int64) - exact.view(np.int64))) <= 1


@pytest.mark.parametrize("k", [1, 4, 7])
def test_table_emitters_match_the_percent_pass_across_blocks(k):
    block = _BLOCK_CELLS // k
    rng = np.random.default_rng(k)
    header = tuple(f"c{j}" for j in range(k))
    for n in (0, 1, block - 1, block, block + 1):
        values = rng.standard_normal((n, k)) * 10.0 ** rng.integers(-8, 14, (n, k))
        values.ravel()[::97] = rng.choice(PICKED + LEFT, values.ravel()[::97].shape)
        assert table_csv(header, values) == percent_table_csv(header, values)
        assert table_json(header, values) == percent_table_json(header, values)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command,config", [("sweep-capacitance", "paper_fig2.json"),
                                            ("circulator", "paper_fig4.json"),
                                            ("circulator", "paper_fig5.json")])
def test_bundled_sweeps_match_the_percent_pass(command, config, fmt, monkeypatch, capsys):
    emitted = []
    emitter = getattr(cli, f"table_{fmt}")
    monkeypatch.setattr(cli, f"table_{fmt}", lambda header, values: (
        emitted.append((header, values)) or emitter(header, values)))
    assert cli.main([command, "--config", config, "--format", fmt]) == 0
    [(header, values)] = emitted
    oracle = percent_table_csv if fmt == "csv" else percent_table_json
    assert capsys.readouterr().out == oracle(header, values)


def test_importing_tables_loads_no_numpy_and_builds_no_table():
    probe = ("import sys, qcapsim.tables as t\n"
             "print('numpy' in sys.modules, t._kernel_tables.cache_info().currsize)\n")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env=_src_env())
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False", "0"]
