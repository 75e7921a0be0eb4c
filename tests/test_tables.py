import json
import math
import warnings

import numpy as np
import pytest

from qcapsim.tables import (
    _respelled,
    csv_text,
    format_sig,
    json_float,
    json_text,
    table_csv,
    table_json,
)

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


def oracle_table_json(header, values):
    """Format every value with ``%.12g``, split the text, re-spell what the mask picks,
    and format the tokens again into one record template."""
    if len(values) == 0:
        return "[]\n"
    flat = values.ravel()
    texts = (("%.12g\n" * flat.size) % tuple(flat.tolist())).split()
    non_finite = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
    for i in _respelled(flat).nonzero()[0].tolist():
        texts[i] = non_finite.get(texts[i]) or repr(float(texts[i]))
    record = "  {\n" + ",\n".join(f"    {json.dumps(key)}: %s" for key in header) + "\n  }"
    return "[\n" + ",\n".join([record] * len(values)) % tuple(texts) + "\n]\n"


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
    expected = oracle_table_json(header, values)
    assert expected == oracle_json_text(_records(header, values))
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
        assert oracle_table_json(header, table) == expected
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
    assert table_json(header, values) == oracle_table_json(header, values)
    assert table_json(header, values[::-1]) == oracle_table_json(header, values[::-1])


@pytest.mark.parametrize("shape", [(5, 1), (1, 1), (9, 7), (0, 1), (0, 7)])
def test_table_json_shapes_match_the_oracles(shape):
    rng = np.random.default_rng(sum(shape))
    values = rng.choice(PICKED + LEFT, shape)
    header = tuple(f"col_{j}" for j in range(shape[1]))
    assert table_json(header, values) == oracle_table_json(header, values)
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
    with pytest.raises(TypeError):
        oracle_table_json(header, values)
    with pytest.raises(TypeError):
        table_json(header, values)
