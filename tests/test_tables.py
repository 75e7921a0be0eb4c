import json
import math
import warnings

import numpy as np
import pytest

from qcapsim.tables import _respelled, csv_text, format_sig, json_text, table_csv, table_json

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
    records = [dict(zip(header, row)) for row in values.tolist()]
    assert table_json(header, values) == json_text(records)


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
        records = [dict(zip(header, row)) for row in table.tolist()]
        assert table_json(header, table) == json_text(records)


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
