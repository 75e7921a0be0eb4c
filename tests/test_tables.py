import json
import math

import numpy as np
import pytest

from qcapsim.tables import csv_text, format_sig, json_text, table_csv, table_json

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
