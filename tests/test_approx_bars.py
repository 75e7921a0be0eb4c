"""Every ``pytest.approx`` in the suite states its absolute tolerance.

pytest's default ``abs=1e-12`` applies even when ``rel=`` is given, so a
bare ``approx(2.275e-13, rel=1e-3)`` accepts any value below 1e-12.  SI
quantities here (energies ~1e-24 J, tau ~1e-13 s) sit far below that.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).parent


def _bare_approx_calls(source: str):
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "approx" and not any(k.arg == "abs" for k in node.keywords):
                yield node.lineno


def test_detector_finds_bare_approx():
    source = "a == pytest.approx(1.0, rel=1e-3)\nb == approx(2.0)\nc == approx(3.0, abs=0.0)\n"
    assert list(_bare_approx_calls(source)) == [1, 2]


def test_every_approx_passes_abs():
    bare = [
        f"{path.name}:{line}"
        for path in sorted(TESTS.glob("*.py"))
        for line in _bare_approx_calls(path.read_text(encoding="utf-8"))
    ]
    assert bare == []
