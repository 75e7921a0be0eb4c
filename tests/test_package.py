"""Every public name has one home, the module that defines it, and is imported
from there: ``import qcapsim`` exports nothing but ``__version__``."""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import qcapsim
from test_readme import _src_env

SRC_DIR = Path(__file__).resolve().parent.parent / "src"
PERFBENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"

# every public name of the modeling layer, grouped by its one home
EXPORTS = {
    "capacitor": (
        "CapacitanceSweep", "DesignReport", "capacitance_sweep", "charge_series_coefficients",
        "design_check", "energy_series_coefficients", "geometric_capacitance",
        "linear_capacitance_C0", "quantum_capacitance_T0", "series_capacitance",
    ),
    "circulator": (
        "CirculatorConfig", "SweepResult", "coupling_matrix", "langevin_matrix",
        "scattering_matrix", "sweep",
    ),
    "constants": (
        "E", "EPSILON_0", "H", "HBAR", "K_B", "PI_HBAR_VF_SQ", "SPEED_OF_LIGHT", "V_F",
    ),
    "errors": ("ConfigError", "CutoffNotConverged", "PerturbativeRegimeExceeded", "SingularSystem"),
    "mode": (
        "InteractionClassification", "OscillatorSpec", "SpectrumResult",
        "anharmonicity_percent_printed", "classify_interaction", "fock_diagonalize", "gamma_nml",
        "hamiltonian_coefficients", "nonlinear_time_constant", "photon_amplitude",
        "photon_number_limit", "photon_number_limit_derived", "resonant_inductance",
        "single_photon_rate_printed",
    ),
}
CASES = [(module, name) for module, names in EXPORTS.items() for name in names]

PROBE = (
    "import json, sys\n"
    "import qcapsim\n"
    "loaded = sorted(m for m in sys.modules if m.startswith('qcapsim.') or m == 'numpy')\n"
    "try:\n"
    "    qcapsim.fock_diagonalize\n"
    "    missing = False\n"
    "except AttributeError:\n"
    "    missing = True\n"
    "print(json.dumps([loaded, missing]))\n"
)


@pytest.mark.parametrize("module,name", CASES, ids=[name for _, name in CASES])
def test_export_resolves_to_its_defining_object(module, name):
    value = getattr(importlib.import_module(f"qcapsim.{module}"), name)
    if hasattr(value, "__module__"):
        assert value.__module__ == f"qcapsim.{module}"
    assert not hasattr(qcapsim, name)


def _names_read_in_src() -> set:
    """Every name that code in ``src/qcapsim`` reads: a ``Name`` loaded, an
    attribute, or a ``from ... import`` alias.  Docstrings and the name's own
    ``def``, ``class`` or assignment do not count."""
    reads = set()
    for path in sorted((SRC_DIR / "qcapsim").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add(node.id)
            elif isinstance(node, ast.Attribute):
                reads.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                reads.update(alias.name for alias in node.names)
    return reads


def test_every_export_is_read_in_src():
    # a public name that only tests read belongs in tests/oracles.py, not in the package
    reads = _names_read_in_src()
    assert [name for _, name in CASES if name not in reads] == []


def _class_members() -> list[str]:
    """``Class.member`` for every method and property, dunders aside, that a
    class in ``src/qcapsim`` defines."""
    members = []
    for path in sorted((SRC_DIR / "qcapsim").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef):
                members += [f"{node.name}.{item.name}" for item in node.body
                            if isinstance(item, ast.FunctionDef) and not item.name.startswith("__")]
    return members


def test_every_class_member_is_read_in_src():
    # a method or property that only tests read belongs in the tests, as a helper
    reads = _names_read_in_src()
    members = _class_members()
    assert "SweepResult.columns" in members
    assert [member for member in members if member.split(".")[1] not in reads] == []


def test_no_src_module_reads_a_private_name_of_another():
    # a helper two modules share is public in its home, or both callers live there
    reads = []
    for path in sorted((SRC_DIR / "qcapsim").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        modules = set()  # names bound to a sibling module by ``from . import name``
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module == "qcapsim"):
                source = "." * node.level + (node.module or "")
                modules.update(a.asname or a.name for a in node.names if node.module is None)
                reads += [f"{path.name}: from {source} import {a.name}" for a in node.names
                          if a.name.startswith("_") and not a.name.endswith("__")]
        reads += [f"{path.name}: {node.value.id}.{node.attr}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr.startswith("_")
                  and isinstance(node.value, ast.Name) and node.value.id in modules]
    assert reads == []


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        qcapsim.no_such_name
    assert not hasattr(qcapsim, "complex_solve")


def test_import_loads_no_submodule_and_exports_no_name():
    result = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True, env=_src_env()
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == [[], True]


# the names the benchmark wraps in its layer spans; one that stops resolving
# would read 0 in its per-layer metrics instead of failing the benchmark
SPAN_TARGETS = (
    "qcapsim.cli.main", "qcapsim.cli.capacitance_sweep", "qcapsim.cli.sweep",
    "qcapsim.cli.fock_diagonalize", "qcapsim.cli.csv_text", "qcapsim.cli.json_text",
    "qcapsim.linalg.symmetric_eigenvalues",
)


def test_benchmark_span_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH_DIR))
    spans = importlib.import_module("spans")  # perfbench's tracer, only read
    installed = spans.Tracer().installed  # resolves every target, wraps none
    assert [t for t in SPAN_TARGETS if t not in installed] == []


def test_benchmark_span_hooks_read_the_kernel_results(monkeypatch, capsys):
    # the hooks read CapacitanceSweep.T_K and SweepResult.detuning_grid; no other
    # tier-1 test traces a request, so a rename would fail only a traced benchmark run
    from qcapsim import cli

    monkeypatch.syspath_prepend(str(PERFBENCH_DIR))
    spans = importlib.import_module("spans")  # perfbench's tracer, only read
    tracer = spans.Tracer()
    tracer.install()
    try:
        for argv in (["sweep-capacitance", "--T", "0,1", "--points", "3"],
                     ["circulator", "--config", "paper_fig4.json", "--points", "3"],
                     ["qubit", "--T", "4"]):
            assert cli.main(argv) == 0, argv
    finally:
        tracer.uninstall()
    capsys.readouterr()
    metrics = spans.layer_metrics(tracer.summary())
    counted = {key: metrics[key] for key in (
        "capacitance.cells", "circulator.points", "linalg.eig_calls", "oscillator.fock_calls")}
    assert counted == {"capacitance.cells": 6, "circulator.points": 3, "linalg.eig_calls": 4,
                       "oscillator.fock_calls": 1}
