import argparse
import csv
import io
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from qcapsim import cli
from qcapsim.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def _src_env():
    """Environment for a fresh interpreter that imports qcapsim from src/."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC_DIR) + (os.pathsep + path if path else ""))


# --- verify-paper ----------------------------------------------------------------

def test_verify_paper_passes_with_expected_flags(capsys):
    code, out, _ = run_cli(capsys, "verify-paper")
    assert code == 0
    rows = parse_csv(out)
    statuses = {row["id"]: row["status"] for row in rows}
    assert len(rows) == 13
    assert statuses["anharmonicity_1k_pct"] == "FLAG"
    assert statuses["g0_definition_factor"] == "FLAG"
    assert statuses["quartic_coefficient_ratio"] == "FLAG"
    assert all(s in ("PASS", "FLAG") for s in statuses.values())
    assert sum(1 for s in statuses.values() if s == "PASS") == 10


def test_verify_paper_json_format(capsys):
    code, out, _ = run_cli(capsys, "verify-paper", "--format", "json")
    assert code == 0
    records = json.loads(out)
    by_id = {r["id"]: r for r in records}
    assert by_id["cg_areal"]["computed"] == pytest.approx(5.0595358930, rel=1e-9, abs=0.0)
    assert by_id["anharmonicity_1k_pct"]["computed"] == pytest.approx(1.714, rel=1e-6, abs=0.0)


# --- tables and records -----------------------------------------------------------

def test_sweep_capacitance_table(capsys):
    code, out, _ = run_cli(
        capsys, "sweep-capacitance", "--T", "0.25,1,4", "--vmax", "0.05", "--points", "11"
    )
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 33
    assert list(rows[0]) == ["T_K", "V_volt", "CQ_fF_per_um2", "Cseries_fF_per_um2"]
    for row in rows:
        assert float(row["Cseries_fF_per_um2"]) <= float(row["CQ_fF_per_um2"]) + 1e-12


def test_sweep_capacitance_bundled_config(capsys):
    code, out, _ = run_cli(capsys, "sweep-capacitance", "--config", "paper_fig2.json")
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 4 * 201
    assert {float(r["T_K"]) for r in rows} == {0.0, 0.25, 1.0, 4.0}


def test_design_check_record(capsys):
    code, out, _ = run_cli(capsys, "design-check", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["thickness_ok"] and doc["dominance_ok"]
    assert doc["C_G_fF_per_um2"] == pytest.approx(5.0595, rel=1e-4, abs=0.0)


def test_qubit_record_with_spectrum(capsys):
    code, out, _ = run_cli(capsys, "qubit", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["tau_s"] == pytest.approx(2.27335108806e-13, rel=1e-9, abs=0.0)
    assert doc["anharmonicity_percent_printed"] == pytest.approx(1.714, rel=1e-6, abs=0.0)
    assert doc["n_max_printed"] == pytest.approx(10.425, rel=1e-9, abs=0.0)
    assert len(doc["spectrum"]["eigenvalues_J"]) == doc["fock_cutoff"]


def test_qubit_nonconvergent_regime_exits_one(capsys):
    code, _, err = run_cli(capsys, "qubit", "--T", "0.5")
    assert code == 1
    assert "CutoffNotConverged" in err


def test_qubit_skip_spectrum_always_succeeds(capsys):
    code, out, _ = run_cli(capsys, "qubit", "--T", "0.5", "--skip-spectrum", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert "spectrum" not in doc
    assert doc["anharmonicity_percent_printed"] == pytest.approx(13.712, rel=1e-6, abs=0.0)


def test_coupling_record(capsys):
    code, out, _ = run_cli(capsys, "coupling", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "hopping"
    assert doc["g0_printed_rad_s"] == pytest.approx(1.60727761046e8, rel=1e-9, abs=0.0)
    assert doc["ratio_symbolic_to_printed"] == pytest.approx(3.0, rel=5e-3, abs=0.0)


def test_circulator_bundled_config(capsys):
    code, out, _ = run_cli(capsys, "circulator", "--config", "paper_fig4.json")
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 1001
    ratios = [float(r["ratio_13_31"]) for r in rows]
    assert max(ratios) > 10.0
    ils = [float(r["insertion_loss_dB"]) for r in rows]
    assert min(ils) < 1.0


@pytest.mark.parametrize(
    "argv",
    [
        ("circulator", "--config", "paper_fig4.json", "--points", "21"),
        ("sweep-capacitance", "--T", "0,1", "--points", "11"),
        ("verify-paper",),
    ],
)
def test_json_records_are_the_csv_rows(argv, capsys):
    code, csv_out, _ = run_cli(capsys, *argv)
    assert code == 0
    code, json_out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    rows = parse_csv(csv_out)
    records = json.loads(json_out)
    assert [list(r) for r in records] == [list(row) for row in rows]
    for record, row in zip(records, rows):
        for key, value in record.items():
            if isinstance(value, str):
                assert value == row[key]
            else:
                assert float(row[key]) == value


# Perfbench's layer spans wrap these names on qcapsim.cli; each subcommand
# must call through them when it runs.
SPAN_NAMES = ("capacitance_sweep", "sweep", "fock_diagonalize", "csv_text", "json_text")


@pytest.mark.parametrize(
    "argv,called",
    [
        (("sweep-capacitance", "--T", "0,1", "--points", "3"), ("capacitance_sweep",)),
        (("sweep-capacitance", "--T", "0,1", "--points", "3", "--format", "json"),
         ("capacitance_sweep",)),
        (("circulator", "--config", "paper_fig4.json", "--points", "3"), ("sweep",)),
        (("circulator", "--config", "paper_fig4.json", "--points", "3", "--format", "json"),
         ("sweep",)),
        (("qubit", "--T", "4"), ("fock_diagonalize", "csv_text")),
        (("qubit", "--T", "4", "--format", "json"), ("fock_diagonalize", "json_text")),
        (("verify-paper",), ("csv_text",)),
        (("verify-paper", "--format", "json"), ("json_text",)),
    ],
)
def test_subcommands_call_the_module_attributes(argv, called, monkeypatch, capsys):
    calls = dict.fromkeys(SPAN_NAMES, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in SPAN_NAMES:
        monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    assert calls == {name: int(name in called) for name in SPAN_NAMES}


# --- parser reuse ---------------------------------------------------------------------

# Each later call relies on a default that an earlier one overrode; the last
# four take the argparse error, --version and bundled-config paths.
REUSE_SEQUENCE = (
    ("qubit", "--T", "2", "--cutoff", "40", "--format", "json"),
    ("qubit", "--T", "1", "--skip-spectrum"),
    ("design-check", "--T", "2"),
    ("design-check",),
    ("qubit", "--T", "nan"),
    ("--version",),
    ("circulator",),
    ("sweep-capacitance", "--config", "paper_fig2.json"),
)


def _call_main(argv):
    """``main(argv)``'s exit code, also when argparse exits instead."""
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


def _parse(parser, argv):
    try:
        return vars(parser.parse_args(list(argv)))
    except SystemExit as exc:
        return exc.code


@pytest.fixture(scope="module")
def fresh_process_runs():
    """(exit code, stdout, stderr) of each REUSE_SEQUENCE argv, each run alone
    in a fresh interpreter."""
    runs = {}
    for argv in REUSE_SEQUENCE:
        result = subprocess.run(
            [sys.executable, "-m", "qcapsim.cli", *argv],
            capture_output=True, text=True, env=_src_env(),
        )
        runs[argv] = (result.returncode, result.stdout, result.stderr)
    return runs


@pytest.mark.parametrize("order", ["forward", "reverse"])
def test_reused_parser_leaks_no_state(order, fresh_process_runs, capsys):
    sequence = REUSE_SEQUENCE if order == "forward" else REUSE_SEQUENCE[::-1]
    for argv in sequence:
        code = _call_main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == fresh_process_runs[argv], argv
    for argv in sequence:
        assert _parse(cli._parser(), argv) == _parse(cli.build_parser(), argv), argv


def test_reused_parser_restores_defaults(fresh_process_runs):
    # the overrides of the calls before them do not stick
    code, out, _ = fresh_process_runs[("qubit", "--T", "1", "--skip-spectrum")]
    assert code == 0
    assert out == (GOLDEN_DIR / "qubit_T1_skip_spectrum.csv").read_text()
    code, out, _ = fresh_process_runs[("design-check",)]
    assert code == 0
    assert out == (GOLDEN_DIR / "design_check.csv").read_text()
    assert fresh_process_runs[("qubit", "--T", "nan")][0] == 2
    assert fresh_process_runs[("--version",)][:2] == (0, f"qcap-sim {cli.__version__}\n")
    assert fresh_process_runs[("circulator",)][0] == 2


def test_parser_is_built_once_per_process():
    probe = (
        "import contextlib, io, json, sys\n"
        "import qcapsim.cli as cli\n"
        "built = []\n"
        "build = cli.build_parser\n"
        "cli.build_parser = lambda: built.append(1) or build()\n"
        "codes = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes.append(cli.main(argv))\n"
        "print(json.dumps([codes, len(built)]))\n"
    )
    invocations = [["design-check"], ["coupling", "--format", "json"], ["verify-paper"]]
    result = subprocess.run(
        [sys.executable, "-c", probe, json.dumps(invocations)],
        capture_output=True, text=True, env=_src_env(),
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == [[0, 0, 0], 1]


def _qubit_subparser(parser):
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return commands.choices["qubit"]


def test_reused_parser_help_matches_a_fresh_one(capsys):
    assert run_cli(capsys, "design-check")[0] == 0
    reused, fresh = cli._parser(), cli.build_parser()
    assert reused.format_help() == fresh.format_help()
    assert _qubit_subparser(reused).format_help() == _qubit_subparser(fresh).format_help()


# --- error paths --------------------------------------------------------------------

def test_unknown_config_key_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"circulator": {"omega": [1, 1, 1]}, "bogus": 1}))
    code, _, err = run_cli(capsys, "circulator", "--config", str(bad))
    assert code == 2
    assert "bogus" in err and str(bad) in err


def test_unknown_nested_key_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "circulator": {
                    "omega": [1, 1, 1],
                    "kappa": [1, 1, 1],
                    "g": [1, 1, 1],
                    "phi": [0, 0, 0],
                    "extra": True,
                }
            }
        )
    )
    code, _, err = run_cli(capsys, "circulator", "--config", str(bad))
    assert code == 2
    assert "extra" in err


def test_malformed_json_rejected(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "circulator", "--config", str(bad))
    assert code == 2
    assert "config error" in err


def test_missing_config_rejected(capsys):
    code, _, err = run_cli(capsys, "circulator", "--config", "does_not_exist.json")
    assert code == 2
    assert "not found" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("design-check", "--T", "nan"),
        ("coupling", "--S", "nan"),
        ("qubit", "--S", "inf"),
        ("sweep-capacitance", "--T", "1,-inf"),
    ],
)
def test_non_finite_option_rejected(argv):
    result = subprocess.run(
        [sys.executable, "-m", "qcapsim.cli", *argv],
        capture_output=True,
        text=True,
        env=_src_env(),
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert "Traceback" not in result.stderr
    assert "finite" in result.stderr


@pytest.mark.parametrize(
    "key,value",
    [("delta_min_GHz", float("nan")), ("kappa", [2.0, float("nan"), 2.0])],
)
def test_non_finite_circulator_config_rejected(key, value, tmp_path):
    doc = {"circulator": {"omega": [2, 4, 6], "kappa": [2, 2, 2], "g": [1, 1, 1],
                          "phi": [0, 0.5, 0]}}
    (doc if key == "delta_min_GHz" else doc["circulator"])[key] = value
    config = tmp_path / "nan.json"
    config.write_text(json.dumps(doc))
    result = subprocess.run(
        [sys.executable, "-m", "qcapsim.cli", "circulator", "--config", str(config)],
        capture_output=True,
        text=True,
        env=_src_env(),
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert "Traceback" not in result.stderr
    assert "finite" in result.stderr and "Warning" not in result.stderr


@pytest.mark.parametrize(
    "key,value",
    [
        ("n_points", float("inf")),
        ("vmax_V", float("nan")),
        ("vmax_V", float("inf")),
        ("thickness_nm", float("nan")),
        ("relative_permittivity", float("-inf")),
        ("temperatures_K", [1.0, float("nan")]),
    ],
)
def test_non_finite_capacitance_config_rejected(key, value, tmp_path):
    doc = {"thickness_nm": 7.0, "relative_permittivity": 4.0,
           "temperatures_K": [0.0, 0.25, 1.0, 4.0], "vmax_V": 0.05, "n_points": 201}
    doc[key] = value
    config = tmp_path / "nan.json"
    config.write_text(json.dumps(doc))
    result = subprocess.run(
        [sys.executable, "-m", "qcapsim.cli", "sweep-capacitance", "--config", str(config)],
        capture_output=True,
        text=True,
        env=_src_env(),
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert "Traceback" not in result.stderr
    assert "finite" in result.stderr and "Warning" not in result.stderr


@pytest.mark.parametrize(
    "key,value,flags",
    [
        ("temperatures_K", 1.0, ()),
        ("temperatures_K", [], ()),
        ("temperatures_K", "1,4", ()),
        ("n_points", 0, ()),
        ("n_points", 1, ()),
        (None, None, ("--points", "1")),
        (None, None, ("--points", "0")),
        (None, None, ("--T", "")),
    ],
)
def test_capacitance_grid_shape_rejected(key, value, flags, tmp_path):
    argv = ["sweep-capacitance", *flags]
    if key is not None:
        doc = {"thickness_nm": 7.0, "relative_permittivity": 4.0,
               "temperatures_K": [0.0, 0.25, 1.0, 4.0], "vmax_V": 0.05, "n_points": 201}
        doc[key] = value
        config = tmp_path / "shape.json"
        config.write_text(json.dumps(doc))
        argv += ["--config", str(config)]
    result = subprocess.run(
        [sys.executable, "-m", "qcapsim.cli", *argv],
        capture_output=True,
        text=True,
        env=_src_env(),
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert "Traceback" not in result.stderr
    assert "config error" in result.stderr


@pytest.mark.parametrize("command", ["circulator", "sweep-capacitance"])
@pytest.mark.parametrize("n_points,rows", [(5.7, None), (3.9, None), (True, None), (False, None),
                                           ("5.5", None), (5.0, 5), (3, 3)])
def test_config_n_points_must_be_whole(command, n_points, rows, tmp_path, capsys):
    # a fraction or a boolean is refused, never truncated to a smaller grid
    if command == "circulator":
        doc = json.loads(resources.files("qcapsim").joinpath("configs", "paper_fig4.json").read_text())
    else:
        doc = {"thickness_nm": 7.0, "relative_permittivity": 4.0,
               "temperatures_K": [1.0], "vmax_V": 0.05}
    doc["n_points"] = n_points
    config = tmp_path / "n_points.json"
    config.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, command, "--config", str(config))
    if rows is None:
        assert (code, out) == (2, "")
        assert f"config key 'n_points' must be a whole number, got {n_points}" in err
    else:
        assert code == 0 and len(parse_csv(out)) == rows


def test_qubit_cutoff_above_maximum_rejected():
    # only the first value past the maximum: a huge cutoff is never run
    from qcapsim.mode import FOCK_CUTOFF_MAX

    result = subprocess.run(
        [sys.executable, "-m", "qcapsim.cli", "qubit", "--cutoff", str(FOCK_CUTOFF_MAX + 1)],
        capture_output=True,
        text=True,
        env=_src_env(),
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith("error:") and str(FOCK_CUTOFF_MAX) in result.stderr


@pytest.mark.parametrize(
    "g,flags,first_bad",
    [
        # ports 1 and 3 decoupled: |S13| = |S31| = 0 from the first point, -4 GHz
        ([0, 0, 0], (), "-2.51327e+10 rad/s"),
        # |S13| and |S31| underflow from the second point, 2.5e199 GHz
        (None, ("--points", "5", "--delta-max", "1e200"), "1.5708e+209 rad/s"),
    ],
)
def test_circulator_non_finite_figures_rejected(g, flags, first_bad, tmp_path):
    argv = ["circulator", "--config", "paper_fig4.json", *flags]
    if g is not None:
        doc = json.loads(resources.files("qcapsim").joinpath("configs", "paper_fig4.json").read_text())
        doc["circulator"]["g"] = g
        config = tmp_path / "decoupled.json"
        config.write_text(json.dumps(doc))
        argv[2] = str(config)
    for fmt in ("csv", "json"):
        result = subprocess.run(
            [sys.executable, "-m", "qcapsim.cli", *argv, "--format", fmt],
            capture_output=True,
            text=True,
            env=_src_env(),
        )
        assert result.returncode == 2
        assert result.stdout == ""
        assert "Traceback" not in result.stderr and "Warning" not in result.stderr
        assert result.stderr.startswith("error:")
        assert f"not finite at detuning {first_bad}" in result.stderr


DROP = object()


@pytest.mark.parametrize(
    "index,key,value,needle",
    [
        (0, "id", DROP, "missing"),
        (0, "description", DROP, "missing"),
        (0, "printed", DROP, "missing"),
        (0, "rel_tol", DROP, "missing"),
        (None, "checks", 5, "list of objects"),
        (None, "checks", [3], "list of objects"),
        (0, "printed", 0, "non-zero"),
        (0, "printed", float("nan"), "finite"),
        (0, "printed", "many", "finite"),
        (0, "rel_tol", float("inf"), "finite"),
        (0, "rel_tol", -0.1, ">= 0"),
        (7, "consistent_with", float("nan"), "finite"),
        (7, "consistent_with", DROP, "consistent_with"),
        (0, "expect", "maybe", "expect"),
        (0, "id", ["cg_areal"], "strings"),
        (0, "bogus", 1, "unknown keys"),
        (0, "id", "no_such_check", "unknown check id"),
    ],
    ids=lambda v: "drop" if v is DROP else None,
)
def test_malformed_verify_table_rejected(index, key, value, needle, tmp_path, capsys):
    doc = json.loads(
        resources.files("qcapsim").joinpath("configs", "paper_table_numbers.json").read_text()
    )
    target = doc if index is None else doc["checks"][index]
    if value is DROP:
        del target[key]
    else:
        target[key] = value
    config = tmp_path / "table.json"
    config.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "verify-paper", "--config", str(config))
    assert code == 2
    assert out == ""
    assert "config error" in err and str(config) in err and needle in err


# --- determinism and file output ------------------------------------------------------

def test_output_file_and_sidecar(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, _, _ = run_cli(
        capsys, "circulator", "--config", "paper_fig4.json", "--points", "21",
        "--out", str(out),
    )
    assert code == 0
    assert out.exists()
    sidecar = tmp_path / "sweep.csv.meta.json"
    assert sidecar.exists()
    meta = json.loads(sidecar.read_text())
    assert meta["command"] == "circulator"
    assert "created_utc" in meta
    assert "created" not in out.read_text()


def test_identical_invocations_are_byte_identical(tmp_path, capsys):
    paths = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        code, _, _ = run_cli(
            capsys, "sweep-capacitance", "--T", "1,4", "--points", "31", "--out", str(out)
        )
        assert code == 0
        paths.append(out.read_bytes())
    assert paths[0] == paths[1]


# --- golden files ------------------------------------------------------------------------

GOLDEN_CASES = [
    ("fig4_circulator.csv", ("circulator", "--config", "paper_fig4.json")),
    ("fig5_circulator.csv", ("circulator", "--config", "paper_fig5.json")),
    ("fig2_capacitance.csv", ("sweep-capacitance", "--config", "paper_fig2.json")),
    ("verify_paper.csv", ("verify-paper",)),
    ("design_check.csv", ("design-check",)),
    ("design_check.json", ("design-check", "--format", "json")),
    ("coupling.csv", ("coupling",)),
    ("coupling.json", ("coupling", "--format", "json")),
    ("qubit_T1_skip_spectrum.csv", ("qubit", "--T", "1", "--skip-spectrum")),
    ("qubit_T1_skip_spectrum.json", ("qubit", "--T", "1", "--skip-spectrum", "--format", "json")),
]


@pytest.mark.parametrize("golden,argv", GOLDEN_CASES)
def test_golden_files_byte_identical(golden, argv, capsys):
    expected = (GOLDEN_DIR / golden).read_text()
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == expected


@pytest.mark.parametrize("golden,argv", GOLDEN_CASES[:3])
def test_golden_files_numeric(golden, argv, capsys):
    expected_rows = parse_csv((GOLDEN_DIR / golden).read_text())
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    got_rows = parse_csv(out)
    assert len(got_rows) == len(expected_rows)
    for exp, got in zip(expected_rows, got_rows):
        for key in exp:
            a, b = float(exp[key]), float(got[key])
            if key == "ratio_13_31" and min(abs(a), abs(b)) > 1e6:
                continue  # blocked-direction amplitude is roundoff noise there
            assert b == pytest.approx(a, rel=1e-9, abs=1e-12)


# --- installed entry point ----------------------------------------------------------------

def test_console_script_smoke(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "qcapsim.cli", "verify-paper", "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)[0]["status"] == "PASS"


def test_cli_import_does_not_load_scipy():
    # the cold-start cost of `qcap-sim` is dominated by imports, and
    # importing scipy would add ~0.7 s to every invocation
    probe = (
        "import sys, qcapsim.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=_src_env()
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


SCALAR_INVOCATIONS = (
    ("design-check",),
    ("coupling",),
    ("qubit", "--T", "1", "--skip-spectrum"),
    ("verify-paper",),
)
ARRAY_MODULES = ("numpy", "qcapsim.capacitance", "qcapsim.circulator", "qcapsim.linalg",
                 "qcapsim.oscillator")


def _run_in_fresh_process(invocations):
    """Exit codes of ``cli.main`` on each argv, one after another in a fresh
    interpreter, and which of ARRAY_MODULES that process loaded."""
    probe = (
        "import contextlib, io, json, sys\n"
        "import qcapsim.cli\n"
        "codes = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes.append(qcapsim.cli.main(argv))\n"
        "print(json.dumps([codes, [m for m in json.loads(sys.argv[2]) if m in sys.modules]]))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe, json.dumps(invocations), json.dumps(ARRAY_MODULES)],
        capture_output=True, text=True, env=_src_env(),
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_scalar_commands_do_not_load_numpy():
    # numpy is about 50 ms of each cold invocation; these four commands are
    # closed-form scalars and must not pay it
    invocations = [[*argv, "--format", fmt] for argv in SCALAR_INVOCATIONS
                   for fmt in ("csv", "json")]
    codes, loaded = _run_in_fresh_process(invocations)
    assert codes == [0] * len(invocations)
    assert loaded == []
    # the positive control: the same probe sees the array modules load
    codes, loaded = _run_in_fresh_process([["qubit", "--T", "1"]])
    assert codes == [0]
    assert loaded == ["numpy", "qcapsim.linalg", "qcapsim.oscillator"]
