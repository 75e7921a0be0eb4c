import argparse
import csv
import importlib
import io
import json
import math
import subprocess
import sys
import tracemalloc
import warnings
from importlib import resources
from pathlib import Path

import pytest

from qcapsim import cli
from qcapsim.errors import PerturbativeRegimeExceeded
from test_readme import _run, _src_env, golden_cases

GOLDEN_DIR = Path(__file__).parent / "golden"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


# --- verify-paper ----------------------------------------------------------------

def test_verify_paper_passes_with_expected_flags(capsys):
    code, out, _ = _run(capsys, ["verify-paper"])
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
    code, out, _ = _run(capsys, ["verify-paper", "--format", "json"])
    assert code == 0
    records = json.loads(out)
    by_id = {r["id"]: r for r in records}
    assert by_id["cg_areal"]["computed"] == pytest.approx(5.0595358930, rel=1e-9, abs=0.0)
    assert by_id["anharmonicity_1k_pct"]["computed"] == pytest.approx(1.714, rel=1e-6, abs=0.0)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("off", ["c0_areal_1k", "g0_definition_factor"])
def test_verify_paper_out_of_tolerance_row_fails(off, fmt, monkeypatch, capsys):
    # one PASS row and one FLAG row, each computed 2 % off, past its 1 % or 0.5 % tolerance
    rows = cli._verify_rows()

    def one_row_off():
        return tuple(row[:6] + (row[6] * 1.02,) if row[0] == off else row for row in rows)

    monkeypatch.setattr(cli, "_verify_rows", one_row_off)
    code, out, _ = _run(capsys, ["verify-paper", "--format", fmt])
    records = parse_csv(out) if fmt == "csv" else json.loads(out)
    statuses = {r["id"]: r["status"] for r in records}
    assert code == 1
    assert statuses.pop(off) == "FAIL"
    assert "FAIL" not in statuses.values() and len(statuses) == 12


def test_verify_paper_takes_no_config(capsys):
    # the table is in code: argparse refuses a table file
    code, _, err = _run(capsys, ["verify-paper", "--config", "table.json"])
    assert code == 2 and "unrecognized arguments: --config" in err


@pytest.mark.parametrize("row", cli._verify_rows(), ids=lambda row: row[0])
def test_verify_rows_are_well_formed(row):
    cid, description, printed, rel_tol, flagged, note, computed = row
    assert [r[0] for r in cli._verify_rows()].count(cid) == 1
    assert all(isinstance(text, str) for text in (cid, description, note))
    assert math.isfinite(printed) and printed != 0.0
    assert math.isfinite(rel_tol) and rel_tol >= 0.0
    assert math.isfinite(computed)
    if flagged is not None:
        # a FLAG never hides a PASS: the flagged row misses its printed value
        assert math.isfinite(flagged)
        assert abs(computed - printed) > rel_tol * abs(printed)


# --- tables and records -----------------------------------------------------------

def test_sweep_capacitance_table(capsys):
    code, out, _ = _run(
        capsys, ["sweep-capacitance", "--T", "0.25,1,4", "--vmax", "0.05", "--points", "11"])
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 33
    assert list(rows[0]) == ["T_K", "V_volt", "CQ_fF_per_um2", "Cseries_fF_per_um2"]
    for row in rows:
        assert float(row["Cseries_fF_per_um2"]) <= float(row["CQ_fF_per_um2"]) + 1e-12


def test_sweep_capacitance_bundled_config(capsys):
    code, out, _ = _run(capsys, ["sweep-capacitance", "--config", "paper_fig2.json"])
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 4 * 201
    assert {float(r["T_K"]) for r in rows} == {0.0, 0.25, 1.0, 4.0}


@pytest.mark.parametrize(
    "command,config,flag,value,key,file_value",
    [
        ("sweep-capacitance", "paper_fig2.json", "--T", "1,2", "temperatures_K", [1.0, 2.0]),
        ("sweep-capacitance", "paper_fig2.json", "--vmax", "0.1", "vmax_V", 0.1),
        ("sweep-capacitance", "paper_fig2.json", "--points", "11", "n_points", 11),
        ("sweep-capacitance", "paper_fig2.json", "--thickness-nm", "10", "thickness_nm", 10.0),
        ("sweep-capacitance", "paper_fig2.json", "--epsr", "5", "relative_permittivity", 5.0),
        ("circulator", "paper_fig4.json", "--delta-min", "-3", "delta_min_GHz", -3.0),
        ("circulator", "paper_fig4.json", "--delta-max", "3", "delta_max_GHz", 3.0),
        ("circulator", "paper_fig4.json", "--points", "11", "n_points", 11),
    ],
)
def test_flag_overrides_config(command, config, flag, value, key, file_value, tmp_path, capsys):
    # a flag next to --config wins over the file's value for its key
    doc = json.loads(resources.files("qcapsim").joinpath("configs", config).read_text())
    doc[key] = file_value
    edited = tmp_path / config
    edited.write_text(json.dumps(doc))
    code, from_file, _ = _run(capsys, [command, "--config", str(edited)])
    assert code == 0
    code, from_flag, _ = _run(capsys, [command, "--config", config, flag, value])
    assert code == 0
    assert from_flag == from_file
    assert from_flag != _run(capsys, [command, "--config", config])[1]


def test_design_check_record(capsys):
    code, out, _ = _run(capsys, ["design-check", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["thickness_ok"] and doc["dominance_ok"]
    assert doc["C_G_fF_per_um2"] == pytest.approx(5.0595, rel=1e-4, abs=0.0)


def test_qubit_record_with_spectrum(capsys):
    # the series gives the three levels it vouches for, the Fock oracle every level
    for flags, cutoff, levels in (([], 25, 3), (["--cutoff", "30"], 30, 30)):
        code, out, _ = _run(capsys, ["qubit", "--format", "json", *flags])
        assert code == 0
        doc = json.loads(out)
        assert doc["tau_s"] == pytest.approx(2.27335108806e-13, rel=1e-9, abs=0.0)
        assert doc["anharmonicity_percent_printed"] == pytest.approx(1.714, rel=1e-6, abs=0.0)
        assert doc["n_max_printed"] == pytest.approx(10.425, rel=1e-9, abs=0.0)
        assert doc["fock_cutoff"] == cutoff
        assert len(doc["spectrum"]["eigenvalues_J"]) == levels


def test_qubit_nonconvergent_regime_exits_one(capsys):
    # tau*omega = 0.046, and 0.0096 at 0.84 K: past the reach of the series and of the Fock oracle
    for argv in (["qubit", "--T", "0.5"], ["qubit", "--T", "0.5", "--cutoff", "20"],
                 ["qubit", "--T", "0.84"]):
        code, out, err = _run(capsys, argv)
        assert (code, out) == (1, ""), argv
        assert "CutoffNotConverged" in err


def test_qubit_skip_spectrum_always_succeeds(capsys):
    code, out, _ = _run(capsys, ["qubit", "--T", "0.5", "--skip-spectrum", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert "spectrum" not in doc
    assert doc["anharmonicity_percent_printed"] == pytest.approx(13.712, rel=1e-6, abs=0.0)


def test_coupling_record(capsys):
    code, out, _ = _run(capsys, ["coupling", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "hopping"
    assert doc["g0_printed_rad_s"] == pytest.approx(1.60727761046e8, rel=1e-9, abs=0.0)
    assert doc["ratio_symbolic_to_printed"] == pytest.approx(3.0, rel=5e-3, abs=0.0)


def test_coupling_warns_past_the_perturbative_regime(capsys):
    # the abstract's point: 1 um^2 at 1 K puts tau*omega at the 4 GHz pump at 0.571 > 1/12;
    # the warning goes to stderr, the record and the exit code stay as they were
    with pytest.warns(PerturbativeRegimeExceeded, match=r"tau\*omega = 0\.571 > 1/12"):
        code, out, _ = _run(
            capsys, ["coupling", "--T", "1", "--f", "4", "--f1", "2", "--f2", "10", "--S", "1"])
    assert code == 0
    assert out.splitlines()[1] == (
        "1,4,2,10,1,1,hopping,0,48163993860.1,16072776104.6,48163993860.1,2.99661947299"
    )


def test_each_call_shows_its_own_warning(capsys):
    # a design scan that calls main once per point sees the warning at every point;
    # pytest.warns would show it every time even if main showed it once per process
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        for _ in range(3):
            assert _run(capsys, ["coupling", "--S", "1"])[0] == 0
    assert [w.category for w in caught] == [PerturbativeRegimeExceeded] * 3


def test_a_warning_prints_as_one_line_without_a_path():
    # Python's default form names the file and line that warned, and quotes its source
    result = subprocess.run([sys.executable, "-m", "qcapsim.cli", "coupling", "--S", "1"],
                            capture_output=True, text=True, env=_src_env())
    assert result.returncode == 0
    assert result.stderr == ("warning: PerturbativeRegimeExceeded: tau*omega = 0.571 > 1/12 at the "
                             "pump: perturbative regime exceeded; the rates are first-order\n")


def test_main_restores_the_warning_format(capsys):
    before = warnings.formatwarning
    with pytest.warns(PerturbativeRegimeExceeded):
        assert _run(capsys, ["coupling", "--S", "1"])[0] == 0
    assert warnings.formatwarning is before


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv,fields", [
    (("coupling", "--pump-photons=-0"), ("pump_photons", "G_rad_s")),
    (("circulator", "--config", "paper_fig4.json", "--delta-min=-1", "--delta-max=-0",
      "--points", "2"), ("delta_rad_s",)),
], ids=["coupling-pump-photons", "circulator-delta-max"])
def test_minus_zero_input_prints_as_zero(argv, fields, fmt, capsys):
    # the fields that take the -0 input (on the last row) read 0, as they do for an input of 0
    code, out, _ = _run(capsys, [*argv, "--format", fmt])
    assert code == 0
    assert out == _run(capsys, [arg.replace("=-0", "=0") for arg in argv] + ["--format", fmt])[1]
    if fmt == "csv":
        last = parse_csv(out)[-1]
        assert [last[field] for field in fields] == ["0"] * len(fields)
    else:
        doc = json.loads(out)
        last = doc[-1] if isinstance(doc, list) else doc
        assert [math.copysign(1.0, last[field]) for field in fields] == [1.0] * len(fields)
        assert [last[field] for field in fields] == [0.0] * len(fields)


def test_coupling_rejects_a_negative_pump_photon_number(capsys):
    code, out, err = _run(capsys, ["coupling", "--pump-photons", "-1"])
    assert (code, out) == (2, "")
    assert "photon" in err


def test_circulator_bundled_config(capsys):
    code, out, _ = _run(capsys, ["circulator", "--config", "paper_fig4.json"])
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
    code, csv_out, _ = _run(capsys, argv)
    assert code == 0
    code, json_out, _ = _run(capsys, [*argv, "--format", "json"])
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
SPAN_NAMES = ("capacitance_sweep", "sweep", "fock_diagonalize", "csv_text", "json_text",
              "table_csv", "table_json")


@pytest.mark.parametrize(
    "argv,called",
    [
        (("sweep-capacitance", "--T", "0,1", "--points", "3"), ("capacitance_sweep", "table_csv")),
        (("sweep-capacitance", "--T", "0,1", "--points", "3", "--format", "json"),
         ("capacitance_sweep", "table_json")),
        (("circulator", "--config", "paper_fig4.json", "--points", "3"), ("sweep", "table_csv")),
        (("circulator", "--config", "paper_fig4.json", "--points", "3", "--format", "json"),
         ("sweep", "table_json")),
        (("qubit", "--T", "4", "--cutoff", "80"), ("fock_diagonalize", "csv_text")),
        (("qubit", "--T", "4", "--cutoff", "80", "--format", "json"),
         ("fock_diagonalize", "json_text")),
        (("verify-paper",), ("csv_text",)),
        (("verify-paper", "--format", "json"), ("json_text",)),
        (("qubit", "--T", "4"), ("series_spectrum", "csv_text")),
    ],
)
def test_subcommands_call_the_module_attributes(argv, called, monkeypatch, capsys):
    calls = dict.fromkeys((*SPAN_NAMES, "series_spectrum"), 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
    code, _, _ = _run(capsys, argv)
    assert code == 0
    assert calls == {name: int(name in called) for name in calls}


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


def rejected_stderr(capsys, *argv):
    """stderr of an in-process run that must exit 2 with nothing on stdout.  An
    exception that escapes ``main``, a numpy warning among them, fails the test."""
    code, out, err = _run(capsys, argv)
    assert (code, out) == (2, ""), err
    return err


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
        assert _run(capsys, argv) == fresh_process_runs[argv], argv
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
    assert _run(capsys, ["design-check"])[0] == 0
    reused, fresh = cli._parser(), cli.build_parser()
    assert reused.format_help() == fresh.format_help()
    assert _qubit_subparser(reused).format_help() == _qubit_subparser(fresh).format_help()


# --- error paths --------------------------------------------------------------------

def test_unknown_config_key_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"circulator": {"omega": [1, 1, 1]}, "bogus": 1}))
    code, _, err = _run(capsys, ["circulator", "--config", str(bad)])
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
    code, out, err = _run(capsys, ["circulator", "--config", str(bad)])
    assert (code, out) == (2, "")
    assert "extra" in err


def _fig4_with(edit, tmp_path):
    """Path of a copy of paper_fig4.json that ``edit`` changed in place."""
    doc = json.loads(resources.files("qcapsim").joinpath("configs", "paper_fig4.json").read_text())
    edit(doc)
    config = tmp_path / "edited.json"
    # json.dumps spells nan and +-inf as NaN and +-Infinity, which json.loads reads back
    config.write_text(json.dumps(doc))
    return str(config)


@pytest.mark.parametrize(
    "edit,named",
    [
        (lambda doc: doc["circulator"].pop("g"), "circulator': missing required keys ['g']"),
        (lambda doc: doc["circulator"].update(phi=[0, 0.5]), "'circulator.phi' must be a list of 3"),
        (lambda doc: doc["circulator"].update(phi=[0, math.nan, 0]), "'circulator.phi[1]'"),
        (lambda doc: doc["circulator"].update(phi=[0, math.inf, 0]), "'circulator.phi[1]'"),
        (lambda doc: doc["circulator"].update(phi=[0, -math.inf, 0]), "'circulator.phi[1]'"),
        (lambda doc: doc.update(circulator=[1, 1, 1]), "'circulator' must be a JSON object"),
        (lambda doc: doc["circulator"].update(frame="diagonal"), "'circulator.frame'"),
    ],
    ids=["missing-key", "two-phases", "nan-phase", "inf-phase", "minus-inf-phase", "not-object",
         "unknown-frame"],
)
def test_circulator_config_rejected(edit, named, tmp_path, capsys):
    code, out, err = _run(capsys, ["circulator", "--config", _fig4_with(edit, tmp_path)])
    assert (code, out) == (2, "")
    assert err.startswith("config error:") and named in err


@pytest.mark.parametrize("frame", ["rotating", "lab"])
def test_circulator_config_units(frame, tmp_path, capsys):
    # the file gives frequencies in GHz and phases in units of pi; the sweep runs in SI
    import numpy as np

    from qcapsim.circulator import CirculatorConfig, sweep

    def edit(doc):
        doc["circulator"] = {"omega": [1.0, 1.05, 2.05], "kappa": [2.0, 1.5, 2.0],
                             "g": [1.0, 0.8, 1.0], "phi": [0.0, 0.5, 0.0], "frame": frame,
                             "detuning": [0.1, 0.0, -0.2]}
        doc["n_points"] = 21

    code, out, _ = _run(capsys, ["circulator", "--config", _fig4_with(edit, tmp_path)])
    assert code == 0
    ghz = 2.0 * math.pi * 1e9
    # the frame picks the Langevin diagonal: the mode frequencies or the detunings
    diagonal = (1.0 * ghz, 1.05 * ghz, 2.05 * ghz) if frame == "lab" else (0.1 * ghz, 0.0, -0.2 * ghz)
    config = CirculatorConfig(
        kappa=(2.0 * ghz, 1.5 * ghz, 2.0 * ghz), g=(1.0 * ghz, 0.8 * ghz, 1.0 * ghz),
        phi=(0.0, math.pi / 2.0, 0.0), detuning=diagonal,
    )
    expected = sweep(config, np.linspace(-4.0 * ghz, 4.0 * ghz, 21)).columns().tolist()
    got = [[float(value) for value in row.values()] for row in parse_csv(out)]
    assert len(got) == 21
    for got_row, expected_row in zip(got, expected):
        assert got_row == pytest.approx(expected_row, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_lab_frame_omega_is_the_rotating_frame_detuning(fmt, tmp_path, capsys):
    # a lab-frame file reads omega where a rotating-frame file reads detuning;
    # with the one equal to the other, the two print the same bytes
    lab = {"omega": [1.0, 1.05, 2.05], "kappa": [2.0, 1.5, 2.0], "g": [1.0, 0.8, 1.0],
           "phi": [0.0, 0.5, 0.0], "detuning": [0.1, 0.0, -0.2], "frame": "lab"}
    rotating = {**lab, "omega": [3.0, 3.0, 3.0], "detuning": lab["omega"], "frame": "rotating"}
    outputs = []
    for circulator in (lab, rotating):
        config = tmp_path / f"{circulator['frame']}.json"
        config.write_text(json.dumps({"circulator": circulator, "n_points": 41}))
        code, out, _ = _run(capsys, ["circulator", "--config", str(config), "--format", fmt])
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1] and len(outputs[0].splitlines()) > 2


@pytest.mark.parametrize("frame", ["rotating", "lab"])
@pytest.mark.parametrize(
    "key,values,named",
    [
        ("omega", [0.0, 1.0, 1.0], "mode frequency (rad/s) out of range"),
        ("omega", [1.0, -1.0, 1.0], "mode frequency (rad/s) out of range"),
        ("omega", [1.0, 1.0, 1e300], "mode frequency (rad/s) out of range"),
        ("detuning", [1e300, 0.0, 0.0], "phases and detunings must be finite"),
    ],
    ids=["omega-zero", "omega-negative", "omega-overflows", "detuning-overflows"],
)
def test_circulator_config_checks_omega_and_detuning_in_both_frames(
    frame, key, values, named, tmp_path, capsys
):
    # omega > 0 and a finite detuning (after the GHz conversion) are required
    # even in the frame whose Langevin diagonal does not read them
    def edit(doc):
        doc["circulator"].update({"detuning": [0.0, 0.0, 0.0], "frame": frame, key: values})

    code, out, err = _run(capsys, ["circulator", "--config", _fig4_with(edit, tmp_path)])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and named in err and "Traceback" not in err


@pytest.mark.parametrize("command, content, named", [
    ("circulator", b"{not json", "Expecting property name"),
    ("circulator", b"[" * 100_000, "maximum recursion depth"),
    ("circulator", b'{"circulator": "\xe9"}', "can't decode byte 0xe9"),
    ("circulator", b'{"n_points": ' + b"1" * 5001 + b"}", "(4300 digits)"),
    ("sweep-capacitance", b'{"thickness_nm": 7, "thickness_nm": 8}',
     "key 'thickness_nm' is repeated"),
    ("circulator", b'{"circulator": {"g": [1, 1, 1], "g": [0, 0, 0]}}', "key 'g' is repeated"),
], ids=["not-json", "deep-nesting", "not-utf-8", "long-integer", "repeated-key",
        "repeated-nested-key"])
def test_malformed_json_rejected(command, content, named, tmp_path, capsys):
    # what Python's JSON reader refuses, or would read as the last of two values
    bad = tmp_path / "broken.json"
    bad.write_bytes(content)
    code, out, err = _run(capsys, [command, "--config", str(bad)])
    assert (code, out) == (2, "")
    assert err.startswith(f"config error: {bad}: ") and named in err


def test_missing_config_rejected(capsys):
    code, _, err = _run(capsys, ["circulator", "--config", "does_not_exist.json"])
    assert code == 2
    assert "not found" in err


@pytest.mark.parametrize("command, name", [
    ("circulator", "paper_fig4.json"), ("sweep-capacitance", "paper_fig2.json"),
])
def test_missing_config_path_does_not_fall_back_to_a_bundled_config(
    command, name, tmp_path, monkeypatch, capsys
):
    # only a bare file name resolves among the bundled configs
    monkeypatch.chdir(tmp_path)
    for path in (f"no_such_dir/{name}", str(tmp_path / "nowhere" / name)):
        code, out, err = _run(capsys, [command, "--config", path, "--points", "3"])
        assert (code, out) == (2, ""), path
        assert f"config '{path}' not found on disk or among bundled configs" in err
    assert _run(capsys, [command, "--config", name, "--points", "3"])[0] == 0


@pytest.mark.parametrize("command, name", [
    ("circulator", "paper_fig4.json"), ("sweep-capacitance", "paper_fig2.json"),
])
def test_directory_config_is_a_config_error(command, name, tmp_path, monkeypatch, capsys):
    # a directory is never read, and never replaced by the bundled config of its name
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).mkdir()
    for path in (name, str(SRC_DIR), str(SRC_DIR / "qcapsim" / "configs")):
        err = rejected_stderr(capsys, command, "--config", path, "--points", "3")
        assert err == f"config error: config '{path}' is a directory, not a file\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("design-check", "--T", "nan"),
        ("coupling", "--S", "nan"),
        ("qubit", "--S", "inf"),
        ("sweep-capacitance", "--T", "1,-inf"),
    ],
)
def test_non_finite_option_rejected(argv, capsys):
    assert "finite" in rejected_stderr(capsys, *argv)


@pytest.mark.parametrize(
    "temperatures,message",
    [
        ("1e-300,-1", "capacitance scale 2 e^2 k_B T / pi (hbar v_F)^2 out of range: "
                      "must be a finite, normal float > 0, got 0.0"),
        ("-1,1e-300", "temperature (K) out of range: must be a finite, normal float > 0, got -1.0"),
    ],
    ids=["underflow-first", "negative-first"],
)
def test_sweep_reports_the_first_bad_temperature(temperatures, message, capsys):
    """1e-300 K passes the temperature check but its C_Q scale underflows;
    the sweep stops at whichever bad temperature comes first in the list."""
    code, out, err = _run(capsys, ["sweep-capacitance", f"--T={temperatures}"])
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_minus_zero_kelvin_prints_as_zero(fmt, tmp_path, capsys):
    # the T = 0 branch accepts -0.0; the T_K column must not print it as -0
    config = tmp_path / "minus_zero.json"
    config.write_text(json.dumps({"thickness_nm": 7.0, "relative_permittivity": 4.0,
                                  "temperatures_K": [-0.0], "vmax_V": 0.05, "n_points": 2}))
    runs = [_run(capsys, ["sweep-capacitance", *flags, "--points", "2", "--format", fmt])
            for flags in (["--T=0"], ["--T=-0"], ["--config", str(config)])]
    assert runs[0][0] == 0 and runs[1] == runs[0] == runs[2]


@pytest.mark.parametrize("flags,vmax_V,got", [(["--vmax=0"], None, 0.0),
                                               (["--vmax=-0.05"], None, -0.05), ([], 0, 0.0)])
def test_sweep_capacitance_rejects_a_voltage_bound_not_above_zero(flags, vmax_V, got, tmp_path,
                                                                  capsys):
    # the grid runs from -vmax to vmax: 0 would repeat V = 0, a negative bound reverse it
    if vmax_V is not None:
        config = tmp_path / "vmax.json"
        config.write_text(json.dumps({"thickness_nm": 7.0, "relative_permittivity": 4.0,
                                      "temperatures_K": [1.0], "vmax_V": vmax_V, "n_points": 2}))
        flags = ["--config", str(config)]
    code, out, err = _run(capsys, ["sweep-capacitance", "--points", "2", *flags])
    assert (code, out, err) == (2, "", f"error: vmax (V) out of range: must be a finite, "
                                       f"normal float > 0, got {got}\n")


NOT_NORMAL = "out of range: must be a finite, normal float > 0, got"
SWEEP_NOT_FINITE = "the voltage, C_Q or the series capacitance in fF/um^2 is not finite"
RANGE_OVERFLOWS = "out of range: an end or the width overflows"


@pytest.mark.parametrize(
    "argv,message",
    [
        # 12/tau_omega overflows in the cutoff rule; the printed formula rejects f
        (("qubit", "--skip-spectrum", "--f=1e-310"), f"frequency (GHz) {NOT_NORMAL} 1e-310"),
        # the printed rate underflows to 0 and the ratio would divide by it
        (("coupling", "--f=1e-250", "--S=1e150"), f"printed single-photon rate (rad/s) {NOT_NORMAL} 0.0"),
        (("coupling", "--f1=2.3e-308", "--f2=2.3e-308"),
         f"printed single-photon rate (rad/s) {NOT_NORMAL} 0.0"),
        # the width vmax - (-vmax) overflows
        (("sweep-capacitance", "--vmax=1e308", "--T=1", "--points=3"),
         f"voltage range -1e+308 to 1e+308 V {RANGE_OVERFLOWS}"),
        # C_Q overflows, then the product C_G * C_Q of the series formula, then C_G
        (("sweep-capacitance", "--T=1e-250", "--vmax=1e150", "--points=3"),
         f"sweep out of range at T = 1e-250 K, V = -1e+150 V: {SWEEP_NOT_FINITE}"),
        (("sweep-capacitance", "--T=1e50", "--epsr=1e308", "--points=3"),
         f"sweep out of range at T = 1e+50 K, V = -0.05 V: {SWEEP_NOT_FINITE}"),
        (("sweep-capacitance", "--thickness-nm=1e-250", "--epsr=1e150", "--points=3"),
         f"sweep out of range at T = 0 K, V = -0.05 V: {SWEEP_NOT_FINITE}"),
        # the voltage range is checked where its grid is built, before the sweep checks T
        (("sweep-capacitance", "--T=5e-324", "--vmax=1e308"),
         f"voltage range -1e+308 to 1e+308 V {RANGE_OVERFLOWS}"),
        (("design-check", "--thickness-nm=1e-250", "--epsr=1e150"),
         "design out of range: C_G = inf fF/um^2 and C_0/C_G = 0 must be finite"),
        (("design-check", "--thickness-nm=1e50", "--T=1e308"),
         "design out of range: C_G = 3.542e-49 fF/um^2 and C_0/C_G = inf must be finite"),
        # the width 3e298 GHz of the detuning range overflows in rad/s; each end is finite
        (("circulator", "--config", "paper_fig4.json", "--delta-min=-1.5e298", "--delta-max=1.5e298",
          "--points=3"), f"detuning range -1.5e+298 to 1.5e+298 GHz {RANGE_OVERFLOWS}"),
    ],
)
def test_overflow_and_underflow_exit_two_with_a_message(argv, message, capsys):
    """Each run exited 1 with a traceback, or 0 with nan or inf in its data;
    under the suite's warnings-as-errors, no numpy RuntimeWarning escapes."""
    code, out, err = _run(capsys, argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_a_negative_exponent_after_a_space_is_read_as_an_option(capsys):
    # Python 3.11's argparse reads an argument as a negative number only in the form
    # -4 or -2.5, so the README writes --delta-min=-1.5e298 with "="
    argv = ["circulator", "--config", "paper_fig4.json", "--points", "3"]
    code, _, err = _run(capsys, [*argv, "--delta-min", "-1e0"])
    assert code == 2 and "error: argument --delta-min: expected one argument" in err
    code, out, err = _run(capsys, ["circulator", "--config", "paper_fig4.json",
                                   "--delta-min=-1.5e298", "--delta-max=1.5e298"])
    assert (code, out, err) == (2, "", f"error: detuning range -1.5e+298 to 1.5e+298 GHz {RANGE_OVERFLOWS}\n")


@pytest.mark.parametrize(
    "key,value",
    [("delta_min_GHz", float("nan")), ("kappa", [2.0, float("nan"), 2.0])],
)
def test_non_finite_circulator_config_rejected(key, value, tmp_path, capsys):
    doc = {"circulator": {"omega": [2, 4, 6], "kappa": [2, 2, 2], "g": [1, 1, 1],
                          "phi": [0, 0.5, 0]}}
    (doc if key == "delta_min_GHz" else doc["circulator"])[key] = value
    config = tmp_path / "nan.json"
    config.write_text(json.dumps(doc))
    assert "finite" in rejected_stderr(capsys, "circulator", "--config", str(config))


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
def test_non_finite_capacitance_config_rejected(key, value, tmp_path, capsys):
    doc = {"thickness_nm": 7.0, "relative_permittivity": 4.0,
           "temperatures_K": [0.0, 0.25, 1.0, 4.0], "vmax_V": 0.05, "n_points": 201}
    doc[key] = value
    config = tmp_path / "nan.json"
    config.write_text(json.dumps(doc))
    assert "finite" in rejected_stderr(capsys, "sweep-capacitance", "--config", str(config))


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
        (None, None, ("--T", "1,,2")),
        (None, None, ("--T", "1,")),
        (None, None, ("--T", ",")),
    ],
)
def test_capacitance_grid_shape_rejected(key, value, flags, tmp_path, capsys):
    argv = ["sweep-capacitance", *flags]
    if key is not None:
        doc = {"thickness_nm": 7.0, "relative_permittivity": 4.0,
               "temperatures_K": [0.0, 0.25, 1.0, 4.0], "vmax_V": 0.05, "n_points": 201}
        doc[key] = value
        config = tmp_path / "shape.json"
        config.write_text(json.dumps(doc))
        argv += ["--config", str(config)]
    err = rejected_stderr(capsys, *argv)
    assert "config error" in err
    if flags[:1] == ("--T",):  # the message quotes the list as given
        assert repr(flags[1]) in err


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
    code, out, err = _run(capsys, [command, "--config", str(config)])
    if rows is None:
        assert (code, out) == (2, "")
        assert f"config key 'n_points' must be a whole number, got {n_points}" in err
    else:
        assert code == 0 and len(parse_csv(out)) == rows


def test_qubit_cutoff_above_maximum_rejected(capsys):
    # only the first value past the maximum: a huge cutoff is never run
    from qcapsim.mode import FOCK_CUTOFF_MAX

    err = rejected_stderr(capsys, "qubit", "--cutoff", str(FOCK_CUTOFF_MAX + 1))
    assert err.startswith("error:") and str(FOCK_CUTOFF_MAX) in err


@pytest.mark.parametrize(
    "argv",
    [
        ("circulator", "--config", "paper_fig4.json", "--points", str(cli.SWEEP_POINTS_MAX + 1)),
        ("sweep-capacitance", "--T", "0,0.25,1,4", "--points", str(cli.SWEEP_POINTS_MAX // 4 + 1)),
    ],
    ids=["circulator", "sweep-capacitance"],
)
def test_sweep_above_maximum_rejected_before_allocating(argv, monkeypatch, capsys):
    # only the first size past the maximum, and never the maximum itself: a huge sweep
    # takes seconds and gigabytes.  The kernels' modules load outside the traced window.
    from qcapsim import circulator  # noqa: F401

    def kernel(*args, **kwargs):
        pytest.fail("a sweep past SWEEP_POINTS_MAX reached its kernel")

    monkeypatch.setattr(cli, "capacitance_sweep", kernel)
    monkeypatch.setattr(cli, "sweep", kernel)
    tracemalloc.start()
    try:
        code, out, err = _run(capsys, argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err.startswith("config error:") and f"maximum of {cli.SWEEP_POINTS_MAX}" in err
    assert peak < 1_000_000  # the detuning or voltage grid alone would take 2 to 8 MB


@pytest.mark.parametrize(
    "g,flags,first_bad",
    [
        # ports 1 and 3 decoupled: |S13| = |S31| = 0 from the first point, -4 GHz
        ([0, 0, 0], (), "-2.51327e+10 rad/s"),
        # |S13| and |S31| underflow from the second point, 2.5e199 GHz
        (None, ("--points", "5", "--delta-max", "1e200"), "1.5708e+209 rad/s"),
    ],
)
def test_circulator_non_finite_figures_rejected(g, flags, first_bad, tmp_path, capsys):
    argv = ["circulator", "--config", "paper_fig4.json", *flags]
    if g is not None:
        doc = json.loads(resources.files("qcapsim").joinpath("configs", "paper_fig4.json").read_text())
        doc["circulator"]["g"] = g
        config = tmp_path / "decoupled.json"
        config.write_text(json.dumps(doc))
        argv[2] = str(config)
    for fmt in ("csv", "json"):
        err = rejected_stderr(capsys, *argv, "--format", fmt)
        assert err.startswith("error:") and f"not finite at detuning {first_bad}" in err


# --- determinism and file output ------------------------------------------------------

def test_output_file_and_sidecar(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, _, _ = _run(
        capsys, ["circulator", "--config", "paper_fig4.json", "--points", "21", "--out", str(out)])
    assert code == 0
    assert out.exists()
    sidecar = tmp_path / "sweep.csv.meta.json"
    assert sidecar.exists()
    meta = json.loads(sidecar.read_text())
    assert meta["command"] == "circulator"
    assert "created_utc" in meta
    assert "created" not in out.read_text()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("flags,path", [((), "series"), (("--cutoff", "25"), "fock"),
                                        (("--skip-spectrum",), None)])
def test_qubit_sidecar_names_the_code_path(flags, path, fmt, tmp_path, capsys):
    # the sidecar says which path gave the spectrum and, for the series, how close its
    # error bound came to the limit; the data file holds the stdout bytes and no more
    argv = ["qubit", "--T", "1", *flags, "--format", fmt]
    code, stdout, _ = _run(capsys, argv)
    assert code == 0
    out = tmp_path / f"qubit.{fmt}"
    assert _run(capsys, [*argv, "--out", str(out)]) == (0, "", "")
    assert out.read_text() == stdout
    meta = json.loads((tmp_path / f"qubit.{fmt}.meta.json").read_text())
    run = {key: meta.pop(key) for key in list(meta)[4:]}
    assert list(meta) == ["command", "tool", "version", "created_utc"]
    if path == "series":
        assert run.pop("series_error_limit") == 1e-9
        assert 0.0 < run.pop("series_error_bound") < 1e-16  # tau*omega = 0.0057
    assert run == ({} if path is None else {"code_path": path})


def test_identical_invocations_are_byte_identical(tmp_path, capsys):
    paths = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        code, _, _ = _run(
            capsys, ["sweep-capacitance", "--T", "1,4", "--points", "31", "--out", str(out)])
        assert code == 0
        paths.append(out.read_bytes())
    assert paths[0] == paths[1]


# --- golden files ------------------------------------------------------------------------

GOLDEN_CASES = golden_cases()  # the README's golden-regeneration block
SWEEP_GOLDENS = {"fig4_circulator.csv", "fig5_circulator.csv", "fig2_capacitance.csv"}


@pytest.mark.parametrize("golden,argv", GOLDEN_CASES)
def test_golden_files_byte_identical(golden, argv, capsys):
    expected = (GOLDEN_DIR / golden).read_text()
    code, out, _ = _run(capsys, argv)
    assert code == 0
    assert out == expected


@pytest.mark.parametrize("golden,argv", [c for c in GOLDEN_CASES if c[0] in SWEEP_GOLDENS])
def test_golden_files_numeric(golden, argv, capsys):
    expected_rows = parse_csv((GOLDEN_DIR / golden).read_text())
    code, out, _ = _run(capsys, argv)
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

def test_console_script_smoke():
    result = subprocess.run(
        [sys.executable, "-m", "qcapsim.cli", "verify-paper", "--format", "json"],
        capture_output=True,
        text=True,
        env=_src_env(),
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)[0]["status"] == "PASS"
    if sys.version_info >= (3, 11):  # tomllib is new in 3.11
        import tomllib

        pyproject = tomllib.loads((SRC_DIR.parent / "pyproject.toml").read_text())
        module, attr = pyproject["project"]["scripts"]["qcap-sim"].split(":")
        assert getattr(importlib.import_module(module), attr) is cli.main


SCALAR_INVOCATIONS = (
    ("design-check",),
    ("coupling",),
    ("qubit", "--T", "1", "--skip-spectrum"),
    ("qubit", "--T", "1"),
    ("verify-paper",),
)
# the array modules, and dataclasses, whose import loads inspect
ARRAY_MODULES = ("numpy", "qcapsim.circulator", "qcapsim.linalg", "dataclasses")


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
    # numpy is about 50 ms of each cold invocation, dataclasses about 10; these
    # commands are closed-form scalars or the perturbation series and pay neither
    invocations = [[*argv, "--format", fmt] for argv in SCALAR_INVOCATIONS
                   for fmt in ("csv", "json")]
    codes, loaded = _run_in_fresh_process(invocations)
    assert codes == [0] * len(invocations)
    assert loaded == []
    # the positive control: the same probe sees the array modules load
    codes, loaded = _run_in_fresh_process([["qubit", "--T", "1", "--cutoff", "25"]])
    assert codes == [0]
    assert loaded == ["numpy", "qcapsim.linalg"]
