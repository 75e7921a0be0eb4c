"""Input-boundary property test: out-of-range numbers never escape as a
traceback or as a non-finite value in a successful run's data.

Every numeric flag of the flag-taking subcommands, and every numeric
literal of the bundled fig2, circulator and verify-table configs, is set in
turn to each value in ``EXTREMES`` and run in process through ``cli.main``
in both output formats.  The exit code must be 0, 1 or 2 (argparse's own
usage errors exit 2 through ``SystemExit``), and a run that exits 0 must
write no nan or inf token.  No value here can request a large grid or
cutoff: ``int()`` rejects the non-integer spellings at the boundary.
"""

import copy
import json
import re
from importlib import resources

import pytest

from qcapsim.cli import main

EXTREMES = ("nan", "inf", "-inf", "0", "-1", "1e300", "1e-300")

NUMERIC_FLAGS = {
    "sweep-capacitance": ("--T", "--vmax", "--points", "--thickness-nm", "--epsr", "--S"),
    "design-check": ("--thickness-nm", "--epsr", "--T", "--S"),
    "qubit": ("--T", "--f", "--S", "--cutoff", "--thickness-nm", "--epsr"),
    "coupling": (
        "--T", "--f", "--f1", "--f2", "--S",
        "--pump-photons", "--theta-over-pi", "--tolerance-mhz",
    ),
    "circulator": ("--delta-min", "--delta-max", "--points"),
}

BASE_ARGS = {"circulator": ("--config", "paper_fig4.json")}

CONFIGS = {
    "sweep-capacitance": "paper_fig2.json",
    "circulator": "paper_fig4.json",
    "verify-paper": "paper_table_numbers.json",
}

NON_FINITE_TOKEN = re.compile(r"(?<![A-Za-z_])(nan|inf|NaN|Infinity)(?![A-Za-z_])")


def _failure(capsys, argv, label):
    """How one in-process run of ``argv`` breaks the boundary, prefixed by
    ``label``, or None."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # any other escaping exception is a failure
        capsys.readouterr()
        return f"{label}: {type(exc).__name__}: {exc}"
    out = capsys.readouterr().out
    if code not in (0, 1, 2):
        return f"{label}: exit code {code!r}"
    if code == 0 and NON_FINITE_TOKEN.search(out):
        return f"{label}: exit 0 with a non-finite value in the data"
    return None


def _numeric_paths(node, path=()):
    """Key paths of every number (not bool) in a JSON document."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _numeric_paths(value, path + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _numeric_paths(value, path + (index,))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path


def _with_value(doc, path, value):
    out = copy.deepcopy(doc)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_numeric_flags_stay_inside_the_exit_contract(capsys, fmt):
    failures = []
    for command, flags in NUMERIC_FLAGS.items():
        for flag in flags:
            for value in EXTREMES:
                argv = [command, *BASE_ARGS.get(command, ()), f"{flag}={value}", "--format", fmt]
                failures.append(_failure(capsys, argv, " ".join(argv)))
    failures = [f for f in failures if f]
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", sorted(CONFIGS))
def test_config_literals_stay_inside_the_exit_contract(capsys, tmp_path, command, fmt):
    name = CONFIGS[command]
    doc = json.loads(resources.files("qcapsim").joinpath("configs", name).read_text())
    paths = list(_numeric_paths(doc))
    assert paths
    failures = []
    for path in paths:
        for value in EXTREMES:
            config = tmp_path / name
            # json.dumps spells nan and +-inf as NaN and +-Infinity, which json.loads reads back
            config.write_text(json.dumps(_with_value(doc, path, float(value))))
            argv = [command, "--config", str(config), "--format", fmt]
            failures.append(_failure(capsys, argv, f"{command} {name} {list(path)} = {value}"))
    failures = [f for f in failures if f]
    assert not failures, "\n".join(failures)
