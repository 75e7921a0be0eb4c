"""Input-boundary property tests, run in process through ``cli.main``.

Out-of-range numbers never escape as a traceback or as a non-finite value
in a successful run's data: every numeric flag of the flag-taking
subcommands, and every numeric literal of every bundled config, is set in
turn to each value in ``EXTREMES`` in both output formats.  The exit code
must be 0, 1 or 2 (argparse's own usage errors exit 2 through
``SystemExit``), and a run that exits 0 must write no nan or inf token.
Pairs of numeric flags are also set together, to ``JOINT_EXTREMES`` and
``PAIR_EXTREMES``.
No value here can request a large grid or cutoff: ``int()`` rejects the
non-integer spellings at the boundary.

Every numeric flag and every bundled config number is live: another value
changes the output bytes, save the few listed dead with their reason.  A
record command's flag must change more than its own echo in the record.  And a
wrongly typed value (``WRONG_TYPES``) at any leaf of a bundled config is a
config error that names its key.
"""

import argparse
import copy
import itertools
import json
import re
from importlib import resources

import pytest

from qcapsim.cli import build_parser, main

EXTREMES = ("nan", "inf", "-inf", "0", "-1", "1e300", "1e-300", "1e308", "1e-310", "5e-324")

NUMERIC_FLAGS = {
    "sweep-capacitance": ("--T", "--vmax", "--points", "--thickness-nm", "--epsr", "--S"),
    "design-check": ("--thickness-nm", "--epsr", "--T"),
    "qubit": ("--T", "--f", "--S", "--cutoff"),
    "coupling": (
        "--T", "--f", "--f1", "--f2", "--S", "--pump-photons", "--tolerance-mhz",
    ),
    "circulator": ("--delta-min", "--delta-max", "--points"),
}

BASE_ARGS = {"circulator": ("--config", "paper_fig4.json")}

# the command that reads each bundled config; _bundled_config fails on a
# config missing here, so that no bundled config escapes the fuzz
CONFIG_COMMANDS = {
    "paper_fig2.json": "sweep-capacitance",
    "paper_fig4.json": "circulator",
    "paper_fig5.json": "circulator",
}
# every *.json of the package's configs, found on disk, not listed by hand
BUNDLED_CONFIGS = sorted(
    entry.name for entry in resources.files("qcapsim").joinpath("configs").iterdir()
    if entry.name.endswith(".json")
)

# a value other than the default for each numeric flag
OTHER_VALUE = {
    "--T": "2", "--vmax": "0.1", "--points": "11", "--thickness-nm": "10", "--epsr": "5",
    "--S": "200", "--f": "5", "--f1": "3", "--f2": "11", "--cutoff": "30",
    "--pump-photons": "2", "--tolerance-mhz": "7",
    "--delta-min": "-3", "--delta-max": "3",
}
# 2 Omega misses |f1 - f2| by 5 MHz here, so a 1 MHz tolerance reads
# off_resonant and a 7 MHz one hopping
LIVENESS_ARGS = {("coupling", "--tolerance-mhz"): ("--f2", "10.005")}
# the capacitance sweep is per unit area: --S is validated but not read
DEAD_FLAGS = {("sweep-capacitance", "--S")}
# the commands that write one record, and the key under which a record writes
# each flag's own value back: a flag is live when the JSON record changes
# with that echo removed
RECORD_COMMANDS = {"design-check", "qubit", "coupling"}
ECHO_KEYS = {
    "--T": "T_K", "--f": "f_GHz", "--f1": "f1_GHz", "--f2": "f2_GHz", "--S": "S_um2",
    "--pump-photons": "pump_photons", "--thickness-nm": "thickness_nm",
    "--epsr": "relative_permittivity", "--cutoff": "fock_cutoff",
}
# both circulator configs are in the rotating frame, whose Langevin diagonal
# reads the detunings: their mode frequencies are validated but not read
DEAD_CONFIG_KEYS = {
    (name, f"circulator.omega[{i}]")
    for name in ("paper_fig4.json", "paper_fig5.json") for i in range(3)
}

WRONG_TYPES = (True, False, "2", None, [], {}, [1.0], "nan")

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


def _leaves(node, path=()):
    """(key path, value) of every leaf, that is every value but an object or
    a list, of a JSON document."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _leaves(value, path + (index,))
    else:
        yield path, node


def _numeric_leaves(doc):
    """(key path, value) of every number (not bool) in a JSON document."""
    for path, value in _leaves(doc):
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            yield path, value


def _key_name(path):
    """A config key path as error messages spell it: ``circulator.kappa[0]``."""
    name = ""
    for key in path:
        name += f"[{key}]" if isinstance(key, int) else f".{key}" if name else key
    return name


def _bundled_config(name):
    """The command that reads bundled config ``name``, and its document."""
    assert name in CONFIG_COMMANDS, f"bundled config {name} has no command in CONFIG_COMMANDS"
    doc = json.loads(resources.files("qcapsim").joinpath("configs", name).read_text())
    return CONFIG_COMMANDS[name], doc


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


# the single-flag cases never set two flags to extremes together, and a pair
# can break the contract where neither flag alone does: S T^3 of the printed
# formulas (qubit's anharmonicity, coupling's rate), which guard it themselves,
# or C_G * C_Q of the series capacitance.  T x S gets a dense grid, every other
# pair of numeric flags a sparse one of extremes and subnormals
JOINT_EXTREMES = tuple(f"1e{exponent}" for exponent in range(-300, 301, 30))
# +-2e298 GHz is finite in rad/s but overflows when doubled: in a detuning
# range's width, or in coupling's 2 Omega
PAIR_EXTREMES = (
    "5e-324", "1e-310", "1e-250", "1e-150", "1e150", "1e250", "2e298", "-2e298", "1e308",
)
# the sweeps take 3 grid points unless --points is one of the pair
PAIR_POINTS = ("--points=3",)


# a strongly anharmonic pair warns and still exits 0, as a real run does
@pytest.mark.filterwarnings("ignore::qcapsim.errors.PerturbativeRegimeExceeded")
def test_temperature_and_area_at_joint_extremes_stay_inside_the_exit_contract(capsys):
    failures = []
    # at --f=1e100 tau*omega and the printed anharmonicity overflow where S T^3 does not
    for command in (("qubit", "--skip-spectrum"), ("qubit", "--skip-spectrum", "--f=1e100"),
                    ("coupling",)):
        for T in JOINT_EXTREMES:
            for S in JOINT_EXTREMES:
                argv = [*command, f"--T={T}", f"--S={S}"]
                failures.append(_failure(capsys, argv, " ".join(argv)))
    failures = [f for f in failures if f]
    assert not failures, "\n".join(failures)


@pytest.mark.filterwarnings("ignore::qcapsim.errors.PerturbativeRegimeExceeded")
def test_pairs_of_numeric_flags_at_extremes_stay_inside_the_exit_contract(capsys):
    failures = []
    for command, flags in NUMERIC_FLAGS.items():
        for first, second in itertools.combinations(flags, 2):
            points = PAIR_POINTS if "--points" in flags and "--points" not in (first, second) else ()
            for a, b in itertools.product(PAIR_EXTREMES, repeat=2):
                argv = [command, *BASE_ARGS.get(command, ()), *points, f"{first}={a}", f"{second}={b}"]
                failures.append(_failure(capsys, argv, " ".join(argv)))
    failures = [f for f in failures if f]
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", sorted(set(CONFIG_COMMANDS.values())))
def test_config_literals_stay_inside_the_exit_contract(capsys, tmp_path, command, fmt):
    names = [name for name in BUNDLED_CONFIGS if _bundled_config(name)[0] == command]
    assert names
    failures = []
    for name in names:
        doc = _bundled_config(name)[1]
        paths = [path for path, _ in _numeric_leaves(doc)]
        assert paths
        for path in paths:
            for value in EXTREMES:
                config = tmp_path / name
                # json.dumps spells nan and +-inf as NaN and +-Infinity, which json.loads reads back
                config.write_text(json.dumps(_with_value(doc, path, float(value))))
                argv = [command, "--config", str(config), "--format", fmt]
                failures.append(_failure(capsys, argv, f"{command} {name} {list(path)} = {value}"))
    failures = [f for f in failures if f]
    assert not failures, "\n".join(failures)


def _stdout(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, argv
    return out


def _output_past_echo(capsys, argv, flag):
    """The output of ``argv``: a record command's JSON record without
    ``flag``'s echo, any other command's bytes."""
    if argv[0] not in RECORD_COMMANDS:
        return _stdout(capsys, argv)
    record = json.loads(_stdout(capsys, [*argv, "--format", "json"]))
    if flag in ECHO_KEYS:
        del record[ECHO_KEYS[flag]]
    return record


def _value_flags(command):
    """The options of ``command`` that take a value, other than the output and
    config ones."""
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
    return {
        action.option_strings[0] for action in commands.choices[command]._actions
        if isinstance(action, argparse._StoreAction)
    } - {"--out", "--format", "--config"}


def test_every_numeric_flag_changes_the_output(capsys):
    # a flag missing from NUMERIC_FLAGS would escape the check
    for command, flags in NUMERIC_FLAGS.items():
        assert _value_flags(command) == set(flags), command
    dead = []
    for command, flags in NUMERIC_FLAGS.items():
        for flag in flags:
            if (command, flag) in DEAD_FLAGS:
                continue
            base = [command, *BASE_ARGS.get(command, ()), *LIVENESS_ARGS.get((command, flag), ())]
            other = [*base, f"{flag}={OTHER_VALUE[flag]}"]
            if _output_past_echo(capsys, base, flag) == _output_past_echo(capsys, other, flag):
                dead.append(" ".join(other))
    assert not dead, "flags that change no output past their own echo:\n" + "\n".join(dead)


def test_every_bundled_config_number_changes_the_output(capsys, tmp_path):
    # each number moves by +1 (a whole one, so that n_points stays whole) or by +0.25
    wrong = []
    for name in BUNDLED_CONFIGS:
        command, doc = _bundled_config(name)
        base = _stdout(capsys, [command, "--config", name])
        for path, value in _numeric_leaves(doc):
            config = tmp_path / name
            other = value + 1 if isinstance(value, int) else value + 0.25
            config.write_text(json.dumps(_with_value(doc, path, other)))
            changed = _stdout(capsys, [command, "--config", str(config)]) != base
            if changed == ((name, _key_name(path)) in DEAD_CONFIG_KEYS):
                wrong.append(f"{name} {_key_name(path)} = {other}: "
                             + ("changes the output, yet is listed dead" if changed
                                else "changes no output byte"))
    assert not wrong, "\n".join(wrong)


@pytest.mark.parametrize("name", BUNDLED_CONFIGS)
def test_wrongly_typed_config_values_are_config_errors(capsys, tmp_path, name):
    command, doc = _bundled_config(name)
    failures = []
    for path, leaf in _leaves(doc):
        # a string leaf's message names its key, a number's the whole key path
        key = path[-1] if isinstance(leaf, str) else _key_name(path)
        for value in WRONG_TYPES:
            config = tmp_path / name
            config.write_text(json.dumps(_with_value(doc, path, value)))
            label = f"{name} {_key_name(path)} = {json.dumps(value)}"
            try:
                code = main([command, "--config", str(config)])
            except Exception as exc:  # a traceback in a real run
                capsys.readouterr()
                failures.append(f"{label}: {type(exc).__name__}: {exc}")
                continue
            out, err = capsys.readouterr()
            if (code, out) != (2, "") or key not in err.replace(str(config), ""):
                failures.append(f"{label}: exit {code}, stdout {len(out)} chars, stderr {err!r}")
    assert not failures, "\n".join(failures)
