"""The README's commands run as it shows them: the ``qcap-sim`` lines of its
fenced blocks, the rows of its exit-code table, and the ``design-check`` JSON."""

import json
import os
import re
import shlex
import sys
import warnings
from pathlib import Path

import pytest

from qcapsim.cli import main
from qcapsim.errors import PerturbativeRegimeExceeded

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()

# a row of the exit-code table: | `command` | exit | `text` | case |
EXIT_ROW = re.compile(r"^\s*\| `([^`]+)` \| (\d) \| `([^`]+)` \|")


def _fenced_commands() -> list[list[list[str]]]:
    """The ``qcap-sim`` lines of each top-level fenced block of the README that has
    any, split as a shell would, without the program name and the comment."""
    blocks, inside = [], False
    for line in README.splitlines():
        if line.startswith("```"):
            inside = not inside
            if inside:
                blocks.append([])
        elif inside and line.startswith("qcap-sim "):
            blocks[-1].append(shlex.split(line, comments=True)[1:])
    return [block for block in blocks if block]


def _run(capsys, argv):
    """Exit code, stdout and stderr of one in-process run."""
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def _src_env() -> dict:
    """Environment for a fresh interpreter that imports qcapsim from src/."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(ROOT / "src") + (os.pathsep + path if path else ""))


def golden_cases() -> list[tuple[str, tuple[str, ...]]]:
    """(file name, argv) of each ``qcap-sim <argv> > tests/golden/<file name>`` line of
    the golden-regeneration block: the one list of golden commands, which
    ``tests/test_cli.py`` runs and compares byte for byte."""
    return [(Path(golden).name, tuple(argv)) for *argv, _, golden in _fenced_commands()[1]]


def test_readme_commands_run(tmp_path, monkeypatch):
    # the "Command line" block exits 0; the golden-regeneration block writes every golden
    commands, regenerations = _fenced_commands()
    assert (len(commands), len(regenerations)) == (7, 10)
    assert {tuple(line[-2:]) for line in regenerations} == {
        (">", f"tests/golden/{path.name}") for path in (ROOT / "tests" / "golden").iterdir()
    }
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, argv


def _show_on_stderr(message, category, filename, lineno, file=None, line=None):
    """Print a warning to stderr as Python does outside pytest, in the current format."""
    sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))


def test_exit_code_table_rows_run(tmp_path, monkeypatch, capsys):
    rows = [match.groups() for match in map(EXIT_ROW.match, README.splitlines()) if match]
    assert len(rows) == 36  # a row that stops matching the pattern would go unchecked
    monkeypatch.chdir(tmp_path)
    wrong = []
    with warnings.catch_warnings():  # the strongly anharmonic rows warn, as a real run does
        warnings.simplefilter("always", PerturbativeRegimeExceeded)
        warnings.showwarning = _show_on_stderr
        for command, code, text in rows:
            got, out, err = _run(capsys, shlex.split(command))
            stream = err if got or text.startswith("warning: ") else out
            holds = text.replace(r"\n", "\n") in stream and (out != "") == (got == 0)
            if (got, holds) != (int(code), True):
                wrong.append(f"{command}: exit {got}, stdout {out[-200:]!r}, stderr {err!r}")
    assert not wrong, "\n".join(wrong)


def test_design_check_json_sample_is_the_output(capsys):
    sample = README.split("`design-check\n  --format json` writes\n\n  ```json\n", 1)[1]
    sample = sample.split("  ```", 1)[0]
    code, out, _ = _run(capsys, ["design-check", "--format", "json"])
    assert code == 0
    # the same keys in the same order, each value spelled as the output spells it
    assert list(json.loads(out).items()) == list(json.loads(sample).items())
    assert re.findall(r": ([^,\n}]+)", sample) == [
        line.split(": ", 1)[1].rstrip(",") for line in out.splitlines()[1:-1]
    ]
