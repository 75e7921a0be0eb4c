"""The ``qcap-sim`` lines of the README's fenced blocks run as it shows them."""

import shlex
from pathlib import Path

from qcapsim.cli import main

ROOT = Path(__file__).resolve().parent.parent


def _fenced_commands() -> list[list[list[str]]]:
    """The ``qcap-sim`` lines of each top-level fenced block of the README that has
    any, split as a shell would, without the program name and the comment."""
    blocks, inside = [], False
    for line in (ROOT / "README.md").read_text().splitlines():
        if line.startswith("```"):
            inside = not inside
            if inside:
                blocks.append([])
        elif inside and line.startswith("qcap-sim "):
            blocks[-1].append(shlex.split(line, comments=True)[1:])
    return [block for block in blocks if block]


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    # the "Command line" block exits 0; each golden-regeneration line prints its golden
    commands, regenerations = _fenced_commands()
    assert (len(commands), len(regenerations)) == (7, 10)
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, argv
    capsys.readouterr()
    for *argv, redirect, golden in regenerations:
        assert redirect == ">"
        assert main(argv) == 0, argv
        assert capsys.readouterr().out == (ROOT / golden).read_text(), golden
