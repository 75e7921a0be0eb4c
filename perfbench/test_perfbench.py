"""Tests of the benchmark's own helpers: python -m pytest perfbench"""

import contextlib
import io
import json
from pathlib import Path

import pytest

import checks
import inputs
import spans
from stats import tail

ROOT = Path(__file__).resolve().parent.parent


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert tail([float(v) for v in range(1, 101)]) == (90, 90.0, 10)
    assert tail([float(v) for v in range(26, 0, -1)]) == (61, 16.0, 10)
    assert tail([float(v) for v in range(1, 21)]) == (50, 10.0, 10)
    with pytest.raises(ValueError):
        tail([float(v) for v in range(1, 20)])


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_one_seed_gives_byte_identical_inputs(workload, tmp_path):
    runs = []
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        workdir = tmp_path / name
        workdir.mkdir()
        requests = inputs.generate(workload, seed, 20, workdir)
        files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
        runs.append((requests, files))
    assert runs[0] == runs[1]
    assert runs[0] != runs[2]
    assert len(runs[0][0]) >= 20  # enough for a tail with ten samples beyond p50


def test_missing_span_target_is_reported_not_raised(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + (
        ("linalg.solve", "qcapsim.circulator", "no_such_solver"),))
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert "qcapsim.circulator.no_such_solver" in tracer.missing
        assert "qcapsim.cli.main" in tracer.installed
    finally:
        tracer.uninstall()


def test_circulator_check_accepts_program_output_and_rejects_a_changed_digit(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    from qcapsim import cli

    spec = inputs.warmup_requests("sweep-warm")[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(spec["argv"]) == 0
    text = out.getvalue()
    assert checks.check(spec["check"], 0, text, ROOT / "tests" / "golden") is None
    lines = text.splitlines(keepends=True)
    row = lines[50].split(",")
    row[3] = repr(float(row[3]) * (1 + 1e-7))
    lines[50] = ",".join(row)
    assert checks.check(spec["check"], 0, "".join(lines), ROOT / "tests" / "golden")
    assert checks.check(spec["check"], 1, text, ROOT / "tests" / "golden") == "exit code 1"


def test_layer_map_covers_every_per_layer_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_map = json.loads((Path(__file__).parent / "layers.json").read_text())["map"]
    names = [m["name"] for m in bench["per_layer"]]
    assert sorted(layer_map) == sorted(names)
    assert set(spans.layer_metrics(spans.merge([]))) <= set(names)
