"""Layer spans recorded from outside the program.

``Tracer.install()`` swaps the wrappers in and ``uninstall()`` restores the
originals, so a caller can trace some calls and not others.
The tracer replaces public functions of ``qcapsim`` modules with timing
wrappers, at the names their callers look up at call time (``cli`` binds the
kernels and emitters by name; ``circulator`` binds its solve entry points).
Spans nest on a stack, so a layer's self time is its duration minus the time
its child spans cover.  Spans are aggregated in memory per layer (calls,
total, self, counts): one sweep makes thousands of solve spans.

A target that a later version of the program removes or renames is reported
as missing instead of failing the run; its metrics then read 0.
"""

from __future__ import annotations

import importlib
import time

# (layer, module, attribute); "Class.method" patches the class attribute.
TARGETS = (
    ("cli.main", "qcapsim.cli", "main"),
    ("capacitance.sweep", "qcapsim.cli", "capacitance_sweep"),
    ("circulator.sweep", "qcapsim.cli", "sweep"),
    ("oscillator.fock", "qcapsim.cli", "fock_diagonalize"),
    ("linalg.solve", "qcapsim.circulator", "lu_solve_numpy"),
    ("linalg.solve", "qcapsim.circulator", "lu_solve_loops"),
    ("linalg.solve", "qcapsim.circulator", "solve_complex"),
    ("linalg.eig", "qcapsim.linalg", "symmetric_eigenvalues"),
    ("tables.csv", "qcapsim.cli", "csv_text"),
    ("tables.json", "qcapsim.cli", "json_text"),
)
# Generators whose yielded rows count as tables.rows_built.
ROW_SOURCES = (
    ("qcapsim.circulator", "SweepResult.csv_rows"),
    ("qcapsim.capacitance", "CapacitanceSweep.engineering_rows"),
)


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, getattr(owner, name)


class Tracer:
    """Installs wrappers, aggregates spans and counts, and restores on exit."""

    def __init__(self):
        self.layers: dict[str, list] = {}   # layer -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {}
        self.useful_rows = 0                # rows written by row-building requests
        self.rows_built_in_requests = 0
        self.installed: list[str] = []
        self.missing: list[str] = []
        self._stack: list[list[float]] = []
        self._patches: list[tuple] = []     # (owner, name, original, wrapped)
        self._request = {"built": 0, "written": 0}
        self._resolve_all()

    def count(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _span(self, layer, fn, on_result=None):
        stack, layers = self._stack, self.layers

        def wrapper(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                agg = layers.setdefault(layer, [0, 0.0, 0.0])
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - children[0]
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def _rows_source(self, fn):
        def counted(*args, **kwargs):
            for row in fn(*args, **kwargs):
                self._request["built"] += 1
                yield row

        return counted

    def _count_csv_rows(self, rows):
        for row in rows:
            self._request["written"] += 1
            yield row

    def _hooks(self):
        def csv_text(fn):
            def call(header, rows):
                return fn(header, self._count_csv_rows(rows))
            return call

        def json_text(fn):
            def call(payload):
                self._request["written"] += len(payload) if isinstance(payload, list) else 1
                return fn(payload)
            return call

        def text_bytes(args, result):
            self.count("tables.bytes", len(result.encode()))

        return {
            "capacitance.sweep": (None, lambda a, r: self.count("capacitance.cells", len(r.T_K))),
            "circulator.sweep": (None, lambda a, r: self.count("circulator.points", len(r.detuning_grid))),
            "linalg.eig": (None, lambda a, r: self.count("linalg.eig_dim3_sum", len(a[0]) ** 3)),
            "tables.csv": (csv_text, text_bytes),
            "tables.json": (json_text, text_bytes),
        }

    def _resolve_all(self) -> None:
        hooks = self._hooks()
        targets = [(layer, module, attr) for layer, module, attr in TARGETS]
        targets += [(None, module, attr) for module, attr in ROW_SOURCES]
        for layer, module, attr in targets:
            label = f"{module}.{attr}"
            try:
                owner, name, fn = _resolve(module, attr)
            except (ImportError, AttributeError):
                self.missing.append(label)
                continue
            if layer is None:
                wrapped = self._rows_source(fn)
            else:
                pre, post = hooks.get(layer, (None, None))
                wrapped = self._span(layer, pre(fn) if pre else fn, post)
            self._patches.append((owner, name, fn, wrapped))
            self.installed.append(label)

    def install(self) -> None:
        for owner, name, _, wrapped in self._patches:
            setattr(owner, name, wrapped)

    def uninstall(self) -> None:
        for owner, name, original, _ in reversed(self._patches):
            setattr(owner, name, original)

    def end_request(self) -> None:
        """Close one request's row accounting (for tables.useful_row_ratio)."""
        built, written = self._request["built"], self._request["written"]
        self.count("tables.rows_built", built)
        self.count("tables.rows_written", written)
        if built:
            self.rows_built_in_requests += built
            self.useful_rows += written
        self._request = {"built": 0, "written": 0}

    def summary(self) -> dict:
        return {
            "layers": self.layers,
            "counts": self.counts,
            "useful_rows": self.useful_rows,
            "rows_built_in_requests": self.rows_built_in_requests,
            "installed": self.installed,
            "missing": self.missing,
        }


def merge(summaries: list[dict]) -> dict:
    """Sum span summaries from several processes (one per cold invocation)."""
    out = {"layers": {}, "counts": {}, "useful_rows": 0, "rows_built_in_requests": 0,
           "installed": [], "missing": []}
    for s in summaries:
        for layer, (calls, total, self_s) in s["layers"].items():
            agg = out["layers"].setdefault(layer, [0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += total
            agg[2] += self_s
        for key, n in s["counts"].items():
            out["counts"][key] = out["counts"].get(key, 0) + n
        out["useful_rows"] += s["useful_rows"]
        out["rows_built_in_requests"] += s["rows_built_in_requests"]
        for key in ("installed", "missing"):
            out[key] = sorted(set(out[key]) | set(s[key]))
    return out


def layer_metrics(summary: dict) -> dict:
    """Per-layer metric values (name -> value) from a span summary."""
    layers, counts = summary["layers"], summary["counts"]

    def ms(layer, idx):
        return layers.get(layer, [0, 0.0, 0.0])[idx] * 1e3

    def calls(layer):
        return layers.get(layer, [0, 0.0, 0.0])[0]

    points = counts.get("circulator.points", 0)
    built = summary["rows_built_in_requests"]
    return {
        "cli.self_ms": ms("cli.main", 2),
        "capacitance.sweep_ms": ms("capacitance.sweep", 1),
        "capacitance.cells": counts.get("capacitance.cells", 0),
        "circulator.sweep_self_ms": ms("circulator.sweep", 2),
        "circulator.points": points,
        "circulator.us_per_point": ms("circulator.sweep", 1) * 1e3 / points if points else 0.0,
        "linalg.solve_calls": calls("linalg.solve"),
        "linalg.solve_ms": ms("linalg.solve", 1),
        "linalg.eig_calls": calls("linalg.eig"),
        "linalg.eig_ms": ms("linalg.eig", 1),
        "linalg.eig_dim3_sum": counts.get("linalg.eig_dim3_sum", 0),
        "oscillator.fock_calls": calls("oscillator.fock"),
        "oscillator.fock_self_ms": ms("oscillator.fock", 2),
        "tables.csv_ms": ms("tables.csv", 1),
        "tables.json_ms": ms("tables.json", 1),
        "tables.bytes": counts.get("tables.bytes", 0),
        "tables.rows_written": counts.get("tables.rows_written", 0),
        "tables.rows_built": counts.get("tables.rows_built", 0),
        "tables.useful_row_ratio": summary["useful_rows"] / built if built else 1.0,
    }
