"""Command-line front end.

Subcommands map one-to-one onto the computation modules:

* ``sweep-capacitance`` - differential-capacitance grid over (T, V);
* ``design-check``      - dielectric thickness / dominance design rules;
* ``qubit``             - single-mode quantization summary incl. the
                          Fock-basis spectrum;
* ``coupling``          - pump-selected interaction classification and
                          single-photon rate;
* ``circulator``        - three-mode scattering sweep (ratio + insertion
                          loss curves);
* ``verify-paper``      - recompute every published reference number and
                          report PASS / FLAG / FAIL per entry.

Inputs use engineering units (K, GHz, um^2, nm, phases in units of pi);
everything internal is SI.  Data outputs are deterministic (no
timestamps); when ``--out`` is given, run metadata goes to a
``<out>.meta.json`` sidecar.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import math
import sys
from importlib import import_module, resources
from pathlib import Path

from . import __version__
from .capacitor import (
    CapacitorDesign,
    OperatingPoint,
    charge_series,
    charge_series_cubic_coefficient,
    design_check,
    energy_series,
    geometric_capacitance,
    linear_capacitance_C0,
)
from .constants import (
    CONSTANTS,
    f_per_m2_to_ff_per_um2,
    farad_to_femtofarad,
    ghz_to_rad_per_s,
    nm_to_m,
    pi_units_to_rad,
    um2_to_m2,
)
from .errors import ConfigError, CutoffNotConverged, SingularSystem
from .mode import (
    FOCK_CUTOFF_MAX,
    OscillatorSpec,
    anharmonicity_engineering,
    nonlinear_time_constant,
    photon_amplitude,
    photon_number_limit,
    photon_number_limit_derived,
    resonant_inductance,
    suggested_fock_cutoff,
)
from .multimode import PumpSpec, classify_interaction, single_photon_rate_engineering
from .tables import csv_text, json_text, table_csv, table_json

# The numpy-backed kernels are imported on first use, so that design-check,
# coupling, qubit --skip-spectrum and verify-paper never load numpy.  A
# subcommand reads its kernel from this module's attributes when it runs,
# so a wrapper set on one of them (a profiler's span, a test's counter) is
# the one called.
_KERNEL_MODULES = {
    "capacitance_sweep": ".capacitance",
    "sweep": ".circulator",
    "fock_diagonalize": ".oscillator",
}


def __getattr__(name: str):
    """Bind a kernel on this module at its first access (PEP 562)."""
    if name not in _KERNEL_MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    kernel = getattr(import_module(_KERNEL_MODULES[name], __package__), name)
    return globals().setdefault(name, kernel)


def _kernel(name: str):
    """The kernel ``name`` as this module's attribute holds it now."""
    return getattr(sys.modules[__name__], name)


# --- config loading ----------------------------------------------------------

def _locate_config(name_or_path: str) -> Path:
    p = Path(name_or_path)
    if p.exists():
        return p
    packaged = resources.files("qcapsim").joinpath("configs", p.name)
    if packaged.is_file():
        return Path(str(packaged))
    raise ConfigError(
        f"config '{name_or_path}' not found on disk or among bundled configs"
    )


def _load_config(name_or_path: str, allowed: set[str], required: set[str]) -> dict:
    path = _locate_config(name_or_path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top-level JSON value must be an object")
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(
            f"{path}: unknown keys {sorted(unknown)} (allowed: {sorted(allowed)})"
        )
    missing = required - set(doc)
    if missing:
        raise ConfigError(f"{path}: missing required keys {sorted(missing)}")
    return doc


def _parse_float_list(text: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"expected a comma-separated number list, got {text!r}") from exc
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"expected finite numbers, got {text!r}")
    return values


def _config_float(key: str, value) -> float:
    """A config-file number as a float; non-numbers, nan and +-inf raise
    ConfigError (exit 2)."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = math.nan
    if not math.isfinite(number):
        raise ConfigError(f"config key '{key}' must be a finite number, got {value}")
    return number


def _config_count(key: str, value) -> int:
    """A config-file whole number; booleans and fractions raise ConfigError (exit 2)."""
    if isinstance(value, bool) or _config_float(key, value) % 1:
        raise ConfigError(f"config key '{key}' must be a whole number, got {value}")
    return int(float(value))


def _finite_float(text: str) -> float:
    """argparse ``type`` for numeric options: rejects nan and +-inf (exit 2)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


# --- output emission ----------------------------------------------------------

def _emit(args, text: str, metadata: dict) -> None:
    if args.out is None:
        sys.stdout.write(text)
        return
    out = Path(args.out)
    out.write_text(text)
    metadata = dict(metadata)
    metadata.update(
        tool="qcap-sim",
        version=__version__,
        created_utc=datetime.datetime.now(datetime.timezone.utc).isoformat(),
    )
    Path(str(out) + ".meta.json").write_text(json.dumps(metadata, indent=2) + "\n")


def _emit_table(args, header, rows) -> None:
    if args.format == "csv":
        text = csv_text(header, rows)
    else:
        text = json_text([dict(zip(header, row)) for row in rows])
    _emit(args, text, {"command": args.command})


def _emit_columns(args, header, values) -> None:
    text = table_csv(header, values) if args.format == "csv" else table_json(header, values)
    _emit(args, text, {"command": args.command})


def _emit_record(args, record: dict) -> None:
    if args.format == "csv":
        keys = [k for k, v in record.items() if not isinstance(v, (dict, list, tuple))]
        rows = [[record[k] for k in keys]]
        text = csv_text(keys, rows)
    else:
        text = json_text(record)
    _emit(args, text, {"command": args.command})


# --- subcommands --------------------------------------------------------------

FIG2_KEYS = {"thickness_nm", "relative_permittivity", "temperatures_K", "vmax_V", "n_points"}


def _cmd_sweep_capacitance(args) -> int:
    import numpy as np

    from .capacitance import SWEEP_CSV_HEADER

    if args.config is not None:
        doc = _load_config(args.config, FIG2_KEYS, FIG2_KEYS)
        thickness_nm = _config_float("thickness_nm", doc["thickness_nm"])
        epsr = _config_float("relative_permittivity", doc["relative_permittivity"])
        if not isinstance(doc["temperatures_K"], list):
            raise ConfigError("config key 'temperatures_K' must be a list of numbers")
        temperatures = [_config_float("temperatures_K", t) for t in doc["temperatures_K"]]
        vmax = _config_float("vmax_V", doc["vmax_V"])
        n_points = _config_count("n_points", doc["n_points"])
    else:
        thickness_nm = args.thickness_nm
        epsr = args.epsr
        temperatures = _parse_float_list(args.T)
        vmax = args.vmax
        n_points = args.points
    if not temperatures:
        raise ConfigError("at least one temperature is required")
    if n_points < 2:
        raise ConfigError(f"n_points must be >= 2, got {n_points}")
    design = CapacitorDesign(
        area_S=um2_to_m2(args.S),
        dielectric_thickness_t=nm_to_m(thickness_nm),
        relative_permittivity=epsr,
    )
    grid = np.linspace(-vmax, vmax, n_points)
    result = _kernel("capacitance_sweep")(design, temperatures, grid)
    _emit_columns(args, SWEEP_CSV_HEADER, result.columns())
    return 0


def _cmd_design_check(args) -> int:
    design = CapacitorDesign(
        area_S=um2_to_m2(args.S),
        dielectric_thickness_t=nm_to_m(args.thickness_nm),
        relative_permittivity=args.epsr,
    )
    report = design_check(design, args.T)
    record = {
        "thickness_nm": args.thickness_nm,
        "relative_permittivity": args.epsr,
        "T_K": args.T,
        "C_G_fF_per_um2": f_per_m2_to_ff_per_um2(report.C_G_areal),
        "C_0_fF_per_um2": f_per_m2_to_ff_per_um2(report.C_0_areal),
        "dominance_ratio": report.dominance_ratio,
        "thickness_ok": report.thickness_ok,
        "dominance_ok": report.dominance_ok,
        "messages": list(report.messages),
    }
    _emit_record(args, record)
    return 0


def _cmd_qubit(args) -> int:
    omega = ghz_to_rad_per_s(args.f)
    area = um2_to_m2(args.S)
    tau = nonlinear_time_constant(area, args.T)
    cutoff = args.cutoff if args.cutoff is not None else suggested_fock_cutoff(tau * omega)
    spec = OscillatorSpec(
        omega=omega, tau=tau, area_S=area, temperature_T=args.T, fock_cutoff=cutoff
    )
    design = CapacitorDesign(
        area_S=area,
        dielectric_thickness_t=nm_to_m(args.thickness_nm),
        relative_permittivity=args.epsr,
    )
    chi, psi = photon_amplitude(spec)
    anh = anharmonicity_engineering(args.T, args.f, args.S)
    record = {
        "T_K": args.T,
        "f_GHz": args.f,
        "S_um2": args.S,
        "fock_cutoff": cutoff,
        "tau_s": tau,
        "tau_omega": tau * omega,
        "chi_per_m2_sqrt_s": chi,
        "psi_per_m2": psi,
        "tank_inductance_H": resonant_inductance(design, args.T, omega),
        "anharmonicity_percent_printed": anh.percent_printed,
        "anharmonicity_percent_symbolic": anh.percent_symbolic,
        "n_max_printed": photon_number_limit(args.T, args.f),
        "n_max_derived": photon_number_limit_derived(args.T, args.f),
    }
    if not args.skip_spectrum:
        spectrum = _kernel("fock_diagonalize")(spec)
        record["anharmonicity_percent_fock"] = spectrum.anharmonicity_A * 100.0
        record["spectrum"] = spectrum.to_json_dict()
    _emit_record(args, record)
    return 0


def _cmd_coupling(args) -> int:
    tau = nonlinear_time_constant(um2_to_m2(args.S), args.T)
    pump = PumpSpec(
        Omega=ghz_to_rad_per_s(args.f),
        amplitude_abs=math.sqrt(args.pump_photons),
        phase_theta=pi_units_to_rad(args.theta_over_pi),
    )
    classification = classify_interaction(
        pump,
        ghz_to_rad_per_s(args.f1),
        ghz_to_rad_per_s(args.f2),
        tau,
        tolerance=2.0 * math.pi * 1e6 * args.tolerance_mhz,
    )
    rate = single_photon_rate_engineering(args.T, args.f, args.f1, args.f2, args.S)
    record = {
        "T_K": args.T,
        "f_GHz": args.f,
        "f1_GHz": args.f1,
        "f2_GHz": args.f2,
        "S_um2": args.S,
        "pump_photons": args.pump_photons,
        **classification.to_json_dict(),
        **rate.to_json_dict(),
    }
    _emit_record(args, record)
    return 0


CIRC_FILE_KEYS = {"circulator", "delta_min_GHz", "delta_max_GHz", "n_points"}


def _cmd_circulator(args) -> int:
    from .circulator import SWEEP_CSV_HEADER, config_from_engineering_dict

    doc = _load_config(args.config, CIRC_FILE_KEYS, {"circulator"})
    if not isinstance(doc["circulator"], dict):
        raise ConfigError("config key 'circulator' must be an object")
    config = config_from_engineering_dict(doc["circulator"])

    def file_number(key, default):
        return _config_float(key, doc.get(key, default))

    delta_min = args.delta_min if args.delta_min is not None else file_number("delta_min_GHz", -4.0)
    delta_max = args.delta_max if args.delta_max is not None else file_number("delta_max_GHz", 4.0)
    points = doc.get("n_points", 1001)
    n_points = args.points if args.points is not None else _config_count("n_points", points)
    result = _kernel("sweep")(
        config,
        ghz_to_rad_per_s(delta_min),
        ghz_to_rad_per_s(delta_max),
        n_points,
    )
    _emit_columns(args, SWEEP_CSV_HEADER, result.columns())
    return 0


VERIFY_HEADER = ("id", "description", "printed", "computed", "rel_dev_vs_printed", "status", "note")
VERIFY_REQUIRED = {"id", "description", "printed", "rel_tol"}
VERIFY_KEYS = VERIFY_REQUIRED | {"expect", "consistent_with", "note"}


def _verify_checks(name: str, doc: dict) -> list[dict]:
    """The verify table's checks with their numbers as finite floats.

    ``printed`` must be non-zero (deviations are relative to it), ``rel_tol``
    >= 0, and a ``"flag"`` check needs ``consistent_with``; missing or unknown
    keys and any other shape raise ConfigError naming the file.
    """
    checks = doc["checks"]
    if not (isinstance(checks, list) and all(isinstance(c, dict) for c in checks)):
        raise ConfigError(f"{name}: 'checks' must be a list of objects")
    try:
        for i, check in enumerate(checks):
            missing = VERIFY_REQUIRED - set(check)
            if missing:
                raise ConfigError(f"check {i}: missing keys {sorted(missing)}")
            unknown = set(check) - VERIFY_KEYS
            if unknown:
                raise ConfigError(f"check {i}: unknown keys {sorted(unknown)}")
            if not all(isinstance(check.get(k, ""), str) for k in ("id", "description", "note")):
                raise ConfigError(f"check {i}: 'id', 'description' and 'note' must be strings")
            expect = check.setdefault("expect", "pass")
            if expect not in ("pass", "flag"):
                raise ConfigError(f"check {i}: 'expect' must be 'pass' or 'flag', got {expect!r}")
            if expect == "flag" and "consistent_with" not in check:
                raise ConfigError(f"check {i}: a 'flag' check needs 'consistent_with'")
            for key in ("printed", "rel_tol", "consistent_with"):
                if key in check:
                    check[key] = _config_float(f"checks[{i}].{key}", check[key])
            if check["printed"] == 0.0:
                raise ConfigError(f"check {i}: 'printed' must be non-zero")
            if check["rel_tol"] < 0.0:
                raise ConfigError(f"check {i}: 'rel_tol' must be >= 0, got {check['rel_tol']}")
    except ConfigError as exc:
        raise ConfigError(f"{name}: {exc}") from None
    return checks


def _quartic_coefficient_ratio(design: CapacitorDesign, T: float) -> float:
    """The quartic coefficient of :func:`energy_series` over the one that
    inverting the charge series N = c1 V + c3 V^3 implies, e c3 / 4 c1^4.

    c1 is read off :func:`charge_series` at e V = 1e-6 k_B T, where the cubic
    term is 1e-14 of it; the quartic coefficient comes from U(n) = a n^2 - b n^4
    at n = N and 2N, with b N^2 ~ 6 a so that the difference cancels no more
    than a digit.
    """
    e = CONSTANTS.e
    c3 = charge_series_cubic_coefficient(design, T)
    v = 1e-6 * CONSTANTS.k_B * T / e
    c1 = charge_series(design, OperatingPoint(T, v)) / (e * v) - c3 * v**2
    n = math.sqrt(c1**3 / c3)
    u1, u2 = energy_series(design, T, n), energy_series(design, T, 2.0 * n)
    b = (4.0 * u1 - u2) / (12.0 * n**4)
    return b / (e * c3 / (4.0 * c1**4))


def _verify_computed_values() -> dict[str, float]:
    design = CapacitorDesign(
        area_S=um2_to_m2(100.0), dielectric_thickness_t=7e-9, relative_permittivity=4.0
    )
    g0_1k = single_photon_rate_engineering(1.0, 4.0, 2.0, 10.0, 100.0)
    g0_4k = single_photon_rate_engineering(4.0, 4.0, 2.0, 10.0, 100.0)
    g0_quarter = single_photon_rate_engineering(0.25, 4.0, 2.0, 10.0, 100.0)
    two_pi = 2.0 * math.pi
    return {
        "cg_areal": f_per_m2_to_ff_per_um2(geometric_capacitance(design)),
        "c0_areal_1k": f_per_m2_to_ff_per_um2(linear_capacitance_C0(design, 1.0)),
        "c0_total_100um2_1k": farad_to_femtofarad(
            design.area_S * linear_capacitance_C0(design, 1.0)
        ),
        "g0_1k_2pi_mhz": g0_1k.g0_printed_rad_s / (two_pi * 1e6),
        "g0_4k_2pi_khz": g0_4k.g0_printed_rad_s / (two_pi * 1e3),
        "g0_0p25k_2pi_ghz": g0_quarter.g0_printed_rad_s / (two_pi * 1e9),
        "anharmonicity_0p5k_pct": anharmonicity_engineering(0.5, 4.0, 100.0).percent_printed,
        "anharmonicity_1k_pct": anharmonicity_engineering(1.0, 4.0, 100.0).percent_printed,
        "photon_limit_coefficient": photon_number_limit_derived(1.0, 1.0),
        "anharmonicity_coefficient": anharmonicity_engineering(1.0, 1.0, 1.0).percent_symbolic,
        "rate_coefficient": single_photon_rate_engineering(1.0, 1.0, 1.0, 1.0, 1.0).g0_symbolic_rad_s
        / (3.0 * two_pi * 1e9),
        "g0_definition_factor": g0_1k.ratio_symbolic_to_printed,
        "quartic_coefficient_ratio": _quartic_coefficient_ratio(design, 1.0),
    }


def _cmd_verify_paper(args) -> int:
    checks = _verify_checks(args.config, _load_config(args.config, {"checks"}, {"checks"}))
    computed_values = _verify_computed_values()
    rows = []
    any_fail = False
    for check in checks:
        cid = check["id"]
        if cid not in computed_values:
            raise ConfigError(f"{args.config}: unknown check id {cid!r}")
        printed = check["printed"]
        rel_tol = check["rel_tol"]
        computed = computed_values[cid]
        rel_dev = abs(computed - printed) / abs(printed)
        if check["expect"] == "pass":
            status = "PASS" if rel_dev <= rel_tol else "FAIL"
        else:
            guard = check["consistent_with"]
            guard_ok = abs(computed - guard) <= rel_tol * abs(guard)
            status = "FLAG" if guard_ok else "FAIL"
        if status == "FAIL":
            any_fail = True
        note = check.get("note", "")
        rows.append(
            (cid, check["description"], printed, computed, rel_dev, status, note)
        )
    _emit_table(args, VERIFY_HEADER, rows)
    return 1 if any_fail else 0


# --- argument parsing ----------------------------------------------------------

def _add_common_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=None, help="output file (default: stdout)")
    parser.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="output format"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcap-sim",
        description="Nonlinear graphene quantum capacitor design and simulation toolkit",
    )
    parser.add_argument("--version", action="version", version=f"qcap-sim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep-capacitance", help="differential capacitance over a (T, V) grid")
    p.add_argument("--config", default=None, help="JSON config (bundled name or path)")
    p.add_argument("--T", default="0,0.25,1,4", help="comma-separated temperatures in K (0 = T->0 branch)")
    p.add_argument("--vmax", type=_finite_float, default=0.05, help="voltage range bound in V")
    p.add_argument("--points", type=int, default=201, help="voltage grid points")
    p.add_argument("--thickness-nm", type=_finite_float, default=7.0, help="dielectric thickness in nm")
    p.add_argument("--epsr", type=_finite_float, default=4.0, help="dielectric relative permittivity")
    p.add_argument("--S", type=_finite_float, default=100.0, help="capacitor area in um^2")
    _add_common_output_flags(p)
    p.set_defaults(func=_cmd_sweep_capacitance)

    p = sub.add_parser("design-check", help="dielectric thickness window and dominance rules")
    p.add_argument("--thickness-nm", type=_finite_float, default=7.0)
    p.add_argument("--epsr", type=_finite_float, default=4.0)
    p.add_argument("--T", type=_finite_float, default=1.0, help="temperature in K")
    p.add_argument("--S", type=_finite_float, default=100.0, help="capacitor area in um^2")
    _add_common_output_flags(p)
    p.set_defaults(func=_cmd_design_check)

    p = sub.add_parser("qubit", help="single-mode quantization summary")
    p.add_argument("--T", type=_finite_float, default=1.0, help="temperature in K")
    p.add_argument("--f", type=_finite_float, default=4.0, help="mode frequency in GHz")
    p.add_argument("--S", type=_finite_float, default=100.0, help="capacitor area in um^2")
    p.add_argument(
        "--cutoff",
        type=int,
        default=None,
        help=f"Fock truncation, 10 to {FOCK_CUTOFF_MAX} (default: largest convergence-safe value)",
    )
    p.add_argument(
        "--skip-spectrum",
        action="store_true",
        help="omit the Fock-basis spectrum (engineering outputs only)",
    )
    p.add_argument("--thickness-nm", type=_finite_float, default=7.0)
    p.add_argument("--epsr", type=_finite_float, default=4.0)
    _add_common_output_flags(p)
    p.set_defaults(func=_cmd_qubit)

    p = sub.add_parser("coupling", help="pump-selected interaction classification and rate")
    p.add_argument("--T", type=_finite_float, default=1.0, help="temperature in K")
    p.add_argument("--f", type=_finite_float, default=4.0, help="pump frequency in GHz")
    p.add_argument("--f1", type=_finite_float, default=2.0, help="mode-1 frequency in GHz")
    p.add_argument("--f2", type=_finite_float, default=10.0, help="mode-2 frequency in GHz")
    p.add_argument("--S", type=_finite_float, default=100.0, help="capacitor area in um^2")
    p.add_argument("--pump-photons", type=_finite_float, default=1.0, help="pump photon number |a|^2")
    p.add_argument("--theta-over-pi", type=_finite_float, default=0.0, help="pump phase in units of pi")
    p.add_argument("--tolerance-mhz", type=_finite_float, default=1.0, help="resonance tolerance in MHz")
    _add_common_output_flags(p)
    p.set_defaults(func=_cmd_coupling)

    p = sub.add_parser("circulator", help="three-mode circulator scattering sweep")
    p.add_argument("--config", required=True, help="JSON config (bundled name or path)")
    p.add_argument("--delta-min", type=_finite_float, default=None, help="override sweep start in GHz")
    p.add_argument("--delta-max", type=_finite_float, default=None, help="override sweep end in GHz")
    p.add_argument("--points", type=int, default=None, help="override grid points")
    _add_common_output_flags(p)
    p.set_defaults(func=_cmd_circulator)

    p = sub.add_parser(
        "verify-paper",
        help="recompute every published reference number and report PASS/FLAG/FAIL",
    )
    p.add_argument("--config", default="paper_table_numbers.json", help="verification table")
    _add_common_output_flags(p)
    p.set_defaults(func=_cmd_verify_paper)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built by the first :func:`main` call."""
    return build_parser()


def main(argv=None) -> int:
    """Run one ``qcap-sim`` command; the exit code is the return value.

    Repeated calls in one process share the parser that the first call
    builds: parsing leaves no state on it, and every call gets a fresh
    namespace.  A subcommand looks up its kernel and emitters (``sweep``,
    ``fock_diagonalize``, ``csv_text``, ``table_json``, ...) on this module
    when it runs, so wrapping them works at any time.  The ``_cmd_*``
    handlers are bound into the parser once, by ``set_defaults(func=...)``;
    replacing one after the first call has no effect, and no test or
    profiler span replaces one.
    """
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (CutoffNotConverged, SingularSystem) as exc:
        print(f"numerical contract failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
