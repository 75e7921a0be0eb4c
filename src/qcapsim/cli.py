"""Command-line front end.

Subcommands map one-to-one onto the computation modules:

* ``sweep-capacitance`` - differential-capacitance grid over (T, V);
* ``design-check``      - dielectric thickness / dominance design rules;
* ``qubit``             - single-mode quantization summary incl. the
                          lowest levels, from the perturbation series or,
                          with ``--cutoff``, the Fock-basis oracle;
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
import functools
import json
import math
import sys
import warnings
from pathlib import Path

from . import __version__
from .capacitor import (
    SWEEP_CSV_HEADER,
    capacitance_sweep,
    charge_series_coefficients,
    design_check,
    energy_series_coefficients,
    geometric_capacitance,
    linear_capacitance_C0,
)
from .constants import (
    E,
    TWO_PI,
    f_per_m2_to_ff_per_um2,
    farad_to_femtofarad,
    ghz_to_rad_per_s,
    nm_to_m,
    pi_units_to_rad,
    require_positive,
    um2_to_m2,
)
from .errors import ConfigError, CutoffNotConverged, SingularSystem
from .mode import (
    CONVERGENCE_RTOL,
    FOCK_CUTOFF_MAX,
    OscillatorSpec,
    anharmonicity_percent_printed,
    classify_interaction,
    fock_diagonalize,
    gamma_nml,
    nonlinear_time_constant,
    photon_amplitude,
    photon_number_limit,
    photon_number_limit_derived,
    resonant_inductance,
    series_spectrum,
    single_photon_rate_printed,
    suggested_fock_cutoff,
)
from .tables import csv_text, json_text, table_csv, table_json

# circulator imports numpy at module level, so it is imported only when its kernel runs.
# A subcommand calls its kernel (capacitance_sweep, sweep, series_spectrum, fock_diagonalize)
# by its name here, so a wrapper set on one (a profiler's span, a test's counter) is the one
# called.

def sweep(config, deltas):
    from . import circulator
    return circulator.sweep(config, deltas)


# --- config loading ----------------------------------------------------------

def _locate_config(name_or_path: str) -> Path:
    """The config file on disk, else the bundled config of that name when the
    argument is a bare file name; else ConfigError, also for a directory."""
    p = Path(name_or_path)
    if p.is_dir():
        raise ConfigError(f"config '{name_or_path}' is a directory, not a file")
    if p.exists():
        return p
    packaged = Path(__file__).with_name("configs") / p.name
    if p.name == name_or_path and packaged.is_file():
        return packaged
    raise ConfigError(
        f"config '{name_or_path}' not found on disk or among bundled configs"
    )


def _config_object(where: str, doc, allowed: set[str], required: set[str]) -> dict:
    """``doc`` when it is a JSON object with only ``allowed`` keys and every
    ``required`` one; else ConfigError naming ``where``."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)} (allowed: {sorted(allowed)})")
    missing = required - set(doc)
    if missing:
        raise ConfigError(f"{where}: missing required keys {sorted(missing)}")
    return doc


def _unique_keys(pairs: list) -> dict:
    """``object_pairs_hook`` of a config file: its object, unless a key repeats."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"key '{key}' is repeated")
        doc[key] = value
    return doc


def _load_config(name_or_path: str, allowed: set[str], required: set[str]) -> dict:
    path = _locate_config(name_or_path)
    try:  # also bytes that are not UTF-8, an integer of over 4300 digits, deep nesting
        doc = json.loads(path.read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return _config_object(str(path), doc, allowed, required)


def config_number(key: str, value, *, whole: bool = False):
    """A config-file number: an int or a float but not a bool, finite, and
    whole (returned as an int) when ``whole``; else ConfigError (exit 2)."""
    try:
        number = float(value) if type(value) in (int, float) else None
    except OverflowError:  # an int beyond the float range
        number = math.inf
    finite = number is not None and math.isfinite(number)
    if not finite or (whole and number % 1):
        kind = "a whole number" if whole and (finite or number is None) else "a finite number"
        got = f"{value} ({type(value).__name__})"
        raise ConfigError(f"config key '{key}' must be {kind}, got {got}")
    return int(number) if whole else number


def _config_numbers(key: str, value, length: int | None = None) -> list[float]:
    """A config list of numbers, each read by :func:`config_number`, with
    ``length`` entries when it is given."""
    if not isinstance(value, list) or length not in (None, len(value)):
        what = "numbers" if length is None else f"{length} numbers"
        raise ConfigError(f"config key '{key}' must be a list of {what}")
    return [config_number(f"{key}[{i}]", v) for i, v in enumerate(value)]


def _parse_float_list(text: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",")]  # float("") raises: no entry is skipped
    except ValueError as exc:
        raise ConfigError(f"expected a comma-separated number list, got {text!r}") from exc
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"expected finite numbers, got {text!r}")
    return values


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

def _emit(args, text: str, **run) -> None:
    """Write ``text`` to stdout, or to --out with a ``.meta.json`` sidecar of
    the run's metadata: the command, the tool, the time and ``run``."""
    if args.out is None:
        sys.stdout.write(text)
        return
    import datetime

    out = Path(args.out)
    out.write_text(text)
    metadata = {"command": args.command, "tool": "qcap-sim", "version": __version__,
                "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(), **run}
    Path(str(out) + ".meta.json").write_text(json_text(metadata))


def _emit_columns(args, header, values) -> None:
    text = table_csv(header, values) if args.format == "csv" else table_json(header, values)
    _emit(args, text)


def _emit_record(args, record: dict, **run) -> None:
    """Write one record, and ``run`` to the sidecar; :class:`ValueError` names its
    first top-level float field that is not finite, so a run that exits 0 writes
    no nan or inf."""
    for key, value in record.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{key} out of range: {value} is not finite")
    if args.format == "csv":
        keys = [k for k, v in record.items() if not isinstance(v, (dict, list, tuple))]
        rows = [[record[k] for k in keys]]
        text = csv_text(keys, rows)
    else:
        text = json_text(record)
    _emit(args, text, **run)


# --- subcommands --------------------------------------------------------------

def _setting(flag, doc: dict, key: str, default, read=config_number):
    """A run setting: the flag's value when it is given, else the config's
    ``key`` as ``read`` takes it, else ``default``."""
    if flag is not None:
        return flag
    return read(key, doc[key]) if key in doc else default


# the most grid cells one sweep computes: circulator points, or sweep-capacitance
# points times temperatures; a sweep's time and memory grow linearly with its cells
SWEEP_POINTS_MAX = 1_000_000


def _sweep_grid(args, doc: dict, label: str, lo: float, hi: float, default: int, rows: int = 1):
    """An even grid from ``lo`` to ``hi`` of --points, else the config's whole
    ``n_points``, else ``default`` points: at least 2, and ``rows`` rows at most
    SWEEP_POINTS_MAX cells, checked before any allocation.  ValueError names the
    range as given, ``label``, when an end or the width is not finite."""
    import numpy as np

    n_points = _setting(args.points, doc, "n_points", default,
                        lambda key, value: config_number(key, value, whole=True))
    if n_points < 2:
        raise ConfigError(f"n_points must be >= 2, got {n_points}")
    if n_points * rows > SWEEP_POINTS_MAX:
        raise ConfigError(f"n_points = {n_points} makes {n_points * rows} grid cells, more "
                          f"than the sweep maximum of {SWEEP_POINTS_MAX}")
    if not math.isfinite(hi - lo):  # inf or nan when an end or the width overflows
        raise ValueError(f"{label} out of range: an end or the width overflows")
    return np.linspace(lo + 0.0, hi + 0.0, n_points)  # an end of -0 reads 0


FIG2_KEYS = {"thickness_nm", "relative_permittivity", "temperatures_K", "vmax_V", "n_points"}


def _cmd_sweep_capacitance(args) -> int:
    doc = {} if args.config is None else _load_config(args.config, FIG2_KEYS, FIG2_KEYS)
    thickness_nm = _setting(args.thickness_nm, doc, "thickness_nm", 7.0)
    epsr = _setting(args.epsr, doc, "relative_permittivity", 4.0)
    temperatures = _setting(
        None if args.T is None else _parse_float_list(args.T),
        doc, "temperatures_K", [0.0, 0.25, 1.0, 4.0], _config_numbers,
    )
    vmax = _setting(args.vmax, doc, "vmax_V", 0.05)
    require_positive(vmax, "vmax (V)")
    if not temperatures:
        raise ConfigError("at least one temperature is required")
    grid = _sweep_grid(args, doc, f"voltage range {-vmax} to {vmax} V", -vmax, vmax, 201,
                       len(temperatures))
    # the sweep is per unit area: --S is validated but not read
    require_positive(um2_to_m2(args.S), "area_S")
    c_g = geometric_capacitance(nm_to_m(thickness_nm), epsr)
    result = capacitance_sweep(c_g, temperatures, grid)
    _emit_columns(args, SWEEP_CSV_HEADER, result.columns())
    return 0


def _cmd_design_check(args) -> int:
    report = design_check(nm_to_m(args.thickness_nm), args.epsr, args.T)
    record = {
        "thickness_nm": args.thickness_nm,
        "relative_permittivity": args.epsr,
        "T_K": args.T,
        "C_G_fF_per_um2": f_per_m2_to_ff_per_um2(report.C_G_areal),
        "C_0_fF_per_um2": f_per_m2_to_ff_per_um2(report.C_0_areal),
        "dominance_ratio": report.dominance_ratio,
        "thickness_ok": report.thickness_ok,
        "dominance_ok": report.dominance_ok,
    }
    _emit_record(args, record)
    return 0


def _anharmonicity_percent(tau: float, omega: float) -> float:
    """The defining anharmonicity 3*tau*omega of the quartic mode, in percent."""
    return 3.0 * tau * omega * 100.0


def _cmd_qubit(args) -> int:
    omega = ghz_to_rad_per_s(args.f)
    area = um2_to_m2(args.S)
    tau = nonlinear_time_constant(area, args.T)
    cutoff = args.cutoff if args.cutoff is not None else suggested_fock_cutoff(tau * omega)
    spec = OscillatorSpec(omega=omega, tau=tau, fock_cutoff=cutoff)
    chi, psi = photon_amplitude(area, args.T, omega)
    anh_printed = anharmonicity_percent_printed(args.T, args.f, args.S)
    record = {
        "T_K": args.T,
        "f_GHz": args.f,
        "S_um2": args.S,
        "fock_cutoff": cutoff,
        "tau_s": tau,
        "tau_omega": tau * omega,
        "chi_per_m2_sqrt_s": chi,
        "psi_per_m2": psi,
        "tank_inductance_H": resonant_inductance(area, args.T, omega),
        "anharmonicity_percent_printed": anh_printed,
        "anharmonicity_percent_symbolic": _anharmonicity_percent(tau, omega),
        "n_max_printed": photon_number_limit(args.T, args.f),
        "n_max_derived": photon_number_limit_derived(args.T, args.f),
    }
    run = {}
    if not args.skip_spectrum:
        # the series, unless --cutoff asks for the Fock oracle; the two keys keep
        # their Fock names for the benchmark's check
        if args.cutoff is None:
            spectrum, bound = series_spectrum(spec)
            levels = spectrum.eigenvalues
            run = {"code_path": "series", "series_error_bound": bound,
                   "series_error_limit": CONVERGENCE_RTOL}
        else:
            spectrum = fock_diagonalize(spec)
            levels, run = spectrum.eigenvalues.tolist(), {"code_path": "fock"}
        record["anharmonicity_percent_fock"] = spectrum.anharmonicity_A * 100.0
        record["spectrum"] = {
            "eigenvalues_J": levels,
            "omega10_rad_s": spectrum.omega_10,
            "omega21_rad_s": spectrum.omega_21,
        }
    _emit_record(args, record, **run)
    return 0


def _cmd_coupling(args) -> int:
    tau = nonlinear_time_constant(um2_to_m2(args.S), args.T)
    photons = args.pump_photons + 0.0  # -0 reads 0
    classification = classify_interaction(
        ghz_to_rad_per_s(args.f), photons, ghz_to_rad_per_s(args.f1),
        ghz_to_rad_per_s(args.f2), tau, tolerance=TWO_PI * 1e6 * args.tolerance_mhz,
    )
    printed = single_photon_rate_printed(args.T, args.f, args.f1, args.f2, args.S)
    record = {
        "T_K": args.T,
        "f_GHz": args.f,
        "f1_GHz": args.f1,
        "f2_GHz": args.f2,
        "S_um2": args.S,
        "pump_photons": photons,
        "kind": classification.kind,
        "detuning_rad_s": classification.detuning,
        "G_rad_s": classification.G,
        "g0_printed_rad_s": printed,
        "g0_symbolic_rad_s": classification.g0,
        "ratio_symbolic_to_printed": classification.g0 / printed,
    }
    _emit_record(args, record)
    return 0


CIRC_FILE_KEYS = {"circulator", "delta_min_GHz", "delta_max_GHz", "n_points"}
CIRC_KEYS = {"omega", "kappa", "g", "phi", "frame", "detuning"}


def _circulator_config(doc):
    """The SI ``CirculatorConfig`` of a config file's ``circulator`` object:
    omega, kappa, g and detuning in GHz, phases in units of pi (``"phi": [0,
    0.5, 0]`` puts phi_2 at pi/2), frame ``"rotating"`` (default) or ``"lab"``.
    The frame picks the Langevin diagonal, ``detuning`` or ``omega``; either
    frame requires omega > 0 and finite detunings."""
    from .circulator import CirculatorConfig

    doc = _config_object(
        "config key 'circulator'", doc, CIRC_KEYS, CIRC_KEYS - {"frame", "detuning"}
    )

    def triple(name, convert):
        values = _config_numbers(f"circulator.{name}", doc.get(name, [0.0, 0.0, 0.0]), length=3)
        return tuple(convert(v) for v in values)

    frame = str(doc.get("frame", "rotating")).lower()
    if frame not in ("lab", "rotating"):
        raise ConfigError(
            f"config key 'circulator.frame' must be 'lab' or 'rotating', got {frame!r}"
        )
    omega = triple("omega", ghz_to_rad_per_s)
    kappa = triple("kappa", ghz_to_rad_per_s)
    g = triple("g", ghz_to_rad_per_s)
    phi = triple("phi", pi_units_to_rad)
    detuning = triple("detuning", ghz_to_rad_per_s)
    for w in omega:
        require_positive(w, "mode frequency (rad/s)")
    config = CirculatorConfig(kappa=kappa, g=g, phi=phi, detuning=detuning)  # checks detuning
    if frame == "lab":
        config = CirculatorConfig(kappa=kappa, g=g, phi=phi, detuning=omega)
    return config


def _cmd_circulator(args) -> int:
    from .circulator import SWEEP_CSV_HEADER

    doc = _load_config(args.config, CIRC_FILE_KEYS, {"circulator"})
    config = _circulator_config(doc["circulator"])
    delta_min = _setting(args.delta_min, doc, "delta_min_GHz", -4.0)
    delta_max = _setting(args.delta_max, doc, "delta_max_GHz", 4.0)
    deltas = _sweep_grid(args, doc, f"detuning range {delta_min} to {delta_max} GHz",
                         ghz_to_rad_per_s(delta_min), ghz_to_rad_per_s(delta_max), 1001)
    result = sweep(config, deltas)
    _emit_columns(args, SWEEP_CSV_HEADER, result.columns())
    return 0


VERIFY_HEADER = ("id", "description", "printed", "computed", "rel_dev_vs_printed", "status", "note")


def _verify_rows() -> tuple[tuple, ...]:
    """The published numbers that ``verify-paper`` re-derives, one row each:
    ``(id, description, printed, rel_tol, flagged, note, computed)``.

    ``flagged`` is None for a row that must PASS, within ``rel_tol`` of
    ``printed``.  Otherwise the published numbers disagree among themselves:
    ``flagged`` is the value that the computation must match instead, within
    ``rel_tol``, and the row reads FLAG.
    """
    g0_1k = single_photon_rate_printed(1.0, 4.0, 2.0, 10.0, 100.0)
    tau_1k = nonlinear_time_constant(um2_to_m2(100.0), 1.0)  # the 1 K example's tau
    # tau and omega at S = 1 um^2, T = 1 K, f = 1 GHz: the published coefficients
    tau_unit, omega_unit = nonlinear_time_constant(um2_to_m2(1.0), 1.0), ghz_to_rad_per_s(1.0)
    c1, c3 = charge_series_coefficients(1.0)  # N = c1 V + c3 V^3 at T = 1 K
    return (
        ("cg_areal", "geometric capacitance at eps_r=4, t=7 nm (fF/um^2)",
         5.06, 0.005, None, "", f_per_m2_to_ff_per_um2(geometric_capacitance(7e-9, 4.0))),
        ("c0_areal_1k", "linear quantum capacitance at T=1 K (fF/um^2)",
         0.0563, 0.01, None, "", f_per_m2_to_ff_per_um2(linear_capacitance_C0(1.0))),
        ("c0_total_100um2_1k", "total linear capacitance at T=1 K, S=100 um^2 (fF)", 5.63, 0.01,
         None, "", farad_to_femtofarad(um2_to_m2(100.0) * linear_capacitance_C0(1.0))),
        ("g0_1k_2pi_mhz",
         "single-photon rate at T=1 K, f=4, f1=2, f2=10 GHz, S=100 um^2 (2pi x MHz)",
         25.55, 0.005, None, "", g0_1k / (TWO_PI * 1e6)),
        ("g0_4k_2pi_khz", "single-photon rate at T=4 K (2pi x kHz)", 399.2, 0.005, None, "",
         single_photon_rate_printed(4.0, 4.0, 2.0, 10.0, 100.0) / (TWO_PI * 1e3)),
        ("g0_0p25k_2pi_ghz", "single-photon rate at T=0.25 K (2pi x GHz)", 1.635, 0.005, None, "",
         single_photon_rate_printed(0.25, 4.0, 2.0, 10.0, 100.0) / (TWO_PI * 1e9)),
        ("anharmonicity_0p5k_pct", "anharmonicity at T=0.5 K, f=4 GHz, S=100 um^2 (percent)",
         13.71, 0.01, None, "", anharmonicity_percent_printed(0.5, 4.0, 100.0)),
        ("anharmonicity_1k_pct", "anharmonicity at T=1 K, f=4 GHz, S=100 um^2 (percent)",
         1.1714, 0.01, 1.714, "published value is internally inconsistent: the published formula "
         "42.85 f/(S T^3) gives 1.714", anharmonicity_percent_printed(1.0, 4.0, 100.0)),
        ("photon_limit_coefficient", "photon-number limit coefficient n_max = coeff * T/f",
         41.7, 0.01, None, "", photon_number_limit_derived(1.0, 1.0)),
        ("anharmonicity_coefficient", "anharmonicity coefficient A = coeff * f/(S T^3) percent",
         42.85, 0.005, None, "", _anharmonicity_percent(tau_unit, omega_unit)),
        ("rate_coefficient",
         "single-photon rate coefficient g0 = 2pi x coeff f sqrt(f1 f2)/(S T^3) GHz", 0.143, 0.005,
         None, "", 3.0 * gamma_nml(tau_unit, omega_unit, omega_unit, omega_unit)
         / (3.0 * TWO_PI * 1e9)),
        ("g0_definition_factor",
         "ratio of the defined rate 3*gamma_012 to the published coefficient formula", 1.0, 0.005,
         3.0, "the defining relation g0 = 3*gamma_012 exceeds the published coefficient formula "
         "by a factor of 3; the published example values all follow the coefficient",
         3.0 * gamma_nml(tau_1k, ghz_to_rad_per_s(4.0), ghz_to_rad_per_s(2.0),
                         ghz_to_rad_per_s(10.0)) / g0_1k),
        ("quartic_coefficient_ratio", "ratio of the quartic stored-energy coefficient to the one "
         "implied by inverting the charge series N = c1 V + c3 V^3, at T=1 K", 1.0, 1e-9, 12.0,
         "the stored-energy series carries 12 times the quartic term of the inverted charge "
         "series; tau and the published coefficients 42.85 and 0.143 follow the stored-energy "
         "series, so they carry the factor 12",
         energy_series_coefficients(1.0)[1] / (E * c3 / (4.0 * c1**4))),
    )


def _cmd_verify_paper(args) -> int:
    rows = []
    for cid, description, printed, rel_tol, flagged, note, computed in _verify_rows():
        rel_dev = abs(computed - printed) / abs(printed)
        if flagged is None:
            status = "PASS" if rel_dev <= rel_tol else "FAIL"
        else:
            status = "FLAG" if abs(computed - flagged) <= rel_tol * abs(flagged) else "FAIL"
        rows.append((cid, description, printed, computed, rel_dev, status, note))
    if args.format == "csv":
        text = csv_text(VERIFY_HEADER, rows)
    else:
        text = json_text([dict(zip(VERIFY_HEADER, row)) for row in rows])
    _emit(args, text)
    return 1 if any(row[5] == "FAIL" for row in rows) else 0


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
    p.add_argument("--config", help="JSON config (bundled name or path); flags override it")
    p.add_argument("--T", help="comma-separated temperatures in K, 0 = T->0 (default 0,0.25,1,4)")
    p.add_argument("--vmax", type=_finite_float, help="voltage range bound in V (default 0.05)")
    p.add_argument("--points", type=int, help="voltage grid points (default 201)")
    p.add_argument("--thickness-nm", type=_finite_float, help="dielectric thickness in nm (default 7)")
    p.add_argument("--epsr", type=_finite_float, help="dielectric relative permittivity (default 4)")
    p.add_argument(
        "--S",
        type=_finite_float,
        default=100.0,
        help="capacitor area in um^2; checked to be > 0, but the sweep is per unit area "
        "and does not read it",
    )
    _add_common_output_flags(p)
    p.set_defaults(func=_cmd_sweep_capacitance)

    p = sub.add_parser("design-check", help="dielectric thickness window and dominance rules")
    p.add_argument("--thickness-nm", type=_finite_float, default=7.0)
    p.add_argument("--epsr", type=_finite_float, default=4.0)
    p.add_argument("--T", type=_finite_float, default=1.0, help="temperature in K")
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
        help=f"run the Fock oracle at this truncation, 10 to {FOCK_CUTOFF_MAX} "
        "(default: the perturbation series; the record echoes the largest convergence-safe value)",
    )
    p.add_argument(
        "--skip-spectrum",
        action="store_true",
        help="omit the spectrum (engineering outputs only)",
    )
    _add_common_output_flags(p)
    p.set_defaults(func=_cmd_qubit)

    p = sub.add_parser("coupling", help="pump-selected interaction classification and rate")
    p.add_argument("--T", type=_finite_float, default=1.0, help="temperature in K")
    p.add_argument("--f", type=_finite_float, default=4.0, help="pump frequency in GHz")
    p.add_argument("--f1", type=_finite_float, default=2.0, help="mode-1 frequency in GHz")
    p.add_argument("--f2", type=_finite_float, default=10.0, help="mode-2 frequency in GHz")
    p.add_argument("--S", type=_finite_float, default=100.0, help="capacitor area in um^2")
    p.add_argument("--pump-photons", type=_finite_float, default=1.0, help="pump photon number |a|^2")
    p.add_argument("--tolerance-mhz", type=_finite_float, default=1.0, help="resonance tolerance in MHz")
    _add_common_output_flags(p)
    p.set_defaults(func=_cmd_coupling)

    p = sub.add_parser("circulator", help="three-mode circulator scattering sweep")
    p.add_argument("--config", required=True, help="JSON config (bundled name or path); flags override it")
    p.add_argument("--delta-min", type=_finite_float, default=None, help="override sweep start in GHz")
    p.add_argument("--delta-max", type=_finite_float, default=None, help="override sweep end in GHz")
    p.add_argument("--points", type=int, default=None, help="override grid points")
    _add_common_output_flags(p)
    p.set_defaults(func=_cmd_circulator)

    p = sub.add_parser(
        "verify-paper",
        help="recompute every published reference number and report PASS/FLAG/FAIL",
    )
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
    format_warning = warnings.formatwarning  # a warning prints as one line, with no path
    warnings.formatwarning = lambda message, category, *_: f"warning: {category.__name__}: {message}\n"
    try:
        with warnings.catch_warnings():  # a warning shows once per call, not per process
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
    finally:
        warnings.formatwarning = format_warning  # catch_warnings does not restore it


if __name__ == "__main__":
    sys.exit(main())
