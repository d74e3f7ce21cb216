"""Command-line front end.

Every subcommand reads a strict INI config, runs one pipeline, writes CSV
artifacts atomically and prints a flat ``key = value`` report to stdout.
Exit codes are stable: 0 success, 2 configuration or file-system problem,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from collections.abc import Sequence
from pathlib import Path

from .analytic import (
    LinewidthModelParams,
    cavity_feeding_estimate,
    combined_linewidth,
    polariton_frequencies,
    power_broadened_linewidth,
)
from .config import RunConfig, parse_config
from .dataset import SpectrumDataset, read_csv, write_csv
from .errors import ConfigError, NumericalError
from .fit import (
    fit_linear,
    fit_lorentzian,
    fit_power_broadening,
    fit_saturation,
)
from .model import DriveTarget, angular_to_ghz, fwhm_nm_to_ghz
from .reproduce import (
    chained_fit_power_grid,
    chained_linewidth_fit,
    excess_curve,
    excess_slope_fit,
    linewidth_curve,
    saturation_curve,
    saturation_power_grid,
)
from .scan import EmissionChannel, auto_scan_window, power_sweep, scan_laser, synthesize_noisy

_TABLE_SYSTEMS = {"table1": ("S1", "S2", "S3"), "table2": ("S2", "S4")}


def _emit(key: str, value) -> None:
    if isinstance(value, float):
        print(f"{key} = {value:.10g}")
    else:
        print(f"{key} = {value}")


def _output_path(cfg: RunConfig, suffix: str, override: str | None = None) -> Path:
    default = cfg.resolve_output_dir() / f"{cfg.output_stem}_{suffix}.csv"
    path = Path(override) if override else default
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _maybe_noisy(cfg: RunConfig, data: SpectrumDataset, seed_offset: int = 0) -> SpectrumDataset:
    """The configured measurement noise; a command's k-th dataset is seeded ``cfg.seed + k``."""
    if cfg.noise_relative > 0.0:
        return synthesize_noisy(data, cfg.noise_relative, cfg.seed + seed_offset)
    return data


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_analytic(args: argparse.Namespace) -> None:
    cfg = parse_config(args.config)
    system = cfg.system
    _emit("g_ghz", angular_to_ghz(system.g))
    _emit("kappa_ghz", angular_to_ghz(system.kappa))
    _emit("gamma_ghz", angular_to_ghz(system.gamma))
    _emit("gamma_d_ghz", angular_to_ghz(system.gamma_d))
    _emit("detuning_ghz", angular_to_ghz(system.detuning))

    pair = polariton_frequencies(system)
    _emit("branch_upper_freq_ghz", angular_to_ghz(pair.omega_plus.real))
    _emit("branch_upper_fwhm_ghz", angular_to_ghz(-2.0 * pair.omega_plus.imag))
    _emit("branch_lower_freq_ghz", angular_to_ghz(pair.omega_minus.real))
    _emit("branch_lower_fwhm_ghz", angular_to_ghz(-2.0 * pair.omega_minus.imag))
    _emit("splitting_ghz", angular_to_ghz(pair.omega_plus.real - pair.omega_minus.real))

    if system.detuning != 0.0:
        dot_width = combined_linewidth(LinewidthModelParams.from_system(system, 1.0), 0.0)
        _emit("dispersive_qd_fwhm_ghz", angular_to_ghz(dot_width))
        _emit(
            "feeding_estimate_ghz",
            angular_to_ghz(cavity_feeding_estimate(system.kappa, system.detuning)),
        )

    if cfg.rabi_ghz is not None:
        template = cfg.drive_template()
        p_tilde = template.p_tilde(system)
        _emit("p_tilde", p_tilde)
        _emit(
            "power_broadened_fwhm_ghz",
            angular_to_ghz(power_broadened_linewidth(system.gamma, system.gamma_d, p_tilde)),
        )
    elif (
        cfg.alpha_per_uw is not None
        and cfg.drive_target is DriveTarget.QD
        and (system.g == 0.0 or system.detuning != 0.0)
    ):
        model = LinewidthModelParams.from_system(system, cfg.alpha_per_uw)
        if cfg.power_grid is not None:
            powers = list(cfg.powers())
        elif cfg.power_uw is not None:
            powers = [cfg.power_uw]
        else:
            powers = []
        for power in powers:
            _emit(f"fwhm_at_{power:g}uw_ghz", angular_to_ghz(combined_linewidth(model, power)))
    if system.transfer_qd_to_cavity or system.transfer_cavity_to_qd:
        _emit("note", "closed forms leave out the [channels] transfer rates")


def cmd_scan(args: argparse.Namespace) -> None:
    cfg = parse_config(args.config)
    if args.target is not None:
        cfg = dataclasses.replace(cfg, drive_target=DriveTarget(args.target))
    observe = EmissionChannel(args.observe)
    template = cfg.drive_template()
    window = auto_scan_window(cfg.system, template, cfg.scan_span_fwhm, cfg.scan_points)
    path = _output_path(cfg, "scan", args.out)
    data = scan_laser(cfg.system, template, window, observe, cfg.fock_cutoff)
    data = _maybe_noisy(cfg, data)
    write_csv(data, path)
    _emit("csv", path)
    _emit("points", len(data))
    result = fit_lorentzian(data)
    for line in result.report_lines():
        print(line)
    if result.converged:
        _emit("fwhm_nm", result.params["fwhm"])
        _emit("fwhm_ghz", fwhm_nm_to_ghz(result.params["fwhm"], result.params["center"]))


def cmd_power_sweep(args: argparse.Namespace) -> None:
    cfg = parse_config(args.config)
    powers = cfg.powers()
    observe = EmissionChannel(args.observe)
    template = cfg.drive_template(power=float(powers[-1]))
    sat_path = _output_path(cfg, "saturation", args.saturation_out)
    lw_path = _output_path(cfg, "linewidths", args.linewidths_out)
    result = power_sweep(
        cfg.system,
        template,
        powers,
        observe,
        cfg.fock_cutoff,
        scan_points=cfg.scan_points,
        span_fwhm=cfg.scan_span_fwhm,
    )
    saturation = _maybe_noisy(cfg, result.saturation, seed_offset=0)
    write_csv(saturation, sat_path)
    _emit("saturation_csv", sat_path)
    linewidths = _maybe_noisy(cfg, result.linewidths, seed_offset=1)
    write_csv(linewidths, lw_path)
    _emit("linewidth_csv", lw_path)
    if result.skipped_powers:
        _emit("skipped_powers", ",".join(f"{p:g}" for p in result.skipped_powers))

    chained = chained_linewidth_fit(saturation, linewidths)
    for line in chained.saturation.report_lines():
        print(f"saturation.{line}")
    _emit("alpha_reliable", "yes" if chained.alpha_reliable else "no")
    if chained.linewidth is not None:
        for line in chained.linewidth.report_lines():
            print(f"linewidth.{line}")


def cmd_reproduce(args: argparse.Namespace) -> None:
    table = args.table
    config_dir = Path(args.config_dir) if args.config_dir else Path("configs") / table
    paths = {name: config_dir / f"{name}.ini" for name in _TABLE_SYSTEMS[table]}
    missing = [str(p) for p in paths.values() if not p.is_file()]
    if missing:
        raise ConfigError(f"missing config file(s): {', '.join(missing)}")
    # Every config is checked before any row runs, so a bad one leaves no partial output.
    configs = {name: parse_config(path) for name, path in paths.items()}
    rows: dict[str, tuple[Path, str]] = {}
    claimed: dict[str, str] = {}
    for name, cfg in configs.items():
        rep = cfg.reproduce
        if rep is None:
            raise ConfigError(f"{cfg.source}: missing [reproduce] section")
        if table == "table1":
            if rep.delta_omega_c_ghz is None or rep.delta_omega_0_ghz is None:
                raise ConfigError(
                    f"{cfg.source}: [reproduce] needs delta_omega_c_ghz and delta_omega_0_ghz"
                )
            if cfg.alpha_per_uw is None:
                raise ConfigError(f"{cfg.source}: [reproduce] runs need drive alpha_per_uw")
        else:
            if rep.intrinsic_fwhm_ghz is None or rep.excess_slope_ghz_per_uw is None:
                raise ConfigError(
                    f"{cfg.source}: [reproduce] needs intrinsic_fwhm_ghz and excess_slope_ghz_per_uw"
                )
            if cfg.power_grid is None:
                raise ConfigError(
                    f"{cfg.source}: [reproduce] for table2 needs a drive power grid; "
                    "set power_min_uw/power_max_uw/power_points"
                )
        # A row writes <directory>/<table>_<label>_<kind>.csv, so its label must name a file of
        # that directory, and one that no earlier row writes.
        directory, label = cfg.resolve_output_dir(), rep.label or name
        if os.sep in label or os.altsep and os.altsep in label:
            raise ConfigError(f"{cfg.source}: [reproduce] label {label!r} holds a path separator")
        stem = os.path.abspath(directory / f"{table}_{label}")
        if stem in claimed:
            raise ConfigError(
                f"{cfg.source}: [reproduce] label {label!r} writes over the CSVs of {claimed[stem]}"
            )
        claimed[stem], rows[name] = cfg.source, (directory, label)
    # Every output directory is made before any row runs too, so one that cannot be made
    # leaves no partial output.  dict.fromkeys keeps config order, which a set would not,
    # so the error names the same directory on every run.
    for directory in dict.fromkeys(directory for directory, _ in rows.values()):
        directory.mkdir(parents=True, exist_ok=True)
    row = _reproduce_linewidth_row if table == "table1" else _reproduce_excess_row
    for name, (directory, label) in rows.items():
        row(configs[name], configs[name].reproduce, label, directory)


def _reproduce_linewidth_row(cfg: RunConfig, rep, label: str, directory: Path) -> None:
    alpha = cfg.alpha_per_uw
    saturation = _maybe_noisy(
        cfg, saturation_curve(saturation_power_grid(alpha), rep.i_sat_counts, alpha)
    )
    curve = linewidth_curve(
        chained_fit_power_grid(alpha), rep.delta_omega_c_ghz, rep.delta_omega_0_ghz, alpha
    )
    linewidths = _maybe_noisy(cfg, curve, seed_offset=1)
    write_csv(saturation, directory / f"table1_{label}_saturation.csv")
    write_csv(linewidths, directory / f"table1_{label}_linewidths.csv")

    chained = chained_linewidth_fit(saturation, linewidths)
    _emit(f"{label}.alpha_true_per_uw", alpha)
    _emit(f"{label}.alpha_fit_per_uw", chained.saturation.params["alpha_per_uw"])
    _emit(f"{label}.alpha_reliable", "yes" if chained.alpha_reliable else "no")
    if chained.linewidth is not None:
        _emit(f"{label}.delta_omega_c_true_ghz", rep.delta_omega_c_ghz)
        _emit(f"{label}.delta_omega_c_fit_ghz", chained.linewidth.params["delta_omega_c_ghz"])
        _emit(f"{label}.delta_omega_0_true_ghz", rep.delta_omega_0_ghz)
        _emit(f"{label}.delta_omega_0_fit_ghz", chained.linewidth.params["delta_omega_0_ghz"])
    if cfg.system.detuning != 0.0:
        feeding = cavity_feeding_estimate(cfg.system.kappa, cfg.system.detuning)
        _emit(f"{label}.feeding_estimate_ghz", angular_to_ghz(feeding))
    if rep.reference_theory_ghz is not None:
        _emit(f"{label}.reference_theory_ghz", rep.reference_theory_ghz)


def _reproduce_excess_row(cfg: RunConfig, rep, label: str, directory: Path) -> None:
    linewidths = _maybe_noisy(
        cfg, excess_curve(cfg.powers(), rep.intrinsic_fwhm_ghz, rep.excess_slope_ghz_per_uw)
    )
    write_csv(linewidths, directory / f"table2_{label}_linewidths.csv")
    result = excess_slope_fit(linewidths, rep.intrinsic_fwhm_ghz)
    _emit(f"{label}.intrinsic_fwhm_ghz", rep.intrinsic_fwhm_ghz)
    _emit(f"{label}.excess_slope_true_ghz_per_uw", rep.excess_slope_ghz_per_uw)
    _emit(f"{label}.excess_slope_fit_ghz_per_uw", result.params["slope"])
    _emit(f"{label}.excess_intercept_ghz", result.params["intercept"])


def cmd_fit(args: argparse.Namespace) -> None:
    if not Path(args.csv).is_file():
        raise ConfigError(f"csv file not found: {args.csv}")
    if args.model == "power-broadening":
        if args.alpha is None:
            raise ConfigError("fit power-broadening requires --alpha from a saturation fit")
        if not (math.isfinite(args.alpha) and args.alpha > 0.0):
            raise ConfigError(f"--alpha must be finite and > 0, got {args.alpha!r}")
    elif args.alpha is not None:
        raise ConfigError(f"--alpha applies to power-broadening only, not to {args.model}")
    header, fit = {
        "lorentzian": ("wavelength_nm,intensity", fit_lorentzian),
        "saturation": ("power_uw,intensity", fit_saturation),
        "power-broadening": (
            "power_uw,fwhm_ghz",
            lambda data: fit_power_broadening(data, alpha_fixed=args.alpha),
        ),
        "linear": (None, fit_linear),
    }[args.model]
    # A fault in the data is reported against the file, not as an invalid
    # configuration; read_csv's messages already name the file.
    try:
        data = read_csv(args.csv)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if header not in (None, data.header):
        raise ConfigError(
            f"{args.csv}: header {data.header!r} does not fit the {args.model} model, "
            f"which needs {header!r}"
        )
    try:
        result = fit(data)
    except ValueError as exc:
        raise ConfigError(f"{args.csv}: {exc}") from exc
    for line in result.report_lines():
        print(line)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cqed-scope",
        description="Driven quantum-dot/cavity spectroscopy workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analytic = sub.add_parser("analytic", help="closed-form frequencies and linewidths")
    p_analytic.add_argument("--config", required=True)
    p_analytic.set_defaults(func=cmd_analytic)

    p_scan = sub.add_parser("scan", help="steady-state laser scan to CSV plus Lorentzian fit")
    p_scan.add_argument("--config", required=True)
    p_scan.add_argument("--target", choices=[t.value for t in DriveTarget], default=None)
    p_scan.add_argument(
        "--observe", choices=[c.value for c in EmissionChannel], default="cavity"
    )
    p_scan.add_argument("--out", default=None, help="scan CSV path override")
    p_scan.set_defaults(func=cmd_scan)

    p_sweep = sub.add_parser("power-sweep", help="saturation and linewidth series over power")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument(
        "--observe", choices=[c.value for c in EmissionChannel], default="cavity"
    )
    p_sweep.add_argument("--saturation-out", default=None)
    p_sweep.add_argument("--linewidths-out", default=None)
    p_sweep.set_defaults(func=cmd_power_sweep)

    p_rep = sub.add_parser("reproduce", help="synthetic round-trips for the bundled systems")
    p_rep.add_argument("--table", choices=sorted(_TABLE_SYSTEMS), required=True)
    p_rep.add_argument("--config-dir", default=None)
    p_rep.set_defaults(func=cmd_reproduce)

    p_fit = sub.add_parser("fit", help="fit one model to a CSV dataset")
    p_fit.add_argument(
        "model", choices=["lorentzian", "saturation", "power-broadening", "linear"]
    )
    p_fit.add_argument("csv")
    p_fit.add_argument("--alpha", type=float, default=None, help="frozen calibration for power-broadening")
    p_fit.set_defaults(func=cmd_fit)
    return parser


# Built once, at import: main may run many commands in one process, and
# parse_args leaves the parser as it found it.
_PARSER = _build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0
