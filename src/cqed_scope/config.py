"""Strict INI run configuration.

Sections and keys are fixed; anything unrecognised is rejected by name so a
typo cannot silently fall back to a default.  All frequencies in the file
are ordinary frequencies in GHz, wavelengths nm, powers uW; conversion to
internal angular units happens here and nowhere else.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .model import (
    DriveSpec,
    DriveTarget,
    IncoherentChannels,
    SystemParams,
    ghz_to_angular,
)

#: Environment variable overriding the configured output directory.
OUTPUT_ENV_VAR = "CQED_SCOPE_OUT"

_SCHEMA: dict[str, set[str]] = {
    "system": {
        "qd_wavelength_nm",
        "cavity_wavelength_nm",
        "g_ghz",
        "kappa_ghz",
        "gamma_ghz",
        "gamma_d_ghz",
    },
    "drive": {
        "target",
        "rabi_ghz",
        "power_uw",
        "alpha_per_uw",
        "power_min_uw",
        "power_max_uw",
        "power_points",
        "power_scale",
    },
    "numerics": {
        "fock_cutoff",
        "scan_points",
        "scan_span_fwhm",
        "seed",
        "noise_relative",
        "workers",
        "steady_residual_tol",
    },
    "channels": {"transfer_qd_to_cavity_ghz", "transfer_cavity_to_qd_ghz"},
    "output": {"directory", "stem"},
    "reproduce": {
        "label",
        "delta_omega_c_ghz",
        "delta_omega_0_ghz",
        "reference_theory_ghz",
        "i_sat_counts",
        "intrinsic_fwhm_ghz",
        "excess_slope_ghz_per_uw",
    },
}

_REQUIRED = {
    "system": {"qd_wavelength_nm", "cavity_wavelength_nm", "g_ghz", "kappa_ghz", "gamma_ghz"},
    "drive": {"target"},
}


@dataclass(frozen=True)
class ReproduceParams:
    """Synthesis targets for the reproduction pipelines (boundary units)."""

    label: str = ""
    delta_omega_c_ghz: float | None = None
    delta_omega_0_ghz: float | None = None
    reference_theory_ghz: float | None = None
    i_sat_counts: float = 1000.0
    intrinsic_fwhm_ghz: float | None = None
    excess_slope_ghz_per_uw: float | None = None


@dataclass(frozen=True)
class RunConfig:
    """Everything a command needs, already converted to internal units."""

    system: SystemParams
    channels: IncoherentChannels
    drive_target: DriveTarget
    rabi_ghz: float | None
    power_uw: float | None
    alpha_per_uw: float | None
    power_grid: tuple[float, float, int, str] | None
    fock_cutoff: int = 4
    scan_points: int = 201
    scan_span_fwhm: float = 6.0
    seed: int = 7
    noise_relative: float = 0.0
    steady_residual_tol: float = 1e-9
    output_directory: str = "."
    output_stem: str = "cqed"
    reproduce: ReproduceParams | None = None
    source: str = ""

    def drive_template(self, power: float | None = None) -> DriveSpec:
        """Drive spec with the laser parked on the driven resonance."""
        if self.drive_target is DriveTarget.QD:
            omega_l = self.system.omega_d
        else:
            omega_l = self.system.omega_c
        try:
            if self.rabi_ghz is not None:
                return DriveSpec(
                    target=self.drive_target,
                    omega_l=omega_l,
                    omega_rabi=ghz_to_angular(self.rabi_ghz),
                )
            return DriveSpec(
                target=self.drive_target,
                omega_l=omega_l,
                power=power if power is not None else self.power_uw,
                alpha=self.alpha_per_uw,
            )
        except ValueError as exc:
            raise ConfigError(f"invalid drive: {exc}") from exc

    def powers(self) -> np.ndarray:
        if self.power_grid is None:
            raise ConfigError(
                "no power grid configured; set power_min_uw/power_max_uw/power_points"
            )
        lo, hi, count, scale = self.power_grid
        if scale == "log":
            return np.geomspace(lo, hi, count)
        return np.linspace(lo, hi, count)

    def resolve_output_dir(self) -> Path:
        override = os.environ.get(OUTPUT_ENV_VAR)
        return Path(override) if override else Path(self.output_directory)


def _get_float(section: configparser.SectionProxy, key: str, source: str) -> float:
    try:
        return float(section[key])
    except ValueError as exc:
        raise ConfigError(f"{source}: key {key!r} is not a number: {section[key]!r}") from exc


def _get_int(section: configparser.SectionProxy, key: str, source: str) -> int:
    try:
        return int(section[key])
    except ValueError as exc:
        raise ConfigError(f"{source}: key {key!r} is not an integer: {section[key]!r}") from exc


def _get_positive(section: configparser.SectionProxy, key: str, source: str) -> float:
    value = _get_float(section, key, source)
    if not (np.isfinite(value) and value > 0.0):
        raise ConfigError(f"{source}: {key} must be finite and > 0")
    return value


def parse_config(path: str | Path) -> RunConfig:
    """Read and validate one INI file, rejecting unknown sections and keys."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(
        comment_prefixes=("#",), inline_comment_prefixes=("#",), interpolation=None, strict=True
    )
    parser.optionxform = str  # keys are case-sensitive
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    source = str(path)
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"{source}: unknown section [{section}]")
        unknown = set(parser[section]) - _SCHEMA[section]
        if unknown:
            raise ConfigError(
                f"{source}: unknown key(s) in [{section}]: {', '.join(sorted(unknown))}"
            )
    for section, keys in _REQUIRED.items():
        if section not in parser:
            raise ConfigError(f"{source}: missing required section [{section}]")
        missing = keys - set(parser[section])
        if missing:
            raise ConfigError(
                f"{source}: missing key(s) in [{section}]: {', '.join(sorted(missing))}"
            )

    sys_sec = parser["system"]
    try:
        system = SystemParams.from_ghz_and_nm(
            g_ghz=_get_float(sys_sec, "g_ghz", source),
            kappa_ghz=_get_float(sys_sec, "kappa_ghz", source),
            gamma_ghz=_get_float(sys_sec, "gamma_ghz", source),
            gamma_d_ghz=_get_float(sys_sec, "gamma_d_ghz", source)
            if "gamma_d_ghz" in sys_sec
            else 0.0,
            qd_wavelength_nm=_get_float(sys_sec, "qd_wavelength_nm", source),
            cavity_wavelength_nm=_get_float(sys_sec, "cavity_wavelength_nm", source),
        )
    except ValueError as exc:
        raise ConfigError(f"{source}: invalid [system]: {exc}") from exc

    drv = parser["drive"]
    target_text = drv["target"].strip().lower()
    try:
        target = DriveTarget(target_text)
    except ValueError as exc:
        raise ConfigError(f"{source}: drive target must be 'qd' or 'cavity', got {target_text!r}") from exc
    rabi_ghz = _get_float(drv, "rabi_ghz", source) if "rabi_ghz" in drv else None
    power_uw = _get_float(drv, "power_uw", source) if "power_uw" in drv else None
    alpha = _get_float(drv, "alpha_per_uw", source) if "alpha_per_uw" in drv else None
    if rabi_ghz is not None and (power_uw is not None or alpha is not None):
        raise ConfigError(f"{source}: give either rabi_ghz or power_uw/alpha_per_uw, not both")
    if rabi_ghz is None and alpha is None:
        raise ConfigError(f"{source}: drive needs rabi_ghz or alpha_per_uw")

    power_grid = None
    grid_keys = {"power_min_uw", "power_max_uw", "power_points"} & set(drv)
    if grid_keys:
        if grid_keys != {"power_min_uw", "power_max_uw", "power_points"}:
            raise ConfigError(f"{source}: power grid needs min, max and point count together")
        scale = drv.get("power_scale", "log").strip().lower()
        if scale not in ("log", "linear"):
            raise ConfigError(f"{source}: power_scale must be 'log' or 'linear'")
        lo = _get_float(drv, "power_min_uw", source)
        hi = _get_float(drv, "power_max_uw", source)
        count = _get_int(drv, "power_points", source)
        if not (0.0 <= lo < hi) or count < 5:
            raise ConfigError(f"{source}: power grid must satisfy 0 <= min < max, points >= 5")
        if scale == "log" and lo <= 0.0:
            raise ConfigError(f"{source}: log-spaced power grids need power_min_uw > 0")
        power_grid = (lo, hi, count, scale)
    elif "power_scale" in drv:
        raise ConfigError(f"{source}: power_scale given without a power grid")

    channels = IncoherentChannels()
    if "channels" in parser:
        ch = parser["channels"]
        try:
            channels = IncoherentChannels(
                transfer_qd_to_cavity=ghz_to_angular(
                    _get_float(ch, "transfer_qd_to_cavity_ghz", source)
                )
                if "transfer_qd_to_cavity_ghz" in ch
                else 0.0,
                transfer_cavity_to_qd=ghz_to_angular(
                    _get_float(ch, "transfer_cavity_to_qd_ghz", source)
                )
                if "transfer_cavity_to_qd_ghz" in ch
                else 0.0,
            )
        except ValueError as exc:
            raise ConfigError(f"{source}: invalid [channels]: {exc}") from exc

    kwargs: dict = {}
    if "numerics" in parser:
        num = parser["numerics"]
        if "fock_cutoff" in num:
            kwargs["fock_cutoff"] = _get_int(num, "fock_cutoff", source)
            if kwargs["fock_cutoff"] < 1:
                raise ConfigError(f"{source}: fock_cutoff must be >= 1")
        if "scan_points" in num:
            kwargs["scan_points"] = _get_int(num, "scan_points", source)
            if kwargs["scan_points"] < 5:
                raise ConfigError(f"{source}: scan_points must be >= 5")
        if "scan_span_fwhm" in num:
            kwargs["scan_span_fwhm"] = _get_positive(num, "scan_span_fwhm", source)
        if "seed" in num:
            kwargs["seed"] = _get_int(num, "seed", source)
            if kwargs["seed"] < 0:
                raise ConfigError(f"{source}: seed must be >= 0")
        if "noise_relative" in num:
            kwargs["noise_relative"] = _get_float(num, "noise_relative", source)
            if not 0.0 <= kwargs["noise_relative"] <= 0.5:
                raise ConfigError(f"{source}: noise_relative must lie in [0, 0.5]")
        # Accepted for compatibility and validated, but scans run serially.
        if "workers" in num and _get_int(num, "workers", source) < 1:
            raise ConfigError(f"{source}: workers must be >= 1")
        if "steady_residual_tol" in num:
            kwargs["steady_residual_tol"] = _get_positive(num, "steady_residual_tol", source)

    if "output" in parser:
        out = parser["output"]
        if "directory" in out:
            kwargs["output_directory"] = out["directory"].strip()
        if "stem" in out:
            kwargs["output_stem"] = out["stem"].strip()

    reproduce = None
    if "reproduce" in parser:
        rep = parser["reproduce"]

        def opt(key: str) -> float | None:
            return _get_float(rep, key, source) if key in rep else None

        i_sat = _get_positive(rep, "i_sat_counts", source) if "i_sat_counts" in rep else 1000.0
        reproduce = ReproduceParams(
            label=rep.get("label", "").strip(),
            delta_omega_c_ghz=opt("delta_omega_c_ghz"),
            delta_omega_0_ghz=opt("delta_omega_0_ghz"),
            reference_theory_ghz=opt("reference_theory_ghz"),
            i_sat_counts=i_sat,
            intrinsic_fwhm_ghz=opt("intrinsic_fwhm_ghz"),
            excess_slope_ghz_per_uw=opt("excess_slope_ghz_per_uw"),
        )

    return RunConfig(
        system=system,
        channels=channels,
        drive_target=target,
        rabi_ghz=rabi_ghz,
        power_uw=power_uw,
        alpha_per_uw=alpha,
        power_grid=power_grid,
        reproduce=reproduce,
        source=source,
        **kwargs,
    )
