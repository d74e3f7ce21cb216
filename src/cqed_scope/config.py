"""Strict INI run configuration.

A file is UTF-8, optionally starting with a byte-order mark.  A key line is ``key = value``
or ``key: value``; ``#`` starts a comment at the start of a line or after whitespace, so
``stem = run#1`` keeps ``run#1``; and a line indented deeper than its key line continues the
value.  A malformed line is rejected as ``<file>:<line>: <reason>``.

Each key is declared once, with its type and its range, in ``_KEYS``.  Anything
unknown is rejected by name so a typo cannot fall back to a default, and every
number must be finite.  File frequencies are ordinary GHz, wavelengths nm,
powers uW; conversion to angular units happens here and nowhere else.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .model import (
    DriveSpec,
    DriveTarget,
    SystemParams,
    ghz_to_angular,
    wavelength_to_angular_frequency,
)

#: Environment variable overriding the configured output directory.
OUTPUT_ENV_VAR = "CQED_SCOPE_OUT"

#: Rates and wavelengths must also stay finite once converted to rad/ns.
_RATE = (
    lambda v: v >= 0.0 and math.isfinite(ghz_to_angular(v)),
    "must be finite and >= 0 in GHz and in rad/ns, got {value} in [{section}]",
)
_DECAY = (
    lambda v: v > 0.0 and math.isfinite(ghz_to_angular(v)),
    "must be finite and > 0 in GHz and in rad/ns, got {value} in [{section}]",
)
_WAVELENGTH = (
    lambda v: 0.0 < v < math.inf and math.isfinite(wavelength_to_angular_frequency(v)),
    "must be finite and > 0 in nm and in rad/ns, got {value} in [{section}]",
)
_POSITIVE = (lambda v: 0.0 < v < math.inf, "must be finite and > 0")
_NONNEGATIVE = (lambda v: 0.0 <= v < math.inf, "must be finite and >= 0")
_FINITE = (math.isfinite, "must be finite")

#: Every accepted key, by section: the type its value converts to and, for a number, the
#: range it must lie in, each excluding NaN and inf.  A range may name the value and section
#: as ``{value}`` and ``{section}``.
_KEYS: dict[str, dict[str, tuple[type, tuple | None]]] = {
    "system": {
        "qd_wavelength_nm": (float, _WAVELENGTH),
        "cavity_wavelength_nm": (float, _WAVELENGTH),
        "g_ghz": (float, _RATE),
        "kappa_ghz": (float, _DECAY),
        "gamma_ghz": (float, _DECAY),
        "gamma_d_ghz": (float, _RATE),
    },
    "drive": {
        "target": (str, None),
        "rabi_ghz": (float, _RATE),
        "power_uw": (float, _NONNEGATIVE),
        "alpha_per_uw": (float, _POSITIVE),
        "power_min_uw": (float, _FINITE),
        "power_max_uw": (float, _FINITE),
        "power_points": (int, _FINITE),
        "power_scale": (str, None),
    },
    "numerics": {
        "fock_cutoff": (int, (lambda v: v >= 1, "must be >= 1")),
        "scan_points": (int, (lambda v: v >= 5, "must be >= 5")),
        "scan_span_fwhm": (float, _POSITIVE),
        "seed": (int, (lambda v: v >= 0, "must be >= 0")),
        "noise_relative": (float, (lambda v: 0.0 <= v <= 0.5, "must lie in [0, 0.5]")),
        "workers": (int, (lambda v: v >= 1, "must be >= 1")),
    },
    "channels": {
        "transfer_qd_to_cavity_ghz": (float, _RATE),
        "transfer_cavity_to_qd_ghz": (float, _RATE),
    },
    "output": {"directory": (str, None), "stem": (str, None)},
    "reproduce": {
        "label": (str, None),
        "delta_omega_c_ghz": (float, _NONNEGATIVE),
        "delta_omega_0_ghz": (float, _NONNEGATIVE),
        "reference_theory_ghz": (float, _FINITE),
        "i_sat_counts": (float, _POSITIVE),
        "intrinsic_fwhm_ghz": (float, _POSITIVE),
        "excess_slope_ghz_per_uw": (float, _NONNEGATIVE),
    },
}

#: A key line: the key, up to the first ``=`` or ``:``, and the value after it.
_KEY_LINE = re.compile(r"([^=:]*)[=:](.*)")

_REQUIRED = {
    "system": {"qd_wavelength_nm", "cavity_wavelength_nm", "g_ghz", "kappa_ghz", "gamma_ghz"},
    "drive": {"target"},
}


def log_grid(lo: float, hi: float, points: int) -> np.ndarray:
    """``np.geomspace(lo, hi, points)`` bit for bit, for ``lo, hi > 0`` and ``points >= 2``.

    geomspace's arithmetic without its dtype promotion and sign rotation, which cost more
    than the arithmetic itself on grids of tens to hundreds of points.  The package's
    log-spaced power grids all come from here.
    """
    grid = np.power(10.0, np.linspace(np.log10(lo), np.log10(hi), points))
    grid[0], grid[-1] = lo, hi
    return grid


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
            where = f"{self.source}: " if self.source else ""
            raise ConfigError(
                f"{where}no power grid configured; set power_min_uw/power_max_uw/power_points"
            )
        lo, hi, count, scale = self.power_grid
        if scale == "log":
            return log_grid(lo, hi, count)
        return np.linspace(lo, hi, count)

    def resolve_output_dir(self) -> Path:
        override = os.environ.get(OUTPUT_ENV_VAR)
        return Path(override) if override else Path(self.output_directory)


def _convert(section: str, key: str, text: str, source: str) -> float | int | str:
    kind, bounds = _KEYS[section][key]
    if kind is str:
        return text.strip()
    try:
        value = kind(text)
    except ValueError as exc:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{source}: key {key!r} is not {noun}: {text!r}") from exc
    within, rule = bounds
    if not within(value):
        raise ConfigError(f"{source}: {key} {rule.format(value=text, section=section)}")
    return value


def _read_ini(path: Path) -> dict[str, dict[str, str]]:
    """``{section: {key: text}}`` of one INI file, read in one pass.

    It returns what configparser returns with ``#`` comments, also inline, no interpolation,
    strict duplicates and case-sensitive keys.  A section name ends at the last ``]`` of its
    header line, a key at the first ``=`` or ``:``; a value's continuation lines join with
    newlines, blank lines within the value kept.  An empty ``[DEFAULT]`` is ignored.
    """
    sections: dict[str, dict[str, list[str]]] = {}
    section = value = None
    indent = 0
    try:
        with open(path, encoding="utf-8-sig") as fh:
            for lineno, line in enumerate(fh, start=1):
                cut = line.find("#")
                while cut > 0 and not line[cut - 1].isspace():
                    cut = line.find("#", cut + 1)
                text = (line if cut < 0 else line[:cut]).strip()
                if not text:
                    if cut < 0 and value is not None:
                        value.append("")
                    continue
                depth = len(line) - len(line.lstrip())
                if value is not None and depth > indent:
                    value.append(text)
                    continue
                indent = depth
                end = text.rfind("]")
                if text[0] == "[" and end > 1:
                    name, value = text[1:end], None
                    if name in sections:
                        raise ConfigError(f"{path}:{lineno}: section [{name}] repeated")
                    section = {}  # stays empty for [DEFAULT], whose keys are rejected below
                    if name != "DEFAULT":
                        sections[name] = section
                    continue
                if section is None:
                    raise ConfigError(f"{path}:{lineno}: no [section] header before this line")
                match = _KEY_LINE.match(text)
                if match is None:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value' or 'key: value'")
                key = match[1].rstrip()
                if not key:
                    raise ConfigError(f"{path}:{lineno}: empty key")
                if name == "DEFAULT":
                    raise ConfigError(f"{path}:{lineno}: [DEFAULT] may hold no keys")
                if key in section:
                    raise ConfigError(f"{path}:{lineno}: key {key!r} repeated in [{name}]")
                value = section[key] = [match[2].strip()]
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError) as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text") from exc
    return {
        name: {key: "\n".join(parts).rstrip() for key, parts in keys.items()}
        for name, keys in sections.items()
    }


def parse_config(path: str | Path) -> RunConfig:
    """Read and validate one INI file, rejecting unknown sections and keys."""
    path = Path(path)
    sections = _read_ini(path)
    source = str(path)
    for section, keys in sections.items():
        if section not in _KEYS:
            raise ConfigError(f"{source}: unknown section [{section}]")
        unknown = set(keys) - set(_KEYS[section])
        if unknown:
            raise ConfigError(
                f"{source}: unknown key(s) in [{section}]: {', '.join(sorted(unknown))}"
            )
    for section, keys in _REQUIRED.items():
        if section not in sections:
            raise ConfigError(f"{source}: missing required section [{section}]")
        missing = keys - set(sections[section])
        if missing:
            raise ConfigError(
                f"{source}: missing key(s) in [{section}]: {', '.join(sorted(missing))}"
            )

    values = {
        section: {key: _convert(section, key, text, source) for key, text in keys.items()}
        for section, keys in sections.items()
    }
    drive = values["drive"]
    system = SystemParams.from_ghz_and_nm(**values["system"], **values.get("channels", {}))

    target_text = drive["target"].lower()
    try:
        target = DriveTarget(target_text)
    except ValueError as exc:
        raise ConfigError(f"{source}: drive target must be 'qd' or 'cavity', got {target_text!r}") from exc
    if "rabi_ghz" in drive and ("power_uw" in drive or "alpha_per_uw" in drive):
        raise ConfigError(f"{source}: give either rabi_ghz or power_uw/alpha_per_uw, not both")
    if "rabi_ghz" not in drive and "alpha_per_uw" not in drive:
        raise ConfigError(f"{source}: drive needs rabi_ghz or alpha_per_uw")

    power_grid = None
    grid_keys = {"power_min_uw", "power_max_uw", "power_points"} & set(drive)
    if grid_keys:
        if grid_keys != {"power_min_uw", "power_max_uw", "power_points"}:
            raise ConfigError(f"{source}: power grid needs min, max and point count together")
        scale = drive.get("power_scale", "log").lower()
        if scale not in ("log", "linear"):
            raise ConfigError(f"{source}: power_scale must be 'log' or 'linear'")
        lo, hi, count = drive["power_min_uw"], drive["power_max_uw"], drive["power_points"]
        if not (0.0 <= lo < hi) or count < 5:
            raise ConfigError(f"{source}: power grid must satisfy 0 <= min < max, points >= 5")
        if scale == "log" and lo <= 0.0:
            raise ConfigError(f"{source}: log-spaced power grids need power_min_uw > 0")
        power_grid = (lo, hi, count, scale)
    elif "power_scale" in drive:
        raise ConfigError(f"{source}: power_scale given without a power grid")

    # workers is accepted and range-checked for older configs, but scans run serially.
    numerics = {key: value for key, value in values.get("numerics", {}).items() if key != "workers"}
    return RunConfig(
        system=system,
        drive_target=target,
        rabi_ghz=drive.get("rabi_ghz"),
        power_uw=drive.get("power_uw"),
        alpha_per_uw=drive.get("alpha_per_uw"),
        power_grid=power_grid,
        reproduce=ReproduceParams(**values["reproduce"]) if "reproduce" in values else None,
        source=source,
        **numerics,
        **{f"output_{key}": value for key, value in values.get("output", {}).items()},
    )
