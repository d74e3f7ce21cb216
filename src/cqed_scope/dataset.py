"""Spectrum dataset container and CSV round-tripping.

Datasets are the currency between the scan layer and the fitting layer and
the only on-disk artefact format.  A dataset holds its units and values only;
what produced it is reported by the command that wrote it.  Three CSV shapes
exist, distinguished by their mandatory header line:

    wavelength_nm,intensity   laser scan
    power_uw,intensity        saturation curve
    power_uw,fwhm_ghz         linewidth versus power

Files are UTF-8 with LF line endings.  Each row is ``x,y`` with both floats
in ``%.17g`` format (17 significant digits, so 0.1 is written
``0.10000000000000001``), enough for a written file to re-read to
bit-identical values.
"""

from __future__ import annotations

import enum
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class ScanKind(enum.Enum):
    LASER_WAVELENGTH = "laser_wavelength"
    POWER_SWEEP = "power_sweep"


_HEADERS: dict[tuple[str, str], str] = {
    ("nm", "intensity"): "wavelength_nm,intensity",
    ("uW", "intensity"): "power_uw,intensity",
    ("uW", "fwhm_ghz"): "power_uw,fwhm_ghz",
}
_HEADER_TO_UNITS = {v: k for k, v in _HEADERS.items()}
_KIND_OF_X_UNIT = {"nm": ScanKind.LASER_WAVELENGTH, "uW": ScanKind.POWER_SWEEP}


@dataclass(frozen=True, eq=False)
class SpectrumDataset:
    """One scan result: strictly increasing x values and per-point y values."""

    kind: ScanKind
    x: np.ndarray
    y: np.ndarray
    x_unit: str
    y_unit: str

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        if x.ndim != 1 or y.ndim != 1 or x.size != y.size or x.size == 0:
            raise ValueError("x and y must be 1-d arrays of equal, non-zero length")
        if not np.all(np.isfinite(x)) or not np.all(np.isfinite(y)):
            raise ValueError("dataset values must be finite")
        if not np.all(x[1:] > x[:-1]):
            raise ValueError("x values must be strictly increasing")
        if (self.x_unit, self.y_unit) not in _HEADERS:
            raise ValueError(f"unsupported unit pair ({self.x_unit}, {self.y_unit})")
        if self.kind is not _KIND_OF_X_UNIT[self.x_unit]:
            raise ValueError(f"kind {self.kind} does not fit x unit {self.x_unit}")
        if self.y_unit == "intensity" and float(y.min(initial=0.0)) < 0.0:
            raise ValueError("intensities must be >= 0")

    def __len__(self) -> int:
        return int(self.x.size)

    @property
    def header(self) -> str:
        return _HEADERS[(self.x_unit, self.y_unit)]


def write_csv(dataset: SpectrumDataset, path: str | Path) -> None:
    """Write atomically: the file appears complete or not at all."""
    path = Path(path)
    # One pass over Python floats, x0, y0, x1, y1, ...: numpy scalars format far slower.
    values = np.column_stack((dataset.x, dataset.y)).ravel().tolist()
    payload = f"{dataset.header}\n" + "%.17g,%.17g\n" * len(dataset) % tuple(values)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(payload)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def read_csv(path: str | Path) -> SpectrumDataset:
    """Parse a CSV written by :func:`write_csv` (or anything matching its shape).

    Every ``ValueError`` it raises names the file.
    """
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [(n, line.strip()) for n, line in enumerate(fh, start=1) if line.strip()]
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text") from exc
    if not lines:
        raise ValueError(f"{path}: empty file")
    header = lines[0][1]
    if header not in _HEADER_TO_UNITS:
        raise ValueError(f"{path}: unrecognised header {header!r}")
    x_unit, y_unit = _HEADER_TO_UNITS[header]
    xs: list[float] = []
    ys: list[float] = []
    for lineno, line in lines[1:]:
        cells = line.split(",")
        if len(cells) != 2:
            raise ValueError(f"{path}:{lineno}: expected two comma-separated values")
        try:
            xs.append(float(cells[0]))
            ys.append(float(cells[1]))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: non-numeric cell") from exc
    kind = _KIND_OF_X_UNIT[x_unit]
    try:
        return SpectrumDataset(
            kind=kind, x=np.array(xs), y=np.array(ys), x_unit=x_unit, y_unit=y_unit
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
