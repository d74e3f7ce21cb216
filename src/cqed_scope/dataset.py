"""Spectrum dataset container and CSV round-tripping.

Datasets are the currency between the scan layer and the fitting layer and
the only on-disk artefact format.  A dataset holds its units and values only;
what produced it is reported by the command that wrote it.  Three CSV shapes
exist, distinguished by their mandatory header line:

    wavelength_nm,intensity   laser scan
    power_uw,intensity        saturation curve
    power_uw,fwhm_ghz         linewidth versus power

Written files are UTF-8 with LF line endings.  Each row is ``x,y`` with both
floats in ``%.17g`` format (17 significant digits, so 0.1 is written
``0.10000000000000001``), enough for a written file to re-read to
bit-identical values.  A written file gets the permissions a plain
``open(path, "w")`` gives a new file, so they follow the umask.

Reading accepts more: a leading UTF-8 byte-order mark, as spreadsheet
"CSV UTF-8" exports write it, LF or CRLF line endings, blank and
whitespace-only lines anywhere, and any cell ``float()`` reads, with spaces or
tabs around it.  A malformed row is reported with its line number in the file, blank
lines counted.
"""

from __future__ import annotations

import enum
import os
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
    # One pass over Python floats, x0, y0, x1, y1, ...: numpy scalars format far slower.
    values = np.column_stack((dataset.x, dataset.y)).ravel().tolist()
    payload = f"{dataset.header}\n" + "%.17g,%.17g\n" * len(dataset) % tuple(values)
    # A new file under a unique name, created as open(path, "w") creates one: mode 0o666
    # less the umask (tempfile.mkstemp would give 0o600, and the rename keeps the mode).
    tmp_name = f"{path}{os.urandom(8).hex()}.tmp"
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    fd = os.open(tmp_name, flags, 0o666)
    try:
        # One UTF-8 payload, LF as formatted, through a binary file, which writes all of it
        # across short writes and closes the descriptor: a text-mode wrapper cost more to
        # build than the write itself.
        with open(fd, "wb") as fh:
            fh.write(payload.encode())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def read_csv(path: str | Path) -> SpectrumDataset:
    """Parse a CSV written by :func:`write_csv` (or anything matching its shape).

    The file may start with a UTF-8 byte-order mark, lines may end in LF or
    CRLF, blank and whitespace-only lines are skipped anywhere, and a cell may
    be anything ``float()`` reads, with spaces or tabs around it.  Every
    ``ValueError`` it raises names the file; one about a row also names that
    row's line number in the file, blank lines counted.
    """
    path = Path(path)
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text") from exc
    start = next((n for n, line in enumerate(lines) if line.strip()), None)
    if start is None:
        raise ValueError(f"{path}: empty file")
    header = lines[start].strip()
    if header not in _HEADER_TO_UNITS:
        raise ValueError(f"{path}: unrecognised header {header!r}")
    x_unit, y_unit = _HEADER_TO_UNITS[header]
    x, y = _parse_rows(path, lines, start + 1)
    kind = _KIND_OF_X_UNIT[x_unit]
    try:
        return SpectrumDataset(kind=kind, x=x, y=y, x_unit=x_unit, y_unit=y_unit)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _parse_rows(path: Path, lines: list[str], first: int) -> np.ndarray:
    """The ``x,y`` rows of ``lines[first:]`` as a C-contiguous ``(2, n)`` array.

    numpy's C reader takes every row in one call and converts each cell as
    ``float()`` does, bit for bit.  It raises ``ValueError`` on some input that
    ``float()`` reads (whitespace-only lines, ``1_000``, non-ASCII digits), and
    its errors do not count the file's lines, so then the rows are parsed again
    one line at a time: that loop returns those values or raises the error
    naming the row's line.
    """
    rows = lines[first:]
    # numpy warns on input with no rows; the loop returns no points for it.  A '#' starts
    # no comment (comments=None), so "1,2 # note" fails here as it does in the loop.
    if any(line.strip() for line in rows):
        try:
            table = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            pass
        else:
            if table.shape[1] == 2:
                return table.T.copy()
    xs: list[float] = []
    ys: list[float] = []
    for lineno, line in enumerate(rows, start=first + 1):
        line = line.strip()
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != 2:
            raise ValueError(f"{path}:{lineno}: expected two comma-separated values")
        try:
            xs.append(float(cells[0]))
            ys.append(float(cells[1]))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: non-numeric cell") from exc
    return np.array([xs, ys])
