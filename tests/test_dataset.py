"""Dataset container validation and CSV round-tripping."""

import errno
import io
import math
import os
import stat
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from helpers import csv_columns
from hypothesis import given
from hypothesis import strategies as st

from cqed_scope import dataset as dataset_module
from cqed_scope.dataset import ScanKind, SpectrumDataset, read_csv, write_csv

# Any finite double, with the edges of the range drawn often: zeros of both signs,
# subnormals and values near the largest double.
_EDGE_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-310]),
    st.sampled_from([1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308]),
)


# The three ways a float is commonly written: shortest round-trip, 17 digits and 7 digits.
_CELL_FORMATS = (repr, "{:.17g}".format, "{:.6e}".format)
_SPACING = st.text(alphabet=" \t", max_size=3)


@st.composite
def _edited_csv(draw):
    """A linewidth CSV as a person or another program might write it.

    Returns ``(lines, ends, rows)``: line ``k + 1`` of the file is ``lines[k] + ends[k]``,
    and ``rows`` indexes the data lines.  Cells are finite floats in any of
    ``_CELL_FORMATS``, some with a ``+`` sign and with spaces and tabs around them.  Blank
    lines, and in half the files whitespace-only ones too, sit before and between the rows.
    Each line ends in LF or CRLF, the last one perhaps in neither.  Rows whose x does not
    read larger than the previous row's are dropped, so the file holds a valid dataset.
    """

    def cell(value: float) -> str:
        text = draw(st.sampled_from(_CELL_FORMATS))(value)
        if not text.startswith("-") and draw(st.booleans()):
            text = "+" + text
        return draw(_SPACING) + text + draw(_SPACING)

    # Blank lines, or blank and whitespace-only ones, as a hand edit or an export leaves them.
    gap = st.lists(_SPACING if draw(st.booleans()) else st.just(""), max_size=2)
    lines = [*draw(gap), "power_uw,fwhm_ghz"]
    rows = []
    last = -math.inf
    points = draw(st.lists(st.tuples(_EDGE_FLOATS, _EDGE_FLOATS), min_size=1, max_size=40))
    for x, y in sorted(points):
        x_cell = cell(x)
        if float(x_cell) <= last:
            continue
        last = float(x_cell)
        lines += draw(gap)
        rows.append(len(lines))
        lines.append(f"{x_cell},{cell(y)}")
    lines += draw(gap)
    ends = [draw(st.sampled_from(["\n", "\r\n"])) for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""
    return lines, ends, rows


def _write_lines(path: Path, lines, ends) -> None:
    path.write_bytes("".join(line + end for line, end in zip(lines, ends)).encode("utf-8"))


def _scan(x, y, x_unit="nm", y_unit="intensity", kind=ScanKind.LASER_WAVELENGTH):
    return SpectrumDataset(kind=kind, x=x, y=y, x_unit=x_unit, y_unit=y_unit)


class TestConstruction:
    def test_valid_dataset_coerces_to_float_arrays(self):
        ds = _scan([930, 931, 932], [0, 1, 0])
        assert ds.x.dtype == np.float64
        assert ds.y.dtype == np.float64
        assert len(ds) == 3
        assert ds.header == "wavelength_nm,intensity"

    def test_single_point_is_allowed(self):
        ds = _scan([934.8], [0.5])
        assert len(ds) == 1

    def test_ragged_lengths_rejected(self):
        with pytest.raises(ValueError, match="equal, non-zero length"):
            _scan([1.0, 2.0], [0.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="equal, non-zero length"):
            _scan([], [])

    def test_two_dimensional_rejected(self):
        with pytest.raises(ValueError, match="equal, non-zero length"):
            _scan([[1.0, 2.0]], [[0.0, 0.0]])

    def test_duplicate_x_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            _scan([1.0, 1.0, 2.0], [0.0, 0.0, 0.0])

    def test_decreasing_x_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            _scan([2.0, 1.0], [0.0, 0.0])

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            _scan([1.0, 2.0], [0.0, np.nan])

    def test_infinite_x_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            _scan([1.0, np.inf], [0.0, 0.0])

    def test_negative_intensity_rejected(self):
        with pytest.raises(ValueError, match="intensities must be >= 0"):
            _scan([1.0, 2.0], [0.1, -0.1])

    def test_negative_linewidth_allowed(self):
        # Background-subtracted widths can dip below zero under noise, so the
        # fwhm_ghz column must accept negative values.
        ds = _scan(
            [1.0, 2.0],
            [-0.3, 4.0],
            x_unit="uW",
            y_unit="fwhm_ghz",
            kind=ScanKind.POWER_SWEEP,
        )
        assert ds.y[0] == -0.3

    def test_unknown_unit_pair_rejected(self):
        with pytest.raises(ValueError, match=r"unsupported unit pair \(nm, fwhm_ghz\)"):
            _scan([1.0, 2.0], [0.0, 0.0], x_unit="nm", y_unit="fwhm_ghz")

    @pytest.mark.parametrize(
        "kind, x_unit, y_unit",
        [
            (ScanKind.LASER_WAVELENGTH, "uW", "fwhm_ghz"),
            (ScanKind.LASER_WAVELENGTH, "uW", "intensity"),
            (ScanKind.POWER_SWEEP, "nm", "intensity"),
        ],
    )
    def test_kind_contradicting_the_x_unit_rejected(self, kind, x_unit, y_unit):
        message = rf"kind ScanKind\.{kind.name} does not fit x unit {x_unit}"
        with pytest.raises(ValueError, match=message):
            _scan([1.0, 2.0], [0.0, 1.0], x_unit=x_unit, y_unit=y_unit, kind=kind)

    @pytest.mark.parametrize(
        "x_unit, y_unit, header",
        [
            ("nm", "intensity", "wavelength_nm,intensity"),
            ("uW", "intensity", "power_uw,intensity"),
            ("uW", "fwhm_ghz", "power_uw,fwhm_ghz"),
        ],
    )
    def test_header_per_unit_pair(self, x_unit, y_unit, header):
        kind = ScanKind.LASER_WAVELENGTH if x_unit == "nm" else ScanKind.POWER_SWEEP
        ds = _scan([1.0, 2.0], [0.0, 0.0], x_unit=x_unit, y_unit=y_unit, kind=kind)
        assert ds.header == header


class TestCsvRoundTrip:
    def test_bitwise_round_trip(self, tmp_path):
        """Written floats re-read to the exact same binary values."""
        x = np.array([930.0, 930.1, 934.8000000000001, 1000.0 / 3.0 + 700.0])
        y = np.array([0.0, 1e-300, 0.1 + 0.2, 123456.789])
        ds = _scan(x, y)
        path = tmp_path / "scan.csv"
        write_csv(ds, path)
        back = read_csv(path)
        assert back.kind is ScanKind.LASER_WAVELENGTH
        assert back.x_unit == "nm" and back.y_unit == "intensity"
        assert np.array_equal(back.x, x)
        assert np.array_equal(back.y, y)
        assert back.x.flags.c_contiguous and back.y.flags.c_contiguous

    def test_file_bytes_are_lf_only_with_exact_header(self, tmp_path):
        ds = _scan([1.0, 2.0], [0.5, 0.25], x_unit="uW", kind=ScanKind.POWER_SWEEP)
        path = tmp_path / "sweep.csv"
        write_csv(ds, path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")
        assert raw.split(b"\n")[0] == b"power_uw,intensity"
        assert raw.split(b"\n")[1] == b"1,0.5"

    def test_rewriting_is_byte_identical(self, tmp_path):
        ds = _scan([930.0, 931.0, 932.0], [0.0, 0.7071067811865476, 0.0])
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_csv(ds, first)
        write_csv(ds, second)
        assert first.read_bytes() == second.read_bytes()

    def test_overwrite_replaces_and_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "scan.csv"
        write_csv(_scan([1.0, 2.0], [0.0, 1.0]), path)
        replacement = _scan([5.0, 6.0, 7.0], [1.0, 2.0, 3.0])
        write_csv(replacement, path)
        back = read_csv(path)
        assert np.array_equal(back.x, replacement.x)
        assert np.array_equal(back.y, replacement.y)
        assert [p.name for p in tmp_path.iterdir()] == ["scan.csv"]

    @pytest.mark.parametrize(
        "umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask-022", "umask-077"]
    )
    def test_written_file_mode_follows_the_umask(self, tmp_path, umask, mode):
        """A written CSV gets the permissions a plain ``open(path, "w")`` would give it."""
        path = tmp_path / "scan.csv"
        previous = os.umask(umask)
        try:
            write_csv(_scan([1.0, 2.0], [0.0, 1.0]), path)
        finally:
            os.umask(previous)
        assert stat.S_IMODE(path.stat().st_mode) == mode

    @staticmethod
    def short_writes(monkeypatch, fail_after=None):
        """Make write_csv's file take at most 7 bytes a write and, after ``fail_after``
        writes, fail as a full disk does.  Returns the list of writes attempted."""
        calls = []

        class Raw(io.FileIO):
            def write(self, data):
                calls.append(len(data))
                if fail_after is not None and len(calls) > fail_after:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return super().write(data[:7])

        def opened(fd, mode):
            return io.BufferedWriter(Raw(fd, mode))

        monkeypatch.setattr(dataset_module, "open", opened, raising=False)
        return calls

    def test_short_writes_give_the_same_bytes(self, tmp_path, monkeypatch):
        ds = _scan([930.0, 930.1, 934.8], [0.0, 0.1 + 0.2, 123456.789])
        whole = tmp_path / "whole.csv"
        write_csv(ds, whole)
        calls = self.short_writes(monkeypatch)
        write_csv(ds, tmp_path / "chunked.csv")
        assert len(calls) > 1
        assert (tmp_path / "chunked.csv").read_bytes() == whole.read_bytes()

    def test_failed_write_leaves_the_old_file_and_no_temp_file(self, tmp_path, monkeypatch):
        path = tmp_path / "scan.csv"
        write_csv(_scan([1.0, 2.0], [0.0, 1.0]), path)
        before = path.read_bytes()
        calls = self.short_writes(monkeypatch, fail_after=1)
        with pytest.raises(OSError) as caught:
            write_csv(_scan([5.0, 6.0, 7.0], [1.0, 2.0, 3.0]), path)
        assert caught.value.errno == errno.ENOSPC
        assert len(calls) == 2
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["scan.csv"]

    def test_power_sweep_kinds_survive_round_trip(self, tmp_path):
        for y_unit in ("intensity", "fwhm_ghz"):
            ds = _scan(
                [0.5, 1.0], [2.0, 3.0], x_unit="uW", y_unit=y_unit, kind=ScanKind.POWER_SWEEP
            )
            path = tmp_path / f"{y_unit}.csv"
            write_csv(ds, path)
            back = read_csv(path)
            assert back.kind is ScanKind.POWER_SWEEP
            assert back.y_unit == y_unit

    @given(
        y=st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            min_size=1,
            max_size=30,
        )
    )
    def test_any_finite_values_round_trip_bitwise(self, y):
        """17 significant digits lose nothing across the double range."""
        x = np.arange(1.0, len(y) + 1.0)
        ds = _scan(
            x, np.array(y), x_unit="uW", y_unit="fwhm_ghz", kind=ScanKind.POWER_SWEEP
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "round.csv"
            write_csv(ds, path)
            back = read_csv(path)
        assert np.array_equal(back.x, ds.x)
        assert np.array_equal(back.y, ds.y)

    @given(
        rows=st.lists(
            st.tuples(_EDGE_FLOATS, _EDGE_FLOATS),
            min_size=1,
            max_size=300,
            unique_by=lambda row: row[0],
        )
    )
    def test_file_is_header_plus_one_17g_line_per_row(self, rows):
        rows.sort()
        x, y = zip(*rows)
        ds = _scan(x, y, x_unit="uW", y_unit="fwhm_ghz", kind=ScanKind.POWER_SWEEP)
        expected = "power_uw,fwhm_ghz\n" + "".join(
            f"{float(a):.17g},{float(b):.17g}\n" for a, b in zip(ds.x, ds.y)
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "rows.csv"
            write_csv(ds, path)
            assert path.read_bytes() == expected.encode("utf-8")


class TestReadAgainstOracle:
    """``read_csv`` against ``helpers.csv_columns`` on CSVs not written by ``write_csv``."""

    @given(csv=_edited_csv())
    def test_values_are_the_oracles_bits(self, csv):
        lines, ends, _ = csv
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "edited.csv"
            _write_lines(path, lines, ends)
            header, xs, ys = csv_columns(path.read_bytes().decode("utf-8"))
            ds = read_csv(path)
        assert ds.header == header
        assert ds.x.tobytes() == np.array(xs).tobytes()
        assert ds.y.tobytes() == np.array(ys).tobytes()

    @given(
        csv=_edited_csv(),
        corruption=st.sampled_from(
            [
                ("{x}", "expected two comma-separated values"),
                ("{x},{y},{y}", "expected two comma-separated values"),
                ("{x},high", "non-numeric cell"),
                ("{x},{y} # note", "non-numeric cell"),
            ]
        ),
        data=st.data(),
    )
    def test_a_corrupt_row_is_named_by_its_line(self, csv, corruption, data):
        lines, ends, rows = csv
        row = data.draw(st.sampled_from(rows), label="row")
        template, reason = corruption
        x, y = lines[row].split(",")
        lines = [*lines[:row], template.format(x=x, y=y), *lines[row + 1 :]]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "corrupt.csv"
            _write_lines(path, lines, ends)
            with pytest.raises(ValueError) as excinfo:
                read_csv(path)
        assert str(excinfo.value) == f"{path}:{row + 1}: {reason}"


class TestReadErrors:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty.csv: empty file"):
            read_csv(path)

    def test_whitespace_only_file(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("\n  \n\n")
        with pytest.raises(ValueError, match="empty file"):
            read_csv(path)

    def test_unrecognised_header(self, tmp_path):
        path = tmp_path / "odd.csv"
        path.write_text("frequency_thz,counts\n1,2\n")
        with pytest.raises(ValueError, match="unrecognised header 'frequency_thz,counts'"):
            read_csv(path)

    def test_wrong_cell_count_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("wavelength_nm,intensity\n930,1,7\n")
        with pytest.raises(ValueError, match=r"bad\.csv:2: expected two comma-separated"):
            read_csv(path)

    # A '#' starts no comment: the cell it sits in does not read as a number.
    @pytest.mark.parametrize("row", ["931,high", "931,2 # note", "# 931,2"])
    def test_non_numeric_cell_names_line(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"wavelength_nm,intensity\n930,1\n{row}\n")
        with pytest.raises(ValueError, match=r"bad\.csv:3: non-numeric cell"):
            read_csv(path)

    def test_error_after_a_blank_line_names_the_files_own_line(self, tmp_path):
        path = tmp_path / "gappy.csv"
        path.write_text("wavelength_nm,intensity\n930.0,1.0\n\n931.0,2.0\n932.0,x\n")
        with pytest.raises(ValueError, match=r"gappy\.csv:5: non-numeric cell"):
            read_csv(path)

    @pytest.mark.parametrize("after", ["", "\n", "\n \t\n"])
    def test_header_only_file_has_no_points(self, tmp_path, after):
        path = tmp_path / "headeronly.csv"
        path.write_text("wavelength_nm,intensity\n" + after)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="equal, non-zero length"):
                read_csv(path)
        assert caught == []

    @pytest.mark.parametrize("gap", ["", "   ", "\t\t", " \t "])
    def test_blank_lines_between_rows_tolerated(self, tmp_path, gap):
        path = tmp_path / "gaps.csv"
        path.write_text(f"wavelength_nm,intensity\n930,1\n{gap}\n931,2\n")
        ds = read_csv(path)
        assert np.array_equal(ds.x, [930.0, 931.0])
        assert np.array_equal(ds.y, [1.0, 2.0])

    # float() reads underscores between digits and any Unicode decimal digits.
    @pytest.mark.parametrize(
        "row, x, y", [("1_000,2", 1000.0, 2.0), ("1,2_5", 1.0, 25.0), ("\u0661,\u0662", 1.0, 2.0)]
    )
    def test_any_cell_float_reads_is_read_as_float_reads_it(self, tmp_path, row, x, y):
        path = tmp_path / "cells.csv"
        path.write_text(f"power_uw,intensity\n0.5,1\n{row}\n", encoding="utf-8")
        ds = read_csv(path)
        assert ds.x.tolist() == [0.5, x]
        assert ds.y.tolist() == [1.0, y]
