"""The command line as a user runs it: ``python -m cqed_scope`` in a fresh process.

Each row of ``ROWS`` edits a bundled config or writes a CSV into a temporary directory, runs
one command with ``CQED_SCOPE_OUT`` under that directory, and checks the real exit status,
the text on stderr and stdout, and the files the command must and must not write.  A new
console check is a new row.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import pytest

from cqed_scope.config import OUTPUT_ENV_VAR

REPO = Path(__file__).resolve().parent.parent
EXAMPLE = (REPO / "configs" / "example.ini").read_text()

SATURATION_CSV = "power_uw,intensity\n" + "".join(
    f"{p},{1000.0 * p / (1.0 + p)}\n" for p in (0.1, 0.3, 1.0, 3.0, 10.0, 30.0)
)
CHANNELS = "\n[channels]\ntransfer_qd_to_cavity_ghz = -3.0\ntransfer_cavity_to_qd_ghz = 1.5\n"


def edited(text: str, *edits: tuple[str, str]) -> str:
    """``text`` with each ``(pattern, replacement)`` applied line-wise; each must match."""
    for pattern, replacement in edits:
        text, count = re.subn(pattern, replacement, text, flags=re.M)
        assert count >= 1, pattern
    return text


def bad_table1(tmp: Path) -> None:
    """The bundled table1 configs under ``tmp/bad_table1``, S3 with a negative width."""
    shutil.copytree(REPO / "configs" / "table1", tmp / "bad_table1")
    s3 = tmp / "bad_table1" / "S3.ini"
    s3.write_text(edited(s3.read_text(), (r"^delta_omega_0_ghz = .*$", "delta_omega_0_ghz = -1")))


@dataclass(frozen=True)
class Row:
    """One command.  ``{tmp}`` in ``argv``, ``stderr`` and ``same_stdout_as`` is the temporary
    directory; ``files`` are written there first and ``setup`` is then called with it.

    ``stdout`` is the whole expected output, or ``None`` to leave it unchecked.  A row with
    ``same_stdout_as`` must print what that command prints.  Afterwards each ``written`` path
    must name a non-empty file under the temporary directory (``CQED_SCOPE_OUT`` is its
    ``out``), and ``unwritten`` globs must match no file there.
    """

    argv: tuple[str, ...]
    code: int
    stderr: str = ""
    stdout: str | None = None
    files: dict[str, str | bytes] = field(default_factory=dict)
    setup: Callable[[Path], None] | None = None
    same_stdout_as: tuple[str, ...] = ()
    written: tuple[str, ...] = ()
    unwritten: tuple[str, ...] = ("**/*.csv",)


ROWS = {
    # A non-numeric cell exits 2 naming the file and the line.
    "bad-cell": Row(
        argv=("fit", "saturation", "{tmp}/bad_cell.csv"),
        code=2,
        stderr="{tmp}/bad_cell.csv:4:",
        files={"bad_cell.csv": edited(SATURATION_CSV, (r"^1\.0,.*$", "1.0,abc"))},
        unwritten=(),
    ),
    # A negative transfer rate exits 2 naming its key.
    "negative-transfer-rate": Row(
        argv=("scan", "--config", "{tmp}/negative.ini"),
        code=2,
        stderr="transfer_qd_to_cavity_ghz",
        files={"negative.ini": EXAMPLE + CHANNELS},
    ),
    # The residual tolerance is the solver's, not a config key.
    "steady-residual-tol": Row(
        argv=("scan", "--config", "{tmp}/tolerance.ini"),
        code=2,
        stderr="steady_residual_tol",
        files={
            "tolerance.ini": edited(
                EXAMPLE, (r"^\[numerics\]$", "[numerics]\nsteady_residual_tol = 1e-8")
            )
        },
    ),
    # A rate that overflows once converted to rad/ns is rejected under the file's key.
    "g-overflow": Row(
        argv=("scan", "--config", "{tmp}/overflow.ini"),
        code=2,
        stderr="g_ghz",
        files={"overflow.ini": edited(EXAMPLE, (r"^g_ghz = .*$", "g_ghz = 1e308"))},
    ),
    # Drive values are range-checked when the config is parsed: analytic prints no line.
    "negative-rabi": Row(
        argv=("analytic", "--config", "{tmp}/rabi.ini"),
        code=2,
        stderr="rabi_ghz",
        stdout="",
        files={
            "rabi.ini": edited(
                EXAMPLE, (r"^alpha_per_uw = .*$", "rabi_ghz = -1"), (r"^power_uw = .*\n", "")
            )
        },
    ),
    # A Rabi drive with no power grid is a valid config, but power-sweep needs the grid.
    "no-power-grid": Row(
        argv=("power-sweep", "--config", "{tmp}/nogrid.ini"),
        code=2,
        stderr="{tmp}/nogrid.ini: no power grid configured",
        files={
            "nogrid.ini": edited(
                EXAMPLE, (r"^alpha_per_uw = .*$", "rabi_ghz = 5"), (r"^power_.*\n", "")
            )
        },
    ),
    # [reproduce] values are range-checked when the config is parsed, so a bad S3 stops
    # reproduce before S1 or S2 writes a CSV.
    "bad-table1": Row(
        argv=("reproduce", "--table", "table1", "--config-dir", "{tmp}/bad_table1"),
        code=2,
        stderr="delta_omega_0_ghz",
        setup=bad_table1,
    ),
    # A spreadsheet's "CSV UTF-8" export starts with a byte-order mark; it reads as without.
    "byte-order-mark": Row(
        argv=("fit", "saturation", "{tmp}/bom.csv"),
        code=0,
        files={"bom.csv": b"\xef\xbb\xbf" + SATURATION_CSV.encode(), "plain.csv": SATURATION_CSV},
        same_stdout_as=("fit", "saturation", "{tmp}/plain.csv"),
        unwritten=(),
    ),
    # CRLF line endings with a blank line after every row, as hand-edited files have, read the
    # same.
    "crlf-blank-lines": Row(
        argv=("fit", "saturation", "{tmp}/crlf.csv"),
        code=0,
        files={
            "crlf.csv": "".join(f"{line}\r\n\r\n" for line in SATURATION_CSV.splitlines()),
            "plain.csv": SATURATION_CSV,
        },
        same_stdout_as=("fit", "saturation", "{tmp}/plain.csv"),
        unwritten=(),
    ),
    # The dot-emission channel: a scan and a power sweep observing the dot write their CSVs.
    "scan-observe-qd": Row(
        argv=("scan", "--config", "configs/example.ini", "--observe", "qd",
              "--out", "{tmp}/qd_scan.csv"),
        code=0,
        written=("qd_scan.csv",),
        unwritten=(),
    ),
    "power-sweep-observe-qd": Row(
        argv=("power-sweep", "--config", "configs/example.ini", "--observe", "qd",
              "--saturation-out", "{tmp}/qd_saturation.csv",
              "--linewidths-out", "{tmp}/qd_linewidths.csv"),
        code=0,
        written=("qd_saturation.csv", "qd_linewidths.csv"),
        unwritten=(),
    ),
}


def run(argv, tmp: Path) -> subprocess.CompletedProcess:
    paths = [str(REPO / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    env[OUTPUT_ENV_VAR] = str(tmp / "out")
    return subprocess.run(
        [sys.executable, "-m", "cqed_scope", *(arg.format(tmp=tmp) for arg in argv)],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("row", ROWS.values(), ids=ROWS.keys())
def test_console_row(tmp_path, row):
    for name, content in row.files.items():
        if isinstance(content, str):
            content = content.encode()
        (tmp_path / name).write_bytes(content)
    if row.setup is not None:
        row.setup(tmp_path)
    proc = run(row.argv, tmp_path)
    assert proc.returncode == row.code, proc.stderr
    assert row.stderr.format(tmp=tmp_path) in proc.stderr
    if row.stdout is not None:
        assert proc.stdout == row.stdout
    if row.same_stdout_as:
        reference = run(row.same_stdout_as, tmp_path)
        assert reference.returncode == 0, reference.stderr
        assert proc.stdout == reference.stdout
    for name in row.written:
        assert (tmp_path / name).stat().st_size > 0, name
    for pattern in row.unwritten:
        assert list(tmp_path.glob(pattern)) == []
