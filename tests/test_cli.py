"""Command-line behaviour: reports, exit codes, artifacts, determinism."""

import argparse
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cqed_scope import lindblad
from cqed_scope.cli import main
from cqed_scope.config import OUTPUT_ENV_VAR, parse_config
from cqed_scope.dataset import ScanKind, SpectrumDataset, read_csv, write_csv
from cqed_scope.model import SystemParams
from cqed_scope.reproduce import (
    chained_fit_power_grid,
    excess_curve,
    linewidth_curve,
    saturation_curve,
    saturation_power_grid,
)
from cqed_scope.scan import synthesize_noisy

REPO = Path(__file__).resolve().parent.parent
CONFIG_DIR = REPO / "configs"

DETUNED_BASE = """\
[system]
qd_wavelength_nm = 931.0
cavity_wavelength_nm = 930.8
g_ghz = 10.0
kappa_ghz = 20.0
gamma_ghz = 0.5

[drive]
target = qd
rabi_ghz = 1.0
"""


def run_cli(capsys, argv):
    """Invoke the entry point in process and parse the key = value report."""
    rc = main(argv)
    captured = capsys.readouterr()
    report = {}
    for line in captured.out.splitlines():
        if " = " in line:
            key, _, value = line.partition(" = ")
            report[key] = value
    return rc, report, captured


def write_ini(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestAnalyticCommand:
    def test_resonant_matched_loss_splitting_is_twice_g(self, tmp_path, capsys):
        """With equal losses on resonance the branch separation is exactly 2g."""
        text = DETUNED_BASE.replace("cavity_wavelength_nm = 930.8", "cavity_wavelength_nm = 931.0")
        text = text.replace("g_ghz = 10.0", "g_ghz = 5.0")
        text = text.replace("kappa_ghz = 20.0", "kappa_ghz = 0.5")
        rc, report, _ = run_cli(capsys, ["analytic", "--config", str(write_ini(tmp_path, text))])
        assert rc == 0
        assert float(report["splitting_ghz"]) == pytest.approx(10.0, rel=1e-12)
        assert float(report["branch_upper_fwhm_ghz"]) == pytest.approx(1.0, rel=1e-12)
        assert float(report["branch_lower_fwhm_ghz"]) == pytest.approx(1.0, rel=1e-12)
        assert float(report["detuning_ghz"]) == 0.0

    def test_detuned_row_reports_wavelength_detuning(self, capsys):
        rc, report, _ = run_cli(
            capsys, ["analytic", "--config", str(CONFIG_DIR / "table1" / "S1.ini")]
        )
        assert rc == 0
        system = SystemParams.from_ghz_and_nm(
            g_ghz=1.0,
            kappa_ghz=1.0,
            gamma_ghz=1.0,
            qd_wavelength_nm=934.15,
            cavity_wavelength_nm=934.8,
        )
        expected_ghz = system.detuning / (2.0 * np.pi)
        # The report is printed at 10 significant digits.
        assert float(report["detuning_ghz"]) == pytest.approx(expected_ghz, rel=1e-9)
        # The feeding estimate lands on this row's quoted theory value.
        assert float(report["feeding_estimate_ghz"]) == pytest.approx(1.3, rel=0.01)

    def test_rabi_drive_reports_saturation_parameter(self, tmp_path, capsys):
        rc, report, _ = run_cli(
            capsys, ["analytic", "--config", str(write_ini(tmp_path, DETUNED_BASE))]
        )
        assert rc == 0
        # Omega = 2 pi * 1 rad/ns against gamma = 2 pi * 0.5: p_tilde = 2.
        assert float(report["p_tilde"]) == pytest.approx(2.0, rel=1e-12)
        assert float(report["power_broadened_fwhm_ghz"]) == pytest.approx(
            np.sqrt(3.0), rel=1e-9
        )

    @pytest.mark.parametrize("key", ["transfer_qd_to_cavity_ghz", "transfer_cavity_to_qd_ghz"])
    def test_transfer_rates_are_noted_as_left_out(self, tmp_path, capsys, key):
        # The closed forms have no term for the one-way transfer channels, so a report on a
        # config that sets one says so; without one the report is unchanged.
        base = (CONFIG_DIR / "example.ini").read_text()
        rc, plain, captured = run_cli(
            capsys, ["analytic", "--config", str(write_ini(tmp_path, base, "plain.ini"))]
        )
        assert rc == 0
        assert "note" not in plain
        text = base + f"\n[channels]\n{key} = 50\n"
        rc, report, noted = run_cli(
            capsys, ["analytic", "--config", str(write_ini(tmp_path, text, "transfer.ini"))]
        )
        assert rc == 0
        note = "note = closed forms leave out the [channels] transfer rates\n"
        assert noted.out == captured.out + note


class TestExitCodes:
    def test_unknown_key_names_typo(self, tmp_path, capsys):
        text = DETUNED_BASE.replace("kappa_ghz", "kapa_ghz")
        rc, _, captured = run_cli(capsys, ["analytic", "--config", str(write_ini(tmp_path, text))])
        assert rc == 2
        assert "kapa_ghz" in captured.err

    def test_missing_config_file(self, tmp_path, capsys):
        rc, _, captured = run_cli(capsys, ["scan", "--config", str(tmp_path / "none.ini")])
        assert rc == 2
        assert "not found" in captured.err

    def test_missing_fit_csv(self, tmp_path, capsys):
        rc, _, captured = run_cli(capsys, ["fit", "lorentzian", str(tmp_path / "none.csv")])
        assert rc == 2
        assert "not found" in captured.err and "none.csv" in captured.err

    def test_invalid_observe_choice_is_an_argparse_error(self, tmp_path):
        path = write_ini(tmp_path, DETUNED_BASE)
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--config", str(path), "--observe", "laser"])
        assert exc.value.code == 2

    def test_boundary_peak_fit_exits_3(self, tmp_path, capsys):
        x = np.linspace(930.0, 931.0, 50)
        ramp = SpectrumDataset(
            kind=ScanKind.LASER_WAVELENGTH,
            x=x,
            y=np.linspace(0.0, 1.0, 50),
            x_unit="nm",
            y_unit="intensity",
        )
        path = tmp_path / "ramp.csv"
        write_csv(ramp, path)
        rc, _, captured = run_cli(capsys, ["fit", "lorentzian", str(path)])
        assert rc == 3
        assert "boundary" in captured.err

    def test_degenerate_power_grid_rejected(self, tmp_path, capsys):
        text = DETUNED_BASE.replace(
            "rabi_ghz = 1.0",
            "alpha_per_uw = 0.5\npower_min_uw = 0.0\npower_max_uw = 0.0\npower_points = 5",
        )
        rc, _, captured = run_cli(
            capsys, ["power-sweep", "--config", str(write_ini(tmp_path, text))]
        )
        assert rc == 2
        assert "0 <= min < max" in captured.err

    def test_sweep_without_a_power_grid_names_the_config(self, tmp_path, capsys):
        # A Rabi drive needs no power grid, so only power-sweep finds it missing.
        text = (CONFIG_DIR / "example.ini").read_text()
        text = re.sub(r"^alpha_per_uw = .*$", "rabi_ghz = 5", text, flags=re.M)
        text = re.sub(r"^power_\w+ = .*\n", "", text, flags=re.M)
        path = write_ini(tmp_path, text)
        rc, _, captured = run_cli(capsys, ["power-sweep", "--config", str(path)])
        assert rc == 2
        assert f"{path}: no power grid configured" in captured.err
        assert captured.out == ""

    def test_unreachable_residual_tolerance_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(lindblad, "STEADY_RESIDUAL_TOL", 1e-30)
        text = DETUNED_BASE + "\n[numerics]\nfock_cutoff = 1\n"
        rc, _, captured = run_cli(
            capsys,
            ["scan", "--config", str(write_ini(tmp_path, text)), "--out", str(tmp_path / "s.csv")],
        )
        assert rc == 3
        assert "residual" in captured.err

    def test_residual_tolerance_is_not_a_config_key(self, tmp_path, capsys):
        # The residual guard belongs to the solver; a config may not loosen it.
        text = DETUNED_BASE + "\n[numerics]\nsteady_residual_tol = 1e-8\n"
        rc, _, captured = run_cli(capsys, ["scan", "--config", str(write_ini(tmp_path, text))])
        assert rc == 2
        assert "unknown key(s) in [numerics]: steady_residual_tol" in captured.err

    @pytest.mark.parametrize(
        "command, key, edits",
        [
            ("analytic", "power_max_uw", [("power_max_uw = 8.0", "power_max_uw = inf")]),
            (
                "scan",
                "power_uw",
                [("target = qd", "target = cavity"), ("power_uw = 0.2", "power_uw = nan")],
            ),
            (
                "scan",
                "transfer_qd_to_cavity_ghz",
                [("[output]", "[channels]\ntransfer_qd_to_cavity_ghz = inf\n\n[output]")],
            ),
        ],
        ids=["analytic-power_max_uw", "scan-power_uw", "scan-transfer_qd_to_cavity_ghz"],
    )
    def test_nonfinite_number_exits_2_naming_the_key(self, tmp_path, capsys, command, key, edits):
        text = (CONFIG_DIR / "example.ini").read_text()
        for old, new in edits:
            text = text.replace(old, new)
        path = write_ini(tmp_path, text)
        argv = [command, "--config", str(path)]
        if command == "scan":
            argv += ["--out", str(tmp_path / "s.csv")]
        rc, report, captured = run_cli(capsys, argv)
        assert rc == 2
        assert f"{path}: {key} must be finite" in captured.err
        assert report == {}

    @pytest.mark.parametrize(
        "command, key, edits",
        [
            (
                "analytic",
                "rabi_ghz",
                [("alpha_per_uw = 0.5", "rabi_ghz = -1"), ("power_uw = 0.2\n", "")],
            ),
            ("analytic", "alpha_per_uw", [("alpha_per_uw = 0.5", "alpha_per_uw = -1")]),
            ("analytic", "power_uw", [("power_uw = 0.2", "power_uw = -1")]),
            ("power-sweep", "power_uw", [("power_uw = 0.2", "power_uw = -1")]),
        ],
        ids=["analytic-rabi_ghz", "analytic-alpha_per_uw", "analytic-power_uw", "sweep-power_uw"],
    )
    def test_out_of_range_drive_value_exits_2_before_any_output(
        self, tmp_path, capsys, monkeypatch, command, key, edits
    ):
        text = (CONFIG_DIR / "example.ini").read_text()
        for old, new in edits:
            assert old in text
            text = text.replace(old, new)
        path = write_ini(tmp_path, text)
        monkeypatch.setenv(OUTPUT_ENV_VAR, str(tmp_path / "out"))
        rc, _, captured = run_cli(capsys, [command, "--config", str(path)])
        assert rc == 2
        assert f"{path}: {key} must be finite and" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    TABLE1_KEYS = "[reproduce] needs delta_omega_c_ghz and delta_omega_0_ghz"
    TABLE2_KEYS = "[reproduce] needs intrinsic_fwhm_ghz and excess_slope_ghz_per_uw"

    @pytest.mark.parametrize(
        "table, name, line, replacement, fault",
        [
            (
                "table1",
                "S3",
                "delta_omega_0_ghz",
                "delta_omega_0_ghz = -1",
                "delta_omega_0_ghz must be finite and",
            ),
            (
                "table1",
                "S3",
                "delta_omega_c_ghz",
                "delta_omega_c_ghz = -1",
                "delta_omega_c_ghz must be finite and",
            ),
            (
                "table2",
                "S4",
                "intrinsic_fwhm_ghz",
                "intrinsic_fwhm_ghz = -1",
                "intrinsic_fwhm_ghz must be finite and",
            ),
            (
                "table2",
                "S4",
                "excess_slope_ghz_per_uw",
                "excess_slope_ghz_per_uw = -0.5",
                "excess_slope_ghz_per_uw must be finite and",
            ),
            # An empty replacement deletes the line: a row's required key is checked up front.
            ("table1", "S3", "delta_omega_0_ghz", "", TABLE1_KEYS),
            ("table1", "S3", "delta_omega_c_ghz", "", TABLE1_KEYS),
            ("table1", "S3", "alpha_per_uw", "rabi_ghz = 1", "[reproduce] runs need drive alpha_per_uw"),
            ("table2", "S4", "intrinsic_fwhm_ghz", "", TABLE2_KEYS),
            ("table2", "S4", "excess_slope_ghz_per_uw", "", TABLE2_KEYS),
            ("table2", "S4", r"power_\w+", "", "[reproduce] for table2 needs a drive power grid"),
        ],
        ids=[
            "table1-S3-delta_omega_0_ghz--1",
            "table1-S3-delta_omega_c_ghz--1",
            "table2-S4-intrinsic_fwhm_ghz--1",
            "table2-S4-excess_slope_ghz_per_uw--0.5",
            "table1-S3-no-delta_omega_0_ghz",
            "table1-S3-no-delta_omega_c_ghz",
            "table1-S3-no-alpha_per_uw",
            "table2-S4-no-intrinsic_fwhm_ghz",
            "table2-S4-no-excess_slope_ghz_per_uw",
            "table2-S4-no-power-grid",
        ],
    )
    def test_reproduce_checks_every_config_before_writing(
        self, tmp_path, capsys, monkeypatch, table, name, line, replacement, fault
    ):
        # The bad config is the table's last, so every earlier row would have
        # printed and written its CSVs had the configs not all been checked first.
        config_dir = tmp_path / table
        shutil.copytree(CONFIG_DIR / table, config_dir)
        bad = config_dir / f"{name}.ini"
        text, count = re.subn(
            rf"^{line} = .*\n", replacement and replacement + "\n", bad.read_text(), flags=re.M
        )
        assert count >= 1
        bad.write_text(text)
        monkeypatch.setenv(OUTPUT_ENV_VAR, str(tmp_path / "out"))
        rc, _, captured = run_cli(
            capsys, ["reproduce", "--table", table, "--config-dir", str(config_dir)]
        )
        assert rc == 2
        assert f"{bad}: {fault}" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_reproduce_missing_configs_enumerated(self, tmp_path, capsys):
        rc, _, captured = run_cli(
            capsys, ["reproduce", "--table", "table1", "--config-dir", str(tmp_path)]
        )
        assert rc == 2
        assert "missing config file(s)" in captured.err
        assert "S1.ini" in captured.err

    def test_power_broadening_fit_requires_alpha(self, tmp_path, capsys):
        data = SpectrumDataset(
            kind=ScanKind.POWER_SWEEP,
            x=np.linspace(0.1, 5.0, 9),
            y=np.full(9, 4.0),
            x_unit="uW",
            y_unit="fwhm_ghz",
        )
        path = tmp_path / "widths.csv"
        write_csv(data, path)
        rc, _, captured = run_cli(capsys, ["fit", "power-broadening", str(path)])
        assert rc == 2
        assert "--alpha" in captured.err

    @pytest.mark.parametrize("alpha", ["inf", "nan", "0", "-1"])
    def test_power_broadening_fit_rejects_unusable_alpha(self, tmp_path, capsys, alpha):
        data = SpectrumDataset(
            kind=ScanKind.POWER_SWEEP,
            x=np.linspace(0.1, 5.0, 9),
            y=np.full(9, 4.0),
            x_unit="uW",
            y_unit="fwhm_ghz",
        )
        path = tmp_path / "widths.csv"
        write_csv(data, path)
        rc, report, captured = run_cli(
            capsys, ["fit", "power-broadening", str(path), f"--alpha={alpha}"]
        )
        assert rc == 2
        assert "--alpha" in captured.err
        assert report == {}

    def test_unusable_scan_output_exits_2_before_solving(self, tmp_path, capsys, monkeypatch):
        def must_not_scan(*args, **kwargs):
            pytest.fail("the scan ran before its output path was resolved")

        monkeypatch.setattr("cqed_scope.cli.scan_laser", must_not_scan)
        (tmp_path / "afile").write_text("")
        rc, _, captured = run_cli(
            capsys,
            [
                "scan",
                "--config",
                str(CONFIG_DIR / "example.ini"),
                "--out",
                str(tmp_path / "afile" / "x.csv"),
            ],
        )
        assert rc == 2
        assert "afile" in captured.err

    def test_unusable_sweep_output_exits_2_before_writing(self, tmp_path, capsys):
        (tmp_path / "afile").write_text("")
        rc, _, captured = run_cli(
            capsys,
            [
                "power-sweep",
                "--config",
                str(CONFIG_DIR / "example.ini"),
                "--saturation-out",
                str(tmp_path / "sat.csv"),
                "--linewidths-out",
                str(tmp_path / "afile" / "lw.csv"),
            ],
        )
        assert rc == 2
        assert "afile" in captured.err
        assert not (tmp_path / "sat.csv").exists()

    def test_reproduce_into_a_file_exits_2(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "afile").write_text("")
        monkeypatch.setenv(OUTPUT_ENV_VAR, str(tmp_path / "afile"))
        rc, _, captured = run_cli(capsys, ["reproduce", "--table", "table2"])
        assert rc == 2
        assert "afile" in captured.err

    @staticmethod
    def table1_into(tmp_path, directories):
        """A copy of the table1 configs whose rows write to ``directories``, in row order."""
        config_dir = tmp_path / "table1"
        shutil.copytree(CONFIG_DIR / "table1", config_dir)
        for name, directory in zip(("S1", "S2", "S3"), directories):
            path = config_dir / f"{name}.ini"
            path.write_text(path.read_text().replace("directory = out", f"directory = {directory}"))
        return config_dir

    def test_reproduce_makes_every_directory_before_writing(self, tmp_path, capsys, monkeypatch):
        # The second row's directory cannot be made; the first row's CSVs must not be written.
        config_dir = self.table1_into(tmp_path, ["good", "blocker/sub", "good"])
        (tmp_path / "blocker").write_text("")
        monkeypatch.delenv(OUTPUT_ENV_VAR, raising=False)
        monkeypatch.chdir(tmp_path)
        rc, _, captured = run_cli(
            capsys, ["reproduce", "--table", "table1", "--config-dir", str(config_dir)]
        )
        assert rc == 2
        assert "blocker/sub" in captured.err
        assert captured.out == ""
        assert list(tmp_path.rglob("*.csv")) == []

    def test_reproduce_writes_each_row_into_its_own_directory(self, tmp_path, capsys, monkeypatch):
        config_dir = self.table1_into(tmp_path, ["first", "second/nested", "first"])
        monkeypatch.delenv(OUTPUT_ENV_VAR, raising=False)
        monkeypatch.chdir(tmp_path)
        rc, _, captured = run_cli(
            capsys, ["reproduce", "--table", "table1", "--config-dir", str(config_dir)]
        )
        assert rc == 0, captured.err
        written = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*.csv"))
        assert written == [
            f"{directory}/table1_{label}_{kind}.csv"
            for directory, label in (("first", "S1"), ("first", "S3"), ("second/nested", "S2"))
            for kind in ("linewidths", "saturation")
        ]

    @pytest.mark.parametrize(
        "name, label, fault",
        [
            ("S3", "S3/x", "[reproduce] label 'S3/x' holds a path separator"),
            ("S2", "S1", "[reproduce] label 'S1' writes over the CSVs of {S1}"),
        ],
        ids=["separator", "shared"],
    )
    def test_reproduce_rejects_a_label_before_any_row_runs(
        self, tmp_path, capsys, monkeypatch, name, label, fault
    ):
        # A row writes <directory>/table1_<label>_<kind>.csv, so its label must name a file of
        # that directory, and one no earlier row writes.
        config_dir = tmp_path / "table1"
        shutil.copytree(CONFIG_DIR / "table1", config_dir)
        path = config_dir / f"{name}.ini"
        text, count = re.subn(r"^label = .*$", f"label = {label}", path.read_text(), flags=re.M)
        assert count == 1
        path.write_text(text)
        monkeypatch.setenv(OUTPUT_ENV_VAR, str(tmp_path / "out"))
        rc, _, captured = run_cli(
            capsys, ["reproduce", "--table", "table1", "--config-dir", str(config_dir)]
        )
        assert rc == 2
        assert f"{path}: {fault.format(S1=config_dir / 'S1.ini')}" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out").exists()
        assert list(tmp_path.rglob("*.csv")) == []

    @pytest.mark.parametrize(
        "model, y_unit, expected",
        [
            ("lorentzian", "intensity", "wavelength_nm,intensity"),
            ("saturation", "fwhm_ghz", "power_uw,intensity"),
            ("power-broadening", "intensity", "power_uw,fwhm_ghz"),
        ],
    )
    def test_fit_rejects_a_csv_of_another_model(self, tmp_path, capsys, model, y_unit, expected):
        data = SpectrumDataset(
            ScanKind.POWER_SWEEP, np.linspace(0.1, 5.0, 9), np.linspace(1.0, 3.0, 9), "uW", y_unit
        )
        path = tmp_path / "series.csv"
        write_csv(data, path)
        argv = ["fit", model, str(path)] + (["--alpha", "1"] if model == "power-broadening" else [])
        rc, report, captured = run_cli(capsys, argv)
        assert rc == 2
        assert report == {}
        assert "series.csv" in captured.err
        assert data.header in captured.err and expected in captured.err

    def test_linear_fit_takes_any_header(self, tmp_path, capsys):
        data = SpectrumDataset(
            ScanKind.POWER_SWEEP, np.linspace(0.1, 5.0, 9), np.linspace(1.0, 3.0, 9), "uW", "intensity"
        )
        path = tmp_path / "series.csv"
        write_csv(data, path)
        rc, report, _ = run_cli(capsys, ["fit", "linear", str(path)])
        assert rc == 0
        assert float(report["slope"]) == pytest.approx(2.0 / 4.9, rel=1e-9)

    @pytest.mark.parametrize("model", ["lorentzian", "saturation", "linear"])
    def test_alpha_only_with_power_broadening(self, tmp_path, capsys, model):
        x = np.linspace(930.85, 931.15, 101)
        data = SpectrumDataset(
            ScanKind.LASER_WAVELENGTH, x, 0.8 / (1.0 + ((x - 931.0) / 0.025) ** 2), "nm", "intensity"
        )
        path = tmp_path / "line.csv"
        write_csv(data, path)
        rc, report, captured = run_cli(capsys, ["fit", model, str(path), "--alpha", "5"])
        assert rc == 2
        assert report == {}
        assert "--alpha" in captured.err

    @pytest.mark.parametrize(
        "text, fault",
        [
            (b"power_uw,fwhm_ghz\n1,2\n2,3\n3,4\n", "at least 5 samples, got 3"),
            (b"power_uw,fwhm_ghz\n1,2\n2,x\n", "non-numeric cell"),
            (b"power_uw,fwhm_ghz\n2,2\n1,3\n", "strictly increasing"),
            (b"power_uw,fwhm_ghz\n1,\xff\n", "not UTF-8"),
        ],
    )
    def test_fit_data_faults_name_the_csv(self, tmp_path, capsys, text, fault):
        path = tmp_path / "data.csv"
        path.write_bytes(text)
        rc, report, captured = run_cli(capsys, ["fit", "power-broadening", str(path), "--alpha", "1"])
        assert rc == 2
        assert report == {}
        assert "data.csv" in captured.err and fault in captured.err
        assert "invalid configuration" not in captured.err

    def test_fit_lets_a_programming_error_through(self, tmp_path, capsys, monkeypatch):
        def broken(data):
            raise TypeError("bug")

        monkeypatch.setattr("cqed_scope.cli.fit_linear", broken)
        path = tmp_path / "line.csv"
        path.write_text("power_uw,fwhm_ghz\n1,2\n2,3\n")
        with pytest.raises(TypeError, match="bug"):
            main(["fit", "linear", str(path)])


class TestScanCommand:
    def test_example_scan_report_and_artifact(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(OUTPUT_ENV_VAR, str(tmp_path))
        rc, report, _ = run_cli(capsys, ["scan", "--config", str(CONFIG_DIR / "example.ini")])
        assert rc == 0
        assert report["points"] == "201"
        assert report["converged"] == "True"
        csv_path = Path(report["csv"])
        assert csv_path == tmp_path / "example_scan.csv"
        data = read_csv(csv_path)
        assert len(data) == 201
        # Deterministic pipeline output, frozen as a regression value.
        assert float(report["fwhm_ghz"]) == pytest.approx(4.779403224, rel=1e-4)
        # Physical sanity: dispersive dot width plus power broadening at
        # p_tilde = 0.1 predicts 5.03 GHz; the exact line is a bit narrower
        # at this moderate detuning ratio.
        assert float(report["fwhm_ghz"]) == pytest.approx(5.03, rel=0.1)
        # The CSV fits back to the line the scan reported.
        rc, fit_report, _ = run_cli(capsys, ["fit", "lorentzian", str(csv_path)])
        assert rc == 0
        assert fit_report["converged"] == "True"
        assert fit_report.items() <= report.items()

    def test_cavity_target_scan_fits_the_cavity_branch(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(OUTPUT_ENV_VAR, str(tmp_path))
        rc, report, _ = run_cli(
            capsys, ["scan", "--config", str(CONFIG_DIR / "example.ini"), "--target", "cavity"]
        )
        assert rc == 0
        assert report["points"] == "201"
        assert report["converged"] == "True"
        assert len(read_csv(tmp_path / "example_scan.csv")) == 201
        # `analytic` puts the cavity-like branch at 39.28 GHz full width.
        assert float(report["fwhm_ghz"]) == pytest.approx(39.28, rel=0.03)

    def test_transfer_channel_width_matches_closed_form(self, tmp_path, capsys):
        """g = 0 with one-way transfer eta: width is 2*gamma + 2*gamma_d + eta."""
        text = """\
[system]
qd_wavelength_nm = 931.0
cavity_wavelength_nm = 930.8
g_ghz = 0.0
kappa_ghz = 2.0
gamma_ghz = 0.5

[drive]
target = qd
rabi_ghz = 0.01

[channels]
transfer_qd_to_cavity_ghz = 1.0

[numerics]
fock_cutoff = 2
"""
        path = write_ini(tmp_path, text)
        rc, report, _ = run_cli(
            capsys, ["scan", "--config", str(path), "--out", str(tmp_path / "ch.csv")]
        )
        assert rc == 0
        assert float(report["fwhm_ghz"]) == pytest.approx(2.0, rel=0.01)

    def test_out_override_creates_missing_directories(self, tmp_path, capsys):
        out = tmp_path / "new" / "dir" / "scan.csv"
        rc, report, _ = run_cli(
            capsys, ["scan", "--config", str(CONFIG_DIR / "example.ini"), "--out", str(out)]
        )
        assert rc == 0
        assert Path(report["csv"]) == out
        assert len(read_csv(out)) == 201

    def test_scan_rerun_is_byte_identical(self, tmp_path, capsys):
        """Same config, two runs: identical CSV bytes."""
        first = tmp_path / "one.csv"
        second = tmp_path / "two.csv"
        for out in (first, second):
            rc, _, _ = run_cli(
                capsys,
                ["scan", "--config", str(CONFIG_DIR / "example.ini"), "--out", str(out)],
            )
            assert rc == 0
        assert first.read_bytes() == second.read_bytes()


class TestFitCommand:
    def test_lorentzian_round_trip(self, tmp_path, capsys):
        x = np.linspace(930.85, 931.15, 101)
        width = 0.05
        y = 0.8 * (width / 2.0) ** 2 / ((x - 931.0) ** 2 + (width / 2.0) ** 2) + 0.02
        path = tmp_path / "line.csv"
        write_csv(
            SpectrumDataset(ScanKind.LASER_WAVELENGTH, x, y, "nm", "intensity"), path
        )
        rc, report, _ = run_cli(capsys, ["fit", "lorentzian", str(path)])
        assert rc == 0
        assert report["model"] == "lorentzian"
        assert float(report["amplitude"]) == pytest.approx(0.8, rel=1e-6)
        assert float(report["center"]) == pytest.approx(931.0, abs=1e-8)
        assert float(report["fwhm"]) == pytest.approx(0.05, rel=1e-6)
        assert float(report["baseline"]) == pytest.approx(0.02, rel=1e-6)

    def test_saturation_round_trip(self, tmp_path, capsys):
        powers = np.geomspace(0.1, 50.0, 20)
        y = 1000.0 * (0.2 * powers) / (1.0 + 0.2 * powers)
        path = tmp_path / "sat.csv"
        write_csv(SpectrumDataset(ScanKind.POWER_SWEEP, powers, y, "uW", "intensity"), path)
        rc, report, _ = run_cli(capsys, ["fit", "saturation", str(path)])
        assert rc == 0
        assert float(report["i_sat"]) == pytest.approx(1000.0, rel=1e-6)
        assert float(report["alpha_per_uw"]) == pytest.approx(0.2, rel=1e-6)

    def test_power_broadening_with_frozen_alpha(self, tmp_path, capsys):
        powers = np.geomspace(0.1, 200.0, 25)
        y = 12.6 + 1.96 * np.sqrt(1.0 + 0.2 * powers)
        path = tmp_path / "width.csv"
        write_csv(SpectrumDataset(ScanKind.POWER_SWEEP, powers, y, "uW", "fwhm_ghz"), path)
        rc, report, _ = run_cli(
            capsys, ["fit", "power-broadening", str(path), "--alpha", "0.2"]
        )
        assert rc == 0
        assert float(report["delta_omega_c_ghz"]) == pytest.approx(12.6, rel=1e-6)
        assert float(report["delta_omega_0_ghz"]) == pytest.approx(1.96, rel=1e-6)

    def test_linear_round_trip(self, tmp_path, capsys):
        powers = np.linspace(0.5, 25.0, 40)
        path = tmp_path / "line.csv"
        write_csv(
            SpectrumDataset(ScanKind.POWER_SWEEP, powers, 0.5 * powers + 0.1, "uW", "fwhm_ghz"),
            path,
        )
        rc, report, _ = run_cli(capsys, ["fit", "linear", str(path)])
        assert rc == 0
        assert float(report["slope"]) == pytest.approx(0.5, rel=1e-12)
        assert float(report["intercept"]) == pytest.approx(0.1, rel=1e-9)


    def test_saturation_csv_with_a_byte_order_mark(self, tmp_path, capsys, monkeypatch):
        # A spreadsheet's "CSV UTF-8" export starts the file with EF BB BF.
        monkeypatch.setenv(OUTPUT_ENV_VAR, str(tmp_path))
        assert run_cli(capsys, ["reproduce", "--table", "table1"])[0] == 0
        plain = tmp_path / "table1_S1_saturation.csv"
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        want, got = read_csv(plain), read_csv(marked)
        assert got.header == want.header == "power_uw,intensity"
        assert got.x.tobytes() == want.x.tobytes()
        assert got.y.tobytes() == want.y.tobytes()
        assert run_cli(capsys, ["fit", "saturation", str(marked)]) == run_cli(
            capsys, ["fit", "saturation", str(plain)]
        )

    def test_saturation_rejects_negative_powers(self, tmp_path, capsys):
        path = tmp_path / "sat.csv"
        path.write_text("power_uw,intensity\n-1,1.5\n0,0\n0.5,1\n2,2\n3,2.25\n7,2.625\n")
        rc, report, captured = run_cli(capsys, ["fit", "saturation", str(path)])
        assert rc == 2
        assert report == {}
        assert "sat.csv" in captured.err
        assert "saturation fit needs powers >= 0" in captured.err

    def test_saturation_of_a_straight_line_is_under_determined(self, tmp_path, capsys):
        path = tmp_path / "line.csv"
        path.write_text("power_uw,intensity\n1,2\n2,4\n3,6\n4,8\n5,10\n")
        rc, report, _ = run_cli(capsys, ["fit", "saturation", str(path)])
        assert rc == 0
        assert report["note"] == "alpha under-determined; data never saturates"
        assert report["alpha_per_uw_sigma"] == "inf"

    def test_linear_fit_of_two_rows_claims_no_precision(self, tmp_path, capsys):
        path = tmp_path / "two.csv"
        path.write_text("power_uw,fwhm_ghz\n1,2\n2,3\n")
        rc, report, _ = run_cli(capsys, ["fit", "linear", str(path)])
        assert rc == 0
        assert float(report["slope"]) == 1.0
        assert report["slope_sigma"] == "inf"
        assert report["intercept_sigma"] == "inf"

class TestPowerSweepCommand:
    BARE_DOT = """\
[system]
qd_wavelength_nm = 931.0
cavity_wavelength_nm = 930.8
g_ghz = 0.0
kappa_ghz = 2.0
gamma_ghz = 0.5

[drive]
target = qd
alpha_per_uw = 0.5
power_min_uw = 0.05
power_max_uw = 8.0
power_points = 6
power_scale = log

[numerics]
fock_cutoff = 1
scan_points = 61
workers = 2
"""

    def test_bare_dot_sweep_calibrates_alpha(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(OUTPUT_ENV_VAR, str(tmp_path))
        path = write_ini(tmp_path, self.BARE_DOT)
        rc, report, _ = run_cli(
            capsys, ["power-sweep", "--config", str(path), "--observe", "qd"]
        )
        assert rc == 0
        assert report["alpha_reliable"] == "yes"
        assert float(report["saturation.alpha_per_uw"]) == pytest.approx(0.5, rel=1e-3)
        # Bare dot: no power-independent term, intrinsic full width 1 GHz.
        assert float(report["linewidth.delta_omega_0_ghz"]) == pytest.approx(1.0, rel=1e-2)
        assert float(report["linewidth.delta_omega_c_ghz"]) == pytest.approx(0.0, abs=0.05)
        # No [output] section: default names under the output directory.
        sat_path, lw_path = Path(report["saturation_csv"]), Path(report["linewidth_csv"])
        assert sat_path == tmp_path / "cqed_saturation.csv"
        assert lw_path == tmp_path / "cqed_linewidths.csv"
        assert len(read_csv(sat_path)) == 6 and len(read_csv(lw_path)) == 6

    def test_sweep_rerun_is_byte_identical(self, tmp_path, capsys, monkeypatch):
        path = write_ini(tmp_path, self.BARE_DOT)
        outputs = []
        for tag in ("a", "b"):
            sat_out = tmp_path / f"sat_{tag}.csv"
            lw_out = tmp_path / f"lw_{tag}.csv"
            rc, _, _ = run_cli(
                capsys,
                [
                    "power-sweep",
                    "--config",
                    str(path),
                    "--observe",
                    "qd",
                    "--saturation-out",
                    str(sat_out),
                    "--linewidths-out",
                    str(lw_out),
                ],
            )
            assert rc == 0
            outputs.append((sat_out.read_bytes(), lw_out.read_bytes()))
        assert outputs[0] == outputs[1]


    @pytest.mark.parametrize(
        "setting", ["scan_points = 201", "scan_points = 101", "scan_span_fwhm = 3.0"]
    )
    def test_sweep_honours_the_scan_grid_keys(self, tmp_path, capsys, setting):
        # Each scan of the sweep uses the configured grid: fewer points or a
        # narrower window than the defaults changes the fitted series.
        text = (CONFIG_DIR / "example.ini").read_text()
        key = setting.partition(" = ")[0]
        default = next(line for line in text.splitlines() if line.startswith(key))
        outputs = {}
        for label, ini in (("default", text), ("changed", text.replace(default, setting))):
            sat_out, lw_out = tmp_path / f"sat_{label}.csv", tmp_path / f"lw_{label}.csv"
            argv = ["power-sweep", "--config", str(write_ini(tmp_path, ini, f"{label}.ini")),
                    "--saturation-out", str(sat_out), "--linewidths-out", str(lw_out)]
            rc, _, captured = run_cli(capsys, argv)
            assert rc == 0, captured.err
            outputs[label] = (sat_out.read_bytes(), lw_out.read_bytes())
        if setting == default:
            assert outputs["changed"] == outputs["default"]
        else:
            assert outputs["changed"][1] != outputs["default"][1]


class TestReproduceCommand:
    def test_table1_rows_recover_truth(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(OUTPUT_ENV_VAR, str(tmp_path))
        rc, report, _ = run_cli(
            capsys,
            ["reproduce", "--table", "table1", "--config-dir", str(CONFIG_DIR / "table1")],
        )
        assert rc == 0
        for label in ("S1", "S2", "S3"):
            assert report[f"{label}.alpha_reliable"] == "yes"
            true_c = float(report[f"{label}.delta_omega_c_true_ghz"])
            true_0 = float(report[f"{label}.delta_omega_0_true_ghz"])
            assert float(report[f"{label}.delta_omega_c_fit_ghz"]) == pytest.approx(
                true_c, rel=0.05
            )
            assert float(report[f"{label}.delta_omega_0_fit_ghz"]) == pytest.approx(
                true_0, rel=0.05
            )
            assert float(report[f"{label}.feeding_estimate_ghz"]) == pytest.approx(
                float(report[f"{label}.reference_theory_ghz"]), rel=0.01
            )
            assert (tmp_path / f"table1_{label}_saturation.csv").is_file()
            assert (tmp_path / f"table1_{label}_linewidths.csv").is_file()
        # Each calibration CSV refits within 9 steps: the log-spaced grid ends at 200 / alpha,
        # so beta = 200/201, which one log-odds step from beta = 1/2 nearly reaches.  Each
        # linewidth CSV fits with its config's alpha frozen.
        for label in ("S1", "S2", "S3"):
            saturation = tmp_path / f"table1_{label}_saturation.csv"
            rc, fit_report, _ = run_cli(capsys, ["fit", "saturation", str(saturation)])
            assert rc == 0
            assert fit_report["converged"] == "True"
            assert int(fit_report["iterations"]) <= 9
            alpha = parse_config(CONFIG_DIR / "table1" / f"{label}.ini").alpha_per_uw
            linewidths = tmp_path / f"table1_{label}_linewidths.csv"
            argv = ["fit", "power-broadening", str(linewidths), "--alpha", repr(alpha)]
            rc, fit_report, _ = run_cli(capsys, argv)
            assert rc == 0
            assert fit_report["converged"] == "True"

    def test_table1_dot_on_the_cavity_omits_the_feeding_estimate(
        self, tmp_path, capsys, monkeypatch
    ):
        # The feeding estimate is undefined at zero detuning; ``analytic`` omits it too.
        config_dir = tmp_path / "table1"
        shutil.copytree(CONFIG_DIR / "table1", config_dir)
        s1 = config_dir / "S1.ini"
        s1.write_text(s1.read_text().replace("qd_wavelength_nm = 934.15", "qd_wavelength_nm = 934.8"))
        monkeypatch.setenv(OUTPUT_ENV_VAR, str(tmp_path / "out"))
        rc, report, captured = run_cli(
            capsys, ["reproduce", "--table", "table1", "--config-dir", str(config_dir)]
        )
        assert rc == 0, captured.err
        assert report["S1.alpha_reliable"] == "yes"
        assert "S1.feeding_estimate_ghz" not in report
        assert "S2.feeding_estimate_ghz" in report and "S3.feeding_estimate_ghz" in report

    def test_table2_rows_recover_slope(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(OUTPUT_ENV_VAR, str(tmp_path))
        rc, report, _ = run_cli(
            capsys,
            ["reproduce", "--table", "table2", "--config-dir", str(CONFIG_DIR / "table2")],
        )
        assert rc == 0
        for label in ("S2", "S4"):
            true_slope = float(report[f"{label}.excess_slope_true_ghz_per_uw"])
            assert float(report[f"{label}.excess_slope_fit_ghz_per_uw"]) == pytest.approx(
                true_slope, rel=0.05
            )
            assert abs(float(report[f"{label}.excess_intercept_ghz"])) < 0.5
            linewidths = tmp_path / f"table2_{label}_linewidths.csv"
            rc, fit_report, _ = run_cli(capsys, ["fit", "linear", str(linewidths)])
            assert rc == 0
            # The report fits the excess over the intrinsic width, so the slopes agree to rounding.
            assert float(fit_report["slope"]) == pytest.approx(
                float(report[f"{label}.excess_slope_fit_ghz_per_uw"]), rel=1e-9
            )

    def test_each_csv_is_its_model_curve_with_noise_seeded_seed_plus_k(
        self, tmp_path, capsys, monkeypatch
    ):
        # A command's k-th dataset gets noise seed ``seed + k``: saturation k = 0 and
        # linewidths k = 1 in table1, the one linewidth series k = 0 in table2.
        out, expected_dir = tmp_path / "out", tmp_path / "expected"
        expected_dir.mkdir()
        monkeypatch.setenv(OUTPUT_ENV_VAR, str(out))
        expected = {}
        for table in ("table1", "table2"):
            config_dir = CONFIG_DIR / table
            rc, _, captured = run_cli(
                capsys, ["reproduce", "--table", table, "--config-dir", str(config_dir)]
            )
            assert rc == 0, captured.err
            for path in sorted(config_dir.glob("*.ini")):
                cfg = parse_config(path)
                rep, noise, seed = cfg.reproduce, cfg.noise_relative, cfg.seed
                assert noise > 0.0
                if table == "table1":
                    alpha = cfg.alpha_per_uw
                    truth = (rep.delta_omega_c_ghz, rep.delta_omega_0_ghz, alpha)
                    sat_grid = saturation_power_grid(alpha)
                    curves = {
                        "saturation": (saturation_curve(sat_grid, rep.i_sat_counts, alpha), 0),
                        "linewidths": (linewidth_curve(chained_fit_power_grid(alpha), *truth), 1),
                    }
                else:
                    excess = excess_curve(
                        cfg.powers(), rep.intrinsic_fwhm_ghz, rep.excess_slope_ghz_per_uw
                    )
                    curves = {"linewidths": (excess, 0)}
                for kind, (curve, k) in curves.items():
                    name = f"{table}_{rep.label}_{kind}.csv"
                    write_csv(synthesize_noisy(curve, noise, seed + k), expected_dir / name)
                    expected[name] = (expected_dir / name).read_bytes()
        assert sorted(p.name for p in out.iterdir()) == sorted(expected)
        for name, data in expected.items():
            assert (out / name).read_bytes() == data, name


class TestInProcessCalls:
    """Commands run in one process share the parser built at import and leak nothing."""

    SMALL_SCAN = DETUNED_BASE.replace("rabi_ghz = 1.0", "rabi_ghz = 0.2") + (
        "\n[numerics]\nfock_cutoff = 3\nscan_points = 41\n"
    )

    @pytest.fixture
    def parsers_built(self, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(parser, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        return built

    @pytest.fixture
    def widths(self, tmp_path):
        powers = np.geomspace(0.1, 200.0, 25)
        y = 12.6 + 1.96 * np.sqrt(1.0 + 0.2 * powers)
        path = tmp_path / "width.csv"
        write_csv(SpectrumDataset(ScanKind.POWER_SWEEP, powers, y, "uW", "fwhm_ghz"), path)
        return str(path)

    def test_alpha_does_not_reach_a_later_linear_fit(self, capsys, parsers_built, widths):
        first = run_cli(capsys, ["fit", "linear", widths])
        assert first[0] == 0
        assert run_cli(capsys, ["fit", "power-broadening", widths, "--alpha", "0.2"])[0] == 0
        assert run_cli(capsys, ["fit", "linear", widths]) == first
        assert parsers_built == []

    def test_target_override_does_not_reach_a_later_scan(self, tmp_path, capsys, parsers_built):
        out = tmp_path / "scan.csv"
        argv = ["scan", "--config", str(write_ini(tmp_path, self.SMALL_SCAN)), "--out", str(out)]
        first = run_cli(capsys, argv)
        first_csv = out.read_bytes()
        assert first[0] == 0
        assert run_cli(capsys, [*argv, "--target", "cavity"])[0] == 0
        assert out.read_bytes() != first_csv
        assert run_cli(capsys, argv) == first
        assert out.read_bytes() == first_csv
        assert parsers_built == []

    def test_help_lists_every_subcommand(self, capsys, parsers_built):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        usage = capsys.readouterr().out
        for command in ("analytic", "scan", "power-sweep", "reproduce", "fit"):
            assert re.search(rf"^ +{command} +", usage, flags=re.M), command
        assert parsers_built == []

    @pytest.mark.parametrize(
        "argv", [["frobnicate"], ["fit", "linear"], ["scan"], ["fit", "linear", "x.csv", "--bad"]]
    )
    def test_usage_error_leaves_the_next_command_as_if_first(
        self, capsys, parsers_built, widths, argv
    ):
        first = run_cli(capsys, ["fit", "linear", widths])
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage: cqed-scope" in capsys.readouterr().err
        assert run_cli(capsys, ["fit", "linear", widths]) == first
        assert parsers_built == []


class TestModuleEntryPoint:
    def test_python_dash_m_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cqed_scope", "analytic", "--config", "configs/example.ini"],
            cwd=REPO,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        assert "g_ghz = 10" in proc.stdout

    @staticmethod
    def last_line(script, out_dir):
        """The last line ``script`` prints in a fresh interpreter on the package's sources."""
        paths = [str(REPO / "src"), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        env[OUTPUT_ENV_VAR] = str(out_dir)
        proc = subprocess.run(
            [sys.executable, "-c", script],
            cwd=REPO,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()[-1]

    def test_scan_leaves_scipy_unimported(self, tmp_path):
        # numpy is the only declared runtime dependency; importing scipy.sparse.linalg alone
        # would take a scan's process from about 29 to 59 MiB.
        script = (
            "import sys\n"
            "from cqed_scope.cli import main\n"
            "code = main(['scan', '--config', 'configs/example.ini'])\n"
            "print(code, 'scipy' in sys.modules)\n"
        )
        assert self.last_line(script, tmp_path) == "0 False"

    def test_passing_commands_skip_the_eigensolver_and_masked_arrays(self, tmp_path):
        # A passing state is certified by a Cholesky factorisation, and the fits take no
        # median or plain unique, whose first call imports numpy.ma (about 1.3 MiB).  Configs
        # are read without configparser, whose parser costs more to build than to run.  Only
        # noise needs numpy.random, whose import loads OpenSSL (about 6 MiB): example.ini
        # sets none, and reproduce's configs do.
        saturation = tmp_path / "table1_S1_saturation.csv"
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from cqed_scope.cli import main\n"
            "calls, eigvalsh = [], np.linalg.eigvalsh\n"
            "np.linalg.eigvalsh = lambda *args, **kw: calls.append(1) or eigvalsh(*args, **kw)\n"
            "codes = [main(['scan', '--config', 'configs/example.ini'])]\n"
            "scans = len(calls)\n"
            "codes.append(main(['power-sweep', '--config', 'configs/example.ini']))\n"
            "noise_free = 'numpy.random' in sys.modules\n"
            "codes.append(main(['reproduce', '--table', 'table1']))\n"
            f"codes.append(main(['fit', 'saturation', {str(saturation)!r}]))\n"
            "print(codes, scans, 'numpy.ma' in sys.modules, 'configparser' in sys.modules,\n"
            "      noise_free)\n"
        )
        assert self.last_line(script, tmp_path) == "[0, 0, 0, 0] 0 False False False"
