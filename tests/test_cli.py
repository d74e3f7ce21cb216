"""Command-line behaviour: reports, exit codes, artifacts, determinism."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cqed_scope.cli import main
from cqed_scope.config import OUTPUT_ENV_VAR
from cqed_scope.dataset import ScanKind, SpectrumDataset, read_csv, write_csv
from cqed_scope.model import detuning_from_wavelengths

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
        expected_ghz = detuning_from_wavelengths(934.15, 934.8) / (2.0 * np.pi)
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

    def test_unreachable_residual_tolerance_exits_3(self, tmp_path, capsys):
        text = DETUNED_BASE + "\n[numerics]\nfock_cutoff = 1\nsteady_residual_tol = 1e-30\n"
        rc, _, captured = run_cli(
            capsys,
            ["scan", "--config", str(write_ini(tmp_path, text)), "--out", str(tmp_path / "s.csv")],
        )
        assert rc == 3
        assert "residual" in captured.err

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
        sat = read_csv(Path(report["saturation_csv"]))
        widths = read_csv(Path(report["linewidth_csv"]))
        assert len(sat) == 6 and len(widths) == 6

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
            assert (tmp_path / f"table2_{label}_linewidths.csv").is_file()


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
