"""Strict INI parsing: accepted shapes, named rejections, derived helpers."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cqed_scope.config import OUTPUT_ENV_VAR, parse_config
from cqed_scope.errors import ConfigError
from cqed_scope.model import (
    DriveTarget,
    ghz_to_angular,
    wavelength_to_angular_frequency,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

BASE = """\
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


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestExampleFile:
    """The shipped walk-through config parses to exactly these values."""

    @pytest.fixture
    def cfg(self):
        return parse_config(CONFIG_DIR / "example.ini")

    def test_system_converted_to_angular_units(self, cfg):
        assert cfg.system.g == ghz_to_angular(10.0)
        assert cfg.system.kappa == ghz_to_angular(20.0)
        assert cfg.system.gamma == ghz_to_angular(0.5)
        assert cfg.system.gamma_d == ghz_to_angular(1.5)
        assert cfg.system.omega_d == wavelength_to_angular_frequency(931.0)
        assert cfg.system.omega_c == wavelength_to_angular_frequency(930.8)

    def test_drive_fields(self, cfg):
        assert cfg.drive_target is DriveTarget.QD
        assert cfg.rabi_ghz is None
        assert cfg.power_uw == 0.2
        assert cfg.alpha_per_uw == 0.5
        assert cfg.power_grid == (0.05, 8.0, 12, "log")

    def test_numerics_and_output(self, cfg):
        assert cfg.fock_cutoff == 3
        assert cfg.scan_points == 201
        assert cfg.scan_span_fwhm == 6.0
        assert cfg.seed == 7
        assert cfg.noise_relative == 0.0
        assert cfg.steady_residual_tol == 1e-9
        assert cfg.output_directory == "out"
        assert cfg.output_stem == "example"
        assert cfg.reproduce is None
        assert cfg.source.endswith("example.ini")

    def test_powers_match_log_grid(self, cfg):
        assert np.array_equal(cfg.powers(), np.geomspace(0.05, 8.0, 12))

    def test_drive_template_parks_laser_on_dot(self, cfg):
        spec = cfg.drive_template()
        assert spec.omega_l == cfg.system.omega_d
        assert spec.power == 0.2
        assert spec.alpha == 0.5
        assert spec.omega_rabi is None

    def test_drive_template_power_override(self, cfg):
        assert cfg.drive_template(power=1.5).power == 1.5

    def test_resolve_output_dir_prefers_environment(self, cfg, monkeypatch):
        monkeypatch.delenv(OUTPUT_ENV_VAR, raising=False)
        assert cfg.resolve_output_dir() == Path("out")
        monkeypatch.setenv(OUTPUT_ENV_VAR, "/tmp/elsewhere")
        assert cfg.resolve_output_dir() == Path("/tmp/elsewhere")


class TestTableConfigs:
    def test_table1_row_carries_reproduction_targets(self):
        cfg = parse_config(CONFIG_DIR / "table1" / "S1.ini")
        assert cfg.reproduce is not None
        assert cfg.reproduce.label == "S1"
        assert cfg.reproduce.delta_omega_c_ghz == 12.6
        assert cfg.reproduce.delta_omega_0_ghz == 1.96
        assert cfg.reproduce.reference_theory_ghz == 1.3
        assert cfg.reproduce.i_sat_counts == 1000.0
        assert cfg.reproduce.intrinsic_fwhm_ghz is None
        assert cfg.alpha_per_uw == 2.0
        assert cfg.noise_relative == 0.03

    def test_table2_row_carries_linear_targets(self):
        cfg = parse_config(CONFIG_DIR / "table2" / "S2.ini")
        assert cfg.reproduce.label == "S2"
        assert cfg.reproduce.intrinsic_fwhm_ghz == 35.6
        assert cfg.reproduce.excess_slope_ghz_per_uw == 0.5
        assert cfg.drive_target is DriveTarget.CAVITY
        assert cfg.power_grid == (0.5, 25.0, 40, "linear")
        assert np.array_equal(cfg.powers(), np.linspace(0.5, 25.0, 40))

    def test_all_shipped_configs_parse(self):
        for path in sorted(CONFIG_DIR.rglob("*.ini")):
            parse_config(path)


class TestDefaults:
    def test_minimal_config_defaults(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, BASE))
        assert cfg.system.gamma_d == 0.0
        assert cfg.rabi_ghz == 1.0
        assert cfg.power_uw is None and cfg.alpha_per_uw is None
        assert cfg.power_grid is None
        assert cfg.fock_cutoff == 4
        assert cfg.scan_points == 201
        assert cfg.scan_span_fwhm == 6.0
        assert cfg.seed == 7
        assert cfg.noise_relative == 0.0
        assert cfg.steady_residual_tol == 1e-9
        assert cfg.output_directory == "."
        assert cfg.output_stem == "cqed"
        assert cfg.channels.transfer_qd_to_cavity == 0.0
        assert cfg.channels.transfer_cavity_to_qd == 0.0

    def test_no_grid_powers_raises(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, BASE))
        with pytest.raises(ConfigError, match="no power grid configured"):
            cfg.powers()

    def test_inline_comments_stripped(self, tmp_path):
        text = BASE.replace("g_ghz = 10.0", "g_ghz = 10.0  # strong coupling")
        cfg = parse_config(write_config(tmp_path, text))
        assert cfg.system.g == ghz_to_angular(10.0)

    def test_target_value_case_insensitive(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, BASE.replace("target = qd", "target = QD")))
        assert cfg.drive_target is DriveTarget.QD


class TestRejections:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="config file not found"):
            parse_config(tmp_path / "absent.ini")

    def test_typo_key_named(self, tmp_path):
        text = BASE.replace("kappa_ghz", "kapa_ghz")
        with pytest.raises(ConfigError, match=r"unknown key\(s\) in \[system\]: kapa_ghz"):
            parse_config(write_config(tmp_path, text))

    def test_keys_are_case_sensitive(self, tmp_path):
        text = BASE.replace("g_ghz = 10.0", "G_GHZ = 10.0")
        with pytest.raises(ConfigError, match=r"unknown key\(s\) in \[system\]: G_GHZ"):
            parse_config(write_config(tmp_path, text))

    def test_unknown_section(self, tmp_path):
        with pytest.raises(ConfigError, match=r"unknown section \[misc\]"):
            parse_config(write_config(tmp_path, BASE + "\n[misc]\nnote = hi\n"))

    def test_missing_required_key(self, tmp_path):
        text = BASE.replace("gamma_ghz = 0.5\n", "")
        with pytest.raises(ConfigError, match=r"missing key\(s\) in \[system\]: gamma_ghz"):
            parse_config(write_config(tmp_path, text))

    def test_missing_required_section(self, tmp_path):
        text = BASE.split("[drive]")[0]
        with pytest.raises(ConfigError, match=r"missing required section \[drive\]"):
            parse_config(write_config(tmp_path, text))

    def test_duplicate_key_rejected(self, tmp_path):
        text = BASE.replace("g_ghz = 10.0", "g_ghz = 10.0\ng_ghz = 11.0")
        with pytest.raises(ConfigError, match="g_ghz"):
            parse_config(write_config(tmp_path, text))

    def test_rabi_and_power_style_conflict(self, tmp_path):
        text = BASE + "alpha_per_uw = 0.5\n"
        with pytest.raises(ConfigError, match="not both"):
            parse_config(write_config(tmp_path, text))

    def test_neither_drive_style(self, tmp_path):
        text = BASE.replace("rabi_ghz = 1.0\n", "power_uw = 1.0\n")
        with pytest.raises(ConfigError, match="drive needs rabi_ghz or alpha_per_uw"):
            parse_config(write_config(tmp_path, text))

    def test_bad_target(self, tmp_path):
        text = BASE.replace("target = qd", "target = dot")
        with pytest.raises(ConfigError, match="must be 'qd' or 'cavity', got 'dot'"):
            parse_config(write_config(tmp_path, text))

    def test_partial_power_grid(self, tmp_path):
        text = BASE.replace("rabi_ghz = 1.0", "alpha_per_uw = 0.5\npower_min_uw = 0.1\npower_max_uw = 5.0")
        with pytest.raises(ConfigError, match="min, max and point count together"):
            parse_config(write_config(tmp_path, text))

    def test_power_scale_without_grid(self, tmp_path):
        text = BASE.replace("rabi_ghz = 1.0", "alpha_per_uw = 0.5\npower_scale = log")
        with pytest.raises(ConfigError, match="power_scale given without a power grid"):
            parse_config(write_config(tmp_path, text))

    def test_bad_power_scale(self, tmp_path):
        text = BASE.replace(
            "rabi_ghz = 1.0",
            "alpha_per_uw = 0.5\npower_min_uw = 0.1\npower_max_uw = 5.0\n"
            "power_points = 8\npower_scale = cubic",
        )
        with pytest.raises(ConfigError, match="power_scale must be 'log' or 'linear'"):
            parse_config(write_config(tmp_path, text))

    def test_log_grid_needs_positive_minimum(self, tmp_path):
        text = BASE.replace(
            "rabi_ghz = 1.0",
            "alpha_per_uw = 0.5\npower_min_uw = 0.0\npower_max_uw = 5.0\npower_points = 8",
        )
        with pytest.raises(ConfigError, match="log-spaced power grids need power_min_uw > 0"):
            parse_config(write_config(tmp_path, text))

    def test_inverted_power_grid(self, tmp_path):
        text = BASE.replace(
            "rabi_ghz = 1.0",
            "alpha_per_uw = 0.5\npower_min_uw = 5.0\npower_max_uw = 1.0\npower_points = 8",
        )
        with pytest.raises(ConfigError, match="0 <= min < max"):
            parse_config(write_config(tmp_path, text))

    def test_too_few_grid_points(self, tmp_path):
        text = BASE.replace(
            "rabi_ghz = 1.0",
            "alpha_per_uw = 0.5\npower_min_uw = 0.1\npower_max_uw = 5.0\npower_points = 4",
        )
        with pytest.raises(ConfigError, match="points >= 5"):
            parse_config(write_config(tmp_path, text))

    @pytest.mark.parametrize(
        "key, value, pattern",
        [
            ("fock_cutoff", "0", "fock_cutoff must be >= 1"),
            ("scan_points", "4", "scan_points must be >= 5"),
            ("noise_relative", "0.6", r"noise_relative must lie in \[0, 0.5\]"),
            ("workers", "0", "workers must be >= 1"),
            ("steady_residual_tol", "0", "steady_residual_tol must be finite and > 0"),
            ("steady_residual_tol", "-1e-9", "steady_residual_tol must be finite and > 0"),
            ("steady_residual_tol", "nan", "steady_residual_tol must be finite and > 0"),
            ("steady_residual_tol", "inf", "steady_residual_tol must be finite and > 0"),
            ("seed", "-1", "seed must be >= 0"),
            ("scan_span_fwhm", "-6", "scan_span_fwhm must be finite and > 0"),
            ("scan_span_fwhm", "0", "scan_span_fwhm must be finite and > 0"),
            ("scan_span_fwhm", "nan", "scan_span_fwhm must be finite and > 0"),
            ("scan_span_fwhm", "inf", "scan_span_fwhm must be finite and > 0"),
        ],
    )
    def test_numerics_bounds(self, tmp_path, key, value, pattern):
        text = BASE + f"\n[numerics]\n{key} = {value}\n"
        with pytest.raises(ConfigError, match=pattern):
            parse_config(write_config(tmp_path, text))

    @pytest.mark.parametrize("value", ["0", "-1000", "nan", "inf"])
    def test_i_sat_counts_bounds(self, tmp_path, value):
        text = BASE + f"\n[reproduce]\ni_sat_counts = {value}\n"
        with pytest.raises(ConfigError, match="i_sat_counts must be finite and > 0"):
            parse_config(write_config(tmp_path, text))

    def test_i_sat_counts_defaults_only_when_absent(self, tmp_path):
        absent = parse_config(write_config(tmp_path, BASE + "\n[reproduce]\nlabel = S\n"))
        assert absent.reproduce.i_sat_counts == 1000.0
        given = parse_config(write_config(tmp_path, BASE + "\n[reproduce]\ni_sat_counts = 2.5\n"))
        assert given.reproduce.i_sat_counts == 2.5

    def test_laser_wavelength_key_rejected(self, tmp_path):
        # Scans and sweeps step the laser themselves, so a parked laser had no effect.
        text = BASE + "laser_wavelength_nm = 935.0\n"
        with pytest.raises(
            ConfigError, match=r"unknown key\(s\) in \[drive\]: laser_wavelength_nm"
        ):
            parse_config(write_config(tmp_path, text))

    def test_workers_accepted_and_ignored(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, BASE + "\n[numerics]\nworkers = 2\n"))
        plain = parse_config(write_config(tmp_path, BASE, name="plain.ini"))
        assert replace(cfg, source="") == replace(plain, source="")
        assert not hasattr(cfg, "workers")

    def test_non_numeric_value_named(self, tmp_path):
        text = BASE.replace("g_ghz = 10.0", "g_ghz = fast")
        with pytest.raises(ConfigError, match="key 'g_ghz' is not a number: 'fast'"):
            parse_config(write_config(tmp_path, text))

    def test_non_integer_seed_named(self, tmp_path):
        text = BASE + "\n[numerics]\nseed = 2.5\n"
        with pytest.raises(ConfigError, match="key 'seed' is not an integer: '2.5'"):
            parse_config(write_config(tmp_path, text))

    def test_invalid_system_values_wrapped(self, tmp_path):
        text = BASE.replace("g_ghz = 10.0", "g_ghz = -1.0")
        with pytest.raises(ConfigError, match=r"invalid \[system\]"):
            parse_config(write_config(tmp_path, text))

    def test_invalid_channel_rate_wrapped(self, tmp_path):
        text = BASE + "\n[channels]\ntransfer_qd_to_cavity_ghz = -2.0\n"
        with pytest.raises(ConfigError, match=r"invalid \[channels\]"):
            parse_config(write_config(tmp_path, text))

    def test_power_style_template_without_power_wrapped(self, tmp_path):
        text = BASE.replace("rabi_ghz = 1.0", "alpha_per_uw = 0.5")
        cfg = parse_config(write_config(tmp_path, text))
        with pytest.raises(ConfigError, match="invalid drive"):
            cfg.drive_template()


class TestDriveTemplateVariants:
    def test_cavity_target_parks_laser_on_cavity(self, tmp_path):
        text = BASE.replace("target = qd", "target = cavity")
        cfg = parse_config(write_config(tmp_path, text))
        assert cfg.drive_template().omega_l == cfg.system.omega_c

    def test_rabi_template_converts_to_angular(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, BASE))
        spec = cfg.drive_template()
        assert spec.omega_rabi == ghz_to_angular(1.0)
        assert spec.power is None and spec.alpha is None

    def test_channels_parsed_to_angular(self, tmp_path):
        text = BASE + "\n[channels]\ntransfer_qd_to_cavity_ghz = 0.3\n"
        cfg = parse_config(write_config(tmp_path, text))
        assert cfg.channels.transfer_qd_to_cavity == ghz_to_angular(0.3)
        assert cfg.channels.transfer_cavity_to_qd == 0.0
