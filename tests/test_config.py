"""Strict INI parsing: accepted shapes, named rejections, derived helpers."""

import configparser
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from helpers import ini_sections
from hypothesis import given, settings
from hypothesis import strategies as st

from cqed_scope.cli import main
from cqed_scope.config import OUTPUT_ENV_VAR, _KEYS, _read_ini, log_grid, parse_config
from cqed_scope.errors import ConfigError
from cqed_scope.model import (
    DriveTarget,
    SystemParams,
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
        assert cfg.output_directory == "."
        assert cfg.output_stem == "cqed"
        assert cfg.system.transfer_qd_to_cavity == 0.0
        assert cfg.system.transfer_cavity_to_qd == 0.0

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

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # Windows editors and spreadsheet exports may start a UTF-8 file with EF BB BF.
        path = tmp_path / "bom.ini"
        path.write_bytes(b"\xef\xbb\xbf" + (CONFIG_DIR / "example.ini").read_bytes())
        plain = parse_config(CONFIG_DIR / "example.ini")
        assert replace(parse_config(path), source="") == replace(plain, source="")

    def test_text_value_on_a_continuation_line_is_stripped(self, tmp_path):
        text = BASE.replace("target = qd", "target =\n    cavity") + "\n[output]\nstem =\n    run\n"
        cfg = parse_config(write_config(tmp_path, text))
        assert cfg.drive_target is DriveTarget.CAVITY
        assert cfg.output_stem == "run"


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

    @pytest.mark.parametrize(
        "text, line, reason",
        [
            (
                BASE.replace("g_ghz = 10.0", "g_ghz = 10.0\ng_ghz = 11.0"),
                5,
                "key 'g_ghz' repeated in [system]",
            ),
            (BASE + "\n[system]\n", 12, "section [system] repeated"),
            (
                BASE.replace("rabi_ghz = 1.0", "rabi_ghz 1.0"),
                10,
                "expected 'key = value' or 'key: value'",
            ),
            ("# run\nseed = 3\n" + BASE, 2, "no [section] header before this line"),
            ("[DEFAULT]\n\n[DEFAULT]\nseed = 3\n" + BASE, 4, "[DEFAULT] may hold no keys"),
        ],
        ids=["repeated-key", "repeated-section", "no-delimiter", "key-before-section", "default"],
    )
    def test_duplicate_key_rejected(self, tmp_path, capsys, text, line, reason):
        # A malformed line exits 2 with one line naming the file and the line, as CSV rows do.
        path = write_config(tmp_path, text)
        with pytest.raises(ConfigError) as caught:
            parse_config(path)
        assert str(caught.value) == f"{path}:{line}: {reason}"
        assert main(["analytic", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {caught.value}\n"

    def test_directory_is_not_a_config_file(self, tmp_path):
        with pytest.raises(ConfigError, match="config file not found"):
            parse_config(tmp_path)

    def test_non_utf8_config_named(self, tmp_path):
        path = tmp_path / "latin1.ini"
        path.write_bytes(BASE.replace("qd", "qd \xb5").encode("latin-1"))
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}: not UTF-8 text$"):
            parse_config(path)

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
        with pytest.raises(ConfigError, match=r"g_ghz must be .* got -1\.0 in \[system\]"):
            parse_config(write_config(tmp_path, text))

    def test_invalid_channel_rate_wrapped(self, tmp_path):
        text = BASE + "\n[channels]\ntransfer_qd_to_cavity_ghz = -2.0\n"
        with pytest.raises(ConfigError, match="transfer_qd_to_cavity_ghz must be finite and >= 0"):
            parse_config(write_config(tmp_path, text))

    @pytest.mark.parametrize(
        "section, key, value, rule",
        [
            ("system", "g_ghz", "1e308", ">= 0 in GHz"),
            ("system", "g_ghz", "-1", ">= 0 in GHz"),
            ("system", "kappa_ghz", "-1", "> 0 in GHz"),
            ("system", "kappa_ghz", "0", "> 0 in GHz"),
            ("system", "kappa_ghz", "1e308", "> 0 in GHz"),
            ("system", "gamma_ghz", "0", "> 0 in GHz"),
            ("system", "gamma_ghz", "inf", "> 0 in GHz"),
            ("system", "gamma_d_ghz", "-0.5", ">= 0 in GHz"),
            ("system", "gamma_d_ghz", "1e308", ">= 0 in GHz"),
            ("channels", "transfer_qd_to_cavity_ghz", "1e308", ">= 0 in GHz"),
            ("channels", "transfer_cavity_to_qd_ghz", "nan", ">= 0 in GHz"),
            ("system", "qd_wavelength_nm", "0", "> 0 in nm"),
            ("system", "qd_wavelength_nm", "inf", "> 0 in nm"),
            ("system", "cavity_wavelength_nm", "-930.8", "> 0 in nm"),
            ("system", "cavity_wavelength_nm", "1e-310", "> 0 in nm"),
        ],
    )
    def test_physical_values_named_in_file_units(self, tmp_path, section, key, value, rule):
        # A rate or wavelength must be usable in the file and once converted to rad/ns, and the
        # message gives the file's key, value and section, not the converted internal field.
        lines = [line for line in BASE.splitlines() if not line.startswith(f"{key} ")]
        if section == "system":
            lines.insert(1, f"{key} = {value}")
        else:
            lines += [f"[{section}]", f"{key} = {value}"]
        with pytest.raises(ConfigError) as caught:
            parse_config(write_config(tmp_path, "\n".join(lines) + "\n"))
        message = f"{key} must be finite and {rule} and in rad/ns, got {value} in [{section}]"
        assert message in str(caught.value)

    @pytest.mark.parametrize(
        "section, key, value, rule",
        [
            ("drive", "rabi_ghz", "-1", ">= 0 in GHz and in rad/ns, got -1 in [drive]"),
            ("drive", "rabi_ghz", "1e308", ">= 0 in GHz and in rad/ns, got 1e308 in [drive]"),
            ("drive", "power_uw", "-1", ">= 0"),
            ("drive", "power_uw", "inf", ">= 0"),
            ("drive", "alpha_per_uw", "-1", "> 0"),
            ("drive", "alpha_per_uw", "0", "> 0"),
            ("reproduce", "delta_omega_c_ghz", "-1", ">= 0"),
            ("reproduce", "delta_omega_0_ghz", "-1", ">= 0"),
            ("reproduce", "intrinsic_fwhm_ghz", "-1", "> 0"),
            ("reproduce", "intrinsic_fwhm_ghz", "0", "> 0"),
            ("reproduce", "excess_slope_ghz_per_uw", "-0.5", ">= 0"),
        ],
    )
    def test_drive_and_reproduce_values_named_with_their_range(
        self, tmp_path, section, key, value, rule
    ):
        # Checked where it is parsed, so the message names the file and the key before any
        # command runs, not a field of DriveSpec or LinewidthModelParams.
        companions, _ = KEY_CASES[key]
        path = write_config(tmp_path, _render(MINIMAL, companions, {section: {key: value}}))
        with pytest.raises(ConfigError) as caught:
            parse_config(path)
        assert f"{path}: {key} must be finite and {rule}" in str(caught.value)

    @pytest.mark.parametrize(
        "section, key",
        [
            ("drive", "rabi_ghz"),
            ("drive", "power_uw"),
            ("reproduce", "delta_omega_c_ghz"),
            ("reproduce", "delta_omega_0_ghz"),
            ("reproduce", "excess_slope_ghz_per_uw"),
        ],
    )
    def test_drive_and_reproduce_ranges_admit_zero(self, tmp_path, section, key):
        companions, _ = KEY_CASES[key]
        parse_config(write_config(tmp_path, _render(MINIMAL, companions, {section: {key: "0"}})))

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
        assert cfg.system.transfer_qd_to_cavity == ghz_to_angular(0.3)
        assert cfg.system.transfer_cavity_to_qd == 0.0

    def test_channels_parse_to_the_boundary_constructor(self, tmp_path):
        rates = {"transfer_qd_to_cavity_ghz": 3.0, "transfer_cavity_to_qd_ghz": 1.5}
        text = BASE + "\n[channels]\n" + "".join(f"{k} = {v}\n" for k, v in rates.items())
        cfg = parse_config(write_config(tmp_path, text))
        assert cfg.system == SystemParams.from_ghz_and_nm(
            qd_wavelength_nm=931.0,
            cavity_wavelength_nm=930.8,
            g_ghz=10.0,
            kappa_ghz=20.0,
            gamma_ghz=0.5,
            **rates,
        )


MINIMAL = {
    "system": {
        "qd_wavelength_nm": "931.0",
        "cavity_wavelength_nm": "930.8",
        "g_ghz": "10.0",
        "kappa_ghz": "20.0",
        "gamma_ghz": "0.5",
    },
    "drive": {"target": "qd", "rabi_ghz": "1.0"},
}
POWER_STYLE = {"drive": {"rabi_ghz": None, "alpha_per_uw": "0.5"}}
POWER_GRID = {
    "drive": {
        "rabi_ghz": None,
        "alpha_per_uw": "0.5",
        "power_min_uw": "0.05",
        "power_max_uw": "8.0",
        "power_points": "12",
    }
}
REPRODUCE = {"reproduce": {"label": "S"}}

#: key -> (companions the key needs, a valid setting of it); the setting is
#: applied on top of the companions, and a value of None removes a key.
KEY_CASES = {
    "qd_wavelength_nm": ({}, {"system": {"qd_wavelength_nm": "931.1"}}),
    "cavity_wavelength_nm": ({}, {"system": {"cavity_wavelength_nm": "930.7"}}),
    "g_ghz": ({}, {"system": {"g_ghz": "12.0"}}),
    "kappa_ghz": ({}, {"system": {"kappa_ghz": "18.0"}}),
    "gamma_ghz": ({}, {"system": {"gamma_ghz": "0.4"}}),
    "gamma_d_ghz": ({}, {"system": {"gamma_d_ghz": "1.5"}}),
    "target": ({}, {"drive": {"target": "cavity"}}),
    "rabi_ghz": ({}, {"drive": {"rabi_ghz": "2.0"}}),
    "alpha_per_uw": (POWER_STYLE, {"drive": {"alpha_per_uw": "0.7"}}),
    "power_uw": (POWER_STYLE, {"drive": {"power_uw": "0.2"}}),
    "power_min_uw": (POWER_GRID, {"drive": {"power_min_uw": "0.1"}}),
    "power_max_uw": (POWER_GRID, {"drive": {"power_max_uw": "5.0"}}),
    "power_points": (POWER_GRID, {"drive": {"power_points": "7"}}),
    "power_scale": (POWER_GRID, {"drive": {"power_scale": "linear"}}),
    "fock_cutoff": ({}, {"numerics": {"fock_cutoff": "6"}}),
    "scan_points": ({}, {"numerics": {"scan_points": "101"}}),
    "scan_span_fwhm": ({}, {"numerics": {"scan_span_fwhm": "8.0"}}),
    "seed": ({}, {"numerics": {"seed": "3"}}),
    "noise_relative": ({}, {"numerics": {"noise_relative": "0.1"}}),
    "workers": ({}, {"numerics": {"workers": "2"}}),
    "transfer_qd_to_cavity_ghz": ({}, {"channels": {"transfer_qd_to_cavity_ghz": "0.3"}}),
    "transfer_cavity_to_qd_ghz": ({}, {"channels": {"transfer_cavity_to_qd_ghz": "0.3"}}),
    "directory": ({}, {"output": {"directory": "elsewhere"}}),
    "stem": ({}, {"output": {"stem": "other"}}),
    "label": (REPRODUCE, {"reproduce": {"label": "T"}}),
    "delta_omega_c_ghz": (REPRODUCE, {"reproduce": {"delta_omega_c_ghz": "12.6"}}),
    "delta_omega_0_ghz": (REPRODUCE, {"reproduce": {"delta_omega_0_ghz": "1.96"}}),
    "reference_theory_ghz": (REPRODUCE, {"reproduce": {"reference_theory_ghz": "1.3"}}),
    "i_sat_counts": (REPRODUCE, {"reproduce": {"i_sat_counts": "2.5"}}),
    "intrinsic_fwhm_ghz": (REPRODUCE, {"reproduce": {"intrinsic_fwhm_ghz": "35.6"}}),
    "excess_slope_ghz_per_uw": (REPRODUCE, {"reproduce": {"excess_slope_ghz_per_uw": "0.5"}}),
}

#: Accepted keys that change nothing: scans run serially whatever workers says.
IGNORED_KEYS = {"workers"}


def _render(*layers):
    sections: dict[str, dict[str, str]] = {}
    for layer in layers:
        for name, keys in layer.items():
            for key, value in keys.items():
                section = sections.setdefault(name, {})
                if value is None:
                    section.pop(key, None)
                else:
                    section[key] = value
    return "".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
        for name, keys in sections.items()
    )


@pytest.mark.parametrize("key", sorted(KEY_CASES))
def test_every_accepted_key_takes_effect(tmp_path, key):
    companions, setting = KEY_CASES[key]
    without = parse_config(write_config(tmp_path, _render(MINIMAL, companions), "without.ini"))
    with_key = parse_config(
        write_config(tmp_path, _render(MINIMAL, companions, setting), "with.ini")
    )
    assert key in setting[next(iter(setting))]
    if key in IGNORED_KEYS:
        assert replace(with_key, source="") == replace(without, source="")
    else:
        assert replace(with_key, source="") != replace(without, source="")


def test_key_cases_cover_the_key_table():
    assert set(KEY_CASES) == {key for keys in _KEYS.values() for key in keys}


# Pieces of INI text chosen to meet each rule of the grammar: repeated and [DEFAULT]
# sections, headers with trailing text, both delimiters, '#' after a space, a tab and a
# letter, form feeds that str.splitlines would split at, and values that look like headers
# or key lines.
_SPACE = st.sampled_from(["", " ", "\t", " \x0c"])
_NAME = st.sampled_from(["a", "b", "a b", "DEFAULT"])
_KEY_NAME = st.sampled_from(["k", "K", "k two", "[k", "x", "y_z"])
_TEXT = st.sampled_from(["", "1", "run#1", "x\x0cy", "[s]", "p = q", "r: t", " v "])
_COMMENT = st.sampled_from(["", " # note", "\t# note", "#note", " #"])


@st.composite
def _ini_line(draw):
    lead = draw(_SPACE)
    kind = draw(
        st.sampled_from(
            ["header"] * 2 + ["key"] * 5 + ["continuation"] * 3 + ["comment"] + ["blank"] * 2
            + ["malformed"]
        )
    )
    if kind == "header":
        trail = draw(st.sampled_from(["", "junk", " # c", "]", "=1"]))
        return f"{lead}[{draw(_NAME)}]{trail}"
    if kind == "key":
        delimiter = draw(st.sampled_from(["=", ":", " = ", " : ", "=\t"]))
        return f"{lead}{draw(_KEY_NAME)}{delimiter}{draw(_TEXT)}{draw(_COMMENT)}"
    if kind == "continuation":
        indent = draw(st.sampled_from(["  ", "\t", "    ", " \x0c "]))
        return f"{lead}{indent}{draw(_TEXT)}{draw(_COMMENT)}"
    if kind == "comment":
        return f"{lead}#{draw(_TEXT)}"
    if kind == "blank":
        return lead
    return lead + draw(st.sampled_from(["no delimiter", "= empty key", ": x", "[]"]))


@st.composite
def _ini_text(draw):
    """``(text, bom)``: INI text with LF or CRLF endings, usually opening with a header, and
    whether a byte-order mark leads the file."""
    lines = draw(st.lists(_ini_line(), max_size=10))
    if draw(st.integers(0, 7)):
        lines.insert(0, f"[{draw(_NAME)}]")
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(lines) + draw(st.sampled_from([end, ""]))
    return text, draw(st.booleans())


@pytest.fixture(scope="module")
def ini_path(tmp_path_factory):
    return tmp_path_factory.mktemp("ini") / "run.ini"


@settings(max_examples=250)
@given(ini=_ini_text())
def test_reader_matches_configparser(ini_path, ini):
    """The reader returns configparser's sections, and raises where it raises.

    Keys under [DEFAULT] are the one departure: configparser copies them into every
    section, and the reader rejects them.
    """
    text, bom = ini
    try:
        expected = ini_sections(text)
    except configparser.Error:
        expected = None
    ini_path.write_bytes(b"\xef\xbb\xbf" * bom + text.encode("utf-8"))
    if expected is None or "DEFAULT" in expected:
        with pytest.raises(ConfigError, match=rf"\A{re.escape(str(ini_path))}:\d+: [^\n]+\Z"):
            _read_ini(ini_path)
    else:
        assert _read_ini(ini_path) == expected


@settings(max_examples=500)
@given(lo=st.floats(1e-6, 1e4), decades=st.floats(1e-3, 8.0), points=st.integers(2, 500))
def test_log_grid_is_geomspace_bit_for_bit(lo, decades, points):
    hi = lo * 10.0**decades
    assert log_grid(lo, hi, points).tobytes() == np.geomspace(lo, hi, points).tobytes()
