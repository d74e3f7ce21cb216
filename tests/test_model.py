"""Unit conversions and the parameter containers."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cqed_scope.model import (
    SPEED_OF_LIGHT_NM_GHZ,
    TWO_PI,
    DriveSpec,
    DriveTarget,
    SystemParams,
    angular_frequency_to_wavelength,
    angular_to_ghz,
    fwhm_nm_to_ghz,
    ghz_to_angular,
    wavelength_to_angular_frequency,
)


class TestFrequencyConversions:
    def test_one_ghz_is_two_pi_per_ns(self):
        assert ghz_to_angular(1.0) == TWO_PI
        assert angular_to_ghz(TWO_PI) == pytest.approx(1.0, rel=1e-15)

    @given(st.floats(min_value=1e-6, max_value=1e7))
    def test_round_trip(self, freq_ghz):
        assert angular_to_ghz(ghz_to_angular(freq_ghz)) == pytest.approx(freq_ghz, rel=1e-12)

    def test_negative_detunings_convert_too(self):
        assert ghz_to_angular(-3.0) == -3.0 * TWO_PI


class TestWavelengthConversions:
    def test_speed_of_light_magnitude(self):
        # A near-infrared wavelength must land in the hundreds of THz;
        # 934.8 nm corresponds to about 320,702 GHz.
        omega = wavelength_to_angular_frequency(934.8)
        assert omega / TWO_PI == pytest.approx(SPEED_OF_LIGHT_NM_GHZ / 934.8, rel=1e-15)
        assert 3.2e5 < omega / TWO_PI < 3.21e5

    def test_wavelength_numerically_equal_to_c_gives_unit_frequency(self):
        assert wavelength_to_angular_frequency(SPEED_OF_LIGHT_NM_GHZ) == pytest.approx(
            TWO_PI, rel=1e-15
        )

    @given(st.floats(min_value=900.0, max_value=1000.0))
    def test_round_trip(self, wavelength_nm):
        omega = wavelength_to_angular_frequency(wavelength_nm)
        assert angular_frequency_to_wavelength(omega) == pytest.approx(
            wavelength_nm, rel=1e-12
        )

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_nonpositive_wavelength_rejected(self, bad):
        with pytest.raises(ValueError):
            wavelength_to_angular_frequency(bad)

    @pytest.mark.parametrize("bad", [0.0, -5.0])
    def test_nonpositive_frequency_rejected(self, bad):
        with pytest.raises(ValueError):
            angular_frequency_to_wavelength(bad)

    def test_narrow_linewidth_matches_the_frequency_difference_of_its_edges(self):
        c, centre_nm, fwhm_nm = SPEED_OF_LIGHT_NM_GHZ, 930.8, 0.01
        edges_ghz = c / (centre_nm - fwhm_nm / 2) - c / (centre_nm + fwhm_nm / 2)
        assert fwhm_nm_to_ghz(fwhm_nm, centre_nm) == pytest.approx(edges_ghz, rel=1e-9)


def system_params(**overrides):
    base = dict(
        g=TWO_PI * 10.0,
        kappa=TWO_PI * 20.0,
        gamma=TWO_PI * 0.5,
        gamma_d=TWO_PI * 1.5,
        omega_c=wavelength_to_angular_frequency(930.8),
        omega_d=wavelength_to_angular_frequency(931.0),
    )
    base.update(overrides)
    return SystemParams(**base)


def detuning_from_wavelengths(qd_wavelength_nm, cavity_wavelength_nm):
    """``SystemParams.detuning`` of a system built from these resonances."""
    return SystemParams.from_ghz_and_nm(
        g_ghz=1.0,
        kappa_ghz=1.0,
        gamma_ghz=1.0,
        qd_wavelength_nm=qd_wavelength_nm,
        cavity_wavelength_nm=cavity_wavelength_nm,
    ).detuning


class TestDetuningFromWavelengths:
    def test_shorter_dot_wavelength_means_positive_detuning(self):
        # The dot sits blue of the cavity, so its frequency is higher.
        delta = detuning_from_wavelengths(934.15, 934.8)
        assert delta > 0.0
        expected = wavelength_to_angular_frequency(934.15) - wavelength_to_angular_frequency(
            934.8
        )
        assert delta == pytest.approx(expected, rel=1e-15)
        assert delta / TWO_PI == pytest.approx(223.3, abs=0.5)

    @given(
        st.floats(min_value=900.0, max_value=1000.0),
        st.floats(min_value=900.0, max_value=1000.0),
    )
    def test_antisymmetric_under_swap(self, lam_a, lam_b):
        forward = detuning_from_wavelengths(lam_a, lam_b)
        backward = detuning_from_wavelengths(lam_b, lam_a)
        assert forward == pytest.approx(-backward, abs=1e-9 * TWO_PI)

    def test_equal_wavelengths_give_zero(self):
        assert detuning_from_wavelengths(931.0, 931.0) == 0.0


class TestSystemParams:
    def test_detuning_is_dot_minus_cavity(self):
        params = system_params()
        assert params.detuning == params.omega_d - params.omega_c
        assert params.detuning < 0.0  # dot is red of the cavity here

    def test_zero_coupling_allowed(self):
        assert system_params(g=0.0).g == 0.0

    @pytest.mark.parametrize(
        "field, value",
        [
            ("g", -1.0),
            ("kappa", 0.0),
            ("kappa", -1.0),
            ("gamma", 0.0),
            ("gamma_d", -0.1),
            ("omega_c", math.nan),
            ("g", math.inf),
        ],
    )
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ValueError):
            system_params(**{field: value})

    def test_boundary_unit_constructor(self):
        params = SystemParams.from_ghz_and_nm(
            g_ghz=10.0,
            kappa_ghz=20.0,
            gamma_ghz=0.5,
            gamma_d_ghz=1.5,
            qd_wavelength_nm=931.0,
            cavity_wavelength_nm=930.8,
        )
        assert params.g == ghz_to_angular(10.0)
        assert params.kappa == ghz_to_angular(20.0)
        assert params.gamma == ghz_to_angular(0.5)
        assert params.gamma_d == ghz_to_angular(1.5)
        assert params.omega_d == wavelength_to_angular_frequency(931.0)
        assert params.omega_c == wavelength_to_angular_frequency(930.8)


class TestDriveSpec:
    system = SystemParams(
        g=0.0,
        kappa=TWO_PI * 2.0,
        gamma=TWO_PI * 0.5,
        gamma_d=TWO_PI * 1.5,
        omega_c=wavelength_to_angular_frequency(931.0),
        omega_d=wavelength_to_angular_frequency(931.0),
    )

    def test_rabi_style(self):
        drive = DriveSpec(target=DriveTarget.QD, omega_l=1.0, omega_rabi=TWO_PI)
        assert drive.rabi_frequency(self.system) == TWO_PI

    def test_power_style(self):
        drive = DriveSpec(target=DriveTarget.QD, omega_l=1.0, power=4.0, alpha=0.5)
        assert drive.p_tilde(self.system) == pytest.approx(2.0)

    def test_p_tilde_dimensionless_drive_formula(self):
        gamma, gamma_d = self.system.gamma, self.system.gamma_d
        omega_rabi = TWO_PI * 3.0
        drive = DriveSpec(target=DriveTarget.QD, omega_l=1.0, omega_rabi=omega_rabi)
        assert drive.p_tilde(self.system) == pytest.approx(
            omega_rabi**2 / (2.0 * gamma * (gamma + gamma_d)), rel=1e-14
        )

    def test_styles_are_interchangeable(self):
        # A power-style drive reports the Rabi rate that reproduces its
        # saturation parameter, and vice versa.
        power_style = DriveSpec(target=DriveTarget.QD, omega_l=1.0, power=4.0, alpha=0.5)
        rabi = power_style.rabi_frequency(self.system)
        rabi_style = DriveSpec(target=DriveTarget.QD, omega_l=1.0, omega_rabi=rabi)
        assert rabi_style.p_tilde(self.system) == pytest.approx(
            power_style.p_tilde(self.system), rel=1e-12
        )

    def test_both_styles_rejected(self):
        with pytest.raises(ValueError):
            DriveSpec(
                target=DriveTarget.QD, omega_l=1.0, omega_rabi=1.0, power=1.0, alpha=1.0
            )

    def test_neither_style_rejected(self):
        with pytest.raises(ValueError):
            DriveSpec(target=DriveTarget.QD, omega_l=1.0)

    def test_power_without_alpha_rejected(self):
        with pytest.raises(ValueError):
            DriveSpec(target=DriveTarget.QD, omega_l=1.0, power=1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"omega_rabi": -1.0},
            {"power": -1.0, "alpha": 1.0},
            {"power": 1.0, "alpha": 0.0},
            {"power": 1.0, "alpha": -2.0},
        ],
    )
    def test_invalid_strengths_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DriveSpec(target=DriveTarget.QD, omega_l=1.0, **kwargs)

    def test_nonfinite_laser_frequency_rejected(self):
        with pytest.raises(ValueError):
            DriveSpec(target=DriveTarget.QD, omega_l=math.nan, omega_rabi=1.0)

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"omega_rabi": math.nan}, "omega_rabi"),
            ({"omega_rabi": math.inf}, "omega_rabi"),
            ({"power": math.inf, "alpha": 0.5}, "power"),
            ({"power": math.nan, "alpha": 0.5}, "power"),
            ({"power": 1.0, "alpha": math.inf}, "alpha"),
        ],
    )
    def test_nonfinite_strengths_rejected(self, kwargs, name):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            DriveSpec(target=DriveTarget.QD, omega_l=1.0, **kwargs)

    def test_with_laser_frequency_replaces_only_the_laser(self):
        drive = DriveSpec(target=DriveTarget.CAVITY, omega_l=1.0, power=2.0, alpha=0.5)
        moved = drive.with_laser_frequency(7.0)
        assert moved.omega_l == 7.0
        assert (moved.target, moved.power, moved.alpha) == (
            drive.target,
            drive.power,
            drive.alpha,
        )

    def test_with_power_replaces_only_the_power(self):
        drive = DriveSpec(target=DriveTarget.QD, omega_l=1.0, power=2.0, alpha=0.5)
        assert drive.with_power(8.0).p_tilde(self.system) == pytest.approx(4.0)

    def test_with_power_rejected_on_rabi_style(self):
        drive = DriveSpec(target=DriveTarget.QD, omega_l=1.0, omega_rabi=1.0)
        with pytest.raises(ValueError):
            drive.with_power(1.0)


class TestIncoherentChannels:
    """The one-way transfer rates that ``SystemParams`` carries beside its other rates."""

    def test_defaults_to_no_transfer(self):
        params = system_params()
        assert params.transfer_qd_to_cavity == 0.0
        assert params.transfer_cavity_to_qd == 0.0
        boundary = SystemParams.from_ghz_and_nm(
            g_ghz=1.0,
            kappa_ghz=1.0,
            gamma_ghz=1.0,
            qd_wavelength_nm=931.0,
            cavity_wavelength_nm=930.8,
            transfer_qd_to_cavity_ghz=3.0,
        )
        assert boundary.transfer_qd_to_cavity == ghz_to_angular(3.0)
        assert boundary.transfer_cavity_to_qd == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [{"transfer_qd_to_cavity": -0.1}, {"transfer_cavity_to_qd": -1.0}],
    )
    def test_negative_rates_rejected(self, kwargs):
        with pytest.raises(ValueError, match=f"{next(iter(kwargs))} must be >= 0"):
            system_params(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"transfer_qd_to_cavity": math.nan},
            {"transfer_qd_to_cavity": math.inf},
            {"transfer_cavity_to_qd": math.inf},
        ],
    )
    def test_nonfinite_rates_rejected(self, kwargs):
        with pytest.raises(ValueError, match="must be finite"):
            system_params(**kwargs)
