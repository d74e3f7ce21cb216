"""Least-squares models: line shapes, saturation, power broadening, lines."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqed_scope.dataset import ScanKind, SpectrumDataset
from cqed_scope.errors import ChainingError, IllPosedWindowError, NoSignalError
from cqed_scope.fit import (
    FitModel,
    excess_broadening,
    fit_linear,
    fit_lorentzian,
    fit_power_broadening,
    fit_saturation,
)
from cqed_scope.model import TWO_PI
from cqed_scope.scan import synthesize_noisy

from helpers import central_gradient, lorentzian


def wavelength_dataset(x, y):
    return SpectrumDataset(
        kind=ScanKind.LASER_WAVELENGTH, x=x, y=y, x_unit="nm", y_unit="intensity"
    )


def saturation_dataset(x, y):
    return SpectrumDataset(kind=ScanKind.POWER_SWEEP, x=x, y=y, x_unit="uW", y_unit="intensity")


def linewidth_dataset(x, y):
    return SpectrumDataset(kind=ScanKind.POWER_SWEEP, x=x, y=y, x_unit="uW", y_unit="fwhm_ghz")


def assert_uncertainties_nonnegative(result):
    for name, sigma in result.uncertainties.items():
        assert sigma >= 0.0, name


class TestFitLorentzian:
    @pytest.mark.parametrize("width_nm", [0.0879, 0.1517])
    def test_noiseless_width_recovery(self, width_nm):
        x = np.linspace(934.8 - 3.0 * width_nm, 934.8 + 3.0 * width_nm, 201)
        data = wavelength_dataset(x, lorentzian(x, 1.3, 934.8, width_nm, 0.05))
        result = fit_lorentzian(data)
        assert result.converged
        assert result.params["fwhm"] == pytest.approx(width_nm, rel=1e-6)
        assert result.params["center"] == pytest.approx(934.8, abs=1e-6 * width_nm)
        assert result.params["amplitude"] == pytest.approx(1.3, rel=1e-6)
        assert result.params["baseline"] == pytest.approx(0.05, rel=1e-4)
        assert result.model is FitModel.LORENTZIAN
        assert_uncertainties_nonnegative(result)

    def test_flat_data_flagged_not_raised(self):
        x = np.linspace(930.0, 931.0, 21)
        result = fit_lorentzian(wavelength_dataset(x, np.full(21, 3.25)))
        assert not result.converged
        assert result.params["amplitude"] == 0.0
        assert result.params["baseline"] == pytest.approx(3.25)
        assert "flat" in result.message

    def test_peak_on_the_boundary_rejected(self):
        x = np.linspace(930.0, 931.0, 21)
        with pytest.raises(IllPosedWindowError):
            fit_lorentzian(wavelength_dataset(x, np.linspace(0.0, 1.0, 21)))

    def test_needs_at_least_five_samples(self):
        x = np.linspace(930.0, 931.0, 4)
        with pytest.raises(ValueError):
            fit_lorentzian(wavelength_dataset(x, lorentzian(x, 1.0, 930.5, 0.3)))

    def test_intensity_rescaling_is_exact(self):
        # Doubling-based intensity scales commute exactly with the fit:
        # amplitude-like parameters scale, shape parameters do not move.
        x = np.linspace(930.9, 931.1, 201)
        rng_y = lorentzian(x, 1.3, 931.0, 0.0879, 0.1)
        noisy = synthesize_noisy(wavelength_dataset(x, rng_y), 0.01, seed=3)
        scale = 2.0**10
        scaled = wavelength_dataset(x, noisy.y * scale)

        base = fit_lorentzian(noisy)
        big = fit_lorentzian(scaled)
        assert big.params["amplitude"] == scale * base.params["amplitude"]
        assert big.params["baseline"] == scale * base.params["baseline"]
        assert big.params["center"] == base.params["center"]
        assert big.params["fwhm"] == base.params["fwhm"]
        assert big.iterations == base.iterations

    def test_gradient_vanishes_at_the_reported_optimum(self):
        x = np.linspace(930.9, 931.1, 201)
        clean = lorentzian(x, 1.3, 931.0, 0.0879, 0.1)
        data = synthesize_noisy(wavelength_dataset(x, clean), 0.01, seed=3)
        result = fit_lorentzian(data)
        assert result.converged

        def objective(p):
            return float(np.sum((lorentzian(x, *p) - data.y) ** 2))

        params = np.array(
            [result.params[k] for k in ("amplitude", "center", "fwhm", "baseline")]
        )
        span = float(x[-1] - x[0])
        grad = central_gradient(objective, params, scales=[1.0, span, span, 1.0])
        assert np.linalg.norm(grad) <= 1e-6 * (1.0 + objective(params))


class TestFitSaturation:
    def test_noiseless_recovery(self):
        x = np.geomspace(0.1, 50.0, 20)
        y = 1000.0 * (0.2 * x) / (1.0 + 0.2 * x)
        result = fit_saturation(saturation_dataset(x, y))
        assert result.converged
        assert result.params["i_sat"] == pytest.approx(1000.0, rel=1e-6)
        assert result.params["alpha_per_uw"] == pytest.approx(0.2, rel=1e-6)
        assert_uncertainties_nonnegative(result)

    def test_far_below_saturation_flags_alpha(self):
        # Perfectly linear data cannot separate the plateau from the slope.
        x = np.linspace(0.1, 1.0, 10)
        result = fit_saturation(saturation_dataset(x, 0.05 * x))
        assert result.param_unreliable("alpha_per_uw")
        assert "under-determined" in result.message

    def test_all_zero_signal_rejected(self):
        x = np.linspace(0.1, 1.0, 10)
        with pytest.raises(NoSignalError):
            fit_saturation(saturation_dataset(x, np.zeros(10)))

    def test_needs_at_least_five_samples(self):
        with pytest.raises(ValueError):
            fit_saturation(saturation_dataset(np.array([1.0]), np.array([2.0])))

    def test_gradient_vanishes_at_the_reported_optimum(self):
        x = np.geomspace(0.1, 50.0, 20)
        clean = 1.5 * (0.2 * x) / (1.0 + 0.2 * x)
        data = synthesize_noisy(saturation_dataset(x, clean), 0.03, seed=5)
        result = fit_saturation(data)
        assert result.converged

        def objective(p):
            return float(np.sum((p[0] * p[1] * x / (1.0 + p[1] * x) - data.y) ** 2))

        params = np.array([result.params["i_sat"], result.params["alpha_per_uw"]])
        grad = central_gradient(objective, params, scales=[1.0, 1.0])
        assert np.linalg.norm(grad) <= 1e-6 * (1.0 + objective(params))

    def test_convergence_flag_certifies_the_gradient_criterion(self):
        # The exact analytic gradient at the reported optimum satisfies the
        # advertised convergence bound for order-one data.
        x = np.linspace(0.02, 0.9, 15)
        y = 1.4 * (5.0 * x) / (1.0 + 5.0 * x)
        result = fit_saturation(saturation_dataset(x, y))
        assert result.converged

        i_sat, alpha = result.params["i_sat"], result.params["alpha_per_uw"]
        model = i_sat * alpha * x / (1.0 + alpha * x)
        residual = model - y
        jac = np.column_stack(
            [alpha * x / (1.0 + alpha * x), i_sat * x / (1.0 + alpha * x) ** 2]
        )
        gradient = 2.0 * jac.T @ residual
        objective = float(residual @ residual)
        assert np.linalg.norm(gradient) <= 1e-8 * (1.0 + objective)


class TestFitPowerBroadening:
    def test_noiseless_recovery(self):
        x = np.geomspace(0.1, 200.0, 25)
        y = 12.6 + 1.96 * np.sqrt(1.0 + 0.2 * x)
        result = fit_power_broadening(linewidth_dataset(x, y), alpha_fixed=0.2)
        assert result.converged
        assert result.params["delta_omega_c_ghz"] == pytest.approx(12.6, rel=1e-6)
        assert result.params["delta_omega_0_ghz"] == pytest.approx(1.96, rel=1e-6)
        assert_uncertainties_nonnegative(result)

    def test_recovery_with_noise_over_many_seeds(self):
        # Fifteen points, split between the saturation knee and a far
        # lever arm, recover both widths within 5% on essentially every
        # noise realisation.
        x = np.concatenate([np.geomspace(0.05, 5.0, 8), np.linspace(4000.0, 5000.0, 7)])
        clean = linewidth_dataset(x, 12.6 + 1.96 * np.sqrt(1.0 + 0.2 * x))
        successes = 0
        for seed in range(100):
            noisy = synthesize_noisy(clean, 0.03, seed=seed)
            result = fit_power_broadening(noisy, alpha_fixed=0.2)
            if not result.converged:
                continue
            ok_c = abs(result.params["delta_omega_c_ghz"] - 12.6) / 12.6 <= 0.05
            ok_0 = abs(result.params["delta_omega_0_ghz"] - 1.96) / 1.96 <= 0.05
            successes += ok_c and ok_0
        assert successes >= 95

    def test_flat_linewidths_put_everything_in_the_constant_term(self):
        x = np.geomspace(0.1, 100.0, 15)
        result = fit_power_broadening(linewidth_dataset(x, np.full(15, 12.6)), alpha_fixed=0.2)
        assert result.converged
        assert result.params["delta_omega_c_ghz"] == pytest.approx(12.6, abs=1e-8)
        assert abs(result.params["delta_omega_0_ghz"]) < 1e-8

    def test_chained_alpha_is_echoed_untouched(self):
        x = np.geomspace(0.1, 200.0, 25)
        y = 12.6 + 1.96 * np.sqrt(1.0 + 0.2 * x)
        alpha = 0.2
        result = fit_power_broadening(linewidth_dataset(x, y), alpha_fixed=alpha)
        assert result.params["alpha_per_uw"] == alpha
        assert result.uncertainties["alpha_per_uw"] == 0.0

    @pytest.mark.parametrize("alpha", [0.0, -0.2, float("inf"), float("nan")])
    def test_unusable_chained_alpha_rejected(self, alpha):
        x = np.geomspace(0.1, 200.0, 25)
        y = 12.6 + 1.96 * np.sqrt(1.0 + 0.2 * x)
        with pytest.raises(ChainingError):
            fit_power_broadening(linewidth_dataset(x, y), alpha_fixed=alpha)

    def test_negative_powers_rejected(self):
        # sqrt(1 + alpha * x) is undefined below x = -1/alpha; a closed-form
        # fit would return NaN widths marked converged.
        x = np.linspace(-5.0, 0.0, 6)
        with pytest.raises(ValueError, match="powers >= 0"):
            fit_power_broadening(linewidth_dataset(x, np.arange(1.0, 7.0)), alpha_fixed=1.0)

    def test_gradient_vanishes_at_the_reported_optimum(self):
        x = np.geomspace(0.05, 1000.0, 40)
        clean = linewidth_dataset(x, 0.9 + 0.14 * np.sqrt(1.0 + 0.2 * x))
        data = synthesize_noisy(clean, 0.03, seed=7)
        result = fit_power_broadening(data, alpha_fixed=0.2)
        assert result.converged

        root = np.sqrt(1.0 + 0.2 * x)

        def objective(p):
            return float(np.sum((p[0] + p[1] * root - data.y) ** 2))

        params = np.array(
            [result.params["delta_omega_c_ghz"], result.params["delta_omega_0_ghz"]]
        )
        grad = central_gradient(objective, params, scales=[1.0, 1.0])
        assert np.linalg.norm(grad) <= 1e-6 * (1.0 + objective(params))

    @settings(max_examples=150)
    @given(
        log_alpha=st.floats(min_value=-3.0, max_value=1.0),
        log_p_tilde_max=st.floats(min_value=-0.5, max_value=4.0),
        low_fraction=st.floats(min_value=0.0, max_value=0.3),
        points=st.integers(min_value=5, max_value=60),
        log_spaced=st.booleans(),
        c=st.floats(min_value=-5.0, max_value=20.0),
        log_d=st.floats(min_value=-2.0, max_value=1.3),
        noise=st.sampled_from([0.0, 1e-3, 0.03]),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_matches_linear_least_squares(
        self, log_alpha, log_p_tilde_max, low_fraction, points, log_spaced, c, log_d, noise, seed
    ):
        """With alpha frozen the model is linear in (C, D): the fit is the exact optimum."""
        alpha = 10.0**log_alpha
        p_max = 10.0**log_p_tilde_max / alpha
        if log_spaced:
            x = np.geomspace(max(low_fraction, 1e-3) * p_max, p_max, points)
        else:
            x = np.linspace(low_fraction * p_max, p_max, points)
        root = np.sqrt(1.0 + alpha * x)
        clean = linewidth_dataset(x, c + 10.0**log_d * root)
        data = synthesize_noisy(clean, noise, seed)
        result = fit_power_broadening(data, alpha_fixed=alpha)
        assert result.converged
        assert result.iterations == 0

        design = np.column_stack([np.ones_like(root), root])
        expected = np.linalg.lstsq(design, data.y, rcond=None)[0]
        got = np.array([result.params["delta_omega_c_ghz"], result.params["delta_omega_0_ghz"]])
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


class TestFitLinear:
    def test_two_points_exact(self):
        data = linewidth_dataset(np.array([0.0, 1.0]), np.array([0.0, 2.0]))
        result = fit_linear(data)
        assert result.params["slope"] == pytest.approx(2.0, rel=1e-15)
        assert result.params["intercept"] == pytest.approx(0.0, abs=1e-15)
        assert result.converged
        assert result.iterations == 0

    def test_noisy_slope_recovery(self):
        x = np.linspace(0.5, 25.0, 20)
        clean = linewidth_dataset(x, 0.5 * x)
        data = synthesize_noisy(clean, 0.01, seed=11)
        result = fit_linear(data)
        assert result.params["slope"] == pytest.approx(0.5, rel=0.02)
        assert_uncertainties_nonnegative(result)

    def test_matches_reference_least_squares(self):
        rng = np.random.default_rng(17)
        x = np.linspace(0.0, 10.0, 30)
        y = 1.7 * x - 3.0 + rng.normal(scale=0.3, size=30)
        result = fit_linear(linewidth_dataset(x, y))
        slope_ref, intercept_ref = np.polyfit(x, y, 1)
        assert result.params["slope"] == pytest.approx(slope_ref, rel=1e-10)
        assert result.params["intercept"] == pytest.approx(intercept_ref, rel=1e-10)

    def test_constant_data_has_zero_slope(self):
        x = np.linspace(0.0, 5.0, 10)
        result = fit_linear(linewidth_dataset(x, np.full(10, 4.5)))
        assert result.params["slope"] == pytest.approx(0.0, abs=1e-14)
        assert result.params["intercept"] == pytest.approx(4.5, rel=1e-14)

    def test_single_point_rejected(self):
        with pytest.raises(ValueError):
            fit_linear(linewidth_dataset(np.array([1.0]), np.array([2.0])))


class TestExcessBroadening:
    def test_subtracting_the_constant_zeroes_constant_data(self):
        x = np.linspace(0.5, 25.0, 10)
        data = linewidth_dataset(x, np.full(10, 35.6))
        excess = excess_broadening(data, TWO_PI * 35.6)
        np.testing.assert_allclose(excess.y, 0.0, atol=1e-12)
        assert excess.meta["subtracted_fwhm_ghz"] == pytest.approx(35.6, rel=1e-15)

    def test_shift_never_rescales(self):
        x = np.linspace(0.5, 25.0, 10)
        data = linewidth_dataset(x, 50.3 + 0.8 * x)
        excess = excess_broadening(data, TWO_PI * 50.3)
        shifts = excess.y - data.y
        np.testing.assert_allclose(shifts, -50.3, rtol=1e-12)

    def test_shift_is_reversible(self):
        x = np.linspace(0.5, 25.0, 10)
        data = linewidth_dataset(x, 40.0 + 0.5 * x)
        excess = excess_broadening(data, TWO_PI * 7.0)
        np.testing.assert_allclose(excess.y + 7.0, data.y, rtol=1e-12)

    def test_requires_linewidth_data(self):
        x = np.linspace(0.5, 25.0, 10)
        data = saturation_dataset(x, np.full(10, 3.0))
        with pytest.raises(ValueError):
            excess_broadening(data, TWO_PI * 1.0)

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_requires_positive_intrinsic_width(self, bad):
        x = np.linspace(0.5, 25.0, 10)
        with pytest.raises(ValueError):
            excess_broadening(linewidth_dataset(x, np.full(10, 3.0)), bad)
