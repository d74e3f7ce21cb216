"""Synthetic measurement pipelines: curve synthesis and chained recovery."""

import numpy as np
import pytest

from cqed_scope.dataset import ScanKind, SpectrumDataset
from cqed_scope.reproduce import (
    chained_fit_power_grid,
    chained_linewidth_fit,
    excess_curve,
    excess_slope_fit,
    linewidth_curve,
    saturation_curve,
    saturation_power_grid,
)
from cqed_scope.scan import synthesize_noisy

#: Table 1 row S1: delta_omega_c and delta_omega_0 in GHz, alpha per uW.
S1 = (12.6, 1.96, 2.0)


class TestSaturationCurve:
    def test_noiseless_formula(self):
        powers = np.geomspace(0.1, 50.0, 20)
        data = saturation_curve(powers, i_sat=1000.0, alpha_per_uw=0.2)
        expected = 1000.0 * (0.2 * powers) / (1.0 + 0.2 * powers)
        assert data.kind is ScanKind.POWER_SWEEP
        assert data.x_unit == "uW" and data.y_unit == "intensity"
        assert np.array_equal(data.y, expected)

    def test_rejects_nonpositive_truth(self):
        powers = np.linspace(0.1, 5.0, 10)
        with pytest.raises(ValueError, match="must be > 0"):
            saturation_curve(powers, i_sat=0.0, alpha_per_uw=0.2)
        with pytest.raises(ValueError, match="must be > 0"):
            saturation_curve(powers, i_sat=10.0, alpha_per_uw=-1.0)


class TestLinewidthCurve:
    def test_matches_broadening_model_in_ghz(self):
        powers = np.geomspace(0.05, 100.0, 25)
        data = linewidth_curve(powers, *S1)
        expected = 12.6 + 1.96 * np.sqrt(1.0 + 2.0 * powers)
        assert data.y_unit == "fwhm_ghz"
        # Evaluated in GHz: no 2 pi round trip rounds a width off the model.
        assert np.array_equal(data.y, expected)

    def test_rejects_bad_truth(self):
        powers = np.linspace(0.5, 5.0, 6)
        with pytest.raises(ValueError, match="linewidth contributions must be >= 0"):
            linewidth_curve(powers, -1.0, 1.96, 2.0)
        with pytest.raises(ValueError, match="linewidth contributions must be >= 0"):
            linewidth_curve(powers, 12.6, float("nan"), 2.0)
        with pytest.raises(ValueError, match="alpha must be > 0"):
            linewidth_curve(powers, 12.6, 1.96, 0.0)
        with pytest.raises(ValueError, match="power must be >= 0"):
            linewidth_curve(-powers, 12.6, 1.96, 2.0)


class TestExcessCurve:
    def test_linear_formula(self):
        powers = np.linspace(0.5, 25.0, 40)
        data = excess_curve(powers, intrinsic_fwhm_ghz=35.6, slope_ghz_per_uw=0.5)
        assert np.array_equal(data.y, 35.6 + 0.5 * powers)

    def test_rejects_bad_truth(self):
        powers = np.linspace(0.5, 5.0, 6)
        with pytest.raises(ValueError, match="intrinsic width must be > 0"):
            excess_curve(powers, intrinsic_fwhm_ghz=0.0, slope_ghz_per_uw=0.5)
        with pytest.raises(ValueError, match="excess slope must be >= 0"):
            excess_curve(powers, intrinsic_fwhm_ghz=35.6, slope_ghz_per_uw=-0.1)


class TestChainedFit:
    def test_noiseless_round_trip_recovers_truth(self):
        """Calibration + frozen-alpha linewidth fit land on the inputs."""
        sat = saturation_curve(saturation_power_grid(2.0), 1000.0, 2.0)
        widths = linewidth_curve(chained_fit_power_grid(2.0), *S1)
        chained = chained_linewidth_fit(sat, widths)
        assert chained.alpha_reliable
        assert chained.saturation.params["i_sat"] == pytest.approx(1000.0, rel=1e-6)
        alpha_hat = chained.saturation.params["alpha_per_uw"]
        assert alpha_hat == pytest.approx(2.0, rel=1e-6)
        lw = chained.linewidth
        assert lw.params["delta_omega_c_ghz"] == pytest.approx(12.6, rel=1e-6)
        assert lw.params["delta_omega_0_ghz"] == pytest.approx(1.96, rel=1e-6)
        # The calibrated alpha is frozen, not refit.
        assert lw.params["alpha_per_uw"] == alpha_hat
        assert lw.uncertainties["alpha_per_uw"] == 0.0

    def test_unreliable_calibration_skips_linewidth_fit(self):
        """A curve with no bend cannot calibrate alpha, so the chain stops."""
        powers = np.geomspace(0.05, 1.0, 20)
        linear = SpectrumDataset(
            kind=ScanKind.POWER_SWEEP,
            x=powers,
            y=100.0 * powers,
            x_unit="uW",
            y_unit="intensity",
        )
        widths = linewidth_curve(chained_fit_power_grid(2.0), *S1)
        chained = chained_linewidth_fit(linear, widths)
        assert not chained.alpha_reliable
        assert chained.linewidth is None
        assert "under-determined" in chained.saturation.message

    @pytest.mark.parametrize("alpha", [0.37, 1.0, 2.0, 5.5])
    def test_power_grid_is_the_sorted_union_of_knee_and_lever(self, alpha):
        knee = np.geomspace(0.01 / alpha, 5.0 / alpha, 60)
        lever = (np.linspace(np.sqrt(6.0), np.sqrt(201.0), 60) ** 2 - 1.0) / alpha
        grid = chained_fit_power_grid(alpha)
        assert np.array_equal(grid, np.unique(np.concatenate([knee, lever])))
        assert np.all(np.diff(grid) > 0.0)


class TestExcessSlopeFit:
    def test_noiseless_slope_exact(self):
        powers = np.linspace(0.5, 25.0, 40)
        data = excess_curve(powers, 35.6, 0.5)
        result = excess_slope_fit(data, intrinsic_fwhm_ghz=35.6)
        assert result.converged
        assert result.params["slope"] == pytest.approx(0.5, rel=1e-12)
        assert result.params["intercept"] == pytest.approx(0.0, abs=1e-9)

    def test_noisy_slope_close(self):
        powers = np.linspace(0.5, 25.0, 40)
        data = synthesize_noisy(excess_curve(powers, 35.6, 0.5), 0.01, seed=7)
        result = excess_slope_fit(data, intrinsic_fwhm_ghz=35.6)
        assert result.params["slope"] == pytest.approx(0.5, rel=0.05)


class TestPowerGrids:
    def test_chained_grid_shape(self):
        grid = chained_fit_power_grid(2.0)
        assert np.all(np.diff(grid) > 0.0)
        assert np.all(grid > 0.0)
        assert grid[0] == pytest.approx(0.005)
        assert grid[-1] == pytest.approx(100.0)

    def test_chained_grid_scales_inversely_with_alpha(self):
        np.testing.assert_allclose(
            chained_fit_power_grid(0.5), 4.0 * chained_fit_power_grid(2.0), rtol=1e-12
        )

    def test_saturation_grid_exact(self):
        assert np.array_equal(
            saturation_power_grid(2.0), np.geomspace(0.005, 100.0, 200)
        )

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="alpha_per_uw must be > 0"):
            chained_fit_power_grid(0.0)
        with pytest.raises(ValueError, match="alpha_per_uw must be > 0"):
            saturation_power_grid(-1.0)
