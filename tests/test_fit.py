"""Least-squares models: line shapes, saturation, power broadening, lines."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cqed_scope import fit
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
from cqed_scope.scan import synthesize_noisy

from helpers import central_gradient, lorentzian, saturation_minima, saturation_ssr


def wavelength_dataset(x, y):
    return SpectrumDataset(
        kind=ScanKind.LASER_WAVELENGTH, x=x, y=y, x_unit="nm", y_unit="intensity"
    )


def saturation_dataset(x, y):
    return SpectrumDataset(kind=ScanKind.POWER_SWEEP, x=x, y=y, x_unit="uW", y_unit="intensity")


def linewidth_dataset(x, y):
    return SpectrumDataset(kind=ScanKind.POWER_SWEEP, x=x, y=y, x_unit="uW", y_unit="fwhm_ghz")


def power_of_two_scale(y):
    """Largest power of two not above the data's peak magnitude."""
    return 2.0 ** np.floor(np.log2(np.max(np.abs(y))))


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

    @settings(max_examples=150)
    @given(
        points=st.integers(min_value=15, max_value=201),
        log_span=st.floats(min_value=-2.0, max_value=1.0),
        center_fraction=st.floats(min_value=0.2, max_value=0.8),
        log_width_fraction=st.floats(min_value=-1.5, max_value=0.0),
        log_amplitude=st.floats(min_value=-3.0, max_value=4.0),
        baseline_fraction=st.floats(min_value=0.0, max_value=0.5),
        noise=st.sampled_from([0.0, 1e-3, 0.03]),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_gradient_vanishes_at_the_reported_optimum(
        self, points, log_span, center_fraction, log_width_fraction, log_amplitude,
        baseline_fraction, noise, seed,
    ):
        span = 10.0**log_span
        x = np.linspace(930.0, 930.0 + span, points)
        amplitude = 10.0**log_amplitude
        clean = lorentzian(
            x, amplitude, 930.0 + center_fraction * span, 10.0**log_width_fraction * span,
            baseline_fraction * amplitude,
        )
        data = synthesize_noisy(wavelength_dataset(x, clean), noise, seed)
        try:
            result = fit_lorentzian(data)
        except IllPosedWindowError:
            return  # noise moved the tallest sample onto an edge
        if not result.converged:
            return

        # The convergence criterion holds on intensities divided by their
        # power-of-two scale and on positions in units of the window span.
        scale = power_of_two_scale(data.y)
        y = data.y / scale

        def objective(p):
            return float(np.sum((lorentzian(x, *p) - y) ** 2))

        params = np.array([
            result.params["amplitude"] / scale, result.params["center"],
            result.params["fwhm"], result.params["baseline"] / scale,
        ])
        width = result.params["fwhm"]
        grad = central_gradient(objective, params, scales=[1.0, width, width, 1.0])
        grad *= [1.0, span, span, 1.0]
        assert np.linalg.norm(grad) <= 1e-6 * (1.0 + objective(params))

    @settings(max_examples=150)
    @given(
        span_fwhm=st.floats(min_value=3.0, max_value=20.0),
        centre_offset=st.floats(min_value=-0.25, max_value=0.25),
        points=st.integers(min_value=21, max_value=401),
        log_amplitude=st.floats(min_value=-3.0, max_value=4.0),
        baseline_fraction=st.floats(min_value=0.0, max_value=0.5),
    )
    def test_noise_free_lines_are_recovered(
        self, span_fwhm, centre_offset, points, log_amplitude, baseline_fraction
    ):
        # A window of 3-20 widths with the line well inside it pins all four parameters.
        fwhm = 0.05
        span = span_fwhm * fwhm
        x = np.linspace(930.0, 930.0 + span, points)
        centre = 930.0 + (0.5 + centre_offset) * span
        amplitude = 10.0**log_amplitude
        y = lorentzian(x, amplitude, centre, fwhm, baseline_fraction * amplitude)
        result = fit_lorentzian(wavelength_dataset(x, y))
        assert result.converged
        assert result.message == ""
        assert result.params["center"] == pytest.approx(centre, abs=1e-6 * fwhm)
        assert result.params["fwhm"] == pytest.approx(fwhm, rel=1e-6)

    def test_noisy_narrow_line_raises_no_numpy_warning(self):
        x = np.linspace(930.0, 931.0, 185)
        noise = 0.27 * np.random.default_rng(24).standard_normal(185)
        y = np.clip(lorentzian(x, 1.0, 930.7583, 0.0112, 0.2) + noise, 0.0, None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit_lorentzian(wavelength_dataset(x, y))

    @settings(max_examples=100)
    @given(
        points=st.integers(min_value=5, max_value=60),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @example(points=56, seed=13099)  # a trial width so large that the shape is flat
    def test_noise_ends_with_a_reason(self, points, seed):
        # Pure noise pins no line; the fit must still stop and, short of converging, say why.
        x = np.linspace(930.0, 931.0, points)
        y = np.random.default_rng(seed).random(points)
        try:
            result = fit_lorentzian(wavelength_dataset(x, y))
        except IllPosedWindowError:
            return
        assert result.iterations <= fit.MAX_ITERATIONS
        assert result.converged or result.message in {
            "no convergence within iteration budget",
            "degenerate jacobian; parameters not identifiable",
            "no descent step found",
        }

    def test_iteration_budget_exit(self, monkeypatch):
        x = np.linspace(930.9, 931.1, 201)
        clean = lorentzian(x, 1.3, 931.0, 0.0879, 0.1)
        data = synthesize_noisy(wavelength_dataset(x, clean), 0.01, seed=3)
        assert fit_lorentzian(data).iterations > 3
        monkeypatch.setattr(fit, "MAX_ITERATIONS", 3)
        result = fit_lorentzian(data)
        assert not result.converged
        assert result.message == "no convergence within iteration budget"
        assert result.iterations == 3

    def test_last_allowed_step_can_converge(self, monkeypatch):
        x = np.linspace(930.9, 931.1, 201)
        clean = lorentzian(x, 1.3, 931.0, 0.0879, 0.1)
        data = synthesize_noisy(wavelength_dataset(x, clean), 0.01, seed=3)
        unbounded = fit_lorentzian(data)
        monkeypatch.setattr(fit, "MAX_ITERATIONS", unbounded.iterations)
        assert fit_lorentzian(data) == unbounded


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

    @settings(max_examples=150)
    @given(
        points=st.integers(min_value=5, max_value=40),
        log_p_max=st.floats(min_value=-2.0, max_value=3.0),
        low_fraction=st.floats(min_value=1e-3, max_value=0.3),
        log_spaced=st.booleans(),
        log_saturation=st.floats(min_value=-1.0, max_value=2.5),
        log_i_sat=st.floats(min_value=-3.0, max_value=5.0),
        noise=st.sampled_from([0.0, 1e-3, 0.03]),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    # Five noisy points on the plateau: the saturated-at-every-power verdict.
    @example(
        points=5, log_p_max=0.0, low_fraction=0.2895025473388038, log_spaced=False,
        log_saturation=1.8169884027349563, log_i_sat=0.0, noise=0.03, seed=2636,
    )
    def test_gradient_vanishes_at_the_reported_optimum(
        self, points, log_p_max, low_fraction, log_spaced, log_saturation, log_i_sat, noise, seed
    ):
        p_max = 10.0**log_p_max
        grid = np.geomspace if log_spaced else np.linspace
        x = grid(low_fraction * p_max, p_max, points)
        alpha = 10.0**log_saturation / p_max
        clean = 10.0**log_i_sat * alpha * x / (1.0 + alpha * x)
        data = synthesize_noisy(saturation_dataset(x, clean), noise, seed)
        result = fit_saturation(data)
        if not result.converged:
            return

        # The convergence criterion holds on intensities divided by their
        # power-of-two scale and on powers in units of the largest one.
        scale = power_of_two_scale(data.y)
        y = data.y / scale

        def objective(p):
            return float(np.sum((p[0] * p[1] * x / (1.0 + p[1] * x) - y) ** 2))

        params = np.array([result.params["i_sat"] / scale, result.params["alpha_per_uw"]])
        grad = central_gradient(objective, params, scales=np.abs(params))
        grad *= [1.0, 1.0 / p_max]
        assert np.linalg.norm(grad) <= 1e-6 * (1.0 + objective(params))

    def test_negative_powers_rejected(self):
        x = np.array([-1.0, 0.0, 0.5, 2.0, 3.0, 7.0])
        with pytest.raises(ValueError, match="saturation fit needs powers >= 0"):
            fit_saturation(saturation_dataset(x, 3.0 * np.abs(x) / (1.0 + np.abs(x))))

    def test_zero_power_is_a_sample(self):
        x = np.array([0.0, 0.25, 0.5, 2.0, 3.0, 7.0])
        result = fit_saturation(saturation_dataset(x, 3.0 * x / (1.0 + x)))
        assert result.converged and not result.message
        assert result.params["alpha_per_uw"] == pytest.approx(1.0, rel=1e-9)
        assert result.params["i_sat"] == pytest.approx(3.0, rel=1e-9)

    @settings(max_examples=150, deadline=None)
    @given(
        points=st.integers(min_value=5, max_value=200),
        log_p_max=st.floats(min_value=-2.0, max_value=3.0),
        log_spaced=st.booleans(),
        log_saturation=st.floats(min_value=-3.0, max_value=3.0),
        log_i_sat=st.floats(min_value=-6.0, max_value=6.0),
    )
    def test_noise_free_curves_resolve_alpha(
        self, points, log_p_max, log_spaced, log_saturation, log_i_sat
    ):
        # Whether alpha is resolved follows alpha * P_max, never a step count.
        p_max = 10.0**log_p_max
        grid = np.geomspace if log_spaced else np.linspace
        x = grid(p_max / points, p_max, points)
        alpha = 10.0**log_saturation / p_max
        result = fit_saturation(saturation_dataset(x, 10.0**log_i_sat * alpha * x / (1.0 + alpha * x)))
        assert result.converged
        assert result.message == ""
        assert result.params["alpha_per_uw"] == pytest.approx(alpha, rel=1e-6)

    @given(
        points=st.integers(min_value=5, max_value=200),
        log_p_max=st.floats(min_value=-2.0, max_value=3.0),
        log_slope=st.floats(min_value=-6.0, max_value=6.0),
        from_zero=st.booleans(),
    )
    def test_lines_through_the_origin_never_saturate(self, points, log_p_max, log_slope, from_zero):
        p_max = 10.0**log_p_max
        x = np.linspace(0.0 if from_zero else p_max / points, p_max, points)
        result = fit_saturation(saturation_dataset(x, 10.0**log_slope * x))
        assert result.message == "alpha under-determined; data never saturates"
        assert result.uncertainties["alpha_per_uw"] == np.inf
        assert result.params["alpha_per_uw"] == 0.0
        assert not result.converged

    def test_flat_noisy_data_saturates_at_every_power(self):
        # The gradient test's explicit example: five noisy points on the plateau.
        x = np.linspace(0.2895025473388038, 1.0, 5)
        alpha = 10.0**1.8169884027349563
        data = synthesize_noisy(saturation_dataset(x, alpha * x / (1.0 + alpha * x)), 0.03, 2636)
        result = fit_saturation(data)
        assert result.message == "alpha under-determined; data saturated at every power"
        assert result.params["alpha_per_uw"] == np.inf
        assert result.uncertainties["alpha_per_uw"] == np.inf
        assert result.params["i_sat"] == pytest.approx(np.mean(data.y), rel=1e-12)
        assert not result.converged and result.iterations == 0

    def test_unresolved_alpha_names_the_end_not_excluded(self):
        # Every power lies past the knee (alpha * P >= 10): the noise hides where the
        # curve bends, but not that it bends, so the open end is saturation.
        x = np.linspace(1.0 / 30.0, 1.0, 30)
        clean = 1000.0 * 300.0 * x / (1.0 + 300.0 * x)
        result = fit_saturation(synthesize_noisy(saturation_dataset(x, clean), 0.03, seed=108))
        assert result.converged
        assert result.param_unreliable("alpha_per_uw")
        assert result.message == "alpha under-determined; data saturated at every power"

    @settings(max_examples=100, deadline=None)
    @given(
        points=st.integers(min_value=5, max_value=300),
        log_p_max=st.floats(min_value=-2.0, max_value=3.0),
        low_fraction=st.floats(min_value=1e-3, max_value=0.3),
        log_spaced=st.booleans(),
        shape=st.sampled_from(["curve", "line", "plateau"]),
        log_saturation=st.floats(min_value=math.log10(0.03), max_value=math.log10(5000.0)),
        log_i_sat=st.floats(min_value=-3.0, max_value=3.0),
        noise=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.3)),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    # Five noisy points on a plateau: the profile's lowest minimum lies at alpha * P = 970,
    # but the bracketed search lands on the one at 2.6 (and flags that alpha unreliable).
    @example(
        points=5, log_p_max=0.0, low_fraction=0.00390625, log_spaced=False, shape="plateau",
        log_saturation=0.0, log_i_sat=0.0, noise=0.25, seed=5,
    )
    def test_alpha_agrees_with_a_golden_section_oracle(
        self, points, log_p_max, low_fraction, log_spaced, shape, log_saturation, log_i_sat,
        noise, seed,
    ):
        # The curve, a line through the origin (never bends) or a plateau (saturated at
        # every power), with multiplicative noise.
        p_max = 10.0**log_p_max
        grid = np.geomspace if log_spaced else np.linspace
        x = grid(low_fraction * p_max, p_max, points)
        alpha = 10.0**log_saturation / p_max
        clean = {"curve": alpha * x / (1.0 + alpha * x), "line": x / p_max,
                 "plateau": np.ones_like(x)}[shape]
        data = synthesize_noisy(saturation_dataset(x, 10.0**log_i_sat * clean), noise, seed)
        if np.all(data.y == 0.0):
            return
        result = fit_saturation(data)

        # The oracle solves the fit's normalised problem: powers in units of the largest
        # one, intensities divided by their power-of-two scale.
        xn, yn = x / p_max, data.y / power_of_two_scale(data.y)
        minima = saturation_minima(xn, yn)
        eps = np.finfo(float).eps

        def rounding(ssr):
            # S rounds off by a few ulps of ||r|| ||y|| (each residual by a few ulps of y).
            return 8.0 * eps * (math.sqrt(ssr) * float(np.linalg.norm(yn)) + ssr)

        if noise == 0.0 and shape != "curve":
            assert not result.converged
            assert (result.message == "alpha under-determined; data never saturates") == (
                shape == "line"
            )
        if not result.converged:
            # A verdict at either end, where the profile's slope meets the gradient
            # criterion: if S is convex up to the end's nearest minimum, S falls from the
            # end by at most that slope times the distance.
            never = result.message == "alpha under-determined; data never saturates"
            assert never or result.message == "alpha under-determined; data saturated at every power"
            assert result.params["alpha_per_uw"] == (0.0 if never else math.inf)
            assert result.uncertainties["alpha_per_uw"] == math.inf
            end = 0.0 if never else 1.0
            end_ssr = saturation_ssr(xn, yn, end)
            beta, ssr, _ = min(minima, key=lambda m: abs(m[0] - end))
            fall = fit.GRADIENT_RTOL * (1.0 + end_ssr) * abs(beta - end)
            assert end_ssr - ssr <= fall + rounding(ssr)
            return
        # Converged: |dS/dbeta| <= GRADIENT_RTOL * (1 + S), so the fit lies within that times
        # beta * (1 - beta) / S_tt of a minimum in t = log(alpha * P_max) (doubled for the
        # change in curvature), give or take the oracle's resolution, sqrt(2 rounding / S_tt).
        # The bracketed search finds a minimum, not always the lowest: take the nearest.
        t_fit = math.log(result.params["alpha_per_uw"] * p_max)
        interior = [(math.log(m[0] / (1.0 - m[0])), *m) for m in minima if 0.0 < m[0] < 1.0]
        t, beta, ssr, curvature = min(interior, key=lambda m: abs(m[0] - t_fit))
        assert curvature > 0.0
        spread = beta * (1.0 - beta)
        tolerance = (2.0 * fit.GRADIENT_RTOL * (1.0 + ssr) * spread / curvature
                     + 2.0 * math.sqrt(2.0 * rounding(ssr) / curvature) + 4.0 * eps / spread)
        assert abs(t_fit - t) <= tolerance

    def test_a_log_odds_step_past_exp_range_is_bisected(self):
        # One outlier among powers from 1e-8 to 1: beta = 0's step starts the search near
        # 1e-8, where the next Gauss-Newton step in the log-odds is far beyond exp's range.
        x = np.array([1e-8, 2e-8, 3e-8, 4e-8, 1.0])
        result = fit_saturation(saturation_dataset(x, np.array([1e-8, 2.0, 3e-8, 4e-8, 1.5])))
        assert not result.converged
        assert result.message == "profile slope not resolved in floating point"

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

    def test_two_points_leave_no_degrees_of_freedom(self):
        data = linewidth_dataset(np.array([0.0, 1.0]), np.array([0.0, 2.0]))
        result = fit_linear(data)
        assert result.uncertainties == {"slope": np.inf, "intercept": np.inf}

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
    def test_subtracts_the_ghz_width_bit_for_bit(self):
        # 12.3 is one of the widths for which (2 pi * w) / 2 pi != w, so no round trip may run.
        x = np.linspace(0.5, 25.0, 10)
        data = linewidth_dataset(x, 40.0 + 0.5 * x)
        assert np.array_equal(excess_broadening(data, 12.3).y, data.y - 12.3)

    def test_subtracting_the_constant_zeroes_constant_data(self):
        x = np.linspace(0.5, 25.0, 10)
        data = linewidth_dataset(x, np.full(10, 35.6))
        excess = excess_broadening(data, 35.6)
        np.testing.assert_allclose(excess.y, 0.0, atol=1e-12)

    def test_shift_never_rescales(self):
        x = np.linspace(0.5, 25.0, 10)
        data = linewidth_dataset(x, 50.3 + 0.8 * x)
        excess = excess_broadening(data, 50.3)
        shifts = excess.y - data.y
        np.testing.assert_allclose(shifts, -50.3, rtol=1e-12)

    def test_shift_is_reversible(self):
        x = np.linspace(0.5, 25.0, 10)
        data = linewidth_dataset(x, 40.0 + 0.5 * x)
        excess = excess_broadening(data, 7.0)
        np.testing.assert_allclose(excess.y + 7.0, data.y, rtol=1e-12)

    def test_requires_linewidth_data(self):
        x = np.linspace(0.5, 25.0, 10)
        data = saturation_dataset(x, np.full(10, 3.0))
        with pytest.raises(ValueError):
            excess_broadening(data, 1.0)

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_requires_positive_intrinsic_width(self, bad):
        x = np.linspace(0.5, 25.0, 10)
        with pytest.raises(ValueError):
            excess_broadening(linewidth_dataset(x, np.full(10, 3.0)), bad)
