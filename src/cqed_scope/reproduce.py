"""Synthetic round-trip pipelines.

These build mock measurement series from known ground-truth parameters and
run the same chained fits an experimenter would, so that parameter recovery
can be demonstrated (and regression-tested) end to end:

* saturation curve -> photon-number calibration ``alpha``
* linewidth-vs-power curve -> power-independent and power-broadened widths,
  with ``alpha`` frozen from the saturation step
* linewidth-vs-power curve minus an intrinsic width -> linear excess slope
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytic import LinewidthModelParams, combined_linewidth
from .dataset import ScanKind, SpectrumDataset
from .fit import (
    FitResult,
    excess_broadening,
    fit_linear,
    fit_power_broadening,
    fit_saturation,
)
from .model import TWO_PI
from .scan import synthesize_noisy


def saturation_curve(
    powers_uw: np.ndarray,
    i_sat: float,
    alpha_per_uw: float,
    relative_noise: float = 0.0,
    seed: int = 7,
) -> SpectrumDataset:
    """Emission-vs-power samples of ``I_sat * aP / (1 + aP)``."""
    powers = np.asarray(powers_uw, dtype=float)
    if not (i_sat > 0.0 and alpha_per_uw > 0.0):
        raise ValueError("i_sat and alpha_per_uw must be > 0")
    drive = alpha_per_uw * powers
    data = SpectrumDataset(
        kind=ScanKind.POWER_SWEEP,
        x=powers,
        y=i_sat * drive / (1.0 + drive),
        x_unit="uW",
        y_unit="intensity",
        meta={"i_sat_true": i_sat, "alpha_true_per_uw": alpha_per_uw},
    )
    if relative_noise > 0.0:
        data = synthesize_noisy(data, relative_noise, seed)
    return data


def linewidth_curve(
    powers_uw: np.ndarray,
    model: LinewidthModelParams,
    relative_noise: float = 0.0,
    seed: int = 8,
) -> SpectrumDataset:
    """Linewidth-vs-power samples of the combined broadening model, in GHz."""
    powers = np.asarray(powers_uw, dtype=float)
    widths_ghz = np.array([combined_linewidth(model, p) for p in powers]) / TWO_PI
    data = SpectrumDataset(
        kind=ScanKind.POWER_SWEEP,
        x=powers,
        y=widths_ghz,
        x_unit="uW",
        y_unit="fwhm_ghz",
        meta={
            "delta_omega_c_true_ghz": model.delta_omega_c / TWO_PI,
            "delta_omega_0_true_ghz": model.delta_omega_0 / TWO_PI,
            "alpha_true_per_uw": model.alpha,
        },
    )
    if relative_noise > 0.0:
        data = synthesize_noisy(data, relative_noise, seed)
    return data


def excess_curve(
    powers_uw: np.ndarray,
    intrinsic_fwhm_ghz: float,
    slope_ghz_per_uw: float,
    relative_noise: float = 0.0,
    seed: int = 9,
) -> SpectrumDataset:
    """Cavity-scan linewidths growing linearly above an intrinsic width."""
    powers = np.asarray(powers_uw, dtype=float)
    if not intrinsic_fwhm_ghz > 0.0:
        raise ValueError("intrinsic width must be > 0")
    if not slope_ghz_per_uw >= 0.0:
        raise ValueError("excess slope must be >= 0")
    data = SpectrumDataset(
        kind=ScanKind.POWER_SWEEP,
        x=powers,
        y=intrinsic_fwhm_ghz + slope_ghz_per_uw * powers,
        x_unit="uW",
        y_unit="fwhm_ghz",
        meta={
            "intrinsic_fwhm_true_ghz": intrinsic_fwhm_ghz,
            "excess_slope_true_ghz_per_uw": slope_ghz_per_uw,
        },
    )
    if relative_noise > 0.0:
        data = synthesize_noisy(data, relative_noise, seed)
    return data


@dataclass(frozen=True)
class ChainedFit:
    """Outcome of the saturation -> linewidth fit chain.

    ``linewidth`` is ``None`` when the calibration step left ``alpha``
    unreliable and the chained fit was therefore skipped.
    """

    saturation: FitResult
    linewidth: FitResult | None

    @property
    def alpha_reliable(self) -> bool:
        return self.linewidth is not None


def chained_linewidth_fit(
    saturation_data: SpectrumDataset, linewidth_data: SpectrumDataset
) -> ChainedFit:
    """Calibrate ``alpha`` on a saturation curve, then fit the linewidths.

    The linewidth model is fit with the calibrated ``alpha`` frozen rather
    than refit, mirroring how the two measurement series constrain each
    other in practice.
    """
    saturation_fit = fit_saturation(saturation_data)
    alpha = saturation_fit.params["alpha_per_uw"]
    if (
        not saturation_fit.converged
        or saturation_fit.param_unreliable("alpha_per_uw")
        or not alpha > 0.0
    ):
        return ChainedFit(saturation=saturation_fit, linewidth=None)
    linewidth_fit = fit_power_broadening(linewidth_data, alpha_fixed=alpha)
    return ChainedFit(saturation=saturation_fit, linewidth=linewidth_fit)


def excess_slope_fit(linewidths: SpectrumDataset, intrinsic_fwhm_ghz: float) -> FitResult:
    """Subtract the intrinsic width and fit a straight line to the excess."""
    return fit_linear(excess_broadening(linewidths, TWO_PI * intrinsic_fwhm_ghz))


def chained_fit_power_grid(
    alpha_per_uw: float, knee_points: int = 60, lever_points: int = 60, p_tilde_max: float = 200.0
) -> np.ndarray:
    """Power grid tuned for the chained linewidth fit.

    Log-spaced points across the saturation knee pin the low-power
    extrapolation (the power-independent term); points uniform in the
    broadened width (square root of ``1 + aP``) give the power-broadening
    coefficient a long, evenly weighted lever arm.
    """
    if not alpha_per_uw > 0.0:
        raise ValueError("alpha_per_uw must be > 0")
    if knee_points < 2 or lever_points < 2:
        raise ValueError("need at least 2 points per grid section")
    knee = np.geomspace(0.01 / alpha_per_uw, 5.0 / alpha_per_uw, knee_points)
    root = np.linspace(np.sqrt(6.0), np.sqrt(1.0 + p_tilde_max), lever_points)
    lever = (root**2 - 1.0) / alpha_per_uw
    return np.unique(np.concatenate([knee, lever]))


def saturation_power_grid(alpha_per_uw: float, points: int = 200) -> np.ndarray:
    """Dense log-spaced power grid spanning well below to far above the knee.

    The calibration constant is the noise-limiting input of the chained
    fit, so the saturation series is sampled more densely than the
    linewidth series.
    """
    if not alpha_per_uw > 0.0:
        raise ValueError("alpha_per_uw must be > 0")
    if points < 5:
        raise ValueError("need at least 5 points")
    return np.geomspace(0.01 / alpha_per_uw, 200.0 / alpha_per_uw, points)
