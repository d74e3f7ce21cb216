"""Synthetic round-trip pipelines.

These build model series from known ground-truth parameters and run the same
chained fits an experimenter would, so that parameter recovery can be
demonstrated (and regression-tested) end to end.  The curves are noiseless;
``scan.synthesize_noisy`` turns one into a mock measurement:

* saturation curve -> photon-number calibration ``alpha``
* linewidth-vs-power curve -> power-independent and power-broadened widths,
  with ``alpha`` frozen from the saturation step
* linewidth-vs-power curve minus an intrinsic width -> linear excess slope
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import log_grid
from .dataset import ScanKind, SpectrumDataset
from .fit import (
    FitResult,
    excess_broadening,
    fit_linear,
    fit_power_broadening,
    fit_saturation,
)

#: Chained-fit grid: points across the saturation knee, points on the lever arm, its largest ``aP``.
KNEE_POINTS = 60
LEVER_POINTS = 60
P_TILDE_MAX = 200.0

#: Points of the saturation-calibration grid.
SATURATION_POINTS = 200


def saturation_curve(
    powers_uw: np.ndarray, i_sat: float, alpha_per_uw: float
) -> SpectrumDataset:
    """Noiseless emission-vs-power samples of ``I_sat * aP / (1 + aP)``."""
    powers = np.asarray(powers_uw, dtype=float)
    if not (i_sat > 0.0 and alpha_per_uw > 0.0):
        raise ValueError("i_sat and alpha_per_uw must be > 0")
    drive = alpha_per_uw * powers
    return SpectrumDataset(
        kind=ScanKind.POWER_SWEEP,
        x=powers,
        y=i_sat * drive / (1.0 + drive),
        x_unit="uW",
        y_unit="intensity",
    )


def linewidth_curve(
    powers_uw: np.ndarray, delta_omega_c_ghz: float, delta_omega_0_ghz: float, alpha_per_uw: float
) -> SpectrumDataset:
    """Noiseless linewidth-vs-power samples of ``delta_omega_c + delta_omega_0 * sqrt(1 + aP)``.

    The additive model of :func:`analytic.combined_linewidth`, evaluated in GHz so that
    no conversion to rad/ns and back rounds a width.
    """
    powers = np.asarray(powers_uw, dtype=float)
    if not (delta_omega_c_ghz >= 0.0 and delta_omega_0_ghz >= 0.0):
        raise ValueError("linewidth contributions must be >= 0")
    if not alpha_per_uw > 0.0:
        raise ValueError("alpha must be > 0")
    if not np.all(powers >= 0.0):
        raise ValueError("power must be >= 0")
    return SpectrumDataset(
        kind=ScanKind.POWER_SWEEP,
        x=powers,
        y=delta_omega_c_ghz + delta_omega_0_ghz * np.sqrt(1.0 + alpha_per_uw * powers),
        x_unit="uW",
        y_unit="fwhm_ghz",
    )


def excess_curve(
    powers_uw: np.ndarray, intrinsic_fwhm_ghz: float, slope_ghz_per_uw: float
) -> SpectrumDataset:
    """Noiseless cavity-scan linewidths growing linearly above an intrinsic width."""
    powers = np.asarray(powers_uw, dtype=float)
    if not intrinsic_fwhm_ghz > 0.0:
        raise ValueError("intrinsic width must be > 0")
    if not slope_ghz_per_uw >= 0.0:
        raise ValueError("excess slope must be >= 0")
    return SpectrumDataset(
        kind=ScanKind.POWER_SWEEP,
        x=powers,
        y=intrinsic_fwhm_ghz + slope_ghz_per_uw * powers,
        x_unit="uW",
        y_unit="fwhm_ghz",
    )


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
    return fit_linear(excess_broadening(linewidths, intrinsic_fwhm_ghz))


def chained_fit_power_grid(alpha_per_uw: float) -> np.ndarray:
    """Power grid tuned for the chained linewidth fit.

    Log-spaced points across the saturation knee pin the low-power
    extrapolation (the power-independent term); points uniform in the
    broadened width (square root of ``1 + aP``) give the power-broadening
    coefficient a long, evenly weighted lever arm.  The grid comes sorted, each power once.
    """
    if not alpha_per_uw > 0.0:
        raise ValueError("alpha_per_uw must be > 0")
    knee = log_grid(0.01 / alpha_per_uw, 5.0 / alpha_per_uw, KNEE_POINTS)
    root = np.linspace(np.sqrt(6.0), np.sqrt(1.0 + P_TILDE_MAX), LEVER_POINTS)
    lever = (root**2 - 1.0) / alpha_per_uw
    # Sort and drop repeats by hand: np.unique imports numpy.ma (about 1.6 MiB) on its first call.
    grid = np.sort(np.concatenate([knee, lever]))
    return grid[np.append(True, grid[1:] != grid[:-1])]


def saturation_power_grid(alpha_per_uw: float) -> np.ndarray:
    """Dense log-spaced power grid spanning well below to far above the knee.

    The calibration constant is the noise-limiting input of the chained
    fit, so the saturation series is sampled more densely than the
    linewidth series.
    """
    if not alpha_per_uw > 0.0:
        raise ValueError("alpha_per_uw must be > 0")
    return log_grid(0.01 / alpha_per_uw, 200.0 / alpha_per_uw, SATURATION_POINTS)
