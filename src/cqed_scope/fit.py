"""Uniformly weighted least squares for the spectroscopy models.

Four models are supported:

* ``lorentzian``       : A * (w/2)^2 / ((x - x0)^2 + (w/2)^2) + B
* ``saturation``       : I_sat * alpha*x / (1 + alpha*x)
* ``power_broadening`` : C + D * sqrt(1 + alpha_fixed * x)   (alpha fixed, closed form)
* ``linear``           : m*x + b                              (closed form)

The two nonlinear models, Lorentzian and saturation, share one damped
Gauss-Newton solver with a Levenberg-Marquardt damping schedule (start 1e-3,
times 10 on a rejected step, divide by 10 on an accepted one) and analytic
Jacobians.  Their parameter uncertainties come from the inverse Gauss-Newton
Hessian scaled by the residual variance.  The two models that are linear in
their parameters share one closed-form least-squares line.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .dataset import SpectrumDataset
from .errors import ChainingError, IllPosedWindowError, NoSignalError
from .model import TWO_PI

GRADIENT_RTOL = 1e-8
STEP_RTOL = 1e-10
MAX_ITERATIONS = 200


class FitModel(enum.Enum):
    LORENTZIAN = "lorentzian"
    SATURATION = "saturation"
    POWER_BROADENING = "power_broadening"
    LINEAR = "linear"


@dataclass(frozen=True)
class FitResult:
    """Outcome of one fit.

    ``params`` and ``uncertainties`` are parallel name -> value maps; the
    uncertainties are 1-sigma estimates.  ``residual_norm`` is the root
    mean square residual.  The closed-form fits report ``converged`` with 0
    iterations; an iterative fit sets it only when the gradient of the
    sum-of-squares objective satisfies
    ``||grad|| <= 1e-8 * (1 + objective)``.  The criterion is evaluated on
    the internally normalised problem (intensities divided by a power-of-two
    scale, sample coordinates mapped to an O(1) interval); for data that is
    already O(1) in both axes the normalisation is the identity and the
    criterion holds in the data's own units.
    """

    model: FitModel
    params: dict[str, float]
    uncertainties: dict[str, float]
    residual_norm: float
    converged: bool
    iterations: int
    message: str = ""

    def param_unreliable(self, name: str) -> bool:
        """True when the 1-sigma uncertainty reaches the parameter magnitude."""
        sigma = self.uncertainties[name]
        return not math.isfinite(sigma) or sigma >= abs(self.params[name])

    def report_lines(self) -> list[str]:
        lines = [f"model = {self.model.value}"]
        for name in self.params:
            lines.append(f"{name} = {self.params[name]:.10g}")
            lines.append(f"{name}_sigma = {self.uncertainties[name]:.4g}")
        lines.append(f"residual_rms = {self.residual_norm:.6g}")
        lines.append(f"converged = {self.converged}")
        lines.append(f"iterations = {self.iterations}")
        if self.message:
            lines.append(f"note = {self.message}")
        return lines


@dataclass
class _SolverOutput:
    params: np.ndarray
    covariance: np.ndarray
    objective: float
    residual_rms: float
    converged: bool
    iterations: int
    message: str


def _y_scale(y: np.ndarray) -> float:
    """Power-of-two scale of the data, used to normalise fits internally.

    Normalising keeps the objective O(1) regardless of detector count
    scales, so the convergence thresholds behave identically for counts in
    the thousands and signals below one.  A power of two makes the
    normalisation lossless, which in turn makes amplitude rescaling exact.
    """
    top = float(np.max(np.abs(y)))
    if top == 0.0 or not math.isfinite(top):
        return 1.0
    return float(2.0 ** math.floor(math.log2(top)))


def _covariance(jac: np.ndarray, objective: float, n_points: int) -> np.ndarray:
    n_params = jac.shape[1]
    dof = max(n_points - n_params, 1)
    hessian = jac.T @ jac
    try:
        inv = np.linalg.inv(hessian)
    except np.linalg.LinAlgError:
        inv = np.linalg.pinv(hessian)
    return inv * (objective / dof)


def _levenberg_marquardt(
    residual_fn: Callable[[np.ndarray], np.ndarray],
    jacobian_fn: Callable[[np.ndarray], np.ndarray],
    p0: np.ndarray,
    max_iterations: int = MAX_ITERATIONS,
) -> _SolverOutput:
    """Damped Gauss-Newton iteration on ``sum(residual**2)``.

    The damping term is ``lam * diag(J^T J)`` (Marquardt scaling), which
    keeps the schedule meaningful for badly scaled parameter sets.
    """
    params = np.asarray(p0, dtype=float).copy()
    res = residual_fn(params)
    objective = float(res @ res)
    lam = 1e-3
    message = ""
    converged = False
    iterations = 0

    for iterations in range(1, max_iterations + 1):
        jac = jacobian_fn(params)
        gradient = 2.0 * jac.T @ res
        if np.linalg.norm(gradient) <= GRADIENT_RTOL * (1.0 + objective):
            converged = True
            iterations -= 1
            break

        hessian = jac.T @ jac
        diag = np.diag(hessian).copy()
        if not np.all(np.isfinite(diag)) or np.all(diag == 0.0):
            message = "degenerate jacobian; parameters not identifiable"
            break
        diag[diag <= 0.0] = diag[diag > 0.0].min()

        accepted = False
        while lam <= 1e12:
            try:
                step = np.linalg.solve(hessian + lam * np.diag(diag), -jac.T @ res)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = params + step
            trial_res = residual_fn(trial)
            trial_obj = float(trial_res @ trial_res)
            if math.isfinite(trial_obj) and trial_obj < objective:
                params, res, objective = trial, trial_res, trial_obj
                lam = max(lam / 10.0, 1e-15)
                accepted = True
                break
            lam *= 10.0
        if not accepted:
            # The damping search compares objectives in floating point, so
            # near an optimum a genuine decrease can fall below the
            # objective's granularity and every trial gets rejected.  An
            # undamped Gauss-Newton polish within that granularity either
            # reaches the gradient criterion or the stall is real.
            for _ in range(3):
                try:
                    step = np.linalg.solve(jac.T @ jac, -jac.T @ res)
                except np.linalg.LinAlgError:
                    break
                trial = params + step
                trial_res = residual_fn(trial)
                trial_obj = float(trial_res @ trial_res)
                if not (math.isfinite(trial_obj) and trial_obj <= objective * (1.0 + 1e-10)):
                    break
                params, res, objective = trial, trial_res, trial_obj
                jac = jacobian_fn(params)
                gradient = 2.0 * jac.T @ res
                if np.linalg.norm(gradient) <= GRADIENT_RTOL * (1.0 + objective):
                    converged = True
                    break
            if converged:
                break
            message = "damping overflow; no descent step found"
            break
        if np.linalg.norm(step) < STEP_RTOL * (1.0 + np.linalg.norm(params)):
            # Steps this small only happen next to an optimum.  Stop once
            # the gradient confirms it; otherwise keep polishing -- the
            # budget bounds the loop and ``converged`` stays honest (it
            # always implies the gradient criterion).
            jac = jacobian_fn(params)
            gradient = 2.0 * jac.T @ res
            if np.linalg.norm(gradient) <= GRADIENT_RTOL * (1.0 + objective):
                converged = True
                break
    else:
        iterations = max_iterations
        message = "no convergence within iteration budget"

    jac = jacobian_fn(params)
    cov = _covariance(jac, objective, res.size)
    return _SolverOutput(
        params=params,
        covariance=cov,
        objective=objective,
        residual_rms=math.sqrt(objective / res.size),
        converged=converged,
        iterations=iterations,
        message=message,
    )


def _result_from_solver(
    model: FitModel,
    names: list[str],
    out: _SolverOutput,
    y_scale: float = 1.0,
    scaled_params: tuple[str, ...] = (),
) -> FitResult:
    """Package solver output, undoing the internal y normalisation."""
    sigmas = np.sqrt(np.maximum(np.diag(out.covariance), 0.0))
    params = {}
    uncertainties = {}
    for name, value, sigma in zip(names, out.params, sigmas):
        factor = y_scale if name in scaled_params else 1.0
        params[name] = float(value) * factor
        uncertainties[name] = float(sigma) * factor
    return FitResult(
        model=model,
        params=params,
        uncertainties=uncertainties,
        residual_norm=out.residual_rms * y_scale,
        converged=out.converged,
        iterations=out.iterations,
        message=out.message,
    )


# ---------------------------------------------------------------------------
# Lorentzian


def fit_lorentzian(data: SpectrumDataset, max_iterations: int = MAX_ITERATIONS) -> FitResult:
    """Fit a flat-baseline Lorentzian to a single-peaked scan.

    Initial guesses: amplitude = peak minus floor, baseline = floor, centre
    at the maximum sample, width from the half-prominence span.  The peak
    must not sit on either window edge.  Constant data returns a
    non-converged result with a flat-data note instead of raising.
    """
    x = data.x
    if x.size < 5:
        raise ValueError(f"lorentzian fit needs at least 5 samples, got {x.size}")
    peak = int(np.argmax(data.y))
    scale = _y_scale(data.y)
    y = data.y / scale
    amp0 = float(y.max() - y.min())
    base0 = float(y.min())
    if amp0 == 0.0:
        # Constant data carries no peak at all; report that instead of
        # mistaking the argmax tie-break for a boundary peak.
        return FitResult(
            model=FitModel.LORENTZIAN,
            params={"amplitude": 0.0, "center": float(data.x[peak]), "fwhm": 0.0,
                    "baseline": base0 * scale},
            uncertainties={"amplitude": math.inf, "center": math.inf, "fwhm": math.inf,
                           "baseline": 0.0},
            residual_norm=0.0,
            converged=False,
            iterations=0,
            message="flat data; width not identifiable",
        )
    if peak in (0, x.size - 1):
        raise IllPosedWindowError(
            "peak lies on the window boundary; widen the scan before fitting"
        )
    # Affine x normalisation: the Lorentzian is form-invariant under
    # shift/scale of x, and solving in O(1) coordinates keeps the
    # convergence thresholds meaningful whether x spans nanometres or
    # hundreds of them.
    x_mid = 0.5 * float(data.x[0] + data.x[-1])
    x_span = float(data.x[-1] - data.x[0])
    x = (data.x - x_mid) / x_span
    half = base0 + 0.5 * amp0
    above = np.nonzero(y >= half)[0]
    width0 = float(x[above[-1]] - x[above[0]])
    if width0 <= 0.0:
        width0 = float(x[-1] - x[0]) / 4.0

    def resid(p: np.ndarray) -> np.ndarray:
        amp, x0, width, base = p
        hw2 = (0.5 * width) ** 2
        return amp * hw2 / ((x - x0) ** 2 + hw2) + base - y

    def jac(p: np.ndarray) -> np.ndarray:
        amp, x0, width, base = p
        hw2 = (0.5 * width) ** 2
        denom = (x - x0) ** 2 + hw2
        cols = np.empty((x.size, 4))
        cols[:, 0] = hw2 / denom
        cols[:, 1] = amp * hw2 * 2.0 * (x - x0) / denom**2
        cols[:, 2] = amp * (0.5 * width) * (x - x0) ** 2 / denom**2
        cols[:, 3] = 1.0
        return cols

    p0 = np.array([amp0, float(x[peak]), width0, base0])
    out = _levenberg_marquardt(resid, jac, p0, max_iterations)
    out.params[2] = abs(out.params[2])  # model is even in the width
    # Map centre and width back to the data's x units.
    out.params[1] = x_mid + out.params[1] * x_span
    out.params[2] *= x_span
    out.covariance[1, 1] *= x_span**2
    out.covariance[2, 2] *= x_span**2
    return _result_from_solver(
        FitModel.LORENTZIAN,
        ["amplitude", "center", "fwhm", "baseline"],
        out,
        y_scale=scale,
        scaled_params=("amplitude", "baseline"),
    )


# ---------------------------------------------------------------------------
# Saturation


def fit_saturation(data: SpectrumDataset, max_iterations: int = MAX_ITERATIONS) -> FitResult:
    """Fit ``I_sat * alpha*x / (1 + alpha*x)`` to intensity versus power.

    Raises :class:`~cqed_scope.errors.NoSignalError` on all-zero data.  When
    the data never bends (far below saturation) only the product
    ``I_sat * alpha`` is constrained; the alpha uncertainty then reaches the
    value itself and the result is marked under-determined.
    """
    x = data.x
    if x.size < 5:
        raise ValueError(f"saturation fit needs at least 5 samples, got {x.size}")
    if np.all(data.y == 0.0):
        raise NoSignalError("saturation data is identically zero")
    if float(x.max()) <= 0.0:
        raise ValueError("saturation fit needs positive powers")
    scale = _y_scale(data.y)
    y = data.y / scale
    # Solve with powers rescaled to [0, 1]; alpha maps back afterwards.
    x_span = float(x.max())
    x = x / x_span

    def resid(p: np.ndarray) -> np.ndarray:
        i_sat, alpha = p
        return i_sat * alpha * x / (1.0 + alpha * x) - y

    def jac(p: np.ndarray) -> np.ndarray:
        i_sat, alpha = p
        denom = 1.0 + alpha * x
        cols = np.empty((x.size, 2))
        cols[:, 0] = alpha * x / denom
        cols[:, 1] = i_sat * x / denom**2
        return cols

    p0 = np.array([1.5 * float(y.max()), 1.0 / float(np.median(x[x > 0.0]))])
    out = _levenberg_marquardt(resid, jac, p0, max_iterations)
    out.params[1] /= x_span
    out.covariance[1, 1] /= x_span**2
    result = _result_from_solver(
        FitModel.SATURATION,
        ["i_sat", "alpha_per_uw"],
        out,
        y_scale=scale,
        scaled_params=("i_sat",),
    )
    # Data whose best-fit curve never bends constrains only the product
    # I_sat * alpha; the solver then walks an ever-flatter valley without
    # converging and the local covariance underestimates the unconstrained
    # direction.  Report the honest (infinite) alpha uncertainty for it.
    never_saturates = not result.converged and result.params["alpha_per_uw"] * x_span < 0.1
    if never_saturates:
        result = replace(result, uncertainties={**result.uncertainties, "alpha_per_uw": math.inf})
    if never_saturates or (result.param_unreliable("alpha_per_uw") and not result.message):
        result = replace(result, message="alpha under-determined; data never saturates")
    return result


# ---------------------------------------------------------------------------
# Power broadening (alpha chained from a saturation fit)


def fit_power_broadening(data: SpectrumDataset, alpha_fixed: float) -> FitResult:
    """Fit ``C + D * sqrt(1 + alpha_fixed * x)`` to linewidth (GHz) versus power.

    ``alpha_fixed`` comes from the matching saturation fit and is never
    refitted; it is echoed into the result untouched so downstream reports
    can assert the chaining.  ``C`` is the power-independent contribution
    (``delta_omega_c / 2pi``), ``D`` the power-broadened one
    (``delta_omega_0 / 2pi``).  With ``alpha`` frozen the model is a straight
    line in ``sqrt(1 + alpha_fixed * x)``, so the fit is closed form.
    """
    if not (math.isfinite(alpha_fixed) and alpha_fixed > 0.0):
        raise ChainingError(
            f"chained alpha must be finite and > 0, got {alpha_fixed!r}; "
            "run the saturation fit first"
        )
    if data.x.size < 5:
        raise ValueError(f"power-broadening fit needs at least 5 samples, got {data.x.size}")
    if data.x.min() < 0.0:
        raise ValueError("power-broadening fit needs powers >= 0")
    line = _straight_line(np.sqrt(1.0 + alpha_fixed * data.x), data.y)
    return replace(
        line,
        model=FitModel.POWER_BROADENING,
        params={
            "delta_omega_c_ghz": line.params["intercept"],
            "delta_omega_0_ghz": line.params["slope"],
            "alpha_per_uw": alpha_fixed,
        },
        uncertainties={
            "delta_omega_c_ghz": line.uncertainties["intercept"],
            "delta_omega_0_ghz": line.uncertainties["slope"],
            "alpha_per_uw": 0.0,
        },
    )


# ---------------------------------------------------------------------------
# Straight line (closed form)


def _straight_line(u: np.ndarray, y: np.ndarray) -> FitResult:
    """Ordinary least squares ``slope * u + intercept`` with standard errors."""
    sxx = float(np.sum((u - u.mean()) ** 2))
    if sxx == 0.0:
        raise ValueError("all x values are equal; slope is not identifiable")
    slope = float(np.sum((u - u.mean()) * (y - y.mean())) / sxx)
    intercept = float(y.mean() - slope * u.mean())
    residuals = slope * u + intercept - y
    ssr = float(residuals @ residuals)
    n = u.size
    variance = ssr / (n - 2) if n > 2 else 0.0
    sigma_slope = math.sqrt(variance / sxx)
    sigma_intercept = math.sqrt(variance * (1.0 / n + u.mean() ** 2 / sxx))
    return FitResult(
        model=FitModel.LINEAR,
        params={"slope": slope, "intercept": intercept},
        uncertainties={"slope": sigma_slope, "intercept": sigma_intercept},
        residual_norm=math.sqrt(ssr / n),
        converged=True,
        iterations=0,
    )


def fit_linear(data: SpectrumDataset) -> FitResult:
    """Ordinary least squares line with standard errors on slope and intercept."""
    if data.x.size < 2:
        raise ValueError("linear fit needs at least 2 samples")
    return _straight_line(data.x, data.y)


# ---------------------------------------------------------------------------


def excess_broadening(linewidths: SpectrumDataset, intrinsic_fwhm: float) -> SpectrumDataset:
    """Subtract a power-independent intrinsic width from a linewidth dataset.

    ``intrinsic_fwhm`` is an angular rate in rad/ns; the subtracted
    per-sample value is ``intrinsic_fwhm / 2pi`` in GHz to match the dataset
    units.
    """
    if not intrinsic_fwhm > 0.0:
        raise ValueError("intrinsic width must be > 0")
    if linewidths.y_unit != "fwhm_ghz":
        raise ValueError("excess broadening applies to linewidth datasets only")
    meta = dict(linewidths.meta)
    meta["subtracted_fwhm_ghz"] = intrinsic_fwhm / TWO_PI
    return SpectrumDataset(
        kind=linewidths.kind,
        x=linewidths.x.copy(),
        y=linewidths.y - intrinsic_fwhm / TWO_PI,
        x_unit=linewidths.x_unit,
        y_unit=linewidths.y_unit,
        meta=meta,
    )
