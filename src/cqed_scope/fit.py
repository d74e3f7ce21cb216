"""Uniformly weighted least squares for the spectroscopy models.

Four models are supported:

* ``lorentzian``       : A * (w/2)^2 / ((x - x0)^2 + (w/2)^2) + B
* ``saturation``       : I_sat * alpha*x / (1 + alpha*x)
* ``power_broadening`` : C + D * sqrt(1 + alpha_fixed * x)   (alpha fixed, closed form)
* ``linear``           : m*x + b                              (closed form)

Both nonlinear models are solved by variable projection (Golub & Pereyra 1973):
the Lorentzian, linear in amplitude and baseline, by Gauss-Newton in centre and
width, the saturation curve, linear in ``I_sat``, by a bracketed search over one
unknown, ``beta = alpha/(1 + alpha)``, whose Gauss-Newton steps are taken in the
log-odds ``log(beta/(1 - beta)) = log(alpha)``.  Both take uncertainties from the
inverse Gauss-Newton Hessian of an analytic Jacobian scaled by the residual
variance.  The two models that are linear in their parameters share one
closed-form least-squares line.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .dataset import SpectrumDataset
from .errors import ChainingError, IllPosedWindowError, NoSignalError

GRADIENT_RTOL = 1e-8
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
    iterations.  The Lorentzian counts its Gauss-Newton steps in centre and
    width, at most ``MAX_ITERATIONS``; the saturation fit counts the points its
    search evaluates between the two ends, which have no budget, and reports 0
    for a verdict at either end.
    An iterative fit sets ``converged`` exactly when the gradient of the
    sum-of-squares objective at the returned parameters satisfies
    ``||grad|| <= 1e-8 * (1 + objective)`` (for the saturation fit, the slope
    of its profile, which bounds the gradient); otherwise ``message`` says
    why it stopped.  The criterion is evaluated on
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


def _fit_result(
    model: FitModel, data_units: dict[str, tuple[float, float]], y_scale: float,
    params: np.ndarray, jac: np.ndarray, res: np.ndarray,
    converged: bool, iterations: int, message: str,
) -> FitResult:
    """A solution ``params`` of a normalised problem, with its ``jac`` and ``res``, in data units.

    ``data_units`` maps each parameter name, in the order of ``params``, to the
    ``(offset, factor)`` that takes its solved value ``p`` to the data's units
    as ``offset + factor * p`` and its variance as ``factor**2 * var``;
    ``y_scale`` takes the residuals to the data's units.
    """
    objective = float(res @ res)
    hessian = jac.T @ jac
    try:
        inv = np.linalg.inv(hessian)
    except np.linalg.LinAlgError:
        inv = np.linalg.pinv(hessian)
    variances = np.diag(inv * (objective / max(res.size - params.size, 1)))
    offsets, factors = np.array(list(data_units.values())).T
    sigmas = np.sqrt(np.maximum(variances * factors**2, 0.0))
    return FitResult(
        model=model,
        params={name: float(v) for name, v in zip(data_units, offsets + factors * params)},
        uncertainties={name: float(s) for name, s in zip(data_units, sigmas)},
        residual_norm=math.sqrt(objective / res.size) * y_scale,
        converged=converged,
        iterations=iterations,
        message=message,
    )


# ---------------------------------------------------------------------------
# Lorentzian


def fit_lorentzian(data: SpectrumDataset) -> FitResult:
    """Fit a flat-baseline Lorentzian to a single-peaked scan.

    Only centre and width are iterated, from the maximum sample and the
    half-prominence span; every trial takes amplitude and baseline from a
    closed-form linear least squares.  A step that does not lower the
    objective is halved.  The peak must not sit on either window edge.
    Constant data returns a non-converged result with a flat-data note
    instead of raising.
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

    y_mean = float(y.mean())
    yc, ones = y - y_mean, np.ones_like(x)

    def project(centre: float, width: float) -> tuple[np.ndarray, np.ndarray]:
        """The parameters with the best amplitude and baseline for this centre and width
        (a straight line in the unit-height shape), and their residual."""
        hw2 = (0.5 * width) ** 2
        shape = hw2 / ((x - centre) ** 2 + hw2)
        shape_mean = float(shape.sum()) / x.size
        dev = shape - shape_mean
        spread = float(dev @ dev)  # 0 once the shape is flat in floating point
        amp = float(dev @ yc) / spread if spread else 0.0
        return np.array([amp, centre, width, y_mean - amp * shape_mean]), amp * dev - yc

    def jacobian(p: np.ndarray) -> np.ndarray:
        amp, centre, width, _ = p
        u, hw = x - centre, 0.5 * width
        denom = u * u + hw * hw
        shape = hw * hw / denom
        d_centre, d_width = 2.0 * amp * u * shape / denom, amp * shape * (1.0 - shape) / hw
        return np.array([shape, d_centre, d_width, ones]).T

    # Gauss-Newton in (centre, width) on the projected residual (variable projection,
    # Golub & Pereyra 1973).  With amplitude and baseline optimal, the centre and width
    # part of the full four-parameter step is Kaufman's projected step.
    params, res = project(float(x[peak]), width0)
    objective = float(res @ res)
    converged, iterations, message = False, 0, ""
    while True:
        jac = jacobian(params)
        descent = jac.T @ res
        if 2.0 * np.linalg.norm(descent) <= GRADIENT_RTOL * (1.0 + objective):
            converged = True
            break
        if iterations == MAX_ITERATIONS:
            message = "no convergence within iteration budget"
            break
        iterations += 1
        try:
            step = np.linalg.solve(jac.T @ jac, -descent)[1:3]
            degenerate = not np.all(np.isfinite(step))
        except np.linalg.LinAlgError:
            degenerate = True
        if degenerate:
            message = "degenerate jacobian; parameters not identifiable"
            break
        # Halve a step that does not lower the objective.  A full step may hold it
        # within 1e-10: near the optimum a real decrease can fall below its rounding.
        full = True
        while np.any(params[1:3] + step != params[1:3]):
            trial, trial_res = project(*(params[1:3] + step))
            trial_obj = float(trial_res @ trial_res)
            if trial_obj < objective or full and trial_obj <= objective * (1.0 + 1e-10):
                params, res, objective = trial, trial_res, trial_obj
                break
            step, full = 0.5 * step, False
        else:
            message = "no descent step found"
            break

    data_units = {
        "amplitude": (0.0, scale),
        "center": (x_mid, x_span),
        "fwhm": (0.0, x_span),
        "baseline": (0.0, scale),
    }
    result = _fit_result(FitModel.LORENTZIAN, data_units, scale, params, jac, res, converged,
                         iterations, message)
    result.params["fwhm"] = abs(result.params["fwhm"])  # model is even in the width
    return result


# ---------------------------------------------------------------------------
# Saturation


def fit_saturation(data: SpectrumDataset) -> FitResult:
    """Fit ``I_sat * alpha*x / (1 + alpha*x)`` to intensity versus power.

    Variable projection (Golub & Pereyra 1973): with powers in units of the
    largest one and ``beta = alpha/(1 + alpha)`` in ``[0, 1]``, the model is
    ``c * g`` with ``g = x / (1 + beta*(x - 1))`` and a closed-form best ``c``.
    Where the profile does not fall away from ``beta = 0`` by more than the
    gradient criterion, the data never bend: ``alpha = 0``, ``I_sat = inf``.
    Where it does not fall away from ``beta = 1``, every power is saturated:
    ``alpha = inf``.  Both verdicts carry infinite uncertainties and a note.
    Between them, the search starts at ``beta = 0``'s own Gauss-Newton step where
    that lands in ``(0, 1/2]``, else at ``1/2``.  From there each Gauss-Newton
    step on the projected residual is taken in the log-odds
    ``t = log(beta/(1 - beta))``, in which the profile of log-spaced powers is
    nearly quadratic.  The sign of the profile's slope keeps a bracket; a step
    that leaves it or does not halve the last one in ``t`` is replaced by
    bisection (in ``t`` once both ends are interior).  ``iterations`` counts these
    points.  Raises ``NoSignalError`` on all-zero data.
    """
    x = data.x
    if x.size < 5:
        raise ValueError(f"saturation fit needs at least 5 samples, got {x.size}")
    if np.all(data.y == 0.0):
        raise NoSignalError("saturation data is identically zero")
    if float(x.min()) < 0.0:
        raise ValueError("saturation fit needs powers >= 0")
    scale, x_span = _y_scale(data.y), float(x.max())
    y, x = data.y / scale, x / x_span
    u, zero = 1.0 - x, x == 0.0  # g = x / (1 - beta*u), and 0 at zero power

    def profile(beta: float) -> tuple[float, np.ndarray, float, float]:
        """``c``, ``r = y - c*g``, the Gauss-Newton step ``J_p.r / J_p.J_p`` and the
        profile's fall ``2 J_p.r`` in units of the criterion, for the projected ``J_p``."""
        den = np.where(zero, 1.0, 1.0 - beta * u)
        g = x / den
        dg = g * u / den
        gg = float(g @ g)
        c = float(g @ y) / gg
        res = y - c * g
        jp = c * (dg - g * (float(g @ dg) / gg))
        descent, curvature = float(jp @ res), float(jp @ jp)
        step = descent / curvature if curvature else 0.0  # J_p = 0 only where c = 0
        return c, res, step, 2.0 * descent / (GRADIENT_RTOL * (1.0 + float(res @ res)))

    def verdict(i_sat: float, alpha: float, res: np.ndarray, message: str) -> FitResult:
        return FitResult(
            FitModel.SATURATION, {"i_sat": i_sat, "alpha_per_uw": alpha},
            {"i_sat": math.inf, "alpha_per_uw": math.inf},
            math.sqrt(float(res @ res) / res.size) * scale,
            converged=False, iterations=0, message=message,
        )

    c, res, step, fall = profile(0.0)
    line_ssr = float(res @ res)
    if fall <= 1.0:
        return verdict(math.inf, 0.0, res, "alpha under-determined; data never saturates")
    top_c, top_res, _, top_fall = profile(1.0)
    if top_fall >= -1.0:
        return verdict(top_c * scale, math.inf, top_res,
                       "alpha under-determined; data saturated at every power")

    # Stop once the criterion holds twice running: the step past the first is
    # nearly free and takes small residuals to rounding level.
    lo, hi, beta, taken, iterations, settled, met = 0.0, 1.0, 0.0, math.inf, 0, False, False
    while not (settled and met):
        lo, hi = (beta, hi) if fall > 0.0 else (lo, beta)
        if beta == 0.0:
            trial = newton = min(step, 0.5)
            delta = math.inf
        else:
            # The log-odds step moves beta additively: sigma(t + delta) would round off
            # the last steps near beta = 1.  exp overflows past 709.8, and a step of 700
            # already takes any beta > 1e-280 to 1 within rounding.
            delta = step / (beta * (1.0 - beta))
            grow = math.expm1(min(delta, 700.0))
            trial = newton = beta + beta * (1.0 - beta) * grow / (1.0 + beta * grow)
            # Bisect a step that leaves the bracket or does not halve the last one
            # (Gauss-Newton converges only linearly on large residuals): in t once
            # both ends are interior, else in beta.
            if not (lo < trial < hi and abs(delta) <= 0.5 * abs(taken)):
                if lo > 0.0 and hi < 1.0:
                    odds = math.sqrt(lo * hi)
                    trial = odds / (odds + math.sqrt((1.0 - lo) * (1.0 - hi)))
                else:
                    trial = 0.5 * (lo + hi)
        if newton == beta or trial in (lo, hi):
            break
        if trial != newton:
            delta = math.log(trial * (1.0 - beta) / (beta * (1.0 - trial)))
        beta, taken, iterations = trial, delta, iterations + 1
        c, res, step, fall = profile(beta)
        settled, met = met, abs(fall) <= 1.0

    i_sat, alpha = c / beta, beta / (1.0 - beta)
    denom = 1.0 + alpha * x
    jac = np.column_stack([alpha * x / denom, i_sat * (x / denom) / denom])
    data_units = {"i_sat": (0.0, scale), "alpha_per_uw": (0.0, 1.0 / x_span)}
    message = "" if met else "profile slope not resolved in floating point"
    result = _fit_result(FitModel.SATURATION, data_units, scale, np.array([i_sat, alpha]), jac,
                         res, met, iterations, message)
    if result.param_unreliable("alpha_per_uw") and not result.message:
        # Name the end that the data exclude least: the one where the profile lies lower.
        saturated = float(top_res @ top_res) < line_ssr
        end = "saturated at every power" if saturated else "never saturates"
        result = replace(result, message=f"alpha under-determined; data {end}")
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
    names = {"delta_omega_c_ghz": "intercept", "delta_omega_0_ghz": "slope"}
    return replace(
        line,
        model=FitModel.POWER_BROADENING,
        params={**{k: line.params[v] for k, v in names.items()}, "alpha_per_uw": alpha_fixed},
        uncertainties={**{k: line.uncertainties[v] for k, v in names.items()}, "alpha_per_uw": 0.0},
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
    variance = ssr / (n - 2) if n > 2 else math.inf  # two points leave no degree of freedom
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


def excess_broadening(linewidths: SpectrumDataset, intrinsic_fwhm_ghz: float) -> SpectrumDataset:
    """Subtract a power-independent intrinsic width, in GHz like the dataset, from each sample."""
    if not intrinsic_fwhm_ghz > 0.0:
        raise ValueError("intrinsic width must be > 0")
    if linewidths.y_unit != "fwhm_ghz":
        raise ValueError("excess broadening applies to linewidth datasets only")
    return replace(linewidths, x=linewidths.x.copy(), y=linewidths.y - intrinsic_fwhm_ghz)
