"""Spectral scans: emission versus laser wavelength and drive power.

A scan point is the steady state of the master equation with the laser at a
given wavelength; the recorded signal is the photon flux of the observed
decay channel, ``2*kappa*<a^+a>`` for cavity emission or
``2*gamma*<sigma^+sigma>`` for direct dot emission.  Only the laser
frequency changes along a scan, so each scan lists the generator's non-zeros
once and gets every grid point's steady state back from one call, which adds
each point's laser shift to the diagonal and batches the points internally.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import fit as _fit
from .analytic import LinewidthModelParams, combined_linewidth, polariton_frequencies
from .dataset import ScanKind, SpectrumDataset
from .errors import ConfigError, NumericalError, ScanError, TruncationError
from .lindblad import (
    TRUNCATION_RTOL,
    laser_scan_steady_states,
    steady_state,  # noqa: F401  bench/test_bench.py checks that its tracer patches this name
    truncation_change,
)
from .model import (
    DriveSpec,
    DriveTarget,
    SPEED_OF_LIGHT_NM_GHZ,
    SystemParams,
    angular_frequency_to_wavelength,
    angular_to_ghz,
    fwhm_nm_to_ghz,
    wavelength_to_angular_frequency,
)

#: Laser grids must stay within this distance of both resonances (nm).
GRID_GUARD_NM = 5.0


class EmissionChannel(enum.Enum):
    CAVITY = "cavity"
    QD = "qd"


def scan_laser(
    params: SystemParams,
    drive_template: DriveSpec,
    wavelengths_nm: np.ndarray,
    observe: EmissionChannel,
    n_max: int,
    check_truncation: bool = True,
) -> SpectrumDataset:
    """Steady emission while stepping the laser across a wavelength grid.

    Every solve, the cutoff probe included, is held to the solver's fixed residual guard,
    :data:`~cqed_scope.lindblad.STEADY_RESIDUAL_TOL`; a grid point that misses it raises
    :class:`~cqed_scope.errors.ScanError` naming its wavelength.

    Parameters
    ----------
    params, drive_template
        System description, transfer rates included; the template's laser
        frequency is replaced per grid point.
    wavelengths_nm
        Strictly increasing grid, at least 5 points, each within 5 nm of
        both bare resonances.
    observe
        Which decay channel feeds the detector.
    n_max
        Fock cutoff; unless ``check_truncation`` is disabled, the middle point's
        occupations are compared after the scan with the same call at ``n_max + 2``
        over that one point (:func:`~cqed_scope.lindblad.truncation_change`).
    """
    grid = np.asarray(wavelengths_nm, dtype=float)
    if grid.ndim != 1 or grid.size < 5:
        raise ValueError("wavelength grid needs at least 5 points")
    if not np.all(np.diff(grid) > 0.0):
        raise ValueError("wavelength grid must be strictly increasing")
    for name, omega in (("qd", params.omega_d), ("cavity", params.omega_c)):
        resonance = angular_frequency_to_wavelength(omega)
        distance = float(np.abs(grid - resonance).max())
        if distance > GRID_GUARD_NM:
            raise ValueError(
                f"grid strays {distance:.2f} nm from the {name} resonance "
                f"(limit {GRID_GUARD_NM} nm); check units"
            )

    rate, column = (params.gamma, 1) if observe is EmissionChannel.QD else (params.kappa, 0)
    omegas = [wavelength_to_angular_frequency(float(lam)) for lam in grid]
    try:
        readings = laser_scan_steady_states(params, drive_template, n_max, omegas)
    except NumericalError as exc:
        lam = grid[exc.index]
        raise ScanError(f"steady state failed at {lam:.6f} nm: {exc}") from exc
    signal = 2.0 * rate * readings[:, column]
    negative = np.flatnonzero(signal < -1e-12)
    if negative.size:
        j = negative[0]
        raise ScanError(f"negative emission signal {signal[j]:.3e} at {grid[j]:.6f} nm")
    if check_truncation:
        middle = slice(grid.size // 2, grid.size // 2 + 1)
        probe = laser_scan_steady_states(params, drive_template, n_max + 2, omegas[middle])
        change = float(truncation_change(readings[middle], probe)[0])
        if not change < TRUNCATION_RTOL:
            raise TruncationError(f"cutoff {n_max} not converged (change {change:.2e}); increase it")

    return SpectrumDataset(
        kind=ScanKind.LASER_WAVELENGTH,
        x=grid,
        y=np.maximum(signal, 0.0),
        x_unit="nm",
        y_unit="intensity",
    )


def wavelength_window(
    centre_omega: float, fwhm_omega: float, span_fwhm: float, points: int
) -> np.ndarray:
    """Build an ascending wavelength grid covering ``span_fwhm`` linewidths."""
    if not np.isfinite(fwhm_omega) or fwhm_omega <= 0.0:
        raise ConfigError(f"cannot size a scan window from predicted width {fwhm_omega!r}")
    centre_nm = angular_frequency_to_wavelength(centre_omega)
    fwhm_nm = centre_nm**2 * angular_to_ghz(fwhm_omega) / SPEED_OF_LIGHT_NM_GHZ
    half = 0.5 * span_fwhm * fwhm_nm
    return np.linspace(centre_nm - half, centre_nm + half, points)


def auto_scan_window(
    params: SystemParams, drive: DriveSpec, span_fwhm: float, points: int
) -> np.ndarray:
    """Wavelength grid centred on the driven branch, ``span_fwhm`` of its widths wide.

    The driven branch is the exact polariton nearest the bare complex line the
    laser drives, ``omega_d - i*gamma`` or ``omega_c - i*kappa``.  A cavity
    drive takes that branch's own width ``-2 Im(omega)``.  The two-mode branch
    carries neither pure dephasing nor power broadening, so a dot drive takes
    the power-broadened dispersive dot width of ``combined_linewidth``.
    """
    pair = polariton_frequencies(params)
    if drive.target is DriveTarget.QD:
        branch = pair.branch_near(complex(params.omega_d, -params.gamma))
        model = LinewidthModelParams.from_system(params, alpha=1.0)
        width = combined_linewidth(model, drive.p_tilde(params))
    else:
        branch = pair.branch_near(complex(params.omega_c, -params.kappa))
        width = -2.0 * branch.imag
    return wavelength_window(branch.real, width, span_fwhm, points)


@dataclass(frozen=True, eq=False)
class PowerSweepResult:
    """Saturation curve plus per-power fitted linewidths.

    Powers that could not produce a linewidth (zero drive) are listed in
    ``skipped_powers``.
    """

    saturation: SpectrumDataset
    linewidths: SpectrumDataset
    skipped_powers: tuple[float, ...]


def power_sweep(
    params: SystemParams,
    drive_template: DriveSpec,
    powers_uw: np.ndarray,
    observe: EmissionChannel,
    n_max: int,
    scan_points: int = 201,
    span_fwhm: float = 6.0,
) -> PowerSweepResult:
    """Emulate a power series: one laser scan per drive power.

    For every power the laser is scanned across the driven branch over a
    window of ``span_fwhm`` predicted linewidths with ``scan_points`` points, an
    even count rounded up by one so that the branch centre is the middle point;
    its signal goes into the saturation dataset and a Lorentzian fit of the scan
    yields the linewidth dataset (GHz).  Powers run from the highest down, and
    only that first scan checks the Fock cutoff, where it is most likely to fall
    short.  Every scan is held to the solver's fixed residual guard
    (:data:`~cqed_scope.lindblad.STEADY_RESIDUAL_TOL`).
    """
    if drive_template.alpha is None:
        raise ValueError("power sweeps need a power-style drive template (alpha set)")
    powers = np.asarray(powers_uw, dtype=float)
    if powers.ndim != 1 or powers.size == 0:
        raise ValueError("power grid must be a non-empty 1-d array")
    if np.any(np.diff(powers) <= 0.0):
        raise ValueError("power grid must be strictly increasing")
    if float(powers[0]) < 0.0:
        raise ValueError("powers must be >= 0")
    if not powers[-1] > 0.0:
        raise ValueError("saturation unidentifiable: power grid has no positive powers")
    scan_points = int(scan_points) | 1

    # Powers rise from >= 0, so only the first can be zero: no drive, no line to fit.
    skipped = tuple(float(p) for p in powers[:1] if p == 0.0)
    fitted_powers = powers[len(skipped) :]
    intensities: list[float] = []
    fitted_fwhm_ghz: list[float] = []
    for power in fitted_powers[::-1]:
        drive = drive_template.with_power(float(power))
        grid = auto_scan_window(params, drive, span_fwhm, scan_points)
        dataset = scan_laser(
            params, drive, grid, observe, n_max, check_truncation=power == powers[-1]
        )
        try:
            lor = _fit.fit_lorentzian(dataset)
        except (NumericalError, np.linalg.LinAlgError) as exc:
            raise ScanError(f"linewidth fit failed at {power} uW: {exc}") from exc
        if not lor.converged:
            raise ScanError(f"linewidth fit did not converge at {power} uW: {lor.message}")
        fitted_fwhm_ghz.append(fwhm_nm_to_ghz(lor.params["fwhm"], lor.params["center"]))
        intensities.append(float(dataset.y[grid.size // 2]))

    saturation = SpectrumDataset(
        kind=ScanKind.POWER_SWEEP,
        x=powers,
        y=np.array([0.0] * len(skipped) + intensities[::-1]),
        x_unit="uW",
        y_unit="intensity",
    )
    linewidths = SpectrumDataset(
        kind=ScanKind.POWER_SWEEP,
        x=np.array(fitted_powers),
        y=np.array(fitted_fwhm_ghz[::-1]),
        x_unit="uW",
        y_unit="fwhm_ghz",
    )
    return PowerSweepResult(saturation=saturation, linewidths=linewidths, skipped_powers=skipped)


def synthesize_noisy(dataset: SpectrumDataset, relative_noise: float, seed: int) -> SpectrumDataset:
    """Multiplicative noise: ``y * max(0, 1 + relative_noise * u)``, a Gaussian truncated at zero.

    ``u`` are standard normal draws from a generator seeded with ``seed``,
    so the output is bit-for-bit reproducible.  ``relative_noise`` must lie
    in [0, 0.5]; zero returns an identical copy.
    """
    if not 0.0 <= relative_noise <= 0.5:
        raise ValueError(f"relative noise must be within [0, 0.5], got {relative_noise}")
    rng = np.random.default_rng(seed)
    factors = np.maximum(1.0 + relative_noise * rng.standard_normal(dataset.y.size), 0.0)
    return SpectrumDataset(
        kind=dataset.kind,
        x=dataset.x.copy(),
        y=dataset.y * factors,
        x_unit=dataset.x_unit,
        y_unit=dataset.y_unit,
    )
