"""Steady-state spectroscopy workbench for a driven quantum-dot/cavity system.

Closed-form polariton/linewidth formulas, a full open-system solver, laser
scan and power-sweep emulation, and the chained fitting pipeline used to
extract calibration and broadening parameters from such scans.
"""

from .analytic import (
    LinewidthModelParams,
    PolaritonPair,
    cavity_feeding_estimate,
    combined_linewidth,
    polariton_frequencies,
    power_broadened_linewidth,
)
from .config import OUTPUT_ENV_VAR, ReproduceParams, RunConfig, parse_config
from .dataset import ScanKind, SpectrumDataset, read_csv, write_csv
from .errors import (
    ChainingError,
    ConfigError,
    CqedScopeError,
    FitError,
    IllPosedWindowError,
    NoSignalError,
    NonUniqueSteadyStateError,
    NumericalError,
    ScanError,
    TruncationError,
)
from .fit import (
    FitModel,
    FitResult,
    excess_broadening,
    fit_linear,
    fit_lorentzian,
    fit_power_broadening,
    fit_saturation,
)
from .lindblad import (
    SteadyState,
    assemble_liouvillian,
    build_hamiltonian,
    build_liouvillian,
    steady_state,
    truncation_check,
)
from .model import (
    SPEED_OF_LIGHT_NM_GHZ,
    TWO_PI,
    DriveSpec,
    DriveTarget,
    SystemParams,
    angular_frequency_to_wavelength,
    angular_to_ghz,
    ghz_to_angular,
    wavelength_to_angular_frequency,
)
from .reproduce import (
    ChainedFit,
    chained_fit_power_grid,
    chained_linewidth_fit,
    excess_curve,
    excess_slope_fit,
    linewidth_curve,
    saturation_curve,
    saturation_power_grid,
)
from .scan import (
    EmissionChannel,
    PowerSweepResult,
    auto_scan_window,
    power_sweep,
    scan_laser,
    synthesize_noisy,
    wavelength_window,
)

__version__ = "0.1.0"

__all__ = [
    "ChainedFit",
    "ChainingError",
    "ConfigError",
    "CqedScopeError",
    "DriveSpec",
    "DriveTarget",
    "EmissionChannel",
    "FitError",
    "FitModel",
    "FitResult",
    "IllPosedWindowError",
    "LinewidthModelParams",
    "NoSignalError",
    "NonUniqueSteadyStateError",
    "NumericalError",
    "OUTPUT_ENV_VAR",
    "PolaritonPair",
    "PowerSweepResult",
    "ReproduceParams",
    "RunConfig",
    "SPEED_OF_LIGHT_NM_GHZ",
    "ScanError",
    "ScanKind",
    "SpectrumDataset",
    "SteadyState",
    "SystemParams",
    "TWO_PI",
    "TruncationError",
    "angular_frequency_to_wavelength",
    "angular_to_ghz",
    "assemble_liouvillian",
    "auto_scan_window",
    "build_hamiltonian",
    "build_liouvillian",
    "cavity_feeding_estimate",
    "chained_fit_power_grid",
    "chained_linewidth_fit",
    "combined_linewidth",
    "excess_broadening",
    "excess_curve",
    "excess_slope_fit",
    "fit_linear",
    "fit_lorentzian",
    "fit_power_broadening",
    "fit_saturation",
    "ghz_to_angular",
    "linewidth_curve",
    "parse_config",
    "polariton_frequencies",
    "power_broadened_linewidth",
    "power_sweep",
    "read_csv",
    "saturation_curve",
    "saturation_power_grid",
    "scan_laser",
    "steady_state",
    "synthesize_noisy",
    "truncation_check",
    "wavelength_to_angular_frequency",
    "wavelength_window",
    "write_csv",
]
