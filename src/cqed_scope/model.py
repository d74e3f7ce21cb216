"""Physical parameters, drive description and unit conversions.

Internally every rate and frequency is an angular frequency in rad/ns and
every time is in ns.  Configuration files and CSV reports use ordinary
frequencies in GHz (angular value divided by 2*pi), wavelengths in nm and
powers in microwatt.  Conversion between the two happens exactly once, at
the ingestion boundary (:meth:`SystemParams.from_ghz_and_nm`,
:func:`wavelength_to_angular_frequency` and friends); past that point the
code never multiplies by 2*pi again.

``kappa`` and ``gamma`` are field (amplitude) decay rates: the cavity energy
decay rate is ``2*kappa`` and the exciton spontaneous emission rate is
``2*gamma``.  ``gamma_d`` is the pure-dephasing rate, entering the
off-diagonal decay as ``gamma + gamma_d``.  ``transfer_qd_to_cavity`` and
``transfer_cavity_to_qd`` are the rates of the one-way incoherent channels
``D[a^+ sigma]`` and ``D[sigma^+ a]``.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi

#: Speed of light in nm/ns (numerically equal to nm*GHz), so that
#: ``SPEED_OF_LIGHT_NM_GHZ / wavelength_nm`` is an ordinary frequency in GHz.
SPEED_OF_LIGHT_NM_GHZ = 299_792_458.0


def ghz_to_angular(frequency_ghz: float) -> float:
    """Ordinary frequency in GHz -> angular frequency in rad/ns."""
    return TWO_PI * frequency_ghz


def angular_to_ghz(omega: float) -> float:
    """Angular frequency in rad/ns -> ordinary frequency in GHz."""
    return omega / TWO_PI


def wavelength_to_angular_frequency(wavelength_nm: float) -> float:
    """Convert a vacuum wavelength in nm to an angular frequency in rad/ns.

    Raises ``ValueError`` for non-positive wavelengths.
    """
    if not wavelength_nm > 0.0:
        raise ValueError(f"wavelength must be positive, got {wavelength_nm!r} nm")
    return TWO_PI * SPEED_OF_LIGHT_NM_GHZ / wavelength_nm


def angular_frequency_to_wavelength(omega: float) -> float:
    """Inverse of :func:`wavelength_to_angular_frequency`."""
    if not omega > 0.0:
        raise ValueError(f"angular frequency must be positive, got {omega!r}")
    return TWO_PI * SPEED_OF_LIGHT_NM_GHZ / omega


def fwhm_nm_to_ghz(fwhm_nm: float, centre_nm: float) -> float:
    """Linewidth in nm at ``centre_nm`` -> ordinary-frequency linewidth in GHz."""
    return fwhm_nm * SPEED_OF_LIGHT_NM_GHZ / centre_nm**2


@dataclass(frozen=True)
class SystemParams:
    """Rates and resonance frequencies of one dot-cavity system (rad/ns).

    Attributes
    ----------
    g : float
        Coherent dot-cavity coupling, ``g >= 0``.
    kappa : float
        Cavity field decay rate, ``kappa > 0``.
    gamma : float
        Exciton field decay rate, ``gamma > 0``.
    gamma_d : float
        Pure dephasing rate, ``gamma_d >= 0``.
    omega_c, omega_d : float
        Cavity and dot angular resonance frequencies.
    transfer_qd_to_cavity, transfer_cavity_to_qd : float
        One-way incoherent transfer rates between dot and cavity, ``>= 0``.
    """

    g: float
    kappa: float
    gamma: float
    gamma_d: float
    omega_c: float
    omega_d: float
    transfer_qd_to_cavity: float = 0.0
    transfer_cavity_to_qd: float = 0.0

    def __post_init__(self) -> None:
        if self.g < 0.0:
            raise ValueError(f"coupling g must be >= 0, got {self.g}")
        if not self.kappa > 0.0:
            raise ValueError(f"cavity decay kappa must be > 0, got {self.kappa}")
        if not self.gamma > 0.0:
            raise ValueError(f"exciton decay gamma must be > 0, got {self.gamma}")
        if self.gamma_d < 0.0:
            raise ValueError(f"dephasing gamma_d must be >= 0, got {self.gamma_d}")
        for name in ("transfer_qd_to_cavity", "transfer_cavity_to_qd"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        for name in (field.name for field in dataclasses.fields(self)):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    @property
    def detuning(self) -> float:
        """``omega_d - omega_c`` in rad/ns."""
        return self.omega_d - self.omega_c

    @classmethod
    def from_ghz_and_nm(
        cls,
        g_ghz: float,
        kappa_ghz: float,
        gamma_ghz: float,
        qd_wavelength_nm: float,
        cavity_wavelength_nm: float,
        gamma_d_ghz: float = 0.0,
        transfer_qd_to_cavity_ghz: float = 0.0,
        transfer_cavity_to_qd_ghz: float = 0.0,
    ) -> "SystemParams":
        """Build from boundary units: rates in GHz, resonances in nm."""
        return cls(
            g=ghz_to_angular(g_ghz),
            kappa=ghz_to_angular(kappa_ghz),
            gamma=ghz_to_angular(gamma_ghz),
            gamma_d=ghz_to_angular(gamma_d_ghz),
            omega_c=wavelength_to_angular_frequency(cavity_wavelength_nm),
            omega_d=wavelength_to_angular_frequency(qd_wavelength_nm),
            transfer_qd_to_cavity=ghz_to_angular(transfer_qd_to_cavity_ghz),
            transfer_cavity_to_qd=ghz_to_angular(transfer_cavity_to_qd_ghz),
        )


class DriveTarget(enum.Enum):
    """Which mode the laser couples to."""

    QD = "qd"
    CAVITY = "cavity"


@dataclass(frozen=True)
class DriveSpec:
    """Coherent drive: target mode, laser frequency and strength.

    The strength is given either directly as a Rabi rate ``omega_rabi``
    (rad/ns) or as a pair ``(power, alpha)`` where ``power`` is in microwatt
    and ``alpha`` (1/uW) maps power to the dimensionless saturation
    parameter ``p_tilde = alpha * power``.  Exactly one of the two styles
    must be supplied.
    """

    target: DriveTarget
    omega_l: float
    omega_rabi: float | None = None
    power: float | None = None
    alpha: float | None = None

    def __post_init__(self) -> None:
        direct = self.omega_rabi is not None
        via_power = self.power is not None or self.alpha is not None
        if direct and via_power:
            raise ValueError("give either omega_rabi or (power, alpha), not both")
        if direct:
            if self.omega_rabi < 0.0:
                raise ValueError("omega_rabi must be >= 0")
        else:
            if self.power is None or self.alpha is None:
                raise ValueError("power-style drive needs both power and alpha")
            if self.power < 0.0:
                raise ValueError("power must be >= 0")
            if not self.alpha > 0.0:
                raise ValueError("alpha must be > 0")
        for name in ("omega_l", "omega_rabi", "power", "alpha"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite")

    def p_tilde(self, params: SystemParams) -> float:
        """Dimensionless saturation parameter of this drive.

        ``alpha * power`` in the power style; in the direct style it is
        ``omega_rabi**2 / (2 * gamma * (gamma + gamma_d))``, which makes the
        two styles interchangeable.
        """
        if self.omega_rabi is not None:
            return self.omega_rabi**2 / (2.0 * params.gamma * (params.gamma + params.gamma_d))
        return self.alpha * self.power

    def rabi_frequency(self, params: SystemParams) -> float:
        """Rabi rate in rad/ns, derived from power if necessary."""
        if self.omega_rabi is not None:
            return self.omega_rabi
        return math.sqrt(2.0 * params.gamma * (params.gamma + params.gamma_d) * self.p_tilde(params))

    def with_laser_frequency(self, omega_l: float) -> "DriveSpec":
        return dataclasses.replace(self, omega_l=omega_l)

    def with_power(self, power: float) -> "DriveSpec":
        if self.alpha is None:
            raise ValueError("cannot set power on a Rabi-style drive")
        return dataclasses.replace(self, power=power)
