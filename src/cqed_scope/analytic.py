"""Closed-form spectroscopy results for the coupled dot-cavity system.

These are the benchmarks the numerical engine is checked against: complex
polariton frequencies of the linearised system, the far-detuned (dispersive)
dot linewidth, and the power-broadened linewidth model used to fit power
sweeps.  All inputs and outputs are angular frequencies in rad/ns
unless a name says otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import SystemParams


@dataclass(frozen=True)
class PolaritonPair:
    """The two complex eigenfrequencies of the coupled linear system.

    ``omega_plus`` is the branch with the larger real part (larger imaginary
    part breaks ties).  Real parts are resonance positions; ``-2 * imag`` is
    the energy full width of each branch.
    """

    omega_plus: complex
    omega_minus: complex

    def branch_near(self, omega: complex) -> complex:
        """The branch closer to ``omega`` in the complex plane.

        Pass a bare complex line, ``omega_d - i*gamma`` or ``omega_c - i*kappa``:
        on resonance both branches can share a real part and differ only in width.
        """
        if abs(self.omega_plus - omega) <= abs(self.omega_minus - omega):
            return self.omega_plus
        return self.omega_minus


def polariton_frequencies(params: SystemParams) -> PolaritonPair:
    """Complex eigenfrequencies of the damped two-mode system.

    Mean of the bare complex frequencies plus/minus
    ``sqrt(g**2 + ((delta - i*(gamma - kappa)) / 2)**2)`` with
    ``delta = omega_d - omega_c``; identical to the eigenvalues of the
    non-Hermitian matrix ``[[omega_d - i*gamma, g], [g, omega_c - i*kappa]]``.
    In the decoupled limit (``g == 0``) the branches are exactly the bare dot
    and cavity lines with their own decay rates.
    """
    if params.g == 0.0:
        first = complex(params.omega_d, -params.gamma)
        second = complex(params.omega_c, -params.kappa)
    else:
        mean = 0.5 * (params.omega_c + params.omega_d) - 0.5j * (params.kappa + params.gamma)
        half_diff = 0.5 * (params.detuning - 1j * (params.gamma - params.kappa))
        root = np.sqrt(complex(params.g**2 + half_diff**2))
        first, second = mean + root, mean - root
    if (first.real, first.imag) >= (second.real, second.imag):
        return PolaritonPair(omega_plus=first, omega_minus=second)
    return PolaritonPair(omega_plus=second, omega_minus=first)


def cavity_feeding_estimate(kappa: float, delta: float) -> float:
    """Upper estimate ``2 * kappa**3 / delta**2`` of the cavity-induced broadening.

    This is the dispersive cavity admixture ``2*(g/delta)**2 * kappa``
    evaluated with the coupling set equal to ``kappa``, the largest value
    consistent with an unresolved vacuum Rabi splitting.
    """
    if not kappa > 0.0:
        raise ValueError("kappa must be > 0")
    if delta == 0.0:
        raise ValueError("estimate undefined at zero detuning")
    return 2.0 * kappa**3 / delta**2


def power_broadened_linewidth(gamma: float, gamma_d: float, p_tilde: float) -> float:
    """Full width ``2 * (gamma + gamma_d) * sqrt(1 + p_tilde)`` of the driven emitter line."""
    if not gamma > 0.0:
        raise ValueError("gamma must be > 0")
    if gamma_d < 0.0:
        raise ValueError("gamma_d must be >= 0")
    if p_tilde < 0.0:
        raise ValueError("p_tilde must be >= 0")
    return 2.0 * (gamma + gamma_d) * math.sqrt(1.0 + p_tilde)


@dataclass(frozen=True)
class LinewidthModelParams:
    """Parameters of the additive linewidth-versus-power model (rad/ns, 1/uW).

    The model is ``delta_omega_c + delta_omega_0 * sqrt(1 + alpha * power)``:
    a power-independent cavity-induced term plus a power-broadened intrinsic
    term.
    """

    delta_omega_c: float
    delta_omega_0: float
    alpha: float

    def __post_init__(self) -> None:
        if self.delta_omega_c < 0.0 or self.delta_omega_0 < 0.0:
            raise ValueError("linewidth contributions must be >= 0")
        if not self.alpha > 0.0:
            raise ValueError("alpha must be > 0")

    @classmethod
    def from_system(cls, params: SystemParams, alpha: float) -> "LinewidthModelParams":
        """Populate the model from system rates.

        ``delta_omega_c`` is the dispersive cavity admixture ``2*(g/delta)**2 *
        kappa``, leading order for ``|delta| >> g`` (zero for an uncoupled dot);
        ``delta_omega_0 = 2 * (gamma + gamma_d)``.
        """
        if params.g == 0.0:
            cavity_term = 0.0
        else:
            if params.detuning == 0.0:
                raise ValueError("cavity-induced term undefined at zero detuning")
            cavity_term = 2.0 * (params.g / params.detuning) ** 2 * params.kappa
        return cls(
            delta_omega_c=cavity_term,
            delta_omega_0=2.0 * (params.gamma + params.gamma_d),
            alpha=alpha,
        )


def combined_linewidth(model: LinewidthModelParams, power_uw: float) -> float:
    """Evaluate the additive linewidth model at a given power (rad/ns)."""
    if power_uw < 0.0:
        raise ValueError("power must be >= 0")
    return model.delta_omega_c + model.delta_omega_0 * math.sqrt(1.0 + model.alpha * power_uw)
