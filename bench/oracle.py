"""Independent steady state of the driven dot-cavity master equation.

Written with numpy alone and sharing no code with ``cqed_scope.lindblad`` or
``cqed_scope.hilbert``, so it can judge their output.  It differs from the
package on purpose wherever a shared convention could hide a shared bug:

* the cavity is the slow tensor factor (basis index ``2 * n + qd``);
* superoperators act on the column-major vectorisation,
  ``vec(A rho B) = (B^T kron A) vec(rho)``;
* the trace condition enters as a rank-one term, ``(L + s t t^T) x = s t``
  with ``t = vec(1)``, instead of replacing one row of ``L``.

Physics (laser frame, rad/ns): ``H = (w_d - w_l) s+s + (w_c - w_l) a+a
+ g (s+a + s a+) + (W/2)(x + x+)`` with ``x`` the driven mode, and collapse
terms ``2 kappa D[a]``, ``2 gamma D[s]``, ``2 gamma_d D[s+s]``.  A power-style
drive has ``W = sqrt(2 gamma (gamma + gamma_d) alpha P)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi
SPEED_OF_LIGHT_NM_GHZ = 299_792_458.0

#: Relative occupation change between cutoffs n and n + 2 that counts as converged.
TRUNCATION_RTOL = 1e-8
#: Occupation floor below which changes are not relative (empty-cavity round-off).
OCCUPATION_FLOOR = 1e-6


def omega_of_nm(wavelength_nm: float) -> float:
    return TWO_PI * SPEED_OF_LIGHT_NM_GHZ / wavelength_nm


@dataclass(frozen=True)
class System:
    """Dot-cavity system in the units of an INI ``[system]`` section."""

    qd_wavelength_nm: float
    cavity_wavelength_nm: float
    g_ghz: float
    kappa_ghz: float
    gamma_ghz: float
    gamma_d_ghz: float = 0.0


@dataclass(frozen=True)
class Drive:
    """Coherent drive: ``rabi_ghz`` directly, or ``alpha_per_uw`` with ``power_uw``."""

    target: str
    rabi_ghz: float | None = None
    alpha_per_uw: float | None = None
    power_uw: float | None = None

    def rabi(self, system: System) -> float:
        if self.rabi_ghz is not None:
            return TWO_PI * self.rabi_ghz
        gamma = TWO_PI * system.gamma_ghz
        dephase = TWO_PI * system.gamma_d_ghz
        return math.sqrt(2.0 * gamma * (gamma + dephase) * self.alpha_per_uw * self.power_uw)


def _operators(n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Cavity annihilator and dot lowering operator, cavity as slow factor."""
    ladder = np.diag(np.sqrt(np.arange(1.0, n_max + 1.0)), k=1)
    lowering = np.array([[0.0, 1.0], [0.0, 0.0]])
    a = np.kron(ladder, np.eye(2))
    sm = np.kron(np.eye(n_max + 1), lowering)
    return a.astype(complex), sm.astype(complex)


def liouvillian(system: System, drive: Drive, laser_nm: float, n_max: int) -> np.ndarray:
    """Column-major superoperator of the master equation."""
    a, sm = _operators(n_max)
    dim = a.shape[0]
    w_l = omega_of_nm(laser_nm)
    delta_d = omega_of_nm(system.qd_wavelength_nm) - w_l
    delta_c = omega_of_nm(system.cavity_wavelength_nm) - w_l
    g = TWO_PI * system.g_ghz
    ham = (
        delta_d * (sm.conj().T @ sm)
        + delta_c * (a.conj().T @ a)
        + g * (sm.conj().T @ a + a.conj().T @ sm)
    )
    driven = sm if drive.target == "qd" else a
    ham = ham + 0.5 * drive.rabi(system) * (driven + driven.conj().T)

    eye = np.eye(dim)
    sup = -1j * (np.kron(eye, ham) - np.kron(ham.T, eye))
    for rate_ghz, op in (
        (2.0 * system.kappa_ghz, a),
        (2.0 * system.gamma_ghz, sm),
        (2.0 * system.gamma_d_ghz, sm.conj().T @ sm),
    ):
        if rate_ghz == 0.0:
            continue
        number = op.conj().T @ op
        sup = sup + TWO_PI * rate_ghz * (
            np.kron(op.conj(), op) - 0.5 * np.kron(eye, number) - 0.5 * np.kron(number.T, eye)
        )
    return sup


def steady_state(sup: np.ndarray) -> np.ndarray:
    """Unit-trace kernel vector of ``sup`` as a density matrix."""
    dim = math.isqrt(sup.shape[0])
    trace_vec = np.eye(dim).reshape(-1, order="F")
    scale = float(np.linalg.norm(sup)) / dim
    bordered = sup + scale * np.outer(trace_vec, trace_vec)
    rhs = scale * trace_vec
    vec = np.linalg.solve(bordered, rhs)
    vec = vec + np.linalg.solve(bordered, rhs - bordered @ vec)
    return vec.reshape(dim, dim, order="F")


def occupations(system: System, drive: Drive, laser_nm: float, n_max: int) -> tuple[float, float]:
    """Steady ``<a+a>`` and ``<s+s>``."""
    rho = steady_state(liouvillian(system, drive, laser_nm, n_max))
    populations = np.real(np.diag(rho))
    photons = np.repeat(np.arange(n_max + 1.0), 2)
    excited = np.tile([0.0, 1.0], n_max + 1)
    total = populations.sum()
    return float(photons @ populations / total), float(excited @ populations / total)


def emission(system: System, drive: Drive, laser_nm: float, n_max: int) -> float:
    """Photon flux out of the cavity, ``2 kappa <a+a>`` (rad/ns)."""
    return 2.0 * TWO_PI * system.kappa_ghz * occupations(system, drive, laser_nm, n_max)[0]


def truncation_change(system: System, drive: Drive, laser_nm: float, n_max: int) -> float:
    """Worst relative change of both occupations from cutoff ``n_max`` to ``n_max + 2``."""
    coarse = occupations(system, drive, laser_nm, n_max)
    fine = occupations(system, drive, laser_nm, n_max + 2)
    return max(
        abs(lo - hi) / max(abs(lo), abs(hi), OCCUPATION_FLOOR) for lo, hi in zip(coarse, fine)
    )

