"""Master-equation engine: Hamiltonian, Liouvillian, steady state, evolution.

The density matrix evolves under

    drho/dt = -i [H, rho] + sum_k  r_k * D[C_k] rho,
    D[C] rho = C rho C^+ - (C^+ C rho + rho C^+ C) / 2,

with collapse terms ``2*kappa * D[a]`` (cavity leakage), ``2*gamma * D[sigma]``
(exciton emission), ``2*gamma_d * D[sigma^+ sigma]`` (pure dephasing, chosen so
the off-diagonal decay rate is exactly ``gamma + gamma_d``) and, optionally,
one-way incoherent transfer terms ``D[a^+ sigma]`` / ``D[sigma^+ a]``.

The Hamiltonian is written in the frame rotating at the laser frequency, so
only detunings from the laser appear.  Superoperators are dense matrices
acting on the row-major flattening of rho: ``vec(A rho B) = (A kron B^T) vec(rho)``.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import IntegrationError, NonUniqueSteadyStateError, NumericalError
from .hilbert import (
    annihilation,
    dagger,
    identity,
    lift_cavity,
    lift_qd,
    qd_lowering,
    validate_density_matrix,
)
from .model import DriveSpec, DriveTarget, IncoherentChannels, SystemParams

#: Steady-state residual must satisfy ||L rho|| <= tol * max(1, ||L||_F).
STEADY_RESIDUAL_TOL = 1e-9

#: Relative change in occupations under a cutoff increase that counts as converged.
TRUNCATION_RTOL = 1e-8


def build_hamiltonian(params: SystemParams, drive: DriveSpec, n_max: int) -> np.ndarray:
    """Rotating-frame Hamiltonian on the truncated space (rad/ns).

    ``(omega_d - omega_l) sigma^+ sigma + (omega_c - omega_l) a^+ a
    + g (sigma^+ a + sigma a^+)`` plus the drive term
    ``(omega_rabi / 2) * (x + x^+)`` where ``x`` is ``sigma`` or ``a``
    depending on the drive target.
    """
    sm = lift_qd(qd_lowering(), n_max)
    a = lift_cavity(annihilation(n_max), n_max)
    sp, ad = dagger(sm), dagger(a)

    delta_d = params.omega_d - drive.omega_l
    delta_c = params.omega_c - drive.omega_l
    ham = delta_d * (sp @ sm) + delta_c * (ad @ a) + params.g * (sp @ a + sm @ ad)

    omega_rabi = drive.rabi_frequency(params)
    if omega_rabi != 0.0:
        lower = sm if drive.target is DriveTarget.QD else a
        ham = ham + 0.5 * omega_rabi * (lower + dagger(lower))
    return ham


@dataclass(frozen=True, eq=False)
class Liouvillian:
    """Dense superoperator together with the collapse terms it was assembled from.

    ``matrix`` has shape ``(dim**2, dim**2)`` and acts on row-major flattened
    density matrices.  ``collapse_terms`` records ``(rate, operator)`` pairs
    with strictly positive rates.
    """

    dim: int
    matrix: np.ndarray
    collapse_terms: tuple[tuple[float, np.ndarray], ...] = field(default_factory=tuple)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Right-hand side of the master equation for a given density matrix."""
        return (self.matrix @ rho.reshape(-1)).reshape(self.dim, self.dim)

    def norm(self) -> float:
        return float(np.linalg.norm(self.matrix))


def assemble_liouvillian(
    hamiltonian: np.ndarray, collapse_terms: list[tuple[float, np.ndarray]]
) -> Liouvillian:
    """Build the superoperator matrix from a Hamiltonian and collapse terms.

    Rates must be non-negative; zero-rate terms are dropped.  The commutator
    part uses ``-i (H kron 1 - 1 kron H^T)``; each collapse term contributes
    ``r * (C kron conj(C) - (C^+C kron 1 + 1 kron (C^+C)^T) / 2)``.
    """
    if hamiltonian.ndim != 2 or hamiltonian.shape[0] != hamiltonian.shape[1]:
        raise ValueError(f"hamiltonian must be square, got shape {hamiltonian.shape}")
    dim = hamiltonian.shape[0]
    eye = identity(dim)
    matrix = -1j * (np.kron(hamiltonian, eye) - np.kron(eye, hamiltonian.T))
    kept: list[tuple[float, np.ndarray]] = []
    for rate, op in collapse_terms:
        if rate < 0.0:
            raise ValueError(f"collapse rate must be >= 0, got {rate}")
        if op.shape != (dim, dim):
            raise ValueError(f"collapse operator shape {op.shape} does not match dim {dim}")
        if rate == 0.0:
            continue
        opdag_op = dagger(op) @ op
        matrix += rate * (
            np.kron(op, op.conj())
            - 0.5 * np.kron(opdag_op, eye)
            - 0.5 * np.kron(eye, opdag_op.T)
        )
        kept.append((rate, op))
    return Liouvillian(dim=dim, matrix=matrix, collapse_terms=tuple(kept))


def build_liouvillian(
    hamiltonian: np.ndarray,
    params: SystemParams,
    channels: IncoherentChannels | None = None,
) -> Liouvillian:
    """Assemble the full dissipative generator for one dot-cavity system."""
    dim = hamiltonian.shape[0]
    if dim % 2 != 0 or dim < 4:
        raise ValueError(f"expected a dot x Fock space of even dimension >= 4, got {dim}")
    n_max = dim // 2 - 1
    channels = channels or IncoherentChannels()

    sm = lift_qd(qd_lowering(), n_max)
    a = lift_cavity(annihilation(n_max), n_max)
    terms = [
        (2.0 * params.kappa, a),
        (2.0 * params.gamma, sm),
        (2.0 * params.gamma_d, dagger(sm) @ sm),
        (channels.transfer_qd_to_cavity, dagger(a) @ sm),
        (channels.transfer_cavity_to_qd, dagger(sm) @ a),
    ]
    return assemble_liouvillian(hamiltonian, terms)


def laser_scan_liouvillians(
    params: SystemParams,
    drive: DriveSpec,
    n_max: int,
    channels: IncoherentChannels | None,
    laser_omegas: list[float],
) -> Iterator[Liouvillian]:
    """Liouvillians at each laser frequency, assembled once at the middle one.

    In the laser frame ``omega_l`` enters only as ``-omega_l N`` with the diagonal ``N =
    sigma^+ sigma + a^+ a``, built here as in the Hamiltonian; moving the laser by ``d`` adds
    ``d * i (N_ii - N_jj)`` to the entry for ``rho_ij``.  A nearby reference keeps digits.
    """
    omega_ref = laser_omegas[len(laser_omegas) // 2]
    ham = build_hamiltonian(params, drive.with_laser_frequency(omega_ref), n_max)
    reference = build_liouvillian(ham, params, channels)
    sm = lift_qd(qd_lowering(), n_max)
    a = lift_cavity(annihilation(n_max), n_max)
    number = np.diag(dagger(sm) @ sm + dagger(a) @ a).real
    shift = 1j * np.subtract.outer(number, number).ravel()
    for omega in laser_omegas:
        matrix = reference.matrix.copy()
        matrix[np.diag_indices_from(matrix)] += (omega - omega_ref) * shift
        yield replace(reference, matrix=matrix)


@dataclass(frozen=True, eq=False)
class SteadyState:
    """Solution of ``L rho = 0`` with unit trace."""

    rho: np.ndarray
    residual: float
    observables: dict[str, float | complex]


def _observables(rho: np.ndarray) -> dict[str, float | complex]:
    dim = rho.shape[0]
    n_max = dim // 2 - 1
    sm = lift_qd(qd_lowering(), n_max)
    a = lift_cavity(annihilation(n_max), n_max)
    return {
        "n_cavity": float(np.trace(dagger(a) @ a @ rho).real),
        "n_qd": float(np.trace(dagger(sm) @ sm @ rho).real),
        "a": complex(np.trace(a @ rho)),
        "sigma": complex(np.trace(sm @ rho)),
    }


def steady_state(liouvillian: Liouvillian, residual_tol: float = STEADY_RESIDUAL_TOL) -> SteadyState:
    """Unique steady state via a trace-normalised linear solve.

    The equation for the (0, 0) matrix element is replaced by the trace
    constraint ``sum_i rho_ii = 1``; the resulting dense system is solved
    directly.  Degenerate steady manifolds surface as a singular system (or
    an unacceptable residual) and raise
    :class:`~cqed_scope.errors.NonUniqueSteadyStateError`.
    """
    dim = liouvillian.dim
    a_mat = liouvillian.matrix.copy()
    rhs = np.zeros(dim * dim, dtype=np.complex128)
    # Row-major flattening puts element (0, 0) in row 0 and the diagonal at i*dim+i.
    a_mat[0, :] = 0.0
    a_mat[0, :: dim + 1] = 1.0
    rhs[0] = 1.0
    try:
        vec = np.linalg.solve(a_mat, rhs)
    except np.linalg.LinAlgError as exc:
        raise NonUniqueSteadyStateError(
            "steady-state system is singular; the generator has a degenerate kernel"
        ) from exc

    rho = vec.reshape(dim, dim)
    scale = max(1.0, float(np.linalg.norm(rho)))
    if float(np.linalg.norm(rho - rho.conj().T)) > 1e-8 * scale:
        raise NonUniqueSteadyStateError("steady-state solution is not Hermitian")
    rho = 0.5 * (rho + rho.conj().T)
    trace = float(np.trace(rho).real)
    if not math.isfinite(trace) or abs(trace - 1.0) > 1e-6:
        raise NonUniqueSteadyStateError(f"steady-state trace {trace} deviates from 1")
    rho = rho / trace

    residual = float(np.linalg.norm(liouvillian.matrix @ rho.reshape(-1)))
    if residual > residual_tol * max(1.0, liouvillian.norm()):
        raise NumericalError(
            f"steady-state residual {residual:.3e} exceeds tolerance; "
            "the generator may be near-degenerate"
        )
    try:
        validate_density_matrix(rho, context="steady state")
    except ValueError as exc:
        raise NumericalError(str(exc)) from exc
    return SteadyState(rho=rho, residual=residual, observables=_observables(rho))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """States sampled along a fixed-step integration."""

    times: np.ndarray
    states: list[np.ndarray]
    max_trace_drift: float


def _rk4_segment(matrix: np.ndarray, vec: np.ndarray, span: float, step_cap: float) -> np.ndarray:
    steps = max(1, math.ceil(span / step_cap))
    h = span / steps
    for _ in range(steps):
        k1 = matrix @ vec
        k2 = matrix @ (vec + 0.5 * h * k1)
        k3 = matrix @ (vec + 0.5 * h * k2)
        k4 = matrix @ (vec + h * k3)
        vec = vec + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return vec


def evolve(
    liouvillian: Liouvillian,
    rho0: np.ndarray,
    t_final: float,
    dt_max: float,
    sample_times: np.ndarray | list[float] | None = None,
) -> Trajectory:
    """Fixed-step fourth-order Runge-Kutta integration of the master equation.

    The step never exceeds ``min(dt_max, 0.1 / ||L||_F)``, which keeps the
    integration well inside the stability region.  Sample times must be
    increasing and within ``[0, t_final]``; each sampled state is
    trace-renormalised.  A trace drift beyond 1e-6 raises
    :class:`~cqed_scope.errors.IntegrationError`.
    """
    if not t_final > 0.0:
        raise ValueError("t_final must be > 0")
    if not dt_max > 0.0:
        raise ValueError("dt_max must be > 0")
    validate_density_matrix(rho0, context="initial state")
    if rho0.shape[0] != liouvillian.dim:
        raise ValueError("initial state dimension does not match the Liouvillian")

    if sample_times is None:
        samples = np.array([t_final], dtype=float)
    else:
        samples = np.asarray(sample_times, dtype=float)
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError("sample_times must be a non-empty 1-d sequence")
        if np.any(np.diff(samples) <= 0.0):
            raise ValueError("sample_times must be strictly increasing")
        if samples[0] < 0.0 or samples[-1] > t_final * (1.0 + 1e-12):
            raise ValueError("sample_times must lie within [0, t_final]")

    norm = liouvillian.norm()
    step_cap = dt_max if norm == 0.0 else min(dt_max, 0.1 / norm)

    vec = rho0.reshape(-1).astype(np.complex128)
    dim = liouvillian.dim
    states: list[np.ndarray] = []
    drift = 0.0
    t_prev = 0.0
    for t in samples:
        if t > t_prev:
            vec = _rk4_segment(liouvillian.matrix, vec, t - t_prev, step_cap)
            t_prev = t
        rho = vec.reshape(dim, dim)
        trace = float(np.trace(rho).real)
        drift = max(drift, abs(trace - 1.0))
        if drift > 1e-6:
            raise IntegrationError(f"trace drifted by {drift:.3e} at t = {t}")
        states.append(rho / trace)
    return Trajectory(times=samples, states=states, max_trace_drift=drift)


def truncation_check(
    params: SystemParams,
    drive: DriveSpec,
    n_max: int,
    channels: IncoherentChannels | None = None,
    residual_tol: float = STEADY_RESIDUAL_TOL,
) -> tuple[bool, float]:
    """Solve at cutoff ``n_max``, then compare with ``n_max + 2`` by :func:`truncation_change`."""
    ham = build_hamiltonian(params, drive, n_max)
    lower = steady_state(build_liouvillian(ham, params, channels), residual_tol)
    return truncation_change(lower, params, drive, channels, residual_tol)


def truncation_change(
    lower: SteadyState,
    params: SystemParams,
    drive: DriveSpec,
    channels: IncoherentChannels | None = None,
    residual_tol: float = STEADY_RESIDUAL_TOL,
) -> tuple[bool, float]:
    """Compare ``lower``, this drive's steady state at cutoff ``n``, with a solve at ``n + 2``.

    Returns ``(converged, worst_relative_change)``.  The relative change uses an absolute
    floor of 1e-6 occupation so that empty-cavity round-off does not register as disagreement.
    """
    n_max = lower.rho.shape[0] // 2 - 1
    ham = build_hamiltonian(params, drive, n_max + 2)
    upper = steady_state(build_liouvillian(ham, params, channels), residual_tol)
    pairs = [(lower.observables[k], upper.observables[k]) for k in ("n_cavity", "n_qd")]
    worst = max(abs(lo - hi) / max(abs(lo), abs(hi), 1e-6) for lo, hi in pairs)
    return worst < TRUNCATION_RTOL, worst
