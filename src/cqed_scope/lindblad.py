"""Master-equation engine: Hamiltonian, Liouvillian, steady state, evolution.

The density matrix evolves under

    drho/dt = -i [H, rho] + sum_k  r_k * D[C_k] rho,
    D[C] rho = C rho C^+ - (C^+ C rho + rho C^+ C) / 2,

with collapse terms ``2*kappa * D[a]`` (cavity leakage), ``2*gamma * D[sigma]``
(exciton emission), ``2*gamma_d * D[sigma^+ sigma]`` (pure dephasing, chosen so
the off-diagonal decay rate is exactly ``gamma + gamma_d``) and, optionally,
one-way incoherent transfer terms ``D[a^+ sigma]`` / ``D[sigma^+ a]``.

The Hamiltonian is written in the frame rotating at the laser frequency, so
only detunings from the laser appear.  The generator is a plain complex
``dim**2 x dim**2`` array acting on the row-major flattening of rho:
``vec(A rho B) = (A kron B^T) vec(rho)``.

Steady states come from one routine, :func:`solve_stack`, which solves a stack of
generators with one batched LU and checks every guard across the stack.  A laser scan
assembles its generator once and solves the grid in stacks of shifted copies
(:func:`laser_scan_steady_states`); :func:`steady_state` is a one-slice call.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

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

#: Scratch bytes for one stack of scan generators: 16 points at cutoff 3, one from cutoff 6 up.
STACK_BYTES = 1 << 20


def _ladder(n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """``(sigma, a)`` on the dot x Fock space with photon cutoff ``n_max``."""
    return lift_qd(qd_lowering(), n_max), lift_cavity(annihilation(n_max), n_max)


def build_hamiltonian(params: SystemParams, drive: DriveSpec, n_max: int) -> np.ndarray:
    """Rotating-frame Hamiltonian on the truncated space (rad/ns).

    ``(omega_d - omega_l) sigma^+ sigma + (omega_c - omega_l) a^+ a
    + g (sigma^+ a + sigma a^+)`` plus the drive term
    ``(omega_rabi / 2) * (x + x^+)`` where ``x`` is ``sigma`` or ``a``
    depending on the drive target.
    """
    sm, a = _ladder(n_max)
    sp, ad = dagger(sm), dagger(a)

    delta_d = params.omega_d - drive.omega_l
    delta_c = params.omega_c - drive.omega_l
    ham = delta_d * (sp @ sm) + delta_c * (ad @ a) + params.g * (sp @ a + sm @ ad)

    omega_rabi = drive.rabi_frequency(params)
    if omega_rabi != 0.0:
        lower = sm if drive.target is DriveTarget.QD else a
        ham = ham + 0.5 * omega_rabi * (lower + dagger(lower))
    return ham


def assemble_liouvillian(
    hamiltonian: np.ndarray, collapse_terms: list[tuple[float, np.ndarray]]
) -> np.ndarray:
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
    return matrix


def build_liouvillian(
    hamiltonian: np.ndarray,
    params: SystemParams,
    channels: IncoherentChannels | None = None,
) -> np.ndarray:
    """Assemble the full dissipative generator for one dot-cavity system."""
    dim = hamiltonian.shape[0]
    if dim % 2 != 0 or dim < 4:
        raise ValueError(f"expected a dot x Fock space of even dimension >= 4, got {dim}")
    channels = channels or IncoherentChannels()

    sm, a = _ladder(dim // 2 - 1)
    terms = [
        (2.0 * params.kappa, a),
        (2.0 * params.gamma, sm),
        (2.0 * params.gamma_d, dagger(sm) @ sm),
        (channels.transfer_qd_to_cavity, dagger(a) @ sm),
        (channels.transfer_cavity_to_qd, dagger(sm) @ a),
    ]
    return assemble_liouvillian(hamiltonian, terms)


@dataclass(frozen=True, eq=False)
class SteadyState:
    """Solution of ``L rho = 0`` with unit trace."""

    rho: np.ndarray
    residual: float
    observables: dict[str, float | complex]


def _readout(n_max: int) -> np.ndarray:
    """The read-out operators ``a^+a, sigma^+sigma, a, sigma`` as a ``(4, dim, dim)`` stack."""
    sm, a = _ladder(n_max)
    return np.stack([dagger(a) @ a, dagger(sm) @ sm, a, sm])


def _read(rhos: np.ndarray, readout: np.ndarray) -> np.ndarray:
    """Expectations ``tr(O rho)``, ``(k, 4)``, of a stack of states.

    Each trace is of one ``O @ rho`` product, so a state reads the same bits in
    whichever stack it sits.
    """
    return np.trace(readout[:, None] @ rhos, axis1=2, axis2=3).T


def _observables(reading: np.ndarray) -> dict[str, float | complex]:
    return {
        "n_cavity": float(reading[0].real),
        "n_qd": float(reading[1].real),
        "a": complex(reading[2]),
        "sigma": complex(reading[3]),
    }


def solve_stack(
    stack: np.ndarray, norms: np.ndarray, residual_tol: float = STEADY_RESIDUAL_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """Unit-trace steady states ``(rhos, residuals)`` of a ``(k, dim**2, dim**2)`` generator stack.

    The stack is scratch: in each slice the equation for the (0, 0) matrix element is
    overwritten by the trace constraint ``sum_i rho_ii = 1`` and all slices go through one
    batched dense solve.  The guards then run over the whole stack: Hermiticity and unit trace
    (a degenerate steady manifold, also signalled by a singular system, raises
    :class:`~cqed_scope.errors.NonUniqueSteadyStateError`), the residual
    ``||L rho|| <= residual_tol * max(1, norms)`` with ``norms`` the generators' Frobenius norms,
    and positivity.  An error describes the first failing slice and carries its position as
    ``index``.
    """
    k, size, _ = stack.shape
    dim = math.isqrt(size)
    # Row-major flattening puts element (0, 0) in row 0 and the diagonal at i*dim+i.
    row0 = stack[:, 0, :].copy()
    stack[:, 0, :] = 0.0
    stack[:, 0, :: dim + 1] = 1.0
    rhs = np.zeros((k, size, 1), dtype=np.complex128)
    rhs[:, 0] = 1.0
    try:
        vecs = np.linalg.solve(stack, rhs)
    except np.linalg.LinAlgError as exc:
        # A zero pivot in the same LU is what made the solve fail.
        singular = np.linalg.slogdet(stack)[0] == 0
        raise NonUniqueSteadyStateError(
            "steady-state system is singular; the generator has a degenerate kernel",
            index=int(np.argmax(singular)),
        ) from exc

    rhos = vecs.reshape(k, dim, dim)
    adjoint = rhos.conj().transpose(0, 2, 1)
    scale = np.maximum(1.0, np.linalg.norm(rhos, axis=(1, 2)))
    asymmetric = np.linalg.norm(rhos - adjoint, axis=(1, 2)) > 1e-8 * scale
    rhos = 0.5 * (rhos + adjoint)
    traces = np.trace(rhos, axis1=1, axis2=2).real
    off_trace = ~(np.abs(traces - 1.0) <= 1e-6)
    rhos = rhos / np.where(off_trace, 1.0, traces)[:, None, None]

    # Rows 1.. of the constrained system are the generator's own; row 0 was kept aside.
    applied = np.matmul(stack, rhos.reshape(k, size, 1))[:, :, 0]
    applied[:, 0] = np.einsum("kj,kj->k", row0, rhos.reshape(k, size))
    residuals = np.linalg.norm(applied, axis=1)
    loose = ~(residuals <= residual_tol * np.maximum(1.0, norms))

    failing = np.flatnonzero(asymmetric | off_trace | loose)
    valid = int(failing[0]) if failing.size else k
    try:
        validate_density_matrix(rhos[:valid], context="steady state")
    except ValueError as exc:
        raise NumericalError(str(exc), index=exc.index) from exc
    if valid < k:
        j = valid
        if asymmetric[j]:
            raise NonUniqueSteadyStateError("steady-state solution is not Hermitian", index=j)
        if off_trace[j]:
            raise NonUniqueSteadyStateError(
                f"steady-state trace {traces[j]} deviates from 1", index=j
            )
        raise NumericalError(
            f"steady-state residual {residuals[j]:.3e} exceeds tolerance; "
            "the generator may be near-degenerate",
            index=j,
        )
    return rhos, residuals


def steady_state(liouvillian: np.ndarray, residual_tol: float = STEADY_RESIDUAL_TOL) -> SteadyState:
    """Unique steady state of one generator: a one-slice :func:`solve_stack`.

    Errors are those of :func:`solve_stack`; the generator itself is left untouched.
    """
    norm = np.array([np.linalg.norm(liouvillian)])
    rhos, residuals = solve_stack(liouvillian[None].copy(), norm, residual_tol)
    reading = _read(rhos, _readout(rhos.shape[1] // 2 - 1))[0]
    return SteadyState(rho=rhos[0], residual=float(residuals[0]), observables=_observables(reading))


def laser_scan_stacks(
    params: SystemParams,
    drive: DriveSpec,
    n_max: int,
    channels: IncoherentChannels | None,
    laser_omegas: list[float],
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Generators at each laser frequency, in order, as ``(stack, norms)`` pairs.

    Each stack fills at most :data:`STACK_BYTES` (but holds at least one generator), and the
    generator is assembled once, at the middle frequency.  In the laser frame ``omega_l``
    enters only as ``-omega_l N`` with the diagonal ``N = sigma^+ sigma + a^+ a``, built here
    as in the Hamiltonian; moving the laser by ``d`` adds ``d * S`` with ``S = i (N_ii - N_jj)``
    on the diagonal entry for ``rho_ij``.  A nearby reference keeps digits, and the Frobenius
    norms follow in closed form, ``||L0 + d S||**2 = ||L0||**2 + 2 d Re<diag L0, S> +
    d**2 ||S||**2``.  One scratch buffer holds every stack, so a stack is valid only until the
    next one is drawn.
    """
    omega_ref = laser_omegas[len(laser_omegas) // 2]
    ham = build_hamiltonian(params, drive.with_laser_frequency(omega_ref), n_max)
    reference = build_liouvillian(ham, params, channels)
    sm, a = _ladder(n_max)
    number = np.diag(dagger(sm) @ sm + dagger(a) @ a).real
    shift = 1j * np.subtract.outer(number, number).ravel()
    norm_sq = np.vdot(reference, reference).real
    cross = 2.0 * np.vdot(reference.diagonal(), shift).real
    shift_sq = np.vdot(shift, shift).real

    offsets = np.asarray(laser_omegas, dtype=float) - omega_ref
    size = reference.shape[0]
    per_stack = max(1, STACK_BYTES // reference.nbytes)
    scratch = np.empty((min(per_stack, offsets.size), size, size), dtype=np.complex128)
    diagonals = scratch.reshape(len(scratch), -1)[:, :: size + 1]
    for start in range(0, offsets.size, per_stack):
        steps = offsets[start : start + per_stack]
        stack = scratch[: steps.size]
        stack[...] = reference
        diagonals[: steps.size] += steps[:, None] * shift
        yield stack, np.sqrt(norm_sq + steps * cross + steps**2 * shift_sq)


def laser_scan_steady_states(
    params: SystemParams,
    drive: DriveSpec,
    n_max: int,
    channels: IncoherentChannels | None,
    laser_omegas: list[float],
    residual_tol: float = STEADY_RESIDUAL_TOL,
) -> tuple[np.ndarray, SteadyState]:
    """Steady-state readout at each laser frequency and the middle point's full state.

    Row ``j`` of the ``(len(laser_omegas), 4)`` readout holds ``<a^+a>, <sigma^+sigma>, <a>,
    <sigma>`` at ``laser_omegas[j]``; the read-out operators are built once per scan.  The middle
    state equals a fresh :func:`steady_state` at its frequency bit for bit.  A failing point
    raises the error of :func:`solve_stack` with ``index`` its position in ``laser_omegas``.
    """
    readout = _readout(n_max)
    middle = len(laser_omegas) // 2
    readings = np.empty((len(laser_omegas), 4), dtype=np.complex128)
    start = 0
    for stack, norms in laser_scan_stacks(params, drive, n_max, channels, laser_omegas):
        try:
            rhos, residuals = solve_stack(stack, norms, residual_tol)
        except NumericalError as exc:
            exc.index += start
            raise
        readings[start : start + len(rhos)] = _read(rhos, readout)
        if start <= middle < start + len(rhos):
            j = middle - start
            state = SteadyState(
                rho=rhos[j],
                residual=float(residuals[j]),
                observables=_observables(readings[middle]),
            )
        start += len(rhos)
    return readings, state


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
    liouvillian: np.ndarray,
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
    dim = math.isqrt(liouvillian.shape[0])
    if rho0.shape[0] != dim:
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

    norm = float(np.linalg.norm(liouvillian))
    step_cap = dt_max if norm == 0.0 else min(dt_max, 0.1 / norm)

    vec = rho0.reshape(-1).astype(np.complex128)
    states: list[np.ndarray] = []
    drift = 0.0
    t_prev = 0.0
    for t in samples:
        if t > t_prev:
            vec = _rk4_segment(liouvillian, vec, t - t_prev, step_cap)
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
