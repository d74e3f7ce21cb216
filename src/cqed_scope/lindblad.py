"""Master-equation engine: Hamiltonian, Liouvillian, steady state, cutoff check.

The density matrix evolves under

    drho/dt = -i [H, rho] + sum_k  r_k * D[C_k] rho,
    D[C] rho = C rho C^+ - (C^+ C rho + rho C^+ C) / 2,

with collapse terms ``2*kappa * D[a]`` (cavity leakage), ``2*gamma * D[sigma]``
(exciton emission), ``2*gamma_d * D[sigma^+ sigma]`` (pure dephasing, chosen so
the off-diagonal decay rate is exactly ``gamma + gamma_d``) and, at the system's
transfer rates, one-way incoherent transfer terms ``D[a^+ sigma]`` / ``D[sigma^+ a]``.

The Hamiltonian is written in the frame rotating at the laser frequency, so
only detunings from the laser appear.  The generator acts on the row-major
flattening of rho, ``vec(A rho B) = (A kron B^T) vec(rho)``, and about 1 % of its
``dim**2 x dim**2`` entries are non-zero.  :func:`liouvillian_entries` lists them as
``(size, rows, cols, values)`` straight from ``H`` and the collapse operators; scans and the
cutoff probe work from that list alone.  :func:`build_liouvillian` scatters it into a dense
complex array for callers that want one.

Steady states come from one routine, :func:`solve_stack`: a block elimination over the
``2 * n_max + 3`` sectors of equal excitation difference ``m = N_i - N_j``, in which the generator
is block tridiagonal.  ``N = qd + n`` comes from the basis as exact integers
(:func:`~cqed_scope.hilbert.basis_numbers`), which the Hamiltonian and the occupations share.  The
generator maps ``rho^+`` to ``(L rho)^+``, so only the ``m >= 0`` half is solved and
``rho_{-m} = rho_m^+``.  A scan gathers its blocks once from the list and gets every point's
state from one call, which batches internally (:func:`laser_scan_steady_states`); a scan's cutoff
probe is the same call at a larger cutoff.  :func:`steady_state` is the one-point call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonUniqueSteadyStateError, NumericalError
from .hilbert import (
    annihilation,
    basis_numbers,
    dagger,
    lift_cavity,
    lift_qd,
    qd_lowering,
    validate_density_matrix,
)
from .model import DriveSpec, DriveTarget, SystemParams

#: Steady-state residual must satisfy ||L rho|| <= tol * max(1, ||L||_F).
STEADY_RESIDUAL_TOL = 1e-9

#: Relative change in occupations under a cutoff increase that counts as converged.
TRUNCATION_RTOL = 1e-8

#: Stored factor bytes per batch of scan points: 132 points at cutoff 3, 3 at 13 and 14,
#: 2 at 15 and 16, 1 from 17 up.
STACK_BYTES = 1 << 20

#: A generator's non-zeros ``(size, rows, cols, values)``: ``L[rows, cols] = values``.
Entries = tuple[int, np.ndarray, np.ndarray, np.ndarray]


def _ladder(n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """``(sigma, a)`` on the dot x Fock space with photon cutoff ``n_max``."""
    return lift_qd(qd_lowering(), n_max), lift_cavity(annihilation(n_max), n_max)


def build_hamiltonian(params: SystemParams, drive: DriveSpec, n_max: int) -> np.ndarray:
    """Rotating-frame Hamiltonian on the truncated space (rad/ns).

    ``(omega_d - omega_l) sigma^+ sigma + (omega_c - omega_l) a^+ a
    + g (sigma^+ a + sigma a^+)`` plus the drive term
    ``(omega_rabi / 2) * (x + x^+)`` where ``x`` is ``sigma`` or ``a``
    depending on the drive target.  The bare terms are the diagonal
    ``(omega_d - omega_l) qd + (omega_c - omega_l) n`` of the basis' integer numbers.
    """
    sm, a = _ladder(n_max)
    qd, n = basis_numbers(n_max)
    bare = (params.omega_d - drive.omega_l) * qd + (params.omega_c - drive.omega_l) * n
    ham = np.diag(bare) + params.g * (dagger(sm) @ a + sm @ dagger(a))

    omega_rabi = drive.rabi_frequency(params)
    if omega_rabi != 0.0:
        lower = sm if drive.target is DriveTarget.QD else a
        ham = ham + 0.5 * omega_rabi * (lower + dagger(lower))
    return ham


def liouvillian_entries(
    hamiltonian: np.ndarray, collapse_terms: list[tuple[float, np.ndarray]]
) -> Entries:
    """The generator's non-zeros ``(size, rows, cols, values)``, sorted row-major.

    Rates must be non-negative; zero-rate terms are dropped.  With ``D = sum_k r_k C_k^+ C_k / 2``
    the generator is ``K kron 1 + 1 kron R^T + sum_k r_k C_k kron conj(C_k)``, where
    ``K = -i H - D`` acts on rho from the left and ``R = i H - D`` from the right
    (``R^T = conj(K)`` when ``H`` is Hermitian).  Each jump term lists the products
    ``(r_k C_ik) * conj(C_jl)`` over the non-zeros of ``C_k``, and ``K`` and ``R^T`` their
    non-zeros repeated over the spectator index.  Entries at one place are summed in jump-term
    order, then ``K``, then ``R^T``, onto zero, which is the order of a dense ``+=`` assembly, so
    every value keeps its bits; sums that are exactly zero are dropped.
    """
    if hamiltonian.ndim != 2 or hamiltonian.shape[0] != hamiltonian.shape[1]:
        raise ValueError(f"hamiltonian must be square, got shape {hamiltonian.shape}")
    dim = hamiltonian.shape[0]
    decay = np.zeros((dim, dim), dtype=np.complex128)
    parts = []
    for rate, op in collapse_terms:
        if rate < 0.0:
            raise ValueError(f"collapse rate must be >= 0, got {rate}")
        if op.shape != (dim, dim):
            raise ValueError(f"collapse operator shape {op.shape} does not match dim {dim}")
        if rate == 0.0:
            continue
        decay += 0.5 * rate * (dagger(op) @ op)
        i, k = np.nonzero(op)
        parts.append((np.add.outer(i * dim, i), np.add.outer(k * dim, k),
                      np.multiply.outer(rate * op[i, k], op[i, k].conj())))
    spectator = np.arange(dim)
    left = -1j * hamiltonian - decay
    i, k = np.nonzero(left)
    parts.append((np.add.outer(i * dim, spectator), np.add.outer(k * dim, spectator),
                  np.repeat(left[i, k], dim)))
    right = (1j * hamiltonian - decay).T
    j, l = np.nonzero(right)
    parts.append((np.add.outer(spectator * dim, j), np.add.outer(spectator * dim, l),
                  np.tile(right[j, l], dim)))
    rows, cols, values = (np.concatenate([part[n].ravel() for part in parts]) for n in range(3))
    size = dim * dim
    keys, place = np.unique(rows * size + cols, return_inverse=True)
    summed = np.zeros(keys.size, dtype=np.complex128)
    np.add.at(summed, place, values)
    kept = summed != 0.0
    rows, cols = np.divmod(keys[kept], size)
    return size, rows, cols, summed[kept]


def _listed(generator: Entries | np.ndarray) -> Entries:
    """A generator as its non-zeros; a dense array is listed row-major."""
    if isinstance(generator, tuple):
        return generator
    rows, cols = np.nonzero(generator)
    return generator.shape[0], rows, cols, generator[rows, cols]


def assemble_liouvillian(
    hamiltonian: np.ndarray, collapse_terms: list[tuple[float, np.ndarray]]
) -> np.ndarray:
    """The dense ``dim**2 x dim**2`` generator: :func:`liouvillian_entries` scattered onto zero."""
    size, rows, cols, values = liouvillian_entries(hamiltonian, collapse_terms)
    matrix = np.zeros((size, size), dtype=np.complex128)
    matrix[rows, cols] = values
    return matrix


def _collapse_terms(
    hamiltonian: np.ndarray, params: SystemParams
) -> list[tuple[float, np.ndarray]]:
    """The rates and jump operators of one dot-cavity system on the space of ``hamiltonian``."""
    dim = hamiltonian.shape[0]
    if dim % 2 != 0 or dim < 4:
        raise ValueError(f"expected a dot x Fock space of even dimension >= 4, got {dim}")
    sm, a = _ladder(dim // 2 - 1)
    return [
        (2.0 * params.kappa, a),
        (2.0 * params.gamma, sm),
        (2.0 * params.gamma_d, dagger(sm) @ sm),
        (params.transfer_qd_to_cavity, dagger(a) @ sm),
        (params.transfer_cavity_to_qd, dagger(sm) @ a),
    ]


def build_liouvillian(hamiltonian: np.ndarray, params: SystemParams) -> np.ndarray:
    """Assemble the full dissipative generator for one dot-cavity system, densely."""
    return assemble_liouvillian(hamiltonian, _collapse_terms(hamiltonian, params))


def _generator(params: SystemParams, drive: DriveSpec, n_max: int) -> Entries:
    """The listed generator of one system under ``drive`` at Fock cutoff ``n_max``."""
    ham = build_hamiltonian(params, drive, n_max)
    return liouvillian_entries(ham, _collapse_terms(ham, params))


@dataclass(frozen=True, eq=False)
class SteadyState:
    """Solution of ``L rho = 0`` with unit trace."""

    rho: np.ndarray
    residual: float
    observables: dict[str, float | complex]


def _populations(rhos: np.ndarray) -> np.ndarray:
    """Occupations ``<a^+a>, <sigma^+sigma>``, ``(k, 2)`` real, of a stack of states.

    Each is the basis' integer numbers ``n`` or ``qd`` weighting a state's diagonal.  The weighted
    diagonal is summed as complex, then its real part taken: a real sum pairs the terms
    differently, so from cutoff 3 up it would move the last bits.  Each state's sum is its own, so
    a state reads the same bits in whichever stack it sits.
    """
    qd, n = basis_numbers(rhos.shape[1] // 2 - 1)
    return (rhos.diagonal(axis1=1, axis2=2)[:, None, :] * np.stack([n, qd])).sum(axis=2).real


def _solve_batch(matrices: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``np.linalg.solve`` over a batch; a singular item raises with its position as ``index``."""
    try:
        # A right-hand side with the batch axis reads as matrices under numpy 1.x and 2.x alike.
        return np.linalg.solve(matrices, np.broadcast_to(rhs, matrices.shape[:1] + rhs.shape))
    except np.linalg.LinAlgError as exc:
        # The batched LU stopped at an exactly zero pivot, which the same LU of the item repeats.
        index = int(np.argmax(np.linalg.slogdet(matrices)[0] == 0))
        raise NonUniqueSteadyStateError(
            "steady-state system is singular; the generator has a degenerate kernel", index=index
        ) from exc


class _Sectors:
    """A generator's blocks between excitation-difference sectors, gathered once from its list.

    The unknown ``rho_ij`` of the dot x Fock space sits in sector ``m = N_i - N_j``, the integer
    ``m[ij]`` (``N = qd + n``); sectors are numbered in ``m`` order and ``blocks[r, s]`` couples
    neighbours.  Swapping ``i`` and ``j`` negates ``m``, so the sectors mirror about the centre
    ``m = 0``; only the blocks of the centre and the ``+m`` sectors are gathered, and the trace row
    replaces the equation for element (0, 0).  ``mirror[s]`` holds the flat index of the transpose
    of each unknown of a ``+m`` sector, and ``swap`` the position of each centre unknown's
    transpose in the centre.  A generator with any entry between sectors two or more apart is kept
    as one sector.
    """

    def __init__(self, generator: Entries) -> None:
        size, rows, cols, values = generator
        self.dim = dim = math.isqrt(size)
        if dim * dim != size or dim % 2 != 0:
            raise ValueError(f"a {size}-row generator does not act on a dot x Fock space")
        qd, n = basis_numbers(dim // 2 - 1)
        number = qd + n
        self.m = np.subtract.outer(number, number).ravel()
        near = np.abs(self.m[rows] - self.m[cols]).max(initial=0) <= 1
        labels = self.m if near else np.zeros_like(self.m)
        top = int(labels.max())
        sector, count = labels + top, 2 * top + 1
        self.parts = [np.flatnonzero(sector == s) for s in range(count)]
        self.centre = centre = top
        place = np.empty(size, dtype=int)
        for part in self.parts:
            place[part] = np.arange(part.size)
        self.blocks = {
            (r, s): np.zeros((self.parts[r].size, self.parts[s].size), dtype=np.complex128)
            for r in range(centre, count)
            for s in range(max(r - 1, centre), min(r + 2, count))
        }
        # Element (0, 0) leads the centre sector; its row becomes the trace constraint.
        pair = np.where(rows != 0, sector[rows] * count + sector[cols], -1)
        for (r, s), block in self.blocks.items():
            entries = np.flatnonzero(pair == r * count + s)
            block[place[rows[entries]], place[cols[entries]]] = values[entries]
        transpose = np.arange(size).reshape(dim, dim).T.ravel()
        self.mirror = {s: transpose[self.parts[s]] for s in range(centre + 1, count)}
        self.swap = np.searchsorted(self.parts[centre], transpose[self.parts[centre]])
        trace = np.searchsorted(self.parts[centre], np.arange(dim) * (dim + 1))
        self.blocks[centre, centre][0, trace] = 1.0
        stored = sum(self.blocks[s, s - 1].size for s in self.mirror)
        self.point_bytes = 16 * (stored + self.blocks[centre, centre].size)
        # The list, row by row, for the residual: rows must come sorted.
        self.cols, self.values = cols, values
        self.starts = np.flatnonzero(np.diff(rows, prepend=-1))
        self.filled = rows[self.starts]

    def solve(self, steps: np.ndarray) -> np.ndarray:
        """Solutions ``(k, size)`` of the trace-constrained systems at each offset.

        Only the ``+m`` sectors are eliminated, outermost first.  Each ``-m`` system is the
        conjugate of its ``+m`` mirror under the transpose, so the centre's Schur complement takes
        the ``-m`` half through ``swap`` and ``rho_{-m} = rho_m^+`` is filled through ``mirror``.
        """
        centre, last = self.centre, len(self.parts) - 1
        factors = {}
        for s in range(last, centre - 1, -1):
            n = len(self.parts[s])
            schur = np.repeat(self.blocks[s, s][None], steps.size, axis=0)
            shift = 1j * (steps[:, None] * self.m[self.parts[s]])
            schur.reshape(steps.size, -1)[:, :: n + 1] += shift
            if s < last:
                coupled = self.blocks[s, s + 1] @ factors[s + 1]
                schur -= coupled
                if s == centre:
                    schur -= coupled.conj()[:, self.swap][:, :, self.swap]
            rhs = np.eye(n, 1) if s == centre else self.blocks[s, s - 1]
            factors[s] = _solve_batch(schur, rhs)
        vecs = np.empty((steps.size, self.m.size), dtype=np.complex128)
        x = factors[centre]
        vecs[:, self.parts[centre]] = x[:, :, 0]
        for s, mirror in self.mirror.items():
            x = -(factors[s] @ x)
            vecs[:, self.parts[s]] = x[:, :, 0]
            vecs[:, mirror] = x[:, :, 0].conj()
        return vecs

    def apply(self, steps: np.ndarray, vecs: np.ndarray) -> np.ndarray:
        """The shifted generators applied to ``vecs``, ``(k, size)``: one product over the list."""
        # Gathering whole rows of the transpose keeps each entry's k products contiguous.
        terms = np.ascontiguousarray(vecs.T)[self.cols]
        terms *= self.values[:, None]
        applied = 1j * (steps[:, None] * self.m) * vecs
        applied[:, self.filled] += np.add.reduceat(terms, self.starts, axis=0).T
        return applied


def solve_stack(generator: Entries, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit-trace steady states ``(rhos, residuals)`` of ``generator + d S`` at each offset ``d``.

    The generator comes as its non-zeros (:func:`liouvillian_entries`) on the dot x Fock space.
    With ``N = qd + n`` the basis' integer excitation numbers, ``S = i m``, ``m = N_i - N_j``,
    sits on the diagonal entry for ``rho_ij``: in the laser frame, moving the laser by ``d`` adds
    ``d S``.  Every term of the generator but the coherent drive conserves ``m`` and the drive
    moves it by one, so in ``m`` order the generator is block tridiagonal, and ``S`` is ``i m``
    times the identity in each block.  The blocks are gathered once from the list
    (:class:`_Sectors`), then every point is solved by elimination from the outermost ``+m``
    sector in to ``m = 0`` and back-substitution, internally in batches whose stored factors fit
    :data:`STACK_BYTES`.  Each batch is written into the one ``(points, dim, dim)`` array of
    states that is returned, so at its peak a scan holds only that array, the gathered blocks and
    one batch's factors and guard temporaries.  A Lindblad generator and the shift
    both map ``rho^+`` to ``(L rho)^+``, so each ``-m`` sector is filled as the conjugate
    transpose of its ``+m`` mirror rather than solved.  A generator with an entry between sectors
    two or more apart is solved as one block, densely.

    The guards run over every batch: Hermiticity and unit trace (a degenerate steady manifold,
    also signalled by a singular block, raises
    :class:`~cqed_scope.errors.NonUniqueSteadyStateError`), the residual
    ``||L rho|| <= STEADY_RESIDUAL_TOL * max(1, ||L||_F)``, and positivity.  The constant is read
    at call time, so patching it takes effect.  Outside ``m = 0`` a state is
    Hermitian by construction, so the Hermiticity guard tests and symmetrises only the centre's
    unknowns; the residual applies the whole list, ``-m`` rows included, so it catches a generator
    that does not preserve Hermiticity.  The Frobenius norms follow in closed form from the list,
    ``||L0 + d S||**2 = ||L0||**2 + 2 d sum_i m_i Im(L0_ii) + d**2 sum_i m_i**2``.  An error
    describes the first failing point and carries its position in ``offsets`` as ``index``.
    """
    _, rows, cols, values = generator
    sectors = _Sectors(generator)
    m = sectors.m
    offsets = np.asarray(offsets, dtype=float)
    diagonal = rows == cols
    cross = 2.0 * np.dot(m[rows[diagonal]], values[diagonal].imag)
    norms = np.sqrt(np.vdot(values, values).real + offsets * cross + offsets**2 * np.dot(m, m))
    rhos = np.empty((offsets.size, sectors.dim, sectors.dim), dtype=np.complex128)
    residuals = np.empty(offsets.size)
    per_batch = max(1, STACK_BYTES // sectors.point_bytes)
    for start in range(0, offsets.size, per_batch):
        batch = slice(start, start + per_batch)
        try:
            rhos[batch], residuals[batch] = _checked(sectors, offsets[batch], norms[batch])
        except NumericalError as exc:
            exc.index += start
            raise
    return rhos, residuals


def _checked(
    sectors: _Sectors, steps: np.ndarray, norms: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One batch of :func:`solve_stack`: solve, then run every guard over the batch.

    Hermiticity is tested and enforced on the centre's unknowns alone: :meth:`_Sectors.solve`
    fills each ``-m`` entry as the exact conjugate of its ``+m`` mirror, so elsewhere
    ``rho - rho^+`` is exactly zero and ``(rho + rho^+) / 2`` equals ``rho``.
    """
    k = steps.size
    vecs = sectors.solve(steps)
    rhos = vecs.reshape(k, sectors.dim, sectors.dim)
    part = sectors.parts[sectors.centre]
    centre = vecs[:, part]
    adjoint = centre[:, sectors.swap].conj()
    scale = np.maximum(1.0, np.linalg.norm(rhos, axis=(1, 2)))
    asymmetric = np.linalg.norm(centre - adjoint, axis=1) > 1e-8 * scale
    vecs[:, part] = 0.5 * (centre + adjoint)
    traces = np.trace(rhos, axis1=1, axis2=2).real
    off_trace = ~(np.abs(traces - 1.0) <= 1e-6)
    rhos = rhos / np.where(off_trace, 1.0, traces)[:, None, None]

    residuals = np.linalg.norm(sectors.apply(steps, rhos.reshape(k, -1)), axis=1)
    loose = ~(residuals <= STEADY_RESIDUAL_TOL * np.maximum(1.0, norms))

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


def steady_state(liouvillian: Entries | np.ndarray) -> SteadyState:
    """Unique steady state of one generator, listed or dense: a one-point :func:`solve_stack`.

    A dense generator is listed first.  Errors are those of :func:`solve_stack`, whose residual
    guard holds the state to :data:`STEADY_RESIDUAL_TOL`; the generator is left untouched.
    """
    rhos, residuals = solve_stack(_listed(liouvillian), np.zeros(1))
    rho = rhos[0]
    sm, a = _ladder(rho.shape[0] // 2 - 1)
    n_cavity, n_qd = _populations(rhos)[0]
    observables = {
        "n_cavity": float(n_cavity),
        "n_qd": float(n_qd),
        "a": complex(np.trace(a @ rho)),
        "sigma": complex(np.trace(sm @ rho)),
    }
    return SteadyState(rho=rho, residual=float(residuals[0]), observables=observables)


def laser_scan_steady_states(
    params: SystemParams,
    drive: DriveSpec,
    n_max: int,
    laser_omegas: list[float],
) -> np.ndarray:
    """Steady-state occupations ``(len(laser_omegas), 2)`` at each laser frequency.

    Row ``j`` holds ``<a^+a>, <sigma^+sigma>`` at ``laser_omegas[j]``.  The generator is listed
    once, at the middle frequency: in the laser frame ``omega_l`` enters only as ``-omega_l N``,
    with ``N`` the basis' integer excitation numbers, so each point is the shift by its distance
    from there (a nearby reference keeps digits).  The middle row equals the occupations of a
    fresh :func:`steady_state` at its frequency bit for bit, so a one-point call at a larger
    cutoff is a scan's cutoff probe.  A failing point raises the error of :func:`solve_stack` with
    ``index`` its position in ``laser_omegas``.
    """
    omega_ref = laser_omegas[len(laser_omegas) // 2]
    generator = _generator(params, drive.with_laser_frequency(omega_ref), n_max)
    offsets = np.asarray(laser_omegas, dtype=float) - omega_ref
    rhos, _ = solve_stack(generator, offsets)
    return _populations(rhos)


def truncation_check(params: SystemParams, drive: DriveSpec, n_max: int) -> tuple[bool, float]:
    """Whether cutoff ``n_max`` holds for this drive: ``(change < TRUNCATION_RTOL, change)``.

    ``change`` is :func:`truncation_change` of the steady states at ``n_max`` and ``n_max + 2``.
    """
    states = [steady_state(_generator(params, drive, n)) for n in (n_max, n_max + 2)]
    lower, upper = (np.array([[s.observables["n_cavity"], s.observables["n_qd"]]]) for s in states)
    change = float(truncation_change(lower, upper)[0])
    return change < TRUNCATION_RTOL, change


def truncation_change(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Worst relative change in ``<a^+a>`` and ``<sigma^+sigma>`` of each row.

    ``lower`` and ``upper`` are ``(k, 2)`` real rows of those occupations, such as the output of
    :func:`laser_scan_steady_states`, at a cutoff and a larger one.  Each change is relative to
    the larger occupation with an absolute floor of 1e-6, so that empty-cavity round-off does not
    register as disagreement.
    """
    lo, hi = np.asarray(lower), np.asarray(upper)
    return (np.abs(lo - hi) / np.maximum(np.maximum(np.abs(lo), np.abs(hi)), 1e-6)).max(axis=1)
