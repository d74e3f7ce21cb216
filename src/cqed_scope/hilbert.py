"""Operators on the truncated dot-cavity Hilbert space.

The space is a two-level system tensored with a Fock ladder truncated at
``n_max`` photons, dimension ``2 * (n_max + 1)``.  The two-level index is the
slow (leftmost) tensor factor: basis state ``|qd, n>`` sits at flat index
``qd * (n_max + 1) + n`` with ``qd = 0`` the ground state.  Every operator
here is a dense complex128 ndarray; ``lindblad`` lists the generator's
non-zeros from them.  The density-matrix validator takes one matrix or a
stack of them, so a batch of steady states is checked in one pass; a Cholesky
factorisation decides that a stack is positive, and eigenvalues are computed
only to describe a stack that is not.
"""

from __future__ import annotations

import numpy as np

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
POSITIVITY_SLACK = 1e-8


def annihilation(n_max: int) -> np.ndarray:
    """Photon annihilation operator on a Fock ladder truncated at ``n_max``.

    ``<n-1| a |n> = sqrt(n)``; the returned matrix is ``(n_max+1) x (n_max+1)``.
    """
    if n_max < 1:
        raise ValueError(f"fock cutoff must be >= 1, got {n_max}")
    op = np.zeros((n_max + 1, n_max + 1), dtype=np.complex128)
    for n in range(1, n_max + 1):
        op[n - 1, n] = np.sqrt(n)
    return op


def qd_lowering() -> np.ndarray:
    """Two-level lowering operator |g><e| in the (g, e) basis."""
    op = np.zeros((2, 2), dtype=np.complex128)
    op[0, 1] = 1.0
    return op


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=np.complex128)


def dagger(op: np.ndarray) -> np.ndarray:
    return op.conj().T


def lift_qd(op: np.ndarray, n_max: int) -> np.ndarray:
    """Embed a 2x2 dot operator into the full space (acts as identity on photons)."""
    return np.kron(op, identity(n_max + 1))


def lift_cavity(op: np.ndarray, n_max: int) -> np.ndarray:
    """Embed a cavity operator into the full space (identity on the dot)."""
    if op.shape != (n_max + 1, n_max + 1):
        raise ValueError(f"cavity operator shape {op.shape} does not match cutoff {n_max}")
    return np.kron(identity(2), op)


def basis_index(qd: int, photon: int, n_max: int) -> int:
    """Flat index of basis state |qd, photon>."""
    if qd not in (0, 1):
        raise ValueError("qd index must be 0 (ground) or 1 (excited)")
    if not 0 <= photon <= n_max:
        raise ValueError(f"photon number {photon} outside [0, {n_max}]")
    return qd * (n_max + 1) + photon


def basis_numbers(n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Integer ``(qd, photon)`` of every basis state, in flat-index order (:func:`basis_index`)."""
    return np.divmod(np.arange(2 * (n_max + 1)), n_max + 1)


def validate_density_matrix(rho: np.ndarray, context: str = "density matrix") -> None:
    """Check finiteness, Hermiticity, unit trace and positivity; raise ``ValueError`` if violated.

    Every entry must be finite.  Hermiticity and trace are enforced to 1e-10; eigenvalues may
    undershoot zero by at most 1e-8 to allow for round-off.  Positivity is decided by one batched
    Cholesky factorisation of the Hermitian part plus ``1e-8`` times the identity, which succeeds
    exactly when no eigenvalue falls below ``-1e-8``, to working accuracy (Higham, *Accuracy and
    Stability of Numerical Algorithms*, ch. 10).  Only when it fails are the eigenvalues computed;
    they then decide the verdict and give the error its message.  ``rho`` is one matrix or a
    ``(k, d, d)`` stack of them; a stack is checked in one batched pass and the error describes
    its first failing slice, whose position it carries as ``index``.
    """
    if rho.ndim not in (2, 3) or rho.shape[-1] != rho.shape[-2]:
        raise ValueError(f"{context}: not a square matrix, shape {rho.shape}")
    stack = rho.reshape((-1,) + rho.shape[-2:])
    # NaN fails every comparison and need not stop a factorisation, so a slice with a
    # non-finite entry is rejected for that alone and checked further as zeros.
    finite = np.isfinite(stack).all(axis=(1, 2))
    stack = np.where(finite[:, None, None], stack, 0.0)
    adjoint = stack.conj().swapaxes(1, 2)
    scale = np.maximum(1.0, np.linalg.norm(stack, axis=(1, 2)))
    herm = np.linalg.norm(stack - adjoint, axis=(1, 2))
    traces = np.trace(stack, axis1=1, axis2=2)
    hermitian = 0.5 * (stack + adjoint)
    lowest = np.zeros(len(stack))
    try:
        np.linalg.cholesky(hermitian + POSITIVITY_SLACK * np.eye(stack.shape[-1]))
    except np.linalg.LinAlgError:
        lowest = np.linalg.eigvalsh(hermitian).min(axis=1)
    defects = (
        ~finite,
        ~(herm <= HERMITICITY_TOL * scale),
        ~(np.abs(traces - 1.0) <= TRACE_TOL),
        ~(lowest >= -POSITIVITY_SLACK),
    )
    failing = np.flatnonzero(np.logical_or.reduce(defects))
    if failing.size == 0:
        return
    j = int(failing[0])
    if defects[0][j]:
        message = "non-finite entry (nan or inf)"
    elif defects[1][j]:
        message = f"not Hermitian (defect {herm[j]:.3e})"
    elif defects[2][j]:
        message = f"trace {complex(traces[j])!r} differs from 1 beyond tolerance"
    else:
        message = f"negative eigenvalue {lowest[j]:.3e}"
    error = ValueError(f"{context}: {message}")
    if rho.ndim == 3:
        error.index = j
    raise error
