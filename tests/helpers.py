"""Independent numeric oracles shared by the test modules.

Everything here deliberately avoids the package's own code paths: widths
come from direct half-maximum interpolation, gradients from central
differences, density matrices from explicit outer products, CSV columns
from ``str.split`` and ``float()``, and INI sections from the standard
library's ``configparser``, so tests compare the library against a second
route rather than against itself.
"""

from __future__ import annotations

import configparser
import io
import math

import numpy as np


def lorentzian(x, amplitude: float, center: float, fwhm: float, baseline: float = 0.0):
    """Peak-normalised Lorentzian on an additive floor."""
    half = 0.5 * fwhm
    x = np.asarray(x, dtype=float)
    return amplitude * half**2 / ((x - center) ** 2 + half**2) + baseline


def interpolated_fwhm(x, y, floor: float = 0.0) -> float:
    """Full width at half maximum above ``floor`` by linear interpolation.

    Walks outward from the tallest sample to the first crossings of the
    half level on each side and interpolates the crossing coordinates.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    peak = int(np.argmax(y))
    half = floor + 0.5 * (y[peak] - floor)

    left = peak
    while left > 0 and y[left] > half:
        left -= 1
    if y[left] > half:
        raise ValueError("left crossing lies outside the sampled window")
    x_left = x[left] + (half - y[left]) * (x[left + 1] - x[left]) / (y[left + 1] - y[left])

    right = peak
    while right < y.size - 1 and y[right] > half:
        right += 1
    if y[right] > half:
        raise ValueError("right crossing lies outside the sampled window")
    x_right = x[right - 1] + (half - y[right - 1]) * (x[right] - x[right - 1]) / (
        y[right] - y[right - 1]
    )
    return float(x_right - x_left)


def central_gradient(objective, params, scales, step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient with a per-parameter step of ``step*scale``."""
    params = np.asarray(params, dtype=float)
    grad = np.empty(params.size)
    for i, scale in enumerate(scales):
        h = step * scale
        up = params.copy()
        up[i] += h
        down = params.copy()
        down[i] -= h
        grad[i] = (objective(up) - objective(down)) / (2.0 * h)
    return grad


def random_density_matrix(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random full-rank density matrix (Hermitian, positive, unit trace)."""
    mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = mat @ mat.conj().T
    return rho / np.trace(rho).real


def basis_projector(dim: int, index: int) -> np.ndarray:
    """Projector onto one computational basis state."""
    rho = np.zeros((dim, dim), dtype=complex)
    rho[index, index] = 1.0
    return rho


def ground_state_density(n_max: int) -> np.ndarray:
    """|g, 0><g, 0| on the dot x Fock space with photon cutoff ``n_max``."""
    return basis_projector(2 * (n_max + 1), 0)


def basis_integers(n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """``(qd, n)`` of each basis state ``|qd, n>``, photons fastest, as exact integers."""
    return np.repeat([0, 1], n_max + 1), np.tile(np.arange(n_max + 1), 2)


def expectations(rhos: np.ndarray, operators: np.ndarray) -> np.ndarray:
    """``tr(O rho)``, ``(k, len(operators))``, each from one dense ``O @ rho`` product."""
    return np.array([[np.trace(op @ rho) for op in operators] for rho in rhos])


def purity(rho: np.ndarray) -> float:
    return float(np.real(np.trace(rho @ rho)))


def coupled_mode_matrix(params):
    """Non-Hermitian two-mode matrix whose eigenvalues are the resonances."""
    return np.array(
        [
            [params.omega_d - 1j * params.gamma, params.g],
            [params.g, params.omega_c - 1j * params.kappa],
        ]
    )


def liouvillian_oracle(ham: np.ndarray, terms) -> np.ndarray:
    """Dense generator ``K kron 1 + 1 kron R^T + sum_k r_k C_k kron conj(C_k)`` from ``np.kron``.

    ``K = -i H - D`` and ``R = i H - D`` with ``D = sum_k r_k C_k^+ C_k / 2``, acting on the
    row-major ``vec(rho)``.
    """
    eye = np.eye(ham.shape[0])
    decay = sum(0.5 * rate * op.conj().T @ op for rate, op in terms)
    out = np.kron(-1j * ham - decay, eye) + np.kron(eye, (1j * ham - decay).T)
    for rate, op in terms:
        out = out + rate * np.kron(op, op.conj())
    return out


def steady_state_oracle(liouvillian: np.ndarray) -> np.ndarray:
    """Steady state as the SVD null vector of the unmodified generator, scaled to unit trace.

    The raw null vector misses ``L v = 0`` by about the smallest singular value, which can
    reach 1e-12 of the state; one correction step from the same factorisation, ``v -= L⁺ L v``
    over the other singular vectors, takes that to rounding.
    """
    dim = int(round(np.sqrt(liouvillian.shape[0])))
    u, s, vh = np.linalg.svd(liouvillian)
    null = vh[-1].conj()
    null = null - vh[:-1].conj().T @ ((u[:, :-1].conj().T @ (liouvillian @ null)) / s[:-1])
    rho = null.reshape(dim, dim)
    return rho / np.trace(rho)


def rk4_states(liouvillian: np.ndarray, rho0: np.ndarray, times, dt_max: float) -> list:
    """States at the increasing ``times`` (all > 0) from ``rho0`` at t = 0, by fixed-step RK4.

    ``liouvillian`` is a dense generator acting on the row-major ``vec(rho)``.  Each interval
    between samples takes equal steps of at most ``min(dt_max, 0.1 / ||L||_F)``, well inside the
    stability region.  States come back as integrated, without renormalising the trace.
    """
    norm = float(np.linalg.norm(liouvillian))
    step_cap = dt_max if norm == 0.0 else min(dt_max, 0.1 / norm)
    vec = rho0.reshape(-1).astype(np.complex128)
    states = []
    t_prev = 0.0
    for t in times:
        steps = max(1, math.ceil((t - t_prev) / step_cap))
        h = (t - t_prev) / steps
        for _ in range(steps):
            k1 = liouvillian @ vec
            k2 = liouvillian @ (vec + 0.5 * h * k1)
            k3 = liouvillian @ (vec + 0.5 * h * k2)
            k4 = liouvillian @ (vec + h * k3)
            vec = vec + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t_prev = t
        states.append(vec.reshape(rho0.shape))
    return states


def saturation_ssr(x, y, b: float) -> float:
    """Sum of squares of ``y - c*b*x/(1 - b + b*x)`` at the best ``c``; ``b = 0`` takes the limit
    shape ``x``.  ``x`` is in units of the largest power."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    shape = b * x / np.where(x > 0.0, 1.0 - b + b * x, 1.0) if b > 0.0 else x
    fitted = shape * (float(shape @ y) / float(shape @ shape))
    return float(np.sum((y - fitted) ** 2))


def saturation_minima(x, y) -> list[tuple[float, float, float]]:
    """Every local minimum ``b`` of ``saturation_ssr`` over ``[0, 1]``, lowest first.

    The profile of noisy data can have more than one: a few noisy points can dip it near
    ``b = 1`` below a broad minimum further in.

    A scan of 1301 points evenly spaced in the log-odds ``t = log(b/(1 - b))`` from -30 to
    35 (the last ``b`` below 1, ``1 - 2**-53``, sits at ``t`` = 36.7), plus both ends,
    brackets each minimum; a golden-section search in ``b`` then runs until its interior
    points meet in floating point.  Each minimum comes back as ``(b, S(b), S_tt)``, where
    ``S_tt`` is the curvature of ``S`` in ``t`` from a second difference of step 0.01 in
    ``t`` (``nan`` at either end).
    """

    def ssr(b: float) -> float:
        return saturation_ssr(x, y, b)

    def odds_to_b(t: float) -> float:
        return 1.0 / (1.0 + math.exp(-t))

    grid = [0.0] + [odds_to_b(t) for t in np.linspace(-30.0, 35.0, 1301)] + [1.0]
    values = [ssr(b) for b in grid]
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    minima = []
    for k, value in enumerate(values):
        if k > 0 and values[k - 1] <= value or k + 1 < len(grid) and values[k + 1] < value:
            continue  # the first of equal values stands for them all
        if k in (0, len(grid) - 1):
            minima.append((grid[k], value, math.nan))
            continue
        lo, hi = grid[k - 1], grid[k + 1]
        left, right = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
        s_left, s_right = ssr(left), ssr(right)
        while lo < left < right < hi:
            if s_left <= s_right:
                hi, right, s_right = right, left, s_left
                left = hi - ratio * (hi - lo)
                s_left = ssr(left)
            else:
                lo, left, s_left = left, right, s_right
                right = lo + ratio * (hi - lo)
                s_right = ssr(right)
        b, s = (left, s_left) if s_left <= s_right else (right, s_right)
        t, h = math.log(b / (1.0 - b)), 0.01
        minima.append((b, s, (ssr(odds_to_b(t + h)) - 2.0 * s + ssr(odds_to_b(t - h))) / h**2))
    return sorted(minima, key=lambda m: m[1])


def csv_columns(text: str) -> tuple[str, list[float], list[float]]:
    """Header and both columns of two-column CSV text, by ``str.split`` and ``float()`` alone.

    Lines end in LF or CRLF; blank and whitespace-only lines are skipped, and so is the
    whitespace around each cell.  A row that is not two cells ``float()`` reads raises
    ``ValueError``.
    """
    header, *rows = [line.strip() for line in text.split("\n") if line.strip()]
    cells = [row.split(",") for row in rows]
    return header, [float(x) for x, _ in cells], [float(y) for _, y in cells]


def ini_sections(text: str) -> dict[str, dict[str, str]]:
    """``{section: {key: value}}`` of INI text as ``configparser`` reads it, or its error.

    The parser is set as the package's config reader documents its grammar: ``#`` comments,
    also inline after whitespace, no interpolation, strict duplicates and case-sensitive
    keys.  Lines split as a text file's do, at LF, CRLF or CR.  Keys under ``[DEFAULT]``
    come back as a ``"DEFAULT"`` section; with none it is left out.  A malformed text raises
    ``configparser.Error``.
    """
    parser = configparser.ConfigParser(
        comment_prefixes=("#",), inline_comment_prefixes=("#",), interpolation=None, strict=True
    )
    parser.optionxform = str
    parser.read_file(io.StringIO(text, newline=None))
    sections = {name: dict(parser.items(name, raw=True)) for name in parser.sections()}
    if parser.defaults():
        sections["DEFAULT"] = dict(parser.defaults())
    return sections
