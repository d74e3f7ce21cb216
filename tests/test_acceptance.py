"""End-to-end acceptance gate.

One test per shipped guarantee.  Every test prints a single
``ACCEPTANCE nn label: PASS/FAIL (detail)`` line straight to the terminal
(bypassing capture) and then asserts, so a red run names exactly which
guarantee broke and a green run shows the measured margins.
"""

import time

import numpy as np

from cqed_scope.analytic import (
    LinewidthModelParams,
    combined_linewidth,
    polariton_frequencies,
    power_broadened_linewidth,
)
from cqed_scope.cli import main
from cqed_scope.dataset import ScanKind, SpectrumDataset
from cqed_scope.fit import fit_lorentzian
from cqed_scope.hilbert import basis_index
from cqed_scope.lindblad import (
    assemble_liouvillian,
    build_hamiltonian,
    build_liouvillian,
    steady_state,
    truncation_check,
)
from cqed_scope.model import (
    SPEED_OF_LIGHT_NM_GHZ,
    TWO_PI,
    DriveSpec,
    DriveTarget,
    SystemParams,
)
from cqed_scope.reproduce import (
    chained_fit_power_grid,
    chained_linewidth_fit,
    excess_curve,
    excess_slope_fit,
    linewidth_curve,
    saturation_curve,
    saturation_power_grid,
)
from cqed_scope.scan import EmissionChannel, scan_laser, synthesize_noisy, wavelength_window

from helpers import basis_projector, ground_state_density, lorentzian, purity, rk4_states

OMEGA_REF = TWO_PI * 320_000.0  # generic near-infrared carrier (rad/ns)


def make_system(g, kappa, gamma, gamma_d=0.0, delta=0.0):
    return SystemParams(
        g=TWO_PI * g,
        kappa=TWO_PI * kappa,
        gamma=TWO_PI * gamma,
        gamma_d=TWO_PI * gamma_d,
        omega_c=OMEGA_REF,
        omega_d=OMEGA_REF + TWO_PI * delta,
    )


def qd_drive(omega_l, omega_rabi):
    return DriveSpec(target=DriveTarget.QD, omega_l=omega_l, omega_rabi=omega_rabi)


def fitted_width_angular(data):
    result = fit_lorentzian(data)
    assert result.converged, result.message
    fwhm_ghz = result.params["fwhm"] * SPEED_OF_LIGHT_NM_GHZ / result.params["center"] ** 2
    return TWO_PI * fwhm_ghz


def _report(capsys, index, label, ok, detail=""):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        print(f"ACCEPTANCE {index:02d} {label}: {status}{suffix}")
    assert ok, f"acceptance {index:02d} {label}: {detail}"


def test_01_coupled_mode_eigenfrequencies(capsys):
    """Closed-form branch frequencies match direct diagonalisation."""
    rng = np.random.default_rng(20240823)
    worst = 0.0
    worst_trace = 0.0
    start = time.perf_counter()
    for _ in range(1000):
        params = make_system(
            g=rng.uniform(0.0, 50.0),
            kappa=rng.uniform(0.01, 50.0),
            gamma=rng.uniform(0.01, 50.0),
            gamma_d=rng.uniform(0.0, 50.0),
            delta=rng.uniform(-500.0, 500.0),
        )
        pair = polariton_frequencies(params)
        matrix = np.array(
            [
                [params.omega_d - 1j * params.gamma, params.g],
                [params.g, params.omega_c - 1j * params.kappa],
            ]
        )
        oracle = sorted(np.linalg.eigvals(matrix), key=lambda z: z.real)
        model = sorted([pair.omega_minus, pair.omega_plus], key=lambda z: z.real)
        for have, want in zip(model, oracle):
            worst = max(worst, abs(have - want) / abs(want))
        trace_have = pair.omega_plus + pair.omega_minus
        trace_want = params.omega_c + params.omega_d - 1j * (params.kappa + params.gamma)
        worst_trace = max(worst_trace, abs(trace_have - trace_want) / abs(trace_want))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and worst_trace < 1e-12 and elapsed < 1.0
    _report(
        capsys,
        1,
        "coupled-mode-eigenfrequencies",
        ok,
        f"worst rel {worst:.1e}, trace residual {worst_trace:.1e}, {elapsed:.2f}s",
    )


def test_02_dispersive_width_quartic_convergence(capsys):
    """Dispersive width error falls ~16x per doubling of detuning."""
    start = time.perf_counter()
    g = 2.0
    errors = []
    for ratio in (5.0, 10.0, 20.0, 40.0):
        params = make_system(g=g, kappa=0.5 * g, gamma=1e-8 * g, gamma_d=g, delta=ratio * g)
        # Pure dephasing broadens the line directly; it is not part of the
        # two-mode eigenvalue problem, so add it to the exact branch width.
        exact = (
            -2.0 * polariton_frequencies(params).branch_near(params.omega_d).imag
            + 2.0 * params.gamma_d
        )
        approx = combined_linewidth(LinewidthModelParams.from_system(params, 1.0), 0.0)
        errors.append(abs(approx - exact))
    ratios = [errors[i] / errors[i + 1] for i in range(3)]
    elapsed = time.perf_counter() - start
    ok = all(12.0 <= r <= 20.0 for r in ratios) and elapsed < 1.0
    detail = ", ".join(f"{r:.1f}" for r in ratios)
    _report(capsys, 2, "dispersive-width-quartic-convergence", ok, f"ratios {detail}, {elapsed:.2f}s")


def test_03_driven_dot_saturation_population(capsys):
    """Steady excited-state population follows the two-level saturation law."""
    start = time.perf_counter()
    worst = 0.0
    for ratio in (0.0, 1.0, 5.0):
        params = make_system(g=0.0, kappa=5.0, gamma=0.5, gamma_d=0.5 * ratio)
        for p_tilde in (0.01, 0.1, 1.0, 10.0, 100.0):
            omega_rabi = np.sqrt(
                2.0 * params.gamma * (params.gamma + params.gamma_d) * p_tilde
            )
            ham = build_hamiltonian(params, qd_drive(params.omega_d, omega_rabi), n_max=1)
            occupancy = steady_state(build_liouvillian(ham, params)).observables["n_qd"]
            expected = 0.5 * p_tilde / (1.0 + p_tilde)
            worst = max(worst, abs(occupancy - expected))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 10.0
    _report(capsys, 3, "driven-dot-saturation-population", ok, f"worst abs {worst:.1e}, {elapsed:.2f}s")


def test_04_scan_width_matches_broadening_law(capsys):
    """Simulated scan linewidths reproduce 2(gamma+gamma_d)sqrt(1+p) to 1%."""
    start = time.perf_counter()
    worst = 0.0
    for ratio in (0.0, 1.0, 5.0):
        params = make_system(g=0.0, kappa=5.0, gamma=0.5, gamma_d=0.5 * ratio)
        for p_tilde in (0.01, 0.1, 1.0, 10.0, 100.0):
            omega_rabi = np.sqrt(
                2.0 * params.gamma * (params.gamma + params.gamma_d) * p_tilde
            )
            expected = power_broadened_linewidth(params.gamma, params.gamma_d, p_tilde)
            window = wavelength_window(params.omega_d, expected, 6.0, 201)
            data = scan_laser(
                params, qd_drive(params.omega_d, omega_rabi), window, EmissionChannel.QD, 1
            )
            fitted = fitted_width_angular(data)
            worst = max(worst, abs(fitted - expected) / expected)
    elapsed = time.perf_counter() - start
    ok = worst < 0.01 and elapsed < 60.0
    _report(capsys, 4, "scan-width-matches-broadening-law", ok, f"worst rel {worst:.1e}, {elapsed:.1f}s")


def test_05_cavity_induced_dot_broadening(capsys):
    """Detuned-dot scan width exceeds the bare width by 2(g/delta)^2 kappa."""
    start = time.perf_counter()
    params = make_system(g=2.0, kappa=1.0, gamma=0.01, gamma_d=0.0, delta=20.0)
    p_tilde = 1e-4
    omega_rabi = np.sqrt(2.0 * params.gamma * (params.gamma + params.gamma_d) * p_tilde)
    predicted = combined_linewidth(LinewidthModelParams.from_system(params, 1.0), 0.0)
    centre = polariton_frequencies(params).branch_near(params.omega_d).real
    window = wavelength_window(centre, predicted, 6.0, 201)
    data = scan_laser(params, qd_drive(params.omega_d, omega_rabi), window, EmissionChannel.QD, 2)
    fitted = fitted_width_angular(data)
    excess = fitted - 2.0 * params.gamma
    excess_expected = 2.0 * (params.g / params.detuning) ** 2 * params.kappa
    err = abs(excess - excess_expected) / excess_expected
    elapsed = time.perf_counter() - start
    ok = err <= 0.10 and elapsed < 60.0
    _report(capsys, 5, "cavity-induced-dot-broadening", ok, f"excess off by {err:.1%}, {elapsed:.1f}s")


def test_06_noisy_linewidth_table_recovery(capsys):
    """Chained calibration recovers both width parameters at 3% noise."""
    start = time.perf_counter()
    alpha = 2.0
    noise = 0.03
    sat_grid = saturation_power_grid(alpha)
    width_grid = chained_fit_power_grid(alpha)
    counts = {}
    for label, d_c, d_0 in (("S1", 12.6, 1.96), ("S2", 9.9, 9.8), ("S3", 15.0, 5.8)):
        hits = 0
        for trial in range(100):
            sat = synthesize_noisy(saturation_curve(sat_grid, 1000.0, alpha), noise, trial)
            widths = linewidth_curve(width_grid, d_c, d_0, alpha)
            widths = synthesize_noisy(widths, noise, trial + 1000)
            chained = chained_linewidth_fit(sat, widths)
            if not chained.alpha_reliable:
                continue
            fit_c = chained.linewidth.params["delta_omega_c_ghz"]
            fit_0 = chained.linewidth.params["delta_omega_0_ghz"]
            if abs(fit_c - d_c) <= 0.05 * d_c and abs(fit_0 - d_0) <= 0.05 * d_0:
                hits += 1
        counts[label] = hits
    elapsed = time.perf_counter() - start
    ok = all(v >= 95 for v in counts.values()) and elapsed < 120.0
    detail = ", ".join(f"{k} {v}/100" for k, v in counts.items())
    _report(capsys, 6, "noisy-linewidth-table-recovery", ok, f"{detail}, {elapsed:.1f}s")


def test_07_noiseless_reference_widths(capsys):
    """The two reference wavelength widths fit back exactly."""
    start = time.perf_counter()
    worst = 0.0
    for width_nm in (0.0879, 0.1517):
        x = np.linspace(931.0 - 3.0 * width_nm, 931.0 + 3.0 * width_nm, 201)
        y = lorentzian(x, 1.0, 931.0, width_nm, baseline=0.05)
        data = SpectrumDataset(ScanKind.LASER_WAVELENGTH, x, y, "nm", "intensity")
        result = fit_lorentzian(data)
        assert result.converged, result.message
        worst = max(worst, abs(result.params["fwhm"] - width_nm) / width_nm)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 1.0
    _report(capsys, 7, "noiseless-reference-widths", ok, f"worst rel {worst:.1e}, {elapsed:.2f}s")


def test_08_excess_broadening_slope(capsys):
    """Intrinsic-width subtraction plus a line fit recovers the excess slope."""
    start = time.perf_counter()
    worst = 0.0
    powers = np.linspace(0.5, 25.0, 40)
    for intrinsic_ghz, slope in ((35.6, 0.5), (50.3, 0.8)):
        data = synthesize_noisy(excess_curve(powers, intrinsic_ghz, slope), 0.01, seed=7)
        result = excess_slope_fit(data, intrinsic_ghz)
        worst = max(worst, abs(result.params["slope"] - slope) / slope)
    elapsed = time.perf_counter() - start
    ok = worst <= 0.05 and elapsed < 10.0
    _report(capsys, 8, "excess-broadening-slope", ok, f"worst rel {worst:.1e}, {elapsed:.2f}s")


def test_09_structural_physicality(capsys):
    """Trace, Hermiticity, positivity, truncation and purity all hold."""
    start = time.perf_counter()
    checks = {}

    params = make_system(g=5.0, kappa=2.0, gamma=0.5, gamma_d=0.5)
    ham = build_hamiltonian(params, qd_drive(params.omega_d, TWO_PI * 1.0), n_max=3)
    lv = build_liouvillian(ham, params)
    # The package's generator, integrated by the independent RK4 of ``helpers``.
    times = np.linspace(0.1, 2.0, 8)
    states = rk4_states(lv, ground_state_density(3), times, dt_max=1e-3)
    traces = [float(np.trace(rho).real) for rho in states]
    herm = max(float(np.max(np.abs(rho - rho.conj().T))) / t for rho, t in zip(states, traces))
    checks["trace"] = max(abs(t - 1.0) for t in traces) < 1e-9
    checks["hermitian"] = herm < 1e-10

    rho_ss = steady_state(lv).rho
    checks["positive"] = float(np.linalg.eigvalsh(rho_ss).min()) > -1e-10
    checks["unit-trace"] = abs(float(np.trace(rho_ss).real) - 1.0) < 1e-12

    detuned = make_system(g=10.0, kappa=20.0, gamma=0.5, gamma_d=1.5, delta=-200.0)
    omega_rabi = np.sqrt(2.0 * detuned.gamma * (detuned.gamma + detuned.gamma_d) * 5.0)
    converged, change = truncation_check(detuned, qd_drive(detuned.omega_d, omega_rabi), n_max=4)
    checks["truncation"] = converged and change < 1e-8

    g = TWO_PI * 5.0
    closed = make_system(g=5.0, kappa=2.0, gamma=0.5)
    ham0 = build_hamiltonian(closed, qd_drive(closed.omega_d, 0.0), n_max=2)
    rho0 = basis_projector(6, basis_index(1, 0, 2))
    sample = np.linspace(4.0 / g, 100.0 / g, 25)
    closed_run = rk4_states(assemble_liouvillian(ham0, []), rho0, sample, dt_max=0.004 / g)
    purity_err = max(abs(purity(rho / np.trace(rho).real) - 1.0) for rho in closed_run)
    checks["purity"] = purity_err < 1e-8

    elapsed = time.perf_counter() - start
    ok = all(checks.values()) and elapsed < 60.0
    failing = [name for name, good in checks.items() if not good]
    detail = "all checks hold" if not failing else "failing: " + ", ".join(failing)
    _report(capsys, 9, "structural-physicality", ok, f"{detail}, {elapsed:.1f}s")


DETERMINISM_CONFIG = """\
[system]
qd_wavelength_nm = 931.0
cavity_wavelength_nm = 930.8
g_ghz = 10.0
kappa_ghz = 20.0
gamma_ghz = 0.5
gamma_d_ghz = 1.5

[drive]
target = qd
rabi_ghz = 0.5

[numerics]
fock_cutoff = 2
scan_points = 101
seed = 7
noise_relative = 0.05
workers = {workers}
"""


def test_10_seeded_csv_determinism(capsys, tmp_path):
    """Same config and seed give byte-identical CSVs, at any worker count."""
    start = time.perf_counter()
    blobs = []
    runs_ok = True
    for workers in (1, 2, 4):
        cfg_path = tmp_path / f"workers{workers}.ini"
        cfg_path.write_text(DETERMINISM_CONFIG.format(workers=workers))
        for repeat in ("a", "b"):
            out = tmp_path / f"scan_w{workers}_{repeat}.csv"
            rc = main(["scan", "--config", str(cfg_path), "--out", str(out)])
            runs_ok = runs_ok and rc == 0
            blobs.append(out.read_bytes())
    identical = bool(blobs) and all(blob == blobs[0] for blob in blobs)
    elapsed = time.perf_counter() - start
    ok = runs_ok and identical and elapsed < 60.0
    _report(capsys, 10, "seeded-csv-determinism", ok, f"{len(blobs)} runs identical, {elapsed:.1f}s")
