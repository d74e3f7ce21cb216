"""Laser-scan emulation, power sweeps and synthetic noise."""

import dataclasses
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cqed_scope import lindblad
from cqed_scope import scan as scan_module
from cqed_scope.analytic import polariton_frequencies
from cqed_scope.cli import main
from cqed_scope.config import parse_config
from cqed_scope.dataset import ScanKind, SpectrumDataset
from cqed_scope.errors import (
    ConfigError, NonUniqueSteadyStateError, NumericalError, ScanError, TruncationError
)
from cqed_scope.hilbert import annihilation, dagger, lift_cavity, lift_qd, qd_lowering
from cqed_scope.fit import fit_lorentzian, fit_saturation
from cqed_scope.lindblad import build_hamiltonian, build_liouvillian, steady_state, truncation_check
from cqed_scope.model import (
    SPEED_OF_LIGHT_NM_GHZ,
    TWO_PI,
    DriveSpec,
    DriveTarget,
    SystemParams,
    angular_frequency_to_wavelength,
    wavelength_to_angular_frequency,
)
from cqed_scope.scan import (
    EmissionChannel,
    auto_scan_window,
    power_sweep,
    scan_laser,
    synthesize_noisy,
    wavelength_window,
)

from helpers import coupled_mode_matrix, interpolated_fwhm, steady_state_oracle

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def make_system(g, kappa, gamma, gamma_d=0.0, delta=0.0, cavity_nm=931.0, transfer=False):
    """A system from rates in GHz; ``transfer`` switches on one-way rates of 0.7 and 0.3 GHz."""
    omega_c = wavelength_to_angular_frequency(cavity_nm)
    return SystemParams(
        g=TWO_PI * g,
        kappa=TWO_PI * kappa,
        gamma=TWO_PI * gamma,
        gamma_d=TWO_PI * gamma_d,
        omega_c=omega_c,
        omega_d=omega_c + TWO_PI * delta,
        transfer_qd_to_cavity=TWO_PI * 0.7 * transfer,
        transfer_cavity_to_qd=TWO_PI * 0.3 * transfer,
    )


def count_assemblies(monkeypatch) -> list:
    """Record every generator listing (``liouvillian_entries``) made inside the package."""
    calls = []
    listing = lindblad.liouvillian_entries

    def counting(*args, **kwargs):
        calls.append(args)
        return listing(*args, **kwargs)

    monkeypatch.setattr(lindblad, "liouvillian_entries", counting)
    return calls


def fitted_width_angular(data: SpectrumDataset) -> float:
    result = fit_lorentzian(data)
    assert result.converged, result.message
    fwhm_nm = result.params["fwhm"]
    centre_nm = result.params["center"]
    return TWO_PI * fwhm_nm * SPEED_OF_LIGHT_NM_GHZ / centre_nm**2


class TestScanLaser:
    def test_empty_cavity_scan_has_cavity_linewidth(self):
        params = make_system(g=0.0, kappa=2.0, gamma=0.5)
        drive = DriveSpec(
            target=DriveTarget.CAVITY, omega_l=params.omega_c, omega_rabi=TWO_PI * 1e-3
        )
        grid = wavelength_window(params.omega_c, 2.0 * params.kappa, 6.0, 201)
        data = scan_laser(params, drive, grid, EmissionChannel.CAVITY, 2)

        assert data.kind is ScanKind.LASER_WAVELENGTH
        assert data.x_unit == "nm" and data.y_unit == "intensity"
        assert fitted_width_angular(data) == pytest.approx(2.0 * params.kappa, rel=1e-6)

        centre_nm = fit_lorentzian(data).params["center"]
        cavity_nm = angular_frequency_to_wavelength(params.omega_c)
        assert centre_nm == pytest.approx(cavity_nm, abs=1e-5)

        # Independent width estimate straight from the samples.
        sampled = interpolated_fwhm(data.x, data.y, floor=0.0)
        sampled_angular = TWO_PI * sampled * SPEED_OF_LIGHT_NM_GHZ / cavity_nm**2
        assert sampled_angular == pytest.approx(2.0 * params.kappa, rel=5e-3)

    def test_zero_drive_scan_is_dark(self):
        params = make_system(g=5.0, kappa=2.0, gamma=0.5, delta=-30.0)
        drive = DriveSpec(target=DriveTarget.QD, omega_l=params.omega_d, omega_rabi=0.0)
        grid = np.linspace(930.9, 931.1, 11)
        data = scan_laser(params, drive, grid, EmissionChannel.QD, 1)
        assert np.all(data.y == 0.0)

    def test_grid_needs_at_least_five_points(self):
        params = make_system(g=0.0, kappa=2.0, gamma=0.5)
        drive = DriveSpec(target=DriveTarget.QD, omega_l=params.omega_d, omega_rabi=0.0)
        with pytest.raises(ValueError, match="at least 5"):
            scan_laser(params, drive, np.linspace(930.9, 931.1, 4), EmissionChannel.QD, 1)

    def test_grid_must_increase(self):
        params = make_system(g=0.0, kappa=2.0, gamma=0.5)
        drive = DriveSpec(target=DriveTarget.QD, omega_l=params.omega_d, omega_rabi=0.0)
        grid = np.array([931.0, 930.99, 931.01, 931.02, 931.03])
        with pytest.raises(ValueError, match="increasing"):
            scan_laser(params, drive, grid, EmissionChannel.QD, 1)

    def test_grid_far_from_resonance_rejected(self):
        # A grid in micrometres-off territory is a unit mistake, not a scan.
        params = make_system(g=0.0, kappa=2.0, gamma=0.5)
        drive = DriveSpec(target=DriveTarget.QD, omega_l=params.omega_d, omega_rabi=0.0)
        with pytest.raises(ValueError, match="nm"):
            scan_laser(params, drive, np.linspace(940.0, 940.2, 9), EmissionChannel.QD, 1)

    def test_insufficient_cutoff_rejected(self):
        params = make_system(g=5.0, kappa=2.0, gamma=0.5)
        drive = DriveSpec(
            target=DriveTarget.CAVITY, omega_l=params.omega_c, omega_rabi=TWO_PI * 8.0
        )
        grid = wavelength_window(params.omega_c, 2.0 * params.kappa, 6.0, 5)
        with pytest.raises(TruncationError):
            scan_laser(params, drive, grid, EmissionChannel.CAVITY, 2)

    def test_scan_is_bitwise_deterministic(self):
        params = make_system(g=0.0, kappa=2.0, gamma=0.5, gamma_d=0.5)
        drive = DriveSpec(target=DriveTarget.QD, omega_l=params.omega_d, power=0.5, alpha=0.5)
        grid = wavelength_window(params.omega_d, 2.0 * params.gamma, 6.0, 21)
        first, second = (scan_laser(params, drive, grid, EmissionChannel.QD, 1) for _ in range(2))
        assert np.array_equal(first.x, second.x)
        assert np.array_equal(first.y, second.y)

    def test_checked_scan_assembles_twice(self, monkeypatch):
        # One generator for the grid, one at n_max + 2 for the cutoff check.
        params = make_system(g=5.0, kappa=2.0, gamma=0.5)
        drive = DriveSpec(target=DriveTarget.QD, omega_l=params.omega_d, omega_rabi=0.1)
        grid = wavelength_window(params.omega_d, 2.0 * params.gamma, 6.0, 21)
        calls = count_assemblies(monkeypatch)
        scan_laser(params, drive, grid, EmissionChannel.CAVITY, 2)
        assert len(calls) == 2

    def test_checked_high_cutoff_scan_holds_no_dense_generator(self, monkeypatch):
        # The cutoff-20 scan's probe solves at cutoff 22, where the dense generator alone would
        # take 16 * 46**4 bytes (68.3 MiB); the scan and its probe work from the non-zeros.
        def dense(*args, **kwargs):
            raise AssertionError("a scan built a dense generator")

        monkeypatch.setattr(lindblad, "build_liouvillian", dense)
        monkeypatch.setattr(lindblad, "assemble_liouvillian", dense)
        params = parse_config(CONFIG_DIR / "example.ini").system
        drive = DriveSpec(
            target=DriveTarget.CAVITY, omega_l=params.omega_c, omega_rabi=TWO_PI * 40.0
        )
        grid = auto_scan_window(params, drive, 6.0, 5)
        tracemalloc.start()
        try:
            scan_laser(params, drive, grid, EmissionChannel.CAVITY, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * 16 * 46**4

    def test_scan_holds_one_copy_of_its_states(self):
        # At its peak a scan holds its states, the gathered sector blocks and one batch of
        # factors (at most STACK_BYTES here), plus the list and the batch's temporaries; a
        # second copy of the states breaks the bound.
        params = parse_config(CONFIG_DIR / "example.ini").system
        drive = DriveSpec(
            target=DriveTarget.CAVITY, omega_l=params.omega_c, omega_rabi=TWO_PI * 40.0
        )
        grid = auto_scan_window(params, drive, 6.0, 61)
        n_max = 20
        sectors = lindblad._Sectors(lindblad._generator(params, drive, n_max))
        blocks = sum(block.nbytes for block in sectors.blocks.values())
        states = grid.size * 16 * (2 * (n_max + 1)) ** 2
        tracemalloc.start()
        try:
            scan_laser(params, drive, grid, EmissionChannel.CAVITY, n_max, check_truncation=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < states + blocks + 3 * lindblad.STACK_BYTES

    @settings(max_examples=30)
    @given(
        g=st.floats(0.0, 20.0),
        kappa=st.floats(0.5, 30.0),
        gamma=st.floats(0.1, 2.0),
        gamma_d=st.floats(0.0, 3.0),
        delta=st.floats(-100.0, 100.0),
        n_max=st.integers(1, 5),
        target=st.sampled_from(DriveTarget),
        transfer=st.booleans(),
        rabi_ghz=st.floats(0.1, 20.0),
        points=st.integers(5, 21),
    )
    # A weak cavity drive that cutoff 3 holds, by a change of a few 1e-9.
    @example(
        g=5.0, kappa=2.0, gamma=0.5, gamma_d=0.0, delta=-3.0, n_max=3,
        target=DriveTarget.CAVITY, transfer=False, rabi_ghz=1.0 / TWO_PI, points=21,
    )
    def test_scan_check_reports_the_centre_truncation_change(
        self, g, kappa, gamma, gamma_d, delta, n_max, target, transfer, rabi_ghz, points
    ):
        # The scan probes its own middle read-out with a one-point scan at n_max + 2; the change
        # must be truncation_check's at the middle frequency, bit for bit.
        params = make_system(
            g=g, kappa=kappa, gamma=gamma, gamma_d=gamma_d, delta=delta, transfer=transfer
        )
        centre = params.omega_d if target is DriveTarget.QD else params.omega_c
        drive = DriveSpec(target=target, omega_l=centre, omega_rabi=TWO_PI * rabi_ghz)
        width = 2.0 * (params.kappa + params.gamma + params.gamma_d)
        grid = wavelength_window(centre, width, 6.0, points)
        reported = []

        def spy(lower, upper):
            reported.append(lindblad.truncation_change(lower, upper))
            return reported[-1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(scan_module, "truncation_change", spy)
            try:
                scan_laser(params, drive, grid, EmissionChannel.CAVITY, n_max)
            except TruncationError:
                pass
        middle = wavelength_to_angular_frequency(float(grid[points // 2]))
        _, change = truncation_check(params, drive.with_laser_frequency(middle), n_max)
        assert len(reported) == 1 and reported[0].shape == (1,)
        assert float(reported[0][0]).hex() == change.hex()

    def test_programming_errors_are_not_wrapped(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("injected bug")

        monkeypatch.setattr(lindblad, "solve_stack", broken)
        params = make_system(g=0.0, kappa=2.0, gamma=0.5)
        drive = DriveSpec(target=DriveTarget.QD, omega_l=params.omega_d, omega_rabi=1.0)
        grid = wavelength_window(params.omega_d, 2.0 * params.gamma, 6.0, 5)
        with pytest.raises(TypeError, match="injected bug"):
            scan_laser(params, drive, grid, EmissionChannel.QD, 1, check_truncation=False)

    def test_spectrum_does_not_depend_on_the_batch_budget(self, monkeypatch):
        # At cutoff 3 the budgets put one point, four points and 132 points to a batch.
        params = make_system(g=5.0, kappa=2.0, gamma=0.5, gamma_d=0.5, delta=1.0)
        drive = DriveSpec(target=DriveTarget.QD, omega_l=params.omega_d, omega_rabi=TWO_PI * 1.0)
        grid = wavelength_window(params.omega_d, 2.0 * params.gamma, 6.0, 201)
        spectra = []
        for stack_bytes in (1, 1 << 15, lindblad.STACK_BYTES):
            monkeypatch.setattr(lindblad, "STACK_BYTES", stack_bytes)
            data = scan_laser(
                params, drive, grid, EmissionChannel.CAVITY, 3, check_truncation=False
            )
            spectra.append(data.y)
        assert spectra[0].max() > 0.0
        assert all(np.array_equal(spectra[0], y) for y in spectra[1:])

    @pytest.mark.parametrize("defect", ["singular", "non-positive"])
    def test_failure_in_a_later_stack_names_its_wavelength(self, monkeypatch, defect):
        # At cutoff 1 (sectors of 1, 4, 6, 4 and 1 unknowns) a point stores its +m factors and
        # the centre's Schur complement, 16 * (4 * 6 + 1 * 4 + 6 * 6) = 1024 bytes: four points
        # to a batch, so the middle point 6, the unshifted reference, is the third of the
        # second batch.
        monkeypatch.setattr(lindblad, "STACK_BYTES", 4 * 1024)
        number = np.array([0, 1, 1, 2])  # N of |g0>, |g1>, |e0>, |e1>
        same_n = (np.subtract.outer(number, number) == 0).ravel()
        v = np.zeros((4, 4), dtype=complex)
        if defect == "singular":
            # Coherences between different N that neither decay nor rotate are stationary
            # at the reference only.
            v[0, 0] = 1.0
            rates = same_n
        else:
            # L x = v tr(x) - x: the shifted kernel's coherence 0.6 / |1 - i d| makes it
            # non-positive only within 0.66 rad/ns of the reference.
            v[:2, :2] = [[0.5, 0.6], [0.6, 0.5]]
            rates = np.ones(16)
        bad = np.outer(v.reshape(-1), np.eye(4).reshape(-1)) - np.diag(rates)
        monkeypatch.setattr(lindblad, "liouvillian_entries", lambda *args: lindblad._listed(bad))
        validate, validated = lindblad.validate_density_matrix, []

        def counting(rho, context):
            validated.append(len(rho))
            return validate(rho, context)

        monkeypatch.setattr(lindblad, "validate_density_matrix", counting)
        params = make_system(g=0.0, kappa=2.0, gamma=0.5)
        drive = DriveSpec(target=DriveTarget.QD, omega_l=params.omega_d, omega_rabi=1.0)
        grid = wavelength_window(params.omega_d, 2.0 * params.gamma, 6.0, 13)
        with pytest.raises(ScanError, match=f"at {grid[6]:.6f} nm") as caught:
            scan_laser(params, drive, grid, EmissionChannel.QD, 1, check_truncation=False)
        assert validated == ([4] if defect == "singular" else [4, 4])
        cause = caught.value.__cause__
        expected = NonUniqueSteadyStateError if defect == "singular" else NumericalError
        assert isinstance(cause, expected) and cause.index == 6

    def test_peak_sits_at_the_dot_wavelength(self):
        params = make_system(g=0.0, kappa=2.0, gamma=0.5, gamma_d=0.5)
        drive = DriveSpec(target=DriveTarget.QD, omega_l=params.omega_d, power=0.5, alpha=0.5)
        # An even point count leaves no node exactly on the resonance.
        grid = wavelength_window(params.omega_d, 2.0 * params.gamma, 6.0, 200)
        data = scan_laser(params, drive, grid, EmissionChannel.QD, 1)
        step = float(grid[1] - grid[0])
        dot_nm = angular_frequency_to_wavelength(params.omega_d)
        assert abs(float(data.x[np.argmax(data.y)]) - dot_nm) <= step

    def test_cavity_readout_peaks_at_the_dot_not_the_cavity(self):
        # With a detuned dot driven through the dot transition, the cavity
        # channel lights up when the laser matches the dot-like branch.
        params = make_system(g=10.0, kappa=20.0, gamma=0.5, gamma_d=1.5, delta=-69.0)
        drive = DriveSpec(target=DriveTarget.QD, omega_l=params.omega_d, power=0.2, alpha=0.5)
        grid = auto_scan_window(params, drive, 6.0, 201)
        data = scan_laser(params, drive, grid, EmissionChannel.CAVITY, 3)
        peak_nm = float(data.x[np.argmax(data.y)])
        dot_nm = angular_frequency_to_wavelength(params.omega_d)
        cavity_nm = angular_frequency_to_wavelength(params.omega_c)
        assert abs(peak_nm - dot_nm) < 0.1 * abs(cavity_nm - dot_nm)

    def test_doubling_the_window_leaves_the_width_unchanged(self):
        params = make_system(g=10.0, kappa=20.0, gamma=0.5, gamma_d=1.5, delta=200.0)
        drive = DriveSpec(target=DriveTarget.QD, omega_l=params.omega_d, power=0.5, alpha=0.5)
        narrow = scan_laser(
            params, drive, auto_scan_window(params, drive, 6.0, 201), EmissionChannel.CAVITY, 3
        )
        wide = scan_laser(
            params, drive, auto_scan_window(params, drive, 12.0, 201), EmissionChannel.CAVITY, 3
        )
        width_narrow = fit_lorentzian(narrow).params["fwhm"]
        width_wide = fit_lorentzian(wide).params["fwhm"]
        assert abs(width_wide - width_narrow) / width_narrow < 0.005


def per_point_spectrum(params, drive, grid, observe, n_max):
    """Reference: assemble and solve the generator afresh at every grid point."""
    values = []
    for lam in grid:
        point = drive.with_laser_frequency(wavelength_to_angular_frequency(float(lam)))
        ham = build_hamiltonian(params, point, n_max)
        observables = steady_state(build_liouvillian(ham, params)).observables
        if observe is EmissionChannel.CAVITY:
            values.append(2.0 * params.kappa * observables["n_cavity"])
        else:
            values.append(2.0 * params.gamma * observables["n_qd"])
    return np.maximum(np.array(values), 0.0)


class TestShiftedGenerator:
    @settings(max_examples=60)
    @given(
        g=st.floats(0.0, 20.0),
        kappa=st.floats(0.5, 30.0),
        gamma=st.floats(0.1, 2.0),
        gamma_d=st.floats(0.0, 3.0),
        delta=st.floats(-100.0, 100.0),
        n_max=st.integers(1, 4),
        target=st.sampled_from(DriveTarget),
        observe=st.sampled_from(EmissionChannel),
        transfer=st.booleans(),
        points=st.integers(5, 41),
    )
    # Narrow lines far from the dot, where the bound holds only if the scan's shift and each
    # point's Hamiltonian take the same excitation numbers.
    @example(
        g=0.5, kappa=0.5, gamma=0.1015625, gamma_d=0.0, delta=15.0, n_max=2,
        target=DriveTarget.CAVITY, observe=EmissionChannel.QD, transfer=False, points=9,
    )
    # An even grid straddles the line: its largest sample, 0.0174, is a quarter of the peak.
    @example(
        g=15.0, kappa=6.0, gamma=0.5, gamma_d=0.0, delta=83.0, n_max=3,
        target=DriveTarget.QD, observe=EmissionChannel.CAVITY, transfer=False, points=6,
    )
    def test_scan_matches_per_point_assembly(
        self, g, kappa, gamma, gamma_d, delta, n_max, target, observe, transfer, points
    ):
        # Cutoffs 1 to 4 solve at least 42 points to a batch, so each grid is one batch (splits
        # are drawn in test_lindblad); the middle point is the reference and matches exactly.
        params = make_system(
            g=g, kappa=kappa, gamma=gamma, gamma_d=gamma_d, delta=delta, transfer=transfer
        )
        centre = params.omega_d if target is DriveTarget.QD else params.omega_c
        drive = DriveSpec(target=target, omega_l=centre, omega_rabi=TWO_PI * 1.0)
        width = 2.0 * (params.kappa + params.gamma + params.gamma_d)
        grid = wavelength_window(centre, width, 6.0, points)

        data = scan_laser(
            params, drive, grid, observe, n_max, check_truncation=False
        )
        expected = per_point_spectrum(params, drive, grid, observe, n_max)
        # The bound is 1e-14 of the line's peak, which an even grid straddles, so the reference
        # is solved at the window centre too.
        centre_nm = angular_frequency_to_wavelength(centre)
        at_centre = per_point_spectrum(params, drive, [centre_nm], observe, n_max)
        peak = max(expected.max(), at_centre[0])
        np.testing.assert_allclose(data.y, expected, rtol=0.0, atol=1e-14 * peak)
        assert data.y[points // 2] == expected[points // 2]


class TestOracle:
    @settings(max_examples=25)
    @given(
        g=st.floats(0.0, 20.0),
        kappa=st.floats(0.5, 30.0),
        gamma=st.floats(0.1, 2.0),
        gamma_d=st.floats(0.0, 3.0),
        delta=st.floats(-100.0, 100.0),
        n_max=st.integers(1, 6),
        target=st.sampled_from(DriveTarget),
        observe=st.sampled_from(EmissionChannel),
        transfer=st.booleans(),
        rabi_ghz=st.floats(0.1, 50.0),
        points=st.integers(5, 41),
    )
    def test_scan_and_steady_state_match_the_oracle(
        self, g, kappa, gamma, gamma_d, delta, n_max, target, observe, transfer, rabi_ghz, points
    ):
        # Cutoffs 5 and 6 solve 24 and 15 points to a batch, so long grids split.  The
        # oracle is the generator's SVD null vector, assembled afresh at each checked point.
        params = make_system(
            g=g, kappa=kappa, gamma=gamma, gamma_d=gamma_d, delta=delta, transfer=transfer
        )
        centre = params.omega_d if target is DriveTarget.QD else params.omega_c
        drive = DriveSpec(target=target, omega_l=centre, omega_rabi=TWO_PI * rabi_ghz)
        width = 2.0 * (params.kappa + params.gamma + params.gamma_d)
        grid = wavelength_window(centre, width, 6.0, points)
        data = scan_laser(
            params, drive, grid, observe, n_max, check_truncation=False
        )

        cavity = observe is EmissionChannel.CAVITY
        if cavity:
            lower = lift_cavity(annihilation(n_max), n_max)
        else:
            lower = lift_qd(qd_lowering(), n_max)
        rate = params.kappa if cavity else params.gamma
        # Nine points, the ends and the middle among them, span every batch of a long grid.
        checked = np.unique(np.linspace(0, points - 1, 9).round().astype(int))
        expected = []
        for lam in grid[checked]:
            point = drive.with_laser_frequency(wavelength_to_angular_frequency(float(lam)))
            lv = build_liouvillian(build_hamiltonian(params, point, n_max), params)
            rho = steady_state_oracle(lv)
            expected.append(np.trace(dagger(lower) @ lower @ rho).real)
        # Compared as occupations: a dark channel's signal is round-off on either side.
        expected = np.array(expected)
        tol = 1e-12 + 1e-10 * expected.max()
        np.testing.assert_allclose(data.y[checked] / (2.0 * rate), expected, rtol=0.0, atol=tol)
        np.testing.assert_allclose(steady_state(lv).rho, rho, rtol=0.0, atol=1e-10)


class TestWindowSizing:
    def test_window_is_symmetric_and_ascending(self):
        centre = wavelength_to_angular_frequency(931.0)
        grid = wavelength_window(centre, TWO_PI * 4.0, 6.0, 201)
        assert grid.size == 201
        assert np.all(np.diff(grid) > 0.0)
        assert 0.5 * (grid[0] + grid[-1]) == pytest.approx(931.0, abs=1e-9)

    def test_span_scales_linearly(self):
        centre = wavelength_to_angular_frequency(931.0)
        narrow = wavelength_window(centre, TWO_PI * 4.0, 6.0, 201)
        wide = wavelength_window(centre, TWO_PI * 4.0, 12.0, 201)
        assert (wide[-1] - wide[0]) == pytest.approx(2.0 * (narrow[-1] - narrow[0]), rel=1e-12)

    @pytest.mark.parametrize("bad_width", [0.0, -1.0, np.nan, np.inf])
    def test_unusable_predicted_width_rejected(self, bad_width):
        centre = wavelength_to_angular_frequency(931.0)
        with pytest.raises(ConfigError):
            wavelength_window(centre, bad_width, 6.0, 201)

    @settings(max_examples=300)
    @given(
        centre_nm=st.floats(800.0, 1100.0),
        fwhm_ghz=st.floats(1e-3, 200.0),
        span_fwhm=st.floats(6.0, 50.0),
        half_points=st.integers(2, 1000),
    )
    @example(centre_nm=1024.1, fwhm_ghz=100.0, span_fwhm=6.0, half_points=100)
    def test_odd_window_has_the_centre_as_its_middle(self, centre_nm, fwhm_ghz, span_fwhm, half_points):
        centre = wavelength_to_angular_frequency(centre_nm)
        grid = wavelength_window(centre, TWO_PI * fwhm_ghz, span_fwhm, 2 * half_points + 1)
        assume(grid[-1] - grid[0] <= 2.0 * scan_module.GRID_GUARD_NM)
        middle = float(grid[half_points])
        exact = angular_frequency_to_wavelength(centre)
        if np.floor(np.log2(grid[0])) == np.floor(np.log2(grid[-1])):
            assert middle == exact
        else:
            # Ends on either side of a power of two (1024 nm) round unevenly.
            assert abs(middle - exact) <= np.spacing(min(middle, exact))

    def test_auto_window_centres_on_the_driven_branch(self):
        params = make_system(g=0.0, kappa=2.0, gamma=0.5)
        drive = DriveSpec(target=DriveTarget.QD, omega_l=params.omega_d, power=1.0, alpha=0.5)
        grid = auto_scan_window(params, drive, 6.0, 101)
        dot_nm = angular_frequency_to_wavelength(params.omega_d)
        assert 0.5 * (grid[0] + grid[-1]) == pytest.approx(dot_nm, abs=1e-9)

    def test_cavity_window_spans_the_cavity_branch_width(self):
        # span_fwhm widths -2 Im(omega) of the exact branch nearest omega_c - i kappa; the
        # first-order dispersive cavity width is 1.9 % wider on this system.
        cfg = parse_config(CONFIG_DIR / "example.ini")
        params = cfg.system
        drive = dataclasses.replace(cfg, drive_target=DriveTarget.CAVITY).drive_template()
        grid = auto_scan_window(params, drive, cfg.scan_span_fwhm, 201)
        bare = complex(params.omega_c, -params.kappa)
        branch = min(np.linalg.eigvals(coupled_mode_matrix(params)), key=lambda z: abs(z - bare))
        centre_nm = angular_frequency_to_wavelength(branch.real)
        width_nm = centre_nm**2 * (-2.0 * branch.imag / TWO_PI) / SPEED_OF_LIGHT_NM_GHZ
        assert grid[-1] - grid[0] == pytest.approx(cfg.scan_span_fwhm * width_nm, rel=1e-9)
        assert grid[100] == pytest.approx(centre_nm, rel=1e-15)

    def test_resonant_weak_coupling_cavity_window_takes_the_cavity_line(self):
        # Both branches sit at omega_c, 1.4 and 39.6 GHz wide; no dispersive width exists here.
        params = make_system(g=2.0, kappa=20.0, gamma=0.5, cavity_nm=930.8)
        drive = DriveSpec(
            target=DriveTarget.CAVITY, omega_l=params.omega_c, omega_rabi=TWO_PI * 1.0
        )
        grid = auto_scan_window(params, drive, 6.0, 201)
        cavity_nm = angular_frequency_to_wavelength(params.omega_c)
        span_ghz = (grid[-1] - grid[0]) * SPEED_OF_LIGHT_NM_GHZ / cavity_nm**2
        assert span_ghz == pytest.approx(6.0 * 39.585, rel=1e-4)
        assert grid[100] == pytest.approx(cavity_nm, rel=1e-15)


class TestPowerSweep:
    def test_uncoupled_dot_sweep_matches_the_drive_response(self):
        params = make_system(g=0.0, kappa=2.0, gamma=0.5, gamma_d=0.5)
        drive = DriveSpec(target=DriveTarget.QD, omega_l=params.omega_d, power=1.0, alpha=0.5)
        powers = np.concatenate([[0.0], np.geomspace(0.05, 40.0, 10)])
        result = power_sweep(params, drive, powers, EmissionChannel.QD, 1)

        assert result.skipped_powers == (0.0,)
        saturation, linewidths = result.saturation, result.linewidths
        assert saturation.y[0] == 0.0
        np.testing.assert_array_equal(saturation.x, powers)

        # Saturation shape: intensity proportional to a*P / (1 + a*P).
        shape = 0.5 * powers / (1.0 + 0.5 * powers)
        scale = float(shape @ saturation.y) / float(shape @ shape)
        residual = np.abs(saturation.y - scale * shape).max() / saturation.y.max()
        assert residual < 1e-3

        fit = fit_saturation(saturation)
        assert fit.params["alpha_per_uw"] == pytest.approx(0.5, rel=1e-6)

        # Linewidths follow the power-broadening square root.
        np.testing.assert_array_equal(linewidths.x, powers[1:])
        assert linewidths.y_unit == "fwhm_ghz"
        expected_ghz = 2.0 * (0.5 + 0.5) * np.sqrt(1.0 + 0.5 * powers[1:])
        np.testing.assert_allclose(linewidths.y, expected_ghz, rtol=1e-2)

    def test_sweep_assembles_once_per_power_plus_the_check(self, monkeypatch):
        params = make_system(g=0.0, kappa=2.0, gamma=0.5)
        drive = DriveSpec(target=DriveTarget.QD, omega_l=params.omega_d, power=1.0, alpha=0.5)
        powers = np.array([0.0, 0.1, 0.4, 1.6, 6.4])
        calls = count_assemblies(monkeypatch)
        power_sweep(params, drive, powers, EmissionChannel.QD, 1)
        assert len(calls) == 4 + 1

    def test_saturation_point_is_the_centre_solve(self):
        # An even point count is rounded up so that the centre is a grid point.
        params = make_system(g=10.0, kappa=20.0, gamma=0.5, gamma_d=1.5, delta=-69.0)
        drive = DriveSpec(target=DriveTarget.QD, omega_l=params.omega_d, power=1.0, alpha=0.5)
        powers = np.geomspace(0.05, 8.0, 5)
        result = power_sweep(params, drive, powers, EmissionChannel.CAVITY, 2, scan_points=210)
        centre = polariton_frequencies(params).branch_near(complex(params.omega_d, -params.gamma))
        centre_nm = [angular_frequency_to_wavelength(centre.real)]
        for power, value in zip(powers, result.saturation.y):
            fresh = per_point_spectrum(
                params, drive.with_power(float(power)), centre_nm, EmissionChannel.CAVITY, 2
            )
            assert value == fresh[0]

    def test_rabi_style_template_rejected(self):
        params = make_system(g=0.0, kappa=2.0, gamma=0.5)
        drive = DriveSpec(target=DriveTarget.QD, omega_l=params.omega_d, omega_rabi=1.0)
        with pytest.raises(ValueError, match="alpha"):
            power_sweep(params, drive, np.array([0.1, 1.0]), EmissionChannel.QD, 1)

    @pytest.mark.parametrize(
        "powers",
        [np.array([]), np.array([1.0, 1.0, 2.0]), np.array([2.0, 1.0]), np.array([-1.0, 1.0])],
    )
    def test_bad_power_grids_rejected(self, powers):
        params = make_system(g=0.0, kappa=2.0, gamma=0.5)
        drive = DriveSpec(target=DriveTarget.QD, omega_l=params.omega_d, power=1.0, alpha=0.5)
        with pytest.raises(ValueError):
            power_sweep(params, drive, powers, EmissionChannel.QD, 1)

    def test_cutoff_checked_at_the_highest_power(self):
        # Cutoff 3 holds at 0.05 uW but not at 50 uW of cavity drive.
        params = SystemParams.from_ghz_and_nm(
            g_ghz=10.0,
            kappa_ghz=20.0,
            gamma_ghz=0.5,
            gamma_d_ghz=1.5,
            qd_wavelength_nm=931.0,
            cavity_wavelength_nm=930.8,
        )
        drive = DriveSpec(target=DriveTarget.CAVITY, omega_l=params.omega_c, power=1.0, alpha=0.5)
        powers = np.geomspace(0.05, 50.0, 5)
        with pytest.raises(TruncationError):
            power_sweep(params, drive, powers, EmissionChannel.CAVITY, 3)

    def test_zero_power_only_is_rejected(self):
        params = make_system(g=0.0, kappa=2.0, gamma=0.5)
        drive = DriveSpec(target=DriveTarget.QD, omega_l=params.omega_d, power=1.0, alpha=0.5)
        with pytest.raises(ValueError, match="no positive powers"):
            power_sweep(params, drive, np.array([0.0]), EmissionChannel.QD, 1)


def test_every_solve_reads_the_residual_tolerance_at_call_time(tmp_path, monkeypatch, capsys):
    # No path binds the solver's constant early: patched to an unreachable 1e-30 after import,
    # each entry point trips the residual guard.  Cutoff 2 converges for this weakly coupled
    # dot, so each call passes at the real tolerance.
    monkeypatch.setattr(lindblad, "STEADY_RESIDUAL_TOL", 1e-30)
    params = make_system(g=1.0, kappa=20.0, gamma=0.5, gamma_d=0.5, delta=1.0)
    drive = DriveSpec(target=DriveTarget.QD, omega_l=params.omega_d, power=1.0, alpha=0.5)
    grid = wavelength_window(params.omega_d, 2.0 * params.gamma, 6.0, 11)
    with pytest.raises(ScanError, match="residual"):
        scan_laser(params, drive, grid, EmissionChannel.QD, 2)
    with pytest.raises(ScanError, match="residual"):
        power_sweep(params, drive, np.geomspace(0.1, 4.0, 5), EmissionChannel.QD, 2)
    with pytest.raises(NumericalError, match="residual"):
        steady_state(build_liouvillian(build_hamiltonian(params, drive, 2), params))
    with pytest.raises(NumericalError, match="residual"):
        truncation_check(params, drive, 2)
    out = str(tmp_path / "scan.csv")
    assert main(["scan", "--config", str(CONFIG_DIR / "example.ini"), "--out", out]) == 3
    assert "residual" in capsys.readouterr().err


class TestSynthesizeNoisy:
    def base_dataset(self, points=100):
        x = np.linspace(0.1, 10.0, points)
        return SpectrumDataset(
            kind=ScanKind.POWER_SWEEP,
            x=x,
            y=np.full(points, 2.0),
            x_unit="uW",
            y_unit="intensity",
        )

    def test_zero_noise_is_identity(self):
        data = self.base_dataset()
        noisy = synthesize_noisy(data, 0.0, seed=1)
        assert np.array_equal(noisy.y, data.y)
        assert np.array_equal(noisy.x, data.x)

    def test_same_seed_reproduces_bitwise(self):
        data = self.base_dataset()
        first = synthesize_noisy(data, 0.05, seed=42)
        second = synthesize_noisy(data, 0.05, seed=42)
        assert np.array_equal(first.y, second.y)

    def test_different_seeds_differ(self):
        data = self.base_dataset()
        assert not np.array_equal(
            synthesize_noisy(data, 0.05, seed=1).y, synthesize_noisy(data, 0.05, seed=2).y
        )

    def test_noise_magnitude_matches_request(self):
        data = self.base_dataset(points=10_000)
        noisy = synthesize_noisy(data, 0.05, seed=42)
        ratio = noisy.y / data.y - 1.0
        assert float(np.std(ratio)) == pytest.approx(0.05, rel=0.05)

    def test_largest_noise_is_truncated_at_zero(self):
        # At 0.5 a draw below -2 makes the Gaussian factor negative: about 2 % of the points.
        data = self.base_dataset(points=10_000)
        noisy = synthesize_noisy(data, 0.5, seed=3)
        u = np.random.default_rng(3).standard_normal(10_000)
        assert np.count_nonzero(u < -2.0) > 100
        assert np.array_equal(noisy.y, data.y * np.maximum(1.0 + 0.5 * u, 0.0))

    @pytest.mark.parametrize("bad", [-0.01, 0.51, 1.0])
    def test_noise_fraction_range_enforced(self, bad):
        with pytest.raises(ValueError):
            synthesize_noisy(self.base_dataset(), bad, seed=1)
