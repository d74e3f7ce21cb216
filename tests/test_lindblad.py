"""Open-system generator: construction, steady states and time evolution."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cqed_scope import lindblad
from cqed_scope.config import _KEYS
from cqed_scope.errors import NonUniqueSteadyStateError, NumericalError
from cqed_scope.hilbert import (
    annihilation,
    basis_index,
    dagger,
    lift_cavity,
    lift_qd,
    qd_lowering,
)
from cqed_scope.lindblad import (
    assemble_liouvillian,
    build_hamiltonian,
    build_liouvillian,
    laser_scan_steady_states,
    solve_stack,
    steady_state,
    truncation_check,
)
from cqed_scope.model import TWO_PI, DriveSpec, DriveTarget, SystemParams

from helpers import (
    basis_integers,
    basis_projector,
    expectations,
    ground_state_density,
    liouvillian_oracle,
    purity,
    random_density_matrix,
    rk4_states,
    steady_state_oracle,
)

OMEGA_REF = TWO_PI * 320_000.0


def make_system(g, kappa, gamma, gamma_d=0.0, delta=0.0, to_cavity=0.0, to_qd=0.0):
    """A system from rates in GHz; ``to_cavity`` and ``to_qd`` are the one-way transfer rates."""
    return SystemParams(
        g=TWO_PI * g,
        kappa=TWO_PI * kappa,
        gamma=TWO_PI * gamma,
        gamma_d=TWO_PI * gamma_d,
        omega_c=OMEGA_REF,
        omega_d=OMEGA_REF + TWO_PI * delta,
        transfer_qd_to_cavity=TWO_PI * to_cavity,
        transfer_cavity_to_qd=TWO_PI * to_qd,
    )


def qd_drive(omega_l, omega_rabi):
    return DriveSpec(target=DriveTarget.QD, omega_l=omega_l, omega_rabi=omega_rabi)


def cavity_drive(omega_l, omega_rabi):
    return DriveSpec(target=DriveTarget.CAVITY, omega_l=omega_l, omega_rabi=omega_rabi)


def lindblad_action(ham, collapse_terms, rho):
    """Hand-written master-equation right-hand side for cross-checking."""
    out = -1j * (ham @ rho - rho @ ham)
    for rate, op in collapse_terms:
        opd = dagger(op)
        out = out + rate * (op @ rho @ opd - 0.5 * (opd @ op @ rho + rho @ opd @ op))
    return out


class TestBuildHamiltonian:
    def test_single_photon_matrix_for_dot_drive(self):
        params = make_system(g=3.0, kappa=2.0, gamma=0.5, delta=-40.0)
        omega_l = params.omega_d + TWO_PI * 7.0
        omega_rabi = TWO_PI * 1.2
        ham = build_hamiltonian(params, qd_drive(omega_l, omega_rabi), n_max=1)

        delta_d = params.omega_d - omega_l
        delta_c = params.omega_c - omega_l
        expected = np.zeros((4, 4), dtype=complex)
        g0, g1 = basis_index(0, 0, 1), basis_index(0, 1, 1)
        e0, e1 = basis_index(1, 0, 1), basis_index(1, 1, 1)
        expected[g1, g1] = delta_c
        expected[e0, e0] = delta_d
        expected[e1, e1] = delta_d + delta_c
        expected[e0, g1] = expected[g1, e0] = params.g
        expected[e0, g0] = expected[g0, e0] = omega_rabi / 2.0
        expected[e1, g1] = expected[g1, e1] = omega_rabi / 2.0
        np.testing.assert_allclose(ham, expected, atol=1e-12)

    def test_cavity_drive_couples_photon_ladder(self):
        params = make_system(g=0.0, kappa=2.0, gamma=0.5)
        omega_rabi = TWO_PI * 0.8
        ham = build_hamiltonian(params, cavity_drive(params.omega_c, omega_rabi), n_max=2)
        g0, g1, g2 = (basis_index(0, n, 2) for n in range(3))
        assert ham[g0, g1] == pytest.approx(omega_rabi / 2.0)
        assert ham[g1, g2] == pytest.approx(omega_rabi / 2.0 * np.sqrt(2.0))
        # Dot-space entries untouched by a cavity drive.
        assert ham[basis_index(1, 0, 2), g0] == 0.0

    def test_always_hermitian(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            params = make_system(
                g=rng.uniform(0.0, 30.0),
                kappa=rng.uniform(0.1, 30.0),
                gamma=rng.uniform(0.1, 5.0),
                gamma_d=rng.uniform(0.0, 5.0),
                delta=rng.uniform(-200.0, 200.0),
            )
            target = DriveTarget.QD if rng.random() < 0.5 else DriveTarget.CAVITY
            drive = DriveSpec(
                target=target,
                omega_l=OMEGA_REF + TWO_PI * rng.uniform(-100.0, 100.0),
                omega_rabi=TWO_PI * rng.uniform(0.0, 10.0),
            )
            ham = build_hamiltonian(params, drive, n_max=2)
            np.testing.assert_allclose(ham, dagger(ham), atol=1e-9)

    @pytest.mark.parametrize("n_max", [3, 13])
    @pytest.mark.parametrize("target", list(DriveTarget))
    def test_bare_terms_take_integer_excitation_numbers(self, n_max, target):
        # The diagonal is exactly (omega_d - omega_l) qd + (omega_c - omega_l) n: a number
        # operator assembled as a^+ a holds sqrt(n)**2, which misses n = 3 by an ulp.
        params = make_system(g=7.0, kappa=2.0, gamma=0.5, delta=-40.0)
        drive = DriveSpec(target=target, omega_l=OMEGA_REF + TWO_PI * 13.0, omega_rabi=TWO_PI)
        ham = build_hamiltonian(params, drive, n_max)
        qd, n = basis_integers(n_max)
        bare = (params.omega_d - drive.omega_l) * qd + (params.omega_c - drive.omega_l) * n
        assert np.array_equal(ham.diagonal(), bare)


class TestAssembleLiouvillian:
    def test_commutator_action_without_collapse(self):
        rng = np.random.default_rng(3)
        ham = rng.normal(size=(4, 4))
        ham = ham + ham.T
        lv = assemble_liouvillian(ham, [])
        rho = random_density_matrix(rng, 4)
        action = (lv @ rho.reshape(-1)).reshape(rho.shape)
        np.testing.assert_allclose(action, lindblad_action(ham, [], rho), atol=1e-12)

    def test_collapse_action_matches_hand_written_form(self):
        rng = np.random.default_rng(4)
        n_max = 1
        ham = np.zeros((4, 4))
        terms = [
            (2.0 * 1.7, lift_cavity(annihilation(n_max), n_max)),
            (2.0 * 0.3, lift_qd(qd_lowering(), n_max)),
        ]
        lv = assemble_liouvillian(ham, terms)
        rho = random_density_matrix(rng, 4)
        action = (lv @ rho.reshape(-1)).reshape(rho.shape)
        np.testing.assert_allclose(action, lindblad_action(ham, terms, rho), atol=1e-12)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            assemble_liouvillian(np.zeros((2, 2)), [(-1.0, np.eye(2))])

    def test_zero_rate_terms_are_dropped(self):
        # A NaN operator would poison the generator if its zero-rate term were kept.
        lv = assemble_liouvillian(np.zeros((2, 2)), [(0.0, np.full((2, 2), np.nan))])
        np.testing.assert_array_equal(lv, assemble_liouvillian(np.zeros((2, 2)), []))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            assemble_liouvillian(np.zeros((2, 2)), [(1.0, np.eye(3))])

    def test_entries_that_cancel_are_not_listed(self):
        # Pure dephasing leaves the excited population alone: 2 - 1 - 1 cancels exactly.
        ham, terms = np.diag([0.0, 3.0]), [(2.0, np.diag([0.0, 1.0]))]
        size, rows, cols, values = lindblad.liouvillian_entries(ham, terms)
        assert liouvillian_oracle(ham, terms)[3, 3] == 0.0
        assert size == 4 and list(zip(rows, cols)) == [(1, 1), (2, 2)]
        np.testing.assert_array_equal(values, [3j - 1.0, -3j - 1.0])


class TestBuildLiouvillian:
    def test_full_generator_matches_hand_written_form(self):
        params = make_system(
            g=4.0, kappa=2.0, gamma=0.5, gamma_d=1.0, delta=-30.0, to_cavity=0.2, to_qd=0.05
        )
        n_max = 1
        ham = build_hamiltonian(params, qd_drive(params.omega_d, TWO_PI * 0.7), n_max)
        lv = build_liouvillian(ham, params)

        sigma = lift_qd(qd_lowering(), n_max)
        a = lift_cavity(annihilation(n_max), n_max)
        terms = [
            (2.0 * params.kappa, a),
            (2.0 * params.gamma, sigma),
            (2.0 * params.gamma_d, dagger(sigma) @ sigma),
            (params.transfer_qd_to_cavity, dagger(a) @ sigma),
            (params.transfer_cavity_to_qd, dagger(sigma) @ a),
        ]
        rho = random_density_matrix(np.random.default_rng(9), 4)
        action = (lv @ rho.reshape(-1)).reshape(rho.shape)
        np.testing.assert_allclose(action, lindblad_action(ham, terms, rho), atol=1e-10)

    def test_rejects_non_product_space_dimension(self):
        params = make_system(g=1.0, kappa=1.0, gamma=0.5)
        with pytest.raises(ValueError):
            build_liouvillian(np.zeros((3, 3)), params)

    @settings(max_examples=40)
    @given(
        g=st.floats(0.0, 20.0),
        kappa=st.floats(0.5, 30.0),
        gamma=st.floats(0.1, 2.0),
        gamma_d=st.floats(0.0, 3.0),
        delta=st.floats(-100.0, 100.0),
        n_max=st.integers(1, 6),
        target=st.sampled_from(DriveTarget),
        transfer=st.booleans(),
        rabi_ghz=st.floats(0.0, 50.0),
    )
    def test_listed_non_zeros_match_the_kronecker_oracle(
        self, g, kappa, gamma, gamma_d, delta, n_max, target, transfer, rabi_ghz
    ):
        params = random_system(g, kappa, gamma, gamma_d, delta, transfer)
        drive = DriveSpec(target=target, omega_l=params.omega_c, omega_rabi=TWO_PI * rabi_ghz)
        ham = build_hamiltonian(params, drive, n_max)
        sigma = lift_qd(qd_lowering(), n_max)
        a = lift_cavity(annihilation(n_max), n_max)
        terms = [
            (2.0 * params.kappa, a),
            (2.0 * params.gamma, sigma),
            (2.0 * params.gamma_d, dagger(sigma) @ sigma),
            (params.transfer_qd_to_cavity, dagger(a) @ sigma),
            (params.transfer_cavity_to_qd, dagger(sigma) @ a),
        ]
        size, rows, cols, values = lindblad.liouvillian_entries(ham, terms)
        scattered = np.zeros((size, size), dtype=complex)
        scattered[rows, cols] = values

        oracle = liouvillian_oracle(ham, terms)
        assert size == oracle.shape[0]
        np.testing.assert_allclose(scattered, oracle, rtol=0.0, atol=1e-14 * np.abs(oracle).max())
        assert np.all(np.diff(rows * size + cols) > 0)
        assert np.all(values != 0.0)
        dense = build_liouvillian(ham, params)
        assert np.array_equal(dense.view(np.uint64), scattered.view(np.uint64))


def excitations(n_max):
    """``N = qd + n`` of each basis state, as exact integers."""
    qd, n = basis_integers(n_max)
    return qd + n


def laser_shift(number):
    """The diagonal ``S = i (N_i - N_j)`` that a unit laser step adds to the generator."""
    return 1j * np.subtract.outer(number, number).ravel()


def trace_kernel_generator(v, rates):
    """``L x = v tr(x) - rates * x``, whose kernel is ``v`` wherever every rate is non-zero."""
    dim = v.shape[0]
    return np.outer(v.reshape(-1), np.eye(dim).reshape(-1)) - np.diag(rates).astype(complex)


def random_system(g, kappa, gamma, gamma_d, delta, transfer):
    return make_system(
        g=g, kappa=kappa, gamma=gamma, gamma_d=gamma_d, delta=delta,
        to_cavity=0.7 * transfer, to_qd=0.3 * transfer,
    )


class TestSolveStack:
    @settings(max_examples=60)
    @given(
        g=st.floats(0.0, 20.0),
        kappa=st.floats(0.5, 30.0),
        gamma=st.floats(0.1, 2.0),
        gamma_d=st.floats(0.0, 3.0),
        delta=st.floats(-100.0, 100.0),
        n_max=st.integers(1, 4),
        target=st.sampled_from(DriveTarget),
        transfer=st.booleans(),
        stack_bytes=st.sampled_from([1, 1 << 13, 1 << 15, lindblad.STACK_BYTES]),
    )
    def test_shifted_solves_match_fresh_assembly(
        self, g, kappa, gamma, gamma_d, delta, n_max, target, transfer, stack_bytes
    ):
        params = random_system(g, kappa, gamma, gamma_d, delta, transfer)
        centre = params.omega_d if target is DriveTarget.QD else params.omega_c
        drive = DriveSpec(target=target, omega_l=centre, omega_rabi=TWO_PI * 1.0)
        width = 2.0 * (params.kappa + params.gamma + params.gamma_d)
        omegas = centre + width * np.linspace(-3.0, 3.0, 9)
        reference = build_liouvillian(build_hamiltonian(params, drive, n_max), params)

        listed, offsets = lindblad._listed(reference), omegas - centre
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lindblad, "STACK_BYTES", stack_bytes)
            rhos, residuals = solve_stack(listed, offsets)
            scales = []
            for omega, rho, residual in zip(omegas, rhos, residuals):
                ham = build_hamiltonian(params, drive.with_laser_frequency(omega), n_max)
                fresh = build_liouvillian(ham, params)
                scales.append(max(1.0, np.linalg.norm(fresh)))
                assert np.linalg.norm(fresh @ rho.reshape(-1)) <= 1e-9 * scales[-1]
                np.testing.assert_allclose(rho, steady_state(fresh).rho, rtol=0.0, atol=1e-10)
            assert np.array_equal(rhos[4], steady_state(reference).rho)

            # The residual guard scales by each shifted generator's norm, taken in closed form.
            ratios = residuals / np.array(scales)
            j = int(np.argmax(ratios))
            assume(ratios[j] > 0.0)
            patch.setattr(lindblad, "STEADY_RESIDUAL_TOL", ratios[j] * (1.0 + 1e-9))
            solve_stack(listed, offsets)
            patch.setattr(lindblad, "STEADY_RESIDUAL_TOL", ratios[j] * (1.0 - 1e-9))
            with pytest.raises(NumericalError, match="residual") as caught:
                solve_stack(listed, offsets)
            assert caught.value.index == j

    def test_slices_match_single_solves(self, monkeypatch):
        # Four points to a batch at cutoff 3; each equals a one-point solve of its shifted generator.
        monkeypatch.setattr(lindblad, "STACK_BYTES", 1 << 15)
        params = make_system(g=5.0, kappa=2.0, gamma=0.5, gamma_d=0.5)
        generator = build_liouvillian(
            build_hamiltonian(params, cavity_drive(params.omega_c, TWO_PI * 3.0), 3), params
        )
        offsets = TWO_PI * np.array([-3.0, -1.0, 0.0, 0.5, 2.0, 7.0, 11.0])
        rhos, residuals = solve_stack(lindblad._listed(generator), offsets)
        shift = laser_shift(excitations(3))
        for offset, rho, residual in zip(offsets, rhos, residuals):
            single, single_residual = solve_stack(
                lindblad._listed(generator + np.diag(offset * shift)), np.zeros(1)
            )
            assert np.array_equal(rho, single[0])
            assert residual == pytest.approx(single_residual[0], rel=1e-6, abs=1e-14)

    def test_singular_slice_is_located(self, monkeypatch):
        # Coherences between different N that neither decay nor rotate are stationary at zero
        # offset only; one batch, then one point to a batch.
        same_n = laser_shift(excitations(1)) == 0.0
        generator = lindblad._listed(trace_kernel_generator(basis_projector(4, 0), same_n))
        for stack_bytes in (lindblad.STACK_BYTES, 1):
            monkeypatch.setattr(lindblad, "STACK_BYTES", stack_bytes)
            with pytest.raises(NonUniqueSteadyStateError, match="singular") as caught:
                solve_stack(generator, np.array([1.0, 2.0, 0.0, -1.0, 0.0]))
            assert caught.value.index == 2

    def test_non_positive_slice_is_located(self, monkeypatch):
        # The kernel's coherence 0.6 / |1 - i d| exceeds the populations' 0.5 for |d| < 0.66.
        v = np.zeros((4, 4), dtype=complex)
        v[:2, :2] = [[0.5, 0.6], [0.6, 0.5]]
        generator = lindblad._listed(trace_kernel_generator(v, np.ones(16)))
        rhos, _ = solve_stack(generator, np.array([2.0, -1.0]))
        assert np.linalg.eigvalsh(rhos).min() > -1e-15
        for stack_bytes in (lindblad.STACK_BYTES, 1):
            monkeypatch.setattr(lindblad, "STACK_BYTES", stack_bytes)
            with pytest.raises(NumericalError, match="negative eigenvalue") as caught:
                solve_stack(generator, np.array([2.0, -1.0, 0.5, 0.0]))
            assert caught.value.index == 2

    @settings(max_examples=60)
    @given(
        g=st.floats(0.0, 20.0),
        kappa=st.floats(0.5, 30.0),
        gamma=st.floats(0.1, 2.0),
        gamma_d=st.floats(0.0, 3.0),
        delta=st.floats(-100.0, 100.0),
        n_max=st.integers(1, 6),
        target=st.sampled_from(DriveTarget),
        transfer=st.booleans(),
        offsets_ghz=st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=5),
        stack_bytes=st.sampled_from([1, 1 << 13, 1 << 15, lindblad.STACK_BYTES]),
    )
    # The oracle's raw SVD null vector missed this state by 1.2e-12 in the dot coherence.
    @example(
        g=0.0, kappa=13.75, gamma=0.125, gamma_d=0.0, delta=25.0, n_max=4,
        target=DriveTarget.QD, transfer=False, offsets_ghz=[0.0], stack_bytes=1,
    )
    def test_states_mirror_their_plus_m_half_and_match_the_oracle(
        self, g, kappa, gamma, gamma_d, delta, n_max, target, transfer, offsets_ghz, stack_bytes
    ):
        # Only the +m sectors and the centre are solved; each -m sector is filled as the
        # conjugate transpose, so outside m = 0 the mirror holds bit for bit.
        params = random_system(g, kappa, gamma, gamma_d, delta, transfer)
        centre = params.omega_d if target is DriveTarget.QD else params.omega_c
        drive = DriveSpec(target=target, omega_l=centre, omega_rabi=TWO_PI * 1.0)
        generator = build_liouvillian(build_hamiltonian(params, drive, n_max), params)
        number = excitations(n_max)
        shift = laser_shift(number)
        offsets = TWO_PI * np.array(offsets_ghz)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lindblad, "STACK_BYTES", stack_bytes)
            rhos, _ = solve_stack(lindblad._listed(generator), offsets)
        outside = np.rint(shift.imag).reshape(number.size, number.size) != 0.0
        sectors = lindblad._Sectors(lindblad._listed(generator))
        raw = sectors.solve(offsets).reshape(rhos.shape)
        for offset, rho, solved in zip(offsets, rhos, raw):
            assert np.array_equal(rho.T[outside], rho[outside].conj())
            assert np.array_equal(solved.T[outside], solved[outside].conj())
            oracle = steady_state_oracle(generator + np.diag(offset * shift))
            np.testing.assert_allclose(rho, oracle, rtol=0.0, atol=1e-12)

    def test_corrupted_mirror_block_trips_the_residual_guard(self, monkeypatch):
        # The solve never reads a -m block; the residual guard applies every gathered block, so a
        # generator that breaks L(rho^+) = L(rho)^+ fails there.  Four points to a batch.
        monkeypatch.setattr(lindblad, "STACK_BYTES", 1 << 15)
        params = make_system(g=5.0, kappa=2.0, gamma=0.5, gamma_d=0.5)
        generator = build_liouvillian(
            build_hamiltonian(params, cavity_drive(params.omega_c, TWO_PI * 3.0), 3), params
        )
        number = excitations(3)
        shift = laser_shift(number)
        offsets = TWO_PI * np.array([-300.0, 200.0, -150.0, 100.0, 0.0, 5.0, -40.0])
        rhos, _ = solve_stack(lindblad._listed(generator), offsets)

        # The coupling g of rho_{g0,e0} into the equation of rho_{g0,g1}, both in sector m = -1.
        dim = number.size
        row = basis_index(0, 0, 3) * dim + basis_index(0, 1, 3)
        col = basis_index(0, 0, 3) * dim + basis_index(1, 0, 3)
        assert shift[row] == shift[col] == -1j
        bad = generator.copy()
        bad[row, col] *= 1.0 + 1e-6
        # Independently: the first point whose state the corrupted generator does not annihilate.
        ratios = []
        for offset, rho in zip(offsets, rhos):
            shifted = bad + np.diag(offset * shift)
            ratios.append(np.linalg.norm(shifted @ rho.reshape(-1)) / np.linalg.norm(shifted))
        first = int(np.flatnonzero(np.array(ratios) > lindblad.STEADY_RESIDUAL_TOL)[0])
        assert first == 4
        with pytest.raises(NumericalError, match="residual") as caught:
            solve_stack(lindblad._listed(bad), offsets)
        assert caught.value.index == first

    def test_corrupted_centre_block_trips_the_hermiticity_guard(self, monkeypatch):
        # Scaling the coupling of rho_{e0,e0} into the equation of rho_{g1,e0}, and not its
        # mirror into rho_{e0,g1}, makes the centre's solve non-Hermitian by about 2e-3 of the
        # excited population.  Four points to a batch, so the first affected point opens the second.
        monkeypatch.setattr(lindblad, "STACK_BYTES", 1 << 15)
        params = make_system(g=5.0, kappa=2.0, gamma=0.5, gamma_d=0.5)
        generator = build_liouvillian(
            build_hamiltonian(params, cavity_drive(params.omega_c, TWO_PI * 3.0), 3), params
        )
        offsets = TWO_PI * np.array([-300.0, 200.0, -150.0, 100.0, 0.0, 5.0, -40.0])
        dim = excitations(3).size
        excited = basis_index(1, 0, 3)
        row = basis_index(0, 1, 3) * dim + excited
        col = excited * dim + excited
        # Independently: the excited population stays below 1e-6 before point 4 and tops 0.05 there.
        shift = laser_shift(excitations(3))
        populations = [
            steady_state_oracle(generator + np.diag(offset * shift))[excited, excited].real
            for offset in offsets
        ]
        assert max(populations[:4]) < 1e-6 < 0.05 < populations[4]
        gather = lindblad._Sectors.__init__

        def corrupted(self, listed):
            gather(self, listed)
            r, c = np.searchsorted(self.parts[self.centre], [row, col])
            assert r != c and self.blocks[self.centre, self.centre][r, c] != 0.0
            self.blocks[self.centre, self.centre][r, c] *= 1.0 + 1e-3

        monkeypatch.setattr(lindblad._Sectors, "__init__", corrupted)
        with pytest.raises(NonUniqueSteadyStateError, match="not Hermitian") as caught:
            solve_stack(lindblad._listed(generator), offsets)
        assert caught.value.index == 4

    @settings(max_examples=40)
    @given(
        g=st.floats(0.0, 20.0),
        kappa=st.floats(0.5, 30.0),
        gamma=st.floats(0.1, 2.0),
        gamma_d=st.floats(0.0, 3.0),
        delta=st.floats(-100.0, 100.0),
        n_max=st.integers(1, 6),
        target=st.sampled_from(DriveTarget),
        transfer=st.booleans(),
        rabi_ghz=st.floats(0.0, 50.0),
    )
    def test_generator_couples_only_neighbouring_sectors(
        self, g, kappa, gamma, gamma_d, delta, n_max, target, transfer, rabi_ghz
    ):
        # The sector solve's premise: only the drive changes m = N_i - N_j, and by one.
        params = random_system(g, kappa, gamma, gamma_d, delta, transfer)
        drive = DriveSpec(target=target, omega_l=params.omega_c, omega_rabi=TWO_PI * rabi_ghz)
        generator = build_liouvillian(build_hamiltonian(params, drive, n_max), params)
        sector = laser_shift(excitations(n_max)).imag
        rows, cols = np.nonzero(generator)
        steps = np.abs(sector[rows] - sector[cols])
        assert steps.max() <= 1.0 + 1e-9
        assert (steps.max() > 0.5) == (rabi_ghz > 0.0)


def random_hermitian_stack(seed, k, dim):
    rng = np.random.default_rng(seed)
    mat = rng.normal(size=(k, dim, dim)) + 1j * rng.normal(size=(k, dim, dim))
    return 0.5 * (mat + mat.conj().transpose(0, 2, 1))


class TestPopulations:
    @settings(max_examples=60)
    @given(n_max=st.integers(1, 15), k=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_populations_match_dense_traces_bit_for_bit(self, n_max, k, seed):
        # The weights are the basis' integer numbers: a number operator assembled as a^+ a holds
        # sqrt(n)**2, which misses n = 3 by an ulp.
        qd, n = basis_integers(n_max)
        rhos = random_hermitian_stack(seed, k, qd.size)
        populations = lindblad._populations(rhos)
        traces = expectations(rhos, [np.diag(n), np.diag(qd)]).real
        assert populations.shape == traces.shape == (k, 2)
        assert populations.tobytes() == traces.tobytes()
        for j in range(k):
            assert lindblad._populations(rhos[j : j + 1]).tobytes() == populations[j].tobytes()

    def test_populations_allocate_less_than_the_stack_they_read(self):
        # Two batched O @ rho products, one per number, would allocate twice the stack.
        rhos = random_hermitian_stack(0, 61, 28)
        tracemalloc.start()
        try:
            lindblad._populations(rhos)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < rhos.nbytes


def ghz(section, key, lo, hi):
    """Values in ``[lo, hi]`` GHz that the range ``config._KEYS`` declares for the key accepts."""
    accepts = _KEYS[section][key][1][0]
    return st.floats(lo, hi).filter(accepts)


def relative_change(a, b):
    """Worst change between occupations, relative to the larger with an absolute floor of 1e-6."""
    return float((np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)).max())


SCAN_SYSTEMS = dict(
    g=ghz("system", "g_ghz", 0.0, 20.0),
    kappa=ghz("system", "kappa_ghz", 0.5, 30.0),
    gamma=ghz("system", "gamma_ghz", 0.1, 2.0),
    gamma_d=ghz("system", "gamma_d_ghz", 0.0, 3.0),
    to_cavity=ghz("channels", "transfer_qd_to_cavity_ghz", 0.0, 2.0),
    to_qd=ghz("channels", "transfer_cavity_to_qd_ghz", 0.0, 2.0),
    rabi=ghz("drive", "rabi_ghz", 0.0, 20.0),
    delta=st.floats(-100.0, 100.0),
    centre=st.floats(-100.0, 100.0),
    span=st.floats(1.0, 200.0),
    points=st.integers(1, 9),
    n_max=st.integers(1, 6),
    target=st.sampled_from(DriveTarget),
)


def scan_twin(g, kappa, gamma, gamma_d, to_cavity, to_qd, rabi, delta, centre, span, points,
              n_max, target, scale=1.0, sign=1.0, roll=0):
    """Occupations of a scan in the frame of the cavity, ``omega_c = 0``, every frequency and
    rate (GHz) times ``scale`` and every detuning and laser frequency times ``sign``, the grid
    listed rolled by ``roll``."""
    params = SystemParams(
        g=TWO_PI * scale * g, kappa=TWO_PI * scale * kappa, gamma=TWO_PI * scale * gamma,
        gamma_d=TWO_PI * scale * gamma_d, omega_c=0.0, omega_d=TWO_PI * scale * sign * delta,
        transfer_qd_to_cavity=TWO_PI * scale * to_cavity,
        transfer_cavity_to_qd=TWO_PI * scale * to_qd,
    )
    drive = DriveSpec(target=target, omega_l=0.0, omega_rabi=TWO_PI * scale * rabi)
    laser = TWO_PI * scale * sign * (centre + span * np.linspace(-0.5, 0.5, points))
    return laser_scan_steady_states(params, drive, n_max, list(np.roll(laser[:: int(sign)], roll)))


class TestScanSymmetries:
    """Exact symmetries of the master equation, checked on the scan path without a second solver.

    Rescaling every rate and frequency by ``s`` rescales the generator, so no state moves.  In
    the basis ``H`` and every jump operator are real, so negating both detunings and the laser's
    gives ``-H`` up to the sign of ``g`` and of the drive, a diagonal unitary: the states are
    conjugated and the occupations stay.  The generator is listed at the grid's middle point
    (``omega_ref``), and each point is a shift from there, so listing the same frequencies in
    another order must move no occupation.
    """

    @settings(max_examples=100)
    @given(scale=st.floats(0.01, 100.0), **SCAN_SYSTEMS)
    def test_rescaling_every_rate_and_frequency_keeps_the_occupations(self, scale, **system):
        assert relative_change(scan_twin(**system), scan_twin(**system, scale=scale)) < 1e-12

    @settings(max_examples=100)
    @given(**SCAN_SYSTEMS)
    def test_mirrored_detunings_reverse_the_occupations(self, **system):
        mirrored = scan_twin(**system, sign=-1.0)
        assert relative_change(scan_twin(**system)[::-1], mirrored) < 1e-12

    @settings(max_examples=100)
    @given(**SCAN_SYSTEMS)
    def test_occupations_do_not_depend_on_the_reference_point(self, **system):
        # Rolled by half its length, the grid lists its middle frequency at its edge and an edge
        # frequency at its middle.
        half = system["points"] // 2
        rolled = scan_twin(**system, roll=-half)
        assert relative_change(np.roll(scan_twin(**system), -half, axis=0), rolled) < 1e-12


class TestSteadyState:
    def test_driven_two_level_inversion(self):
        # Saturation parameter 1 puts a quarter of the population upstairs.
        gamma = TWO_PI * 0.5
        gamma_d = gamma
        p_tilde = 1.0
        omega_rabi = np.sqrt(2.0 * gamma * (gamma + gamma_d) * p_tilde)
        params = make_system(g=0.0, kappa=2.0, gamma=0.5, gamma_d=0.5)
        ham = build_hamiltonian(params, qd_drive(params.omega_d, omega_rabi), n_max=1)
        result = steady_state(build_liouvillian(ham, params))
        assert result.observables["n_qd"] == pytest.approx(0.25, abs=1e-10)
        norm = np.linalg.norm(build_liouvillian(ham, params))
        assert result.residual < 1e-9 * max(1.0, norm)

    def test_resonantly_driven_empty_cavity_photon_number(self):
        # A damped driven cavity settles into a coherent state with
        # amplitude (omega_rabi/2)/kappa on resonance.
        kappa = TWO_PI * 2.0
        omega_rabi = 0.2 * kappa
        params = make_system(g=0.0, kappa=2.0, gamma=0.5)
        ham = build_hamiltonian(params, cavity_drive(params.omega_c, omega_rabi), n_max=4)
        result = steady_state(build_liouvillian(ham, params))
        expected = (omega_rabi / (2.0 * kappa)) ** 2
        assert result.observables["n_cavity"] == pytest.approx(expected, rel=1e-8)
        assert abs(result.observables["a"]) == pytest.approx(np.sqrt(expected), rel=1e-6)

    def test_incoherent_transfer_feeds_the_cavity(self):
        params = make_system(g=0.0, kappa=2.0, gamma=0.5)
        drive = qd_drive(params.omega_d, TWO_PI * 0.4)
        ham = build_hamiltonian(params, drive, n_max=1)
        dark = steady_state(build_liouvillian(ham, params))
        assert dark.observables["n_cavity"] == pytest.approx(0.0, abs=1e-12)
        fed_params = make_system(g=0.0, kappa=2.0, gamma=0.5, to_cavity=0.1)
        fed = steady_state(build_liouvillian(ham, fed_params))
        assert fed.observables["n_cavity"] > 1e-4

    def test_closed_system_rejected(self):
        # Without any collapse channel the kernel is degenerate: every
        # mixture of energy eigenprojectors is stationary.
        params = make_system(g=5.0, kappa=2.0, gamma=0.5)
        ham = build_hamiltonian(params, qd_drive(params.omega_d, 0.0), n_max=1)
        with pytest.raises(NumericalError):
            steady_state(assemble_liouvillian(ham, []))

    def test_two_photon_drive_outside_the_band_matches_the_oracle(self):
        # a^2 + a^+2 moves m = N_i - N_j by two, so no block-tridiagonal split in m holds.
        params = make_system(g=5.0, kappa=2.0, gamma=0.5, gamma_d=0.5)
        n_max = 3
        sigma = lift_qd(qd_lowering(), n_max)
        a = lift_cavity(annihilation(n_max), n_max)
        ham = build_hamiltonian(params, qd_drive(params.omega_d, TWO_PI * 1.0), n_max)
        ham = ham + TWO_PI * 0.5 * (a @ a + dagger(a) @ dagger(a))
        terms = [
            (2.0 * params.kappa, a),
            (2.0 * params.gamma, sigma),
            (2.0 * params.gamma_d, dagger(sigma) @ sigma),
        ]
        lv = assemble_liouvillian(ham, terms)
        result = steady_state(lv)
        np.testing.assert_allclose(result.rho, steady_state_oracle(lv), rtol=0.0, atol=1e-12)

    def test_steady_density_matrix_is_physical(self):
        params = make_system(g=10.0, kappa=20.0, gamma=0.5, gamma_d=1.5, delta=-69.0)
        ham = build_hamiltonian(params, qd_drive(params.omega_d, TWO_PI * 2.0), n_max=2)
        result = steady_state(build_liouvillian(ham, params))
        rho = result.rho
        assert np.linalg.norm(rho - dagger(rho)) < 1e-10
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.eigvalsh(rho).min() > -1e-8
        for key in ("n_cavity", "n_qd"):
            value = result.observables[key]
            assert isinstance(value, float)
            assert value >= 0.0


class TestEvolve:
    """The package's generator, integrated in time by the independent RK4 of ``helpers``."""

    def test_cavity_population_decays_at_energy_rate(self):
        kappa = TWO_PI * 2.0
        params = make_system(g=0.0, kappa=2.0, gamma=0.5)
        ham = build_hamiltonian(params, cavity_drive(params.omega_c, 0.0), n_max=2)
        lv = build_liouvillian(ham, params)
        rho0 = basis_projector(6, basis_index(0, 1, 2))
        times = np.array([0.05, 0.1, 0.2, 0.4])
        states = rk4_states(lv, rho0, times, dt_max=1e-3)
        traces = [float(np.trace(rho).real) for rho in states]
        number = lift_cavity(dagger(annihilation(2)) @ annihilation(2), 2)
        for t, rho, trace in zip(times, states, traces):
            population = float(np.real(np.trace((rho / trace) @ number)))
            assert population == pytest.approx(np.exp(-2.0 * kappa * t), rel=1e-8)
        assert max(abs(trace - 1.0) for trace in traces) < 1e-9

    def test_long_evolution_reaches_the_steady_state(self):
        params = make_system(g=5.0, kappa=2.0, gamma=0.5, gamma_d=0.5)
        ham = build_hamiltonian(params, qd_drive(params.omega_d, TWO_PI * 1.0), n_max=3)
        lv = build_liouvillian(ham, params)
        target = steady_state(lv).rho
        t_final = 20.0 / (TWO_PI * 0.5)
        (rho,) = rk4_states(lv, ground_state_density(3), [t_final], dt_max=1.0)
        assert np.linalg.norm(rho / np.trace(rho).real - target) < 1e-12

    def test_closed_system_preserves_purity(self):
        g = TWO_PI * 5.0
        params = make_system(g=5.0, kappa=2.0, gamma=0.5)
        ham = build_hamiltonian(params, qd_drive(params.omega_d, 0.0), n_max=2)
        lv = assemble_liouvillian(ham, [])
        rho0 = basis_projector(6, basis_index(1, 0, 2))
        times = np.linspace(4.0 / g, 100.0 / g, 25)
        for rho in rk4_states(lv, rho0, times, dt_max=0.004 / g):
            assert abs(purity(rho / np.trace(rho).real) - 1.0) < 1e-8


class TestSteadyStateValidation:
    def test_non_positive_kernel_is_a_numerical_error(self):
        # L x = v tr(x) - x has the single kernel vector v: Hermitian, unit
        # trace, with a negative eigenvalue.
        kernel = np.diag([1.2, -0.2]).astype(complex).reshape(-1)
        matrix = np.outer(kernel, np.eye(2).reshape(-1)) - np.eye(4)
        with pytest.raises(NumericalError, match="negative eigenvalue"):
            steady_state(matrix.astype(complex))


class TestTruncationCheck:
    def test_undriven_system_converges_with_no_change(self):
        params = make_system(g=5.0, kappa=2.0, gamma=0.5, gamma_d=0.5)
        converged, change = truncation_check(params, qd_drive(params.omega_d, 0.0), n_max=2)
        assert converged
        assert change == 0.0

    def test_weak_drive_converges(self):
        params = make_system(g=10.0, kappa=20.0, gamma=0.5, gamma_d=1.5, delta=-200.0)
        gamma, gamma_d = params.gamma, params.gamma_d
        omega_rabi = np.sqrt(2.0 * gamma * (gamma + gamma_d) * 5.0)
        converged, change = truncation_check(params, qd_drive(params.omega_d, omega_rabi), n_max=4)
        assert converged
        assert change < 1e-8

    def test_strong_cavity_drive_flags_small_cutoffs(self):
        params = make_system(g=5.0, kappa=2.0, gamma=0.5)
        drive = cavity_drive(params.omega_c, TWO_PI * 8.0)
        for n_max in (2, 3):
            converged, change = truncation_check(params, drive, n_max=n_max)
            assert not converged
            assert change > 0.1
