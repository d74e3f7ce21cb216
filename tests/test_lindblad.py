"""Open-system generator: construction, steady states and time evolution."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqed_scope.errors import IntegrationError, NumericalError
from cqed_scope.hilbert import (
    annihilation,
    basis_index,
    dagger,
    ground_state_density,
    lift_cavity,
    lift_qd,
    qd_lowering,
)
from cqed_scope.lindblad import (
    assemble_liouvillian,
    build_hamiltonian,
    build_liouvillian,
    evolve,
    laser_scan_liouvillians,
    steady_state,
    truncation_check,
)
from cqed_scope.model import TWO_PI, DriveSpec, DriveTarget, IncoherentChannels, SystemParams

from helpers import basis_projector, purity, random_density_matrix

OMEGA_REF = TWO_PI * 320_000.0


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


class TestBuildLiouvillian:
    def test_full_generator_matches_hand_written_form(self):
        params = make_system(g=4.0, kappa=2.0, gamma=0.5, gamma_d=1.0, delta=-30.0)
        channels = IncoherentChannels(
            transfer_qd_to_cavity=TWO_PI * 0.2, transfer_cavity_to_qd=TWO_PI * 0.05
        )
        n_max = 1
        ham = build_hamiltonian(params, qd_drive(params.omega_d, TWO_PI * 0.7), n_max)
        lv = build_liouvillian(ham, params, channels)

        sigma = lift_qd(qd_lowering(), n_max)
        a = lift_cavity(annihilation(n_max), n_max)
        terms = [
            (2.0 * params.kappa, a),
            (2.0 * params.gamma, sigma),
            (2.0 * params.gamma_d, dagger(sigma) @ sigma),
            (channels.transfer_qd_to_cavity, dagger(a) @ sigma),
            (channels.transfer_cavity_to_qd, dagger(sigma) @ a),
        ]
        rho = random_density_matrix(np.random.default_rng(9), 4)
        action = (lv @ rho.reshape(-1)).reshape(rho.shape)
        np.testing.assert_allclose(action, lindblad_action(ham, terms, rho), atol=1e-10)

    def test_rejects_non_product_space_dimension(self):
        params = make_system(g=1.0, kappa=1.0, gamma=0.5)
        with pytest.raises(ValueError):
            build_liouvillian(np.zeros((3, 3)), params)


class TestLaserScanLiouvillians:
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
    )
    def test_shifted_generators_match_fresh_assembly(
        self, g, kappa, gamma, gamma_d, delta, n_max, target, transfer
    ):
        params = make_system(g=g, kappa=kappa, gamma=gamma, gamma_d=gamma_d, delta=delta)
        channels = IncoherentChannels(
            transfer_qd_to_cavity=TWO_PI * 0.7 * transfer,
            transfer_cavity_to_qd=TWO_PI * 0.3 * transfer,
        )
        centre = params.omega_d if target is DriveTarget.QD else params.omega_c
        drive = DriveSpec(target=target, omega_l=centre, omega_rabi=TWO_PI * 1.0)
        width = 2.0 * (params.kappa + params.gamma + params.gamma_d)
        omegas = [centre + width * step for step in np.linspace(-3.0, 3.0, 9)]

        shifted = list(laser_scan_liouvillians(params, drive, n_max, channels, omegas))
        assert len(shifted) == len(omegas)
        for omega, lv in zip(omegas, shifted):
            ham = build_hamiltonian(params, drive.with_laser_frequency(omega), n_max)
            fresh = build_liouvillian(ham, params, channels)
            assert isinstance(lv, np.ndarray) and lv.shape == fresh.shape
            np.testing.assert_allclose(lv, fresh, rtol=0.0, atol=1e-14 * np.linalg.norm(fresh))
            if omega == omegas[len(omegas) // 2]:
                assert np.array_equal(lv, fresh)


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
        channels = IncoherentChannels(transfer_qd_to_cavity=TWO_PI * 0.1)
        fed = steady_state(build_liouvillian(ham, params, channels))
        assert fed.observables["n_cavity"] > 1e-4

    def test_closed_system_rejected(self):
        # Without any collapse channel the kernel is degenerate: every
        # mixture of energy eigenprojectors is stationary.
        params = make_system(g=5.0, kappa=2.0, gamma=0.5)
        ham = build_hamiltonian(params, qd_drive(params.omega_d, 0.0), n_max=1)
        with pytest.raises(NumericalError):
            steady_state(assemble_liouvillian(ham, []))

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
    def test_cavity_population_decays_at_energy_rate(self):
        kappa = TWO_PI * 2.0
        params = make_system(g=0.0, kappa=2.0, gamma=0.5)
        ham = build_hamiltonian(params, cavity_drive(params.omega_c, 0.0), n_max=2)
        lv = build_liouvillian(ham, params)
        rho0 = basis_projector(6, basis_index(0, 1, 2))
        times = np.array([0.05, 0.1, 0.2, 0.4])
        trajectory = evolve(lv, rho0, t_final=0.4, dt_max=1e-3, sample_times=times)
        number = lift_cavity(dagger(annihilation(2)) @ annihilation(2), 2)
        for t, rho in zip(trajectory.times, trajectory.states):
            population = float(np.real(np.trace(rho @ number)))
            assert population == pytest.approx(np.exp(-2.0 * kappa * t), rel=1e-8)
        assert trajectory.max_trace_drift < 1e-9

    def test_long_evolution_reaches_the_steady_state(self):
        params = make_system(g=5.0, kappa=2.0, gamma=0.5, gamma_d=0.5)
        ham = build_hamiltonian(params, qd_drive(params.omega_d, TWO_PI * 1.0), n_max=3)
        lv = build_liouvillian(ham, params)
        target = steady_state(lv).rho
        t_final = 20.0 / (TWO_PI * 0.5)
        trajectory = evolve(lv, ground_state_density(3), t_final=t_final, dt_max=1.0)
        assert np.linalg.norm(trajectory.states[-1] - target) < 1e-12

    def test_closed_system_preserves_purity(self):
        g = TWO_PI * 5.0
        params = make_system(g=5.0, kappa=2.0, gamma=0.5)
        ham = build_hamiltonian(params, qd_drive(params.omega_d, 0.0), n_max=2)
        lv = assemble_liouvillian(ham, [])
        rho0 = basis_projector(6, basis_index(1, 0, 2))
        times = np.linspace(4.0 / g, 100.0 / g, 25)
        trajectory = evolve(lv, rho0, t_final=float(times[-1]), dt_max=0.004 / g,
                            sample_times=times)
        for rho in trajectory.states:
            assert abs(purity(rho) - 1.0) < 1e-8

    @pytest.mark.parametrize(
        "samples",
        [[-0.1, 0.2], [0.1, 0.1], [0.2, 0.1], [0.1, 0.9]],
    )
    def test_bad_sample_times_rejected(self, samples):
        params = make_system(g=0.0, kappa=2.0, gamma=0.5)
        ham = build_hamiltonian(params, qd_drive(params.omega_d, 0.0), n_max=1)
        lv = build_liouvillian(ham, params)
        with pytest.raises(ValueError):
            evolve(lv, ground_state_density(1), t_final=0.5, dt_max=0.01, sample_times=samples)

    def test_initial_state_dimension_checked(self):
        params = make_system(g=0.0, kappa=2.0, gamma=0.5)
        ham = build_hamiltonian(params, qd_drive(params.omega_d, 0.0), n_max=1)
        lv = build_liouvillian(ham, params)
        with pytest.raises(ValueError):
            evolve(lv, np.eye(6) / 6.0, t_final=0.1, dt_max=0.01)


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
