"""Operator construction on the truncated two-level/photon product space."""

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from cqed_scope.hilbert import (
    POSITIVITY_SLACK,
    annihilation,
    basis_index,
    basis_numbers,
    dagger,
    identity,
    lift_cavity,
    lift_qd,
    qd_lowering,
    validate_density_matrix,
)

from helpers import ground_state_density, random_density_matrix


class TestAnnihilation:
    def test_matrix_elements_are_square_roots(self):
        op = annihilation(3)
        expected = np.zeros((4, 4))
        for n in range(1, 4):
            expected[n - 1, n] = np.sqrt(n)
        np.testing.assert_allclose(op, expected, rtol=0, atol=0)

    def test_commutator_is_identity_below_the_cutoff(self):
        # Truncation shows up only in the last diagonal entry, which absorbs
        # minus the cutoff occupancy.
        n_max = 5
        op = annihilation(n_max)
        comm = op @ dagger(op) - dagger(op) @ op
        expected = np.eye(n_max + 1)
        expected[-1, -1] = -n_max
        np.testing.assert_allclose(comm, expected, atol=1e-12)

    def test_number_operator_diagonal(self):
        op = annihilation(4)
        number = dagger(op) @ op
        np.testing.assert_allclose(np.diag(number), np.arange(5), atol=1e-12)

    @pytest.mark.parametrize("bad", [0, -1])
    def test_cutoff_must_be_positive(self, bad):
        with pytest.raises(ValueError):
            annihilation(bad)


class TestQdLowering:
    def test_lowers_excited_to_ground(self):
        op = qd_lowering()
        np.testing.assert_allclose(op, np.array([[0.0, 1.0], [0.0, 0.0]]))
        # sigma^dagger sigma projects onto the excited state.
        np.testing.assert_allclose(dagger(op) @ op, np.diag([0.0, 1.0]))


class TestTensorAndLifts:
    def test_dagger_is_conjugate_transpose_and_involutive(self):
        rng = np.random.default_rng(5)
        mat = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        np.testing.assert_allclose(dagger(mat), mat.conj().T)
        np.testing.assert_allclose(dagger(dagger(mat)), mat)

    def test_lifts_use_the_dot_as_slow_index(self):
        left = np.array([[1.0, 2.0], [3.0, 4.0]])
        right = np.array([[0.0, 5.0], [6.0, 7.0]])
        prod = lift_qd(left, 1) @ lift_cavity(right, 1)
        assert prod.shape == (4, 4)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for l in range(2):
                        assert prod[i * 2 + j, k * 2 + l] == left[i, k] * right[j, l]

    def test_identity(self):
        np.testing.assert_allclose(identity(3), np.eye(3))

    def test_basis_index_enumerates_photons_fastest(self):
        n_max = 2
        expected = {
            (0, 0): 0,
            (0, 1): 1,
            (0, 2): 2,
            (1, 0): 3,
            (1, 1): 4,
            (1, 2): 5,
        }
        for (qd, photon), index in expected.items():
            assert basis_index(qd, photon, n_max) == index

    def test_basis_numbers_are_the_integers_basis_index_places(self):
        for n_max in (1, 2, 13):
            qd, photon = basis_numbers(n_max)
            assert qd.dtype.kind == photon.dtype.kind == "i"
            indices = [basis_index(int(q), int(n), n_max) for q, n in zip(qd, photon)]
            assert indices == list(range(2 * (n_max + 1)))

    def test_lifted_qd_lowering_preserves_photon_number(self):
        n_max = 2
        dim = 2 * (n_max + 1)
        op = lift_qd(qd_lowering(), n_max)
        for photon in range(n_max + 1):
            excited = np.zeros(dim)
            excited[basis_index(1, photon, n_max)] = 1.0
            lowered = op @ excited
            expected = np.zeros(dim)
            expected[basis_index(0, photon, n_max)] = 1.0
            np.testing.assert_allclose(lowered, expected)

    def test_lifted_annihilation_preserves_qd_state(self):
        n_max = 2
        dim = 2 * (n_max + 1)
        op = lift_cavity(annihilation(n_max), n_max)
        for qd in (0, 1):
            state = np.zeros(dim)
            state[basis_index(qd, 2, n_max)] = 1.0
            result = op @ state
            expected = np.zeros(dim)
            expected[basis_index(qd, 1, n_max)] = np.sqrt(2.0)
            np.testing.assert_allclose(result, expected)

    def test_lifted_operators_commute_across_subsystems(self):
        n_max = 3
        sigma = lift_qd(qd_lowering(), n_max)
        a = lift_cavity(annihilation(n_max), n_max)
        np.testing.assert_allclose(sigma @ a, a @ sigma, atol=1e-12)


class TestGroundStateDensity:
    def test_is_vacuum_projector(self):
        n_max = 3
        rho = ground_state_density(n_max)
        assert rho.shape == (2 * (n_max + 1),) * 2
        assert rho[0, 0] == 1.0
        assert np.count_nonzero(rho) == 1
        validate_density_matrix(rho)


class TestValidateDensityMatrix:
    def test_accepts_random_states(self):
        rng = np.random.default_rng(11)
        for dim in (2, 4, 6):
            validate_density_matrix(random_density_matrix(rng, dim))

    def test_rejects_non_hermitian(self):
        rho = np.eye(2, dtype=complex) / 2.0
        rho[0, 1] = 0.1
        with pytest.raises(ValueError):
            validate_density_matrix(rho)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            validate_density_matrix(np.eye(2, dtype=complex))

    def test_rejects_negative_population(self):
        rho = np.diag([1.1, -0.1]).astype(complex)
        with pytest.raises(ValueError):
            validate_density_matrix(rho)

    def test_stack_with_one_bad_slice_names_it(self):
        rng = np.random.default_rng(5)
        stack = np.stack([random_density_matrix(rng, 4) for _ in range(5)])
        stack[3] = np.diag([1.1, -0.1, 0.0, 0.0])
        with pytest.raises(ValueError, match="negative eigenvalue -1.000e-01") as caught:
            validate_density_matrix(stack)
        assert caught.value.index == 3
        validate_density_matrix(stack[:3])

    def test_stack_reports_its_first_bad_slice_and_defect(self):
        stack = np.stack([np.eye(2, dtype=complex) / 2.0] * 4)
        stack[1, 0, 1] = 0.1
        stack[2] *= 2.0
        with pytest.raises(ValueError, match="not Hermitian") as caught:
            validate_density_matrix(stack, context="batch")
        assert caught.value.index == 1
        with pytest.raises(ValueError, match="batch: trace") as caught:
            validate_density_matrix(stack[2:], context="batch")
        assert caught.value.index == 0

    @pytest.mark.parametrize(
        "rho, message",
        [
            (
                np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex),
                "ctx: not Hermitian (defect 1.414e-01)",
            ),
            (np.eye(2, dtype=complex), "ctx: trace (2+0j) differs from 1 beyond tolerance"),
            (np.diag([1.1, -0.1]).astype(complex), "ctx: negative eigenvalue -1.000e-01"),
            (np.ones((2, 3), dtype=complex), "ctx: not a square matrix, shape (2, 3)"),
        ],
    )
    def test_single_matrix_messages_are_unchanged(self, rho, message):
        with pytest.raises(ValueError) as caught:
            validate_density_matrix(rho, context="ctx")
        assert str(caught.value) == message
        assert not hasattr(caught.value, "index")

    @pytest.mark.parametrize(
        "rho",
        [
            np.array([[np.nan, 0.0], [0.0, 0.5]], dtype=complex),
            np.array([[0.5, np.nan], [np.nan, 0.5]], dtype=complex),
            np.array([[0.5, 0.0], [0.0, complex(0.5, np.inf)]]),
            np.array([[np.inf, 0.0], [0.0, -np.inf]], dtype=complex),
        ],
    )
    def test_rejects_non_finite_entries(self, rho):
        with pytest.raises(ValueError) as caught:
            validate_density_matrix(rho, context="ctx")
        assert str(caught.value) == "ctx: non-finite entry (nan or inf)"

    def test_stack_names_its_first_non_finite_slice(self):
        rng = np.random.default_rng(7)
        stack = np.stack([random_density_matrix(rng, 4) for _ in range(5)])
        stack[2, 1, 3] = np.nan
        stack[4] = np.diag([1.1, -0.1, 0.0, 0.0])
        with pytest.raises(ValueError, match="non-finite") as caught:
            validate_density_matrix(stack)
        assert caught.value.index == 2

    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(2, 12),
        lowest=st.lists(
            st.one_of(st.floats(-3e-8, 1e-8), st.floats(-0.2, 0.2)), min_size=1, max_size=4
        ),
    )
    @example(seed=0, dim=6, lowest=[-0.9e-8])
    @example(seed=0, dim=6, lowest=[-1.1e-8])
    def test_positivity_verdict_matches_the_lowest_eigenvalue(self, seed, dim, lowest):
        # Each slice is U diag(lowest, rest) U^+ with the rest positive and summing to
        # 1 - lowest; the verdict must follow the eigenvalues of the Hermitian part.
        rng = np.random.default_rng(seed)
        stack = []
        for value in lowest:
            rest = rng.uniform(0.1, 1.0, dim - 1)
            spectrum = np.concatenate([[value], rest * (1.0 - value) / rest.sum()])
            u, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
            rho = (u * spectrum) @ u.conj().T
            stack.append(0.5 * (rho + rho.conj().T))
        stack = np.array(stack)
        reference = np.linalg.eigvalsh(0.5 * (stack + stack.conj().transpose(0, 2, 1)))
        reference = reference.min(axis=1)
        assume(np.all(np.abs(reference + POSITIVITY_SLACK) >= 1e-12))
        negative = np.flatnonzero(reference < -POSITIVITY_SLACK)
        if negative.size == 0:
            validate_density_matrix(stack)
            return
        j = int(negative[0])
        with pytest.raises(ValueError) as caught:
            validate_density_matrix(stack, context="ctx")
        assert str(caught.value) == f"ctx: negative eigenvalue {reference[j]:.3e}"
        assert caught.value.index == j
        if lowest == [-1.1e-8]:
            assert str(caught.value) == "ctx: negative eigenvalue -1.100e-08"
