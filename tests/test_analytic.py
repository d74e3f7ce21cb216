"""Closed-form resonance, linewidth and drive-response expressions."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cqed_scope.analytic import (
    LinewidthModelParams,
    cavity_feeding_estimate,
    combined_linewidth,
    polariton_frequencies,
    power_broadened_linewidth,
)
from cqed_scope.model import TWO_PI, SystemParams

from helpers import coupled_mode_matrix

OMEGA_REF = TWO_PI * 320_000.0  # generic near-infrared carrier (rad/ns)


def make_system(g, kappa, gamma, gamma_d=0.0, delta=0.0, omega_c=OMEGA_REF):
    """All rate arguments in GHz; detuning is dot minus cavity."""
    return SystemParams(
        g=TWO_PI * g,
        kappa=TWO_PI * kappa,
        gamma=TWO_PI * gamma,
        gamma_d=TWO_PI * gamma_d,
        omega_c=omega_c,
        omega_d=omega_c + TWO_PI * delta,
    )


physical_rates = st.floats(min_value=0.01, max_value=80.0)


class TestPolaritonFrequencies:
    def test_matches_independent_eigensolve(self):
        rng = np.random.default_rng(314)
        worst = 0.0
        for _ in range(200):
            params = make_system(
                g=rng.uniform(0.0, 50.0),
                kappa=rng.uniform(0.01, 50.0),
                gamma=rng.uniform(0.01, 50.0),
                gamma_d=rng.uniform(0.0, 50.0),
                delta=rng.uniform(-500.0, 500.0),
            )
            pair = polariton_frequencies(params)
            exact = np.linalg.eigvals(coupled_mode_matrix(params))
            exact = sorted(exact, key=lambda z: (z.real, z.imag))
            ours = sorted([pair.omega_minus, pair.omega_plus], key=lambda z: (z.real, z.imag))
            scale = max(abs(exact[0]), abs(exact[1]))
            worst = max(
                worst,
                abs(ours[0] - exact[0]) / scale,
                abs(ours[1] - exact[1]) / scale,
            )
        assert worst < 1e-12

    @given(physical_rates, physical_rates, physical_rates, physical_rates,
           st.floats(min_value=-300.0, max_value=300.0))
    def test_sum_conserves_total_frequency_and_decay(self, g, kappa, gamma, gamma_d, delta):
        params = make_system(g, kappa, gamma, gamma_d, delta)
        pair = polariton_frequencies(params)
        total = pair.omega_plus + pair.omega_minus
        expected = (params.omega_c + params.omega_d) - 1j * (params.kappa + params.gamma)
        assert abs(total - expected) <= 1e-12 * abs(expected)

    @given(physical_rates, physical_rates, physical_rates,
           st.floats(min_value=-300.0, max_value=300.0))
    def test_both_branches_decay(self, g, kappa, gamma, delta):
        pair = polariton_frequencies(make_system(g, kappa, gamma, 0.0, delta))
        assert pair.omega_plus.imag <= 1e-12
        assert pair.omega_minus.imag <= 1e-12

    @given(physical_rates, physical_rates, st.floats(min_value=-300.0, max_value=300.0))
    @example(kappa=2.0, gamma=0.5, delta=-40.0)
    @example(kappa=1.0, gamma=0.01, delta=20.0)  # the coupled formula missed the dot by an ulp
    @example(kappa=20.0, gamma=0.5, delta=0.0)
    def test_uncoupled_limit_returns_bare_modes(self, kappa, gamma, delta):
        params = make_system(g=0.0, kappa=kappa, gamma=gamma, delta=delta)
        pair = polariton_frequencies(params)
        dot = complex(params.omega_d, -params.gamma)
        cavity = complex(params.omega_c, -params.kappa)
        assert {pair.omega_plus, pair.omega_minus} == {dot, cavity}

    def test_resonant_splitting(self):
        # On resonance the mode splitting is 2*sqrt(g^2 - (kappa-gamma)^2/4).
        params = make_system(g=10.0, kappa=2.0, gamma=1.0, delta=0.0)
        pair = polariton_frequencies(params)
        split = pair.omega_plus.real - pair.omega_minus.real
        expected = 2.0 * math.sqrt((TWO_PI * 10.0) ** 2 - (TWO_PI * 0.5) ** 2)
        assert split == pytest.approx(expected, rel=1e-12)
        # Equal decay admixture on resonance.
        assert pair.omega_plus.imag == pytest.approx(pair.omega_minus.imag, rel=1e-9)

    def test_branch_near_picks_the_closer_resonance(self):
        params = make_system(g=5.0, kappa=2.0, gamma=0.1, delta=-100.0)
        pair = polariton_frequencies(params)
        near_dot = pair.branch_near(params.omega_d)
        near_cavity = pair.branch_near(params.omega_c)
        assert abs(near_dot.real - params.omega_d) < abs(near_dot.real - params.omega_c)
        assert abs(near_cavity.real - params.omega_c) < abs(near_cavity.real - params.omega_d)
        assert near_dot != near_cavity

    def test_branch_near_tells_resonant_branches_apart_by_width(self):
        # Weak coupling on resonance: both branches sit at omega_c, one 1.4 GHz and one
        # 39.6 GHz wide, so only the complex distance finds the cavity-like line.
        params = make_system(g=2.0, kappa=20.0, gamma=0.5, delta=0.0)
        pair = polariton_frequencies(params)
        cavity_like = pair.branch_near(complex(params.omega_c, -params.kappa))
        dot_like = pair.branch_near(complex(params.omega_d, -params.gamma))
        assert -2.0 * cavity_like.imag / TWO_PI == pytest.approx(39.585, rel=1e-4)
        assert -2.0 * dot_like.imag / TWO_PI == pytest.approx(1.415, rel=1e-3)


class TestCavityFeedingEstimate:
    def test_hand_computed_value(self):
        # 2 * 20^3 / 200^2 = 0.4 GHz.
        estimate = cavity_feeding_estimate(TWO_PI * 20.0, TWO_PI * 200.0)
        assert estimate / TWO_PI == pytest.approx(0.4, rel=1e-12)

    def test_even_in_detuning(self):
        plus = cavity_feeding_estimate(TWO_PI * 20.0, TWO_PI * 200.0)
        minus = cavity_feeding_estimate(TWO_PI * 20.0, -TWO_PI * 200.0)
        assert plus == minus

    @pytest.mark.parametrize("kappa, delta", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0)])
    def test_domain_guards(self, kappa, delta):
        with pytest.raises(ValueError):
            cavity_feeding_estimate(kappa, delta)


class TestPowerBroadenedLinewidth:
    def test_zero_drive_width(self):
        width = power_broadened_linewidth(TWO_PI * 0.5, TWO_PI * 1.5, 0.0)
        assert width / TWO_PI == pytest.approx(4.0, rel=1e-15)

    def test_doubles_at_saturation_parameter_three(self):
        base = power_broadened_linewidth(TWO_PI * 0.5, TWO_PI * 1.5, 0.0)
        assert power_broadened_linewidth(TWO_PI * 0.5, TWO_PI * 1.5, 3.0) == pytest.approx(
            2.0 * base, rel=1e-14
        )

    @pytest.mark.parametrize(
        "gamma, gamma_d, p_tilde", [(0.0, 0.0, 1.0), (1.0, -1.0, 1.0), (1.0, 0.0, -1.0)]
    )
    def test_domain_guards(self, gamma, gamma_d, p_tilde):
        with pytest.raises(ValueError):
            power_broadened_linewidth(gamma, gamma_d, p_tilde)


class TestLinewidthModel:
    def test_from_system_hand_computed(self):
        model = LinewidthModelParams.from_system(
            make_system(10.0, 20.0, 0.5, 1.5, delta=200.0), alpha=0.5
        )
        assert model.delta_omega_c / TWO_PI == pytest.approx(0.1, rel=1e-12)
        assert model.delta_omega_0 / TWO_PI == pytest.approx(4.0, rel=1e-12)
        assert model.alpha == 0.5

    def test_from_system_uncoupled_dot_has_no_cavity_term(self):
        model = LinewidthModelParams.from_system(
            make_system(0.0, 20.0, 0.5, 1.5, delta=0.0), alpha=0.5
        )
        assert model.delta_omega_c == 0.0

    def test_from_system_dot_width_approaches_the_exact_branch_far_detuned(self):
        # At delta/g = 40 the quartic correction is tiny: the dispersive dot width agrees with
        # the exact eigenvalue to 0.1%.
        params = make_system(g=2.0, kappa=1.0, gamma=0.02, gamma_d=2.0, delta=80.0)
        width = combined_linewidth(LinewidthModelParams.from_system(params, alpha=1.0), 0.0)
        exact_branch = polariton_frequencies(params).branch_near(params.omega_d)
        exact_width = -2.0 * exact_branch.imag + 2.0 * params.gamma_d
        assert width == pytest.approx(exact_width, rel=1e-3)

    def test_from_system_rejects_coupled_resonant_case(self):
        with pytest.raises(ValueError):
            LinewidthModelParams.from_system(make_system(10.0, 20.0, 0.5, delta=0.0), alpha=0.5)

    def test_combined_linewidth_hand_computed(self):
        # 12.6 + 1.96 * sqrt(1 + 2*4) = 12.6 + 1.96*3 GHz.
        model = LinewidthModelParams(
            delta_omega_c=TWO_PI * 12.6, delta_omega_0=TWO_PI * 1.96, alpha=2.0
        )
        assert combined_linewidth(model, 4.0) / TWO_PI == pytest.approx(18.48, rel=1e-12)
        assert combined_linewidth(model, 0.0) / TWO_PI == pytest.approx(14.56, rel=1e-12)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"delta_omega_c": -1.0, "delta_omega_0": 1.0, "alpha": 1.0},
            {"delta_omega_c": 1.0, "delta_omega_0": -1.0, "alpha": 1.0},
            {"delta_omega_c": 1.0, "delta_omega_0": 1.0, "alpha": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            LinewidthModelParams(**kwargs)
