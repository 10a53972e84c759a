import math

import numpy as np
import pytest
from oracles import dense_delta, loop_discrimination_pair, loop_induced_behavior

from kway.behavior import eval_B
from kway.polytope import is_k_way
from kway.single_query import (
    MAX_N_DENSE,
    MAX_N_STRUCTURED,
    MAX_N_TABLE,
    BinaryPOVM,
    PhasePattern,
    Regime,
    apply_phase_oracle,
    assert_density_operator,
    build_discrimination_pair,
    delta_closed_form,
    delta_max,
    delta_numeric,
    encoded_state,
    helstrom,
    induced_behavior,
    uniform_state,
    violation_threshold,
)

PI = math.pi
MINUS = np.array([1, -1]) / math.sqrt(2)


class TestStatesAndOracle:
    def test_uniform_state_values(self):
        assert np.allclose(uniform_state(2), [1 / math.sqrt(2)] * 2)
        assert np.allclose(uniform_state(1), [1.0])
        assert np.allclose(uniform_state(4), [0.5] * 4)
        with pytest.raises(ValueError):
            uniform_state(0)

    def test_all_zero_bits_leave_state_unchanged(self):
        psi = uniform_state(3)
        out = apply_phase_oracle(psi, [0, 0, 0], PhasePattern((0.3, -1.2, 2.0)))
        assert np.allclose(out, psi)

    def test_pi_phase_flips_marked_mode(self):
        out = encoded_state(2, [1, 0], PhasePattern((PI, PI)))
        assert np.allclose(out, np.array([-1, 1]) / math.sqrt(2))

    def test_perturbed_phase_on_second_mode(self):
        eps = 0.3
        out = encoded_state(2, [0, 1], PhasePattern((PI - eps, PI - eps)))
        expected = np.array([1, np.exp(1j * (PI - eps))]) / math.sqrt(2)
        assert np.allclose(out, expected)

    def test_norm_preserved(self):
        rng = np.random.default_rng(2)
        pattern = PhasePattern(tuple(rng.uniform(-PI, PI, 5)))
        out = encoded_state(5, [1, 0, 1, 1, 0], pattern)
        assert np.sum(np.abs(out) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_phase_oracle(uniform_state(2), [1, 0, 0], PhasePattern((PI, PI)))


class TestPhasePattern:
    def test_canonicalized_to_half_open_interval(self):
        p = PhasePattern((3 * PI, -PI, 2 * PI + 0.5))
        assert p.phases[0] == pytest.approx(PI)
        assert p.phases[1] == pytest.approx(PI)  # -pi maps to +pi
        assert p.phases[2] == pytest.approx(0.5)

    def test_half_half_split(self):
        even = PhasePattern.half_half(4, 1.0)
        assert even.phases == (1.0, 1.0, -1.0, -1.0)
        odd = PhasePattern.half_half(5, 1.0)
        assert odd.phases == (1.0, 1.0, 1.0, -1.0, -1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            PhasePattern((float("nan"),))


class TestDiscriminationPair:
    def test_n2_pi_states_are_orthogonal(self):
        p0, rho0, p1, rho1 = build_discrimination_pair(2, PhasePattern((PI, PI)))
        assert (p0, p1) == (pytest.approx(1 / 3), pytest.approx(2 / 3))
        assert np.allclose(rho1, np.outer(MINUS, MINUS), atol=1e-12)
        assert abs(np.trace(rho0 @ rho1)) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_zero_phases_give_identical_states(self, n):
        _, rho0, _, rho1 = build_discrimination_pair(n, PhasePattern((0.0,) * n))
        assert np.allclose(rho0, rho1, atol=1e-12)

    def test_n3_entries_match_averaging_formula(self):
        pattern = PhasePattern.half_half(3, PI / 2)
        _, _, _, rho1 = build_discrimination_pair(3, pattern)
        n = 3
        phases = np.array(pattern.phases)
        expected = np.empty((n, n), dtype=complex)
        for a in range(n):
            for b in range(n):
                val = n
                if a != b:
                    val += np.exp(1j * phases[a]) + np.exp(-1j * phases[b]) - 2
                expected[a, b] = val / n ** 2
        assert np.allclose(rho1, expected, atol=1e-12)

    def test_outputs_are_density_operators(self):
        rng = np.random.default_rng(4)
        pattern = PhasePattern(tuple(rng.uniform(-PI, PI, 4)))
        _, rho0, _, rho1 = build_discrimination_pair(4, pattern)
        assert_density_operator(rho0)
        assert_density_operator(rho1)

    def test_needs_two_locations(self):
        with pytest.raises(ValueError):
            build_discrimination_pair(1, PhasePattern((PI,)))

    def test_closed_form_entries_match_the_outer_products(self):
        rng = np.random.default_rng(12)
        for n in (2, 3, 7, 64, 300):
            for pattern in (PhasePattern(tuple(rng.uniform(-PI, PI, n))), PhasePattern.half_half(n, 2.0)):
                got, want = build_discrimination_pair(n, pattern), loop_discrimination_pair(n, pattern)
                assert got[0] == want[0] and got[2] == want[2]
                assert np.max(np.abs(got[1] - want[1])) <= 1e-12
                assert np.max(np.abs(got[3] - want[3])) <= 1e-12
                assert np.array_equal(got[3], got[3].conj().T)

    def test_dense_size_cap(self):
        n = MAX_N_DENSE + 1
        with pytest.raises(ValueError, match=f"capped at N={MAX_N_DENSE}"):
            build_discrimination_pair(n, PhasePattern((0.0,) * n))


class TestHelstrom:
    def test_equal_states_guess_the_likelier(self):
        rho = np.outer(MINUS, MINUS)
        pw, _ = helstrom(0.3, rho, 0.7, rho)
        assert pw == pytest.approx(0.7, abs=1e-12)

    def test_n2_pi_perfect_discrimination(self):
        p0, rho0, p1, rho1 = build_discrimination_pair(2, PhasePattern((PI, PI)))
        pw, povm = helstrom(p0, rho0, p1, rho1)
        assert pw == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(povm.pi1, np.outer(MINUS, MINUS), atol=1e-10)

    def test_maximally_mixed_vs_uniform_projector(self):
        # the one-query multi-query pair at N = 4
        psi0 = uniform_state(4)
        rho0 = np.outer(psi0, psi0.conj())
        pw, _ = helstrom(0.5, rho0, 0.5, np.eye(4) / 4)
        assert pw == pytest.approx(7 / 8, abs=1e-12)

    def test_povm_achieves_the_bound(self):
        rng = np.random.default_rng(6)
        for n in (2, 3, 5):
            pattern = PhasePattern(tuple(rng.uniform(-PI, PI, n)))
            p0, rho0, p1, rho1 = build_discrimination_pair(n, pattern)
            pw, povm = helstrom(p0, rho0, p1, rho1)
            achieved = p0 * np.trace(povm.pi0 @ rho0).real + p1 * np.trace(povm.pi1 @ rho1).real
            assert achieved == pytest.approx(pw, abs=1e-10)

    def test_invalid_priors_rejected(self):
        rho = np.outer(MINUS, MINUS)
        with pytest.raises(ValueError):
            helstrom(0.4, rho, 0.4, rho)


class TestDeltaNumeric:
    def test_n2_pi_saturates(self):
        assert delta_numeric(2, PhasePattern((PI, PI))) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("n", [2, 3, 4, 7])
    def test_zero_phases_no_violation(self, n):
        assert delta_numeric(n, PhasePattern((0.0,) * n)) == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("eps", [0.1, 0.5, 1.0])
    def test_small_perturbation_law(self, eps):
        d = delta_numeric(2, PhasePattern((PI - eps, PI - eps)))
        assert d == pytest.approx(math.cos(eps), abs=1e-12)

    def test_large_perturbation_clamps_to_zero(self):
        # beyond eps = pi/2 the optimal measurement stops losing: delta = max(cos eps, 0)
        for eps in (2.0, 2.5, 3.0):
            d = delta_numeric(2, PhasePattern((PI - eps, PI - eps)))
            assert d == pytest.approx(0.0, abs=1e-10)

    def test_matches_dense_oracle_on_pattern_kinds(self):
        rng = np.random.default_rng(12)
        worst = 0.0
        for n in range(2, 65):
            kinds = (
                rng.uniform(-PI, PI, n),                          # all phases distinct
                rng.choice(rng.uniform(-PI, PI, 3), n),           # a few repeated phases
                rng.choice([0.0, PI, -PI, 1.0], n),               # 0, +-pi (one phase) and 1
                PhasePattern.half_half(n, rng.uniform(-PI, PI)).phases,
            )
            for phases in kinds:
                pattern = PhasePattern(tuple(phases))
                worst = max(worst, abs(delta_numeric(n, pattern) - dense_delta(n, pattern)))
        assert worst <= 1e-12

    def test_structured_size_cap_and_validation(self):
        with pytest.raises(ValueError, match=f"capped at N={MAX_N_STRUCTURED}"):
            delta_numeric(MAX_N_STRUCTURED + 1, PhasePattern((0.0,)))
        with pytest.raises(ValueError):
            delta_numeric(1, PhasePattern((PI,)))
        with pytest.raises(ValueError):
            delta_numeric(3, PhasePattern((PI, PI)))

    def test_nonnegative_on_random_patterns(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            pattern = PhasePattern(tuple(rng.uniform(-PI, PI, n)))
            assert delta_numeric(n, pattern) >= -1e-10


class TestClosedForm:
    def test_agrees_with_numeric_on_grid(self):
        for n in range(2, 13):
            for phi in np.linspace(0.1, PI, 12):
                d_closed, _ = delta_closed_form(n, phi)
                d_num = delta_numeric(n, PhasePattern.half_half(n, phi))
                assert d_closed == pytest.approx(d_num, abs=1e-9), (n, phi)

    def test_exactly_zero_at_zero_phase(self):
        # bulk eigenvalue and lambda_- are both exactly 0 there
        for n in range(2, 51):
            for phi in (0.0, -0.0, 5e-324):
                d, spec = delta_closed_form(n, phi)
                assert (d, spec.regime) == (0.0, Regime.NO_VIOLATION), (n, phi)

    def test_vanishes_as_phi_goes_to_zero(self):
        for n in (4, 6, 8):
            d, _ = delta_closed_form(n, 1e-4)
            assert 0 <= d < 1e-7

    def test_regime_reported(self):
        _, spec = delta_closed_form(4, PI / 2)
        assert spec.regime is Regime.VIOLATION
        assert spec.a_coef == pytest.approx(1.0)
        _, spec = delta_closed_form(7, math.acos(0.4))
        assert spec.regime is Regime.NO_VIOLATION

    def test_bulk_eigenvalue_and_block_eigenvalues(self):
        n, phi = 5, 1.2
        _, spec = delta_closed_form(n, phi)
        a = n - 3 + 2 * math.cos(phi)
        disc = math.sqrt(a * a + 4 * math.sin(phi) ** 2 * (1 - 1 / n ** 2))
        assert spec.lambda_plus == pytest.approx((a + disc) / 2)
        assert spec.lambda_minus == pytest.approx((a - disc) / 2)
        assert spec.bulk_eigenvalue == pytest.approx((2 / n) * (1 - math.cos(phi)) / (n + 1))
        assert spec.lambda_plus >= spec.lambda_minus

    def test_two_location_algebraic_check_at_pi(self):
        # the even-N expression continues to N=2, phi=pi: A=-3 and delta=1
        n, phi = 2, PI
        a = n - 3 + 2 * math.cos(phi)
        assert a == pytest.approx(-3.0)
        delta = 1.5 - n / 2 - 2 / n + (2 / n) * math.cos(phi) - math.cos(phi) + 0.5 * math.hypot(a, 2 * math.sin(phi))
        assert delta == pytest.approx(1.0, abs=1e-12)

    def test_guard(self):
        with pytest.raises(ValueError):
            delta_closed_form(1, 1.0)


class TestViolationThreshold:
    @pytest.mark.parametrize(
        "n,expected", [(2, -1.0), (3, -1.0), (4, -1.0), (5, 0.0), (6, 0.25), (7, 0.5), (9, 2 / 3)]
    )
    def test_values(self, n, expected):
        assert violation_threshold(n) == pytest.approx(expected)

    def test_guard(self):
        with pytest.raises(ValueError):
            violation_threshold(1)

    @pytest.mark.parametrize("n", range(3, 13))
    def test_sharpness_against_numeric(self, n):
        thr = violation_threshold(n)
        if thr + 0.01 <= 1.0:
            phi = math.acos(thr + 0.01)
            assert delta_numeric(n, PhasePattern.half_half(n, phi)) > 1e-10
        if thr - 0.01 >= -1.0:
            phi = math.acos(thr - 0.01)
            assert delta_numeric(n, PhasePattern.half_half(n, phi)) <= 1e-10

    def test_three_locations_violate_even_at_pi(self):
        d = delta_numeric(3, PhasePattern.half_half(3, PI))
        assert d == pytest.approx(2 / 3, abs=1e-10)


class TestInducedBehavior:
    def helstrom_povm(self, n, pattern):
        p0, rho0, p1, rho1 = build_discrimination_pair(n, pattern)
        _, povm = helstrom(p0, rho0, p1, rho1)
        return povm

    def test_n2_pi_perfect_table(self):
        pattern = PhasePattern((PI, PI))
        b = induced_behavior(2, pattern, self.helstrom_povm(2, pattern))
        # |psi_11> = -|psi_00>, so the last entry matches the first
        assert np.allclose(b.p1, [0.0, 1.0, 1.0, 0.0], atol=1e-10)

    def test_null_effect_gives_all_zero_table(self):
        povm = BinaryPOVM(np.eye(3), np.zeros((3, 3)))
        b = induced_behavior(3, PhasePattern((1.0, 1.0, -1.0)), povm)
        assert b.p1 == (0.0,) * 8

    def test_witness_value_consistent_with_delta(self):
        pattern = PhasePattern.half_half(3, PI / 2)
        b = induced_behavior(3, pattern, self.helstrom_povm(3, pattern))
        d = delta_numeric(3, pattern)
        assert eval_B(b) == pytest.approx(2 + d, abs=1e-9)

    def test_vectorized_table_matches_the_loop(self):
        rng = np.random.default_rng(13)
        for n in (2, 3, 5, 8):
            pattern = PhasePattern(tuple(rng.uniform(-PI, PI, n)))
            povm = self.helstrom_povm(n, pattern)
            got, want = induced_behavior(n, pattern, povm), loop_induced_behavior(n, pattern, povm)
            assert np.max(np.abs(np.subtract(got.p1, want.p1))) <= 1e-12

    def test_table_size_cap(self):
        n = MAX_N_TABLE + 1
        povm = BinaryPOVM(np.eye(2), np.zeros((2, 2)))
        with pytest.raises(ValueError, match=f"capped at N={MAX_N_TABLE}"):
            induced_behavior(n, PhasePattern((0.0,) * n), povm)

    def test_witness_chain_violation_is_not_two_way(self):
        phi, _ = delta_max(3)
        pattern = PhasePattern.half_half(3, phi)
        b = induced_behavior(3, pattern, self.helstrom_povm(3, pattern))
        assert eval_B(b) > 2 + 1e-6
        assert not is_k_way(b, 2, mode="exact").is_member


class TestDeltaMax:
    def test_two_locations(self):
        phi, d = delta_max(2)
        assert phi == pytest.approx(PI, abs=1e-5)
        assert d == pytest.approx(1.0, abs=1e-9)

    def test_three_locations_boundary_maximum(self):
        phi, d = delta_max(3)
        assert phi == pytest.approx(PI, abs=1e-5)
        assert d == pytest.approx(2 / 3, abs=1e-9)

    @pytest.mark.parametrize("n", range(2, 41))
    def test_maximum_against_dense_route_and_grid(self, n):
        phi, d = delta_max(n)
        pattern = PhasePattern.half_half(n, phi)
        assert delta_numeric(n, pattern) == pytest.approx(d, abs=1e-9)
        assert dense_delta(n, pattern) == pytest.approx(d, abs=1e-9)
        grid = np.linspace(0.0, PI, 2002)[1:]  # 2001 phases in (0, pi]
        assert max(delta_closed_form(n, p)[0] for p in grid) <= d + 1e-12

    def test_decreases_with_size(self):
        values = [delta_max(n)[1] for n in range(2, 8)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
        assert values[-1] > 0
