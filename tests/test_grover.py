import math

import numpy as np
import pytest
from oracles import grover_rho_pair, grover_state_closed, grover_state_iterative, inversion_about_mean

from kway.grover import (
    MAX_CURVE_ROWS,
    grover_angle,
    optimal_query_count,
    quantum_win_prob,
    speedup_curve,
)


class TestStates:
    def test_no_marked_location_is_a_fixed_point(self):
        for k in (0, 1, 5):
            psi = grover_state_iterative(8, k)
            assert np.allclose(psi, np.full(8, 1 / math.sqrt(8)), atol=1e-14)

    def test_n4_single_query_is_exact(self):
        psi = grover_state_iterative(4, 1, 2)
        assert np.allclose(psi, [0, 1, 0, 0], atol=1e-12)

    def test_zero_queries_returns_uniform(self):
        psi = grover_state_iterative(4, 0, 3)
        assert np.allclose(psi, [0.5] * 4)
        psi = grover_state_closed(4, 0, 3)
        assert np.allclose(psi, [0.5] * 4, atol=1e-14)

    @pytest.mark.parametrize("n", [2, 4, 16, 100])
    def test_iterative_matches_closed_form(self, n):
        rng = np.random.default_rng(n)
        marked = [1, int(rng.integers(1, n + 1))]
        for k in range(0, int(2 * math.sqrt(n)) + 1):
            for i in marked:
                a = grover_state_iterative(n, k, i)
                b = grover_state_closed(n, k, i)
                assert np.max(np.abs(a - b)) <= 1e-12


class TestInversionAboutMean:
    def test_unitary_and_fixed_point(self):
        for n in (2, 5, 16):
            u = inversion_about_mean(n)
            assert np.allclose(u @ u.T, np.eye(n), atol=1e-12)
            psi0 = np.full(n, 1 / math.sqrt(n))
            assert np.allclose(u @ psi0, psi0, atol=1e-12)


class TestOptimalQueryCount:
    @pytest.mark.parametrize("n,expected", [(2, 1), (4, 1), (16, 3), (100, 7)])
    def test_values(self, n, expected):
        assert optimal_query_count(n) == expected

    @pytest.mark.parametrize("n", [2, 4, 10, 64, 100, 333])
    def test_matches_brute_force_overlap(self, n):
        # independent route: simulate and maximize the marked-mode overlap
        k_hi = math.ceil(math.pi * math.sqrt(n) / 4) + 1
        overlaps = []
        for k in range(1, k_hi + 1):
            psi = grover_state_iterative(n, k, 1)
            overlaps.append(psi[0] ** 2)
        best = max(overlaps)
        brute = next(k for k, v in enumerate(overlaps, start=1) if v >= best - 1e-11)
        assert optimal_query_count(n) == brute

    def test_high_success_at_optimum(self):
        n = 100
        k = optimal_query_count(n)
        psi = grover_state_closed(n, k, 1)
        assert psi[0] ** 2 >= 0.99
        # naive rounding of pi*sqrt(N)/4 would give k=8, which does worse
        assert math.sin(17 * grover_angle(n) / 2) ** 2 == pytest.approx(0.9827, abs=1e-4)


class TestWinProbability:
    def test_n4_single_query(self):
        assert quantum_win_prob(4, 1) == pytest.approx(7 / 8, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 8, 50])
    def test_zero_queries_is_a_coin_flip(self, n):
        assert quantum_win_prob(n, 0) == pytest.approx(0.5, abs=1e-12)

    def test_never_below_one_half(self):
        for n in (3, 9, 30):
            for k in range(0, 7):
                assert quantum_win_prob(n, k) >= 0.5 - 1e-12

    def test_dense_eigensolve_matches_closed_form(self):
        # rho1 - rho0 has eigenvalues -sin^2(k theta) on the uniform state and
        # sin^2(k theta)/(N-1) on its complement, so P_W = (1 + sin^2(k theta))/2
        worst = 0.0
        for n in range(2, 65):
            for k in range(0, math.ceil(2 * math.sqrt(n)) + 1):
                rho0, rho1 = grover_rho_pair(n, k)
                dense = 0.5 * (1 + 0.5 * np.sum(np.abs(np.linalg.eigvalsh(rho1 - rho0))))
                worst = max(worst, abs(quantum_win_prob(n, k) - dense))
        assert worst <= 1e-12

    def test_rho_pair_matches_explicit_average(self):
        n, k = 9, 2
        rho0, rho1 = grover_rho_pair(n, k)
        acc = np.zeros((n, n))
        for i in range(1, n + 1):
            psi = grover_state_iterative(n, k, i)
            acc += np.outer(psi, psi)
        assert np.allclose(rho1, acc / n, atol=1e-12)
        psi0 = np.full(n, 1 / math.sqrt(n))
        assert np.allclose(rho0, np.outer(psi0, psi0), atol=1e-14)

    def test_rho1_is_permutation_covariant(self):
        rng = np.random.default_rng(12)
        _, rho1 = grover_rho_pair(6, 2)
        perm = rng.permutation(6)
        assert np.max(np.abs(rho1[np.ix_(perm, perm)] - rho1)) <= 1e-12


class TestSpeedupCurve:
    def test_n4_rows(self):
        rows = speedup_curve(4, 1)
        assert [(n, k, pq, pc) for n, k, pq, pc, _ in rows] == [
            (4, 0, pytest.approx(0.5), pytest.approx(0.5)),
            (4, 1, pytest.approx(0.875), pytest.approx(0.625)),
        ]
        assert rows[1][4] == pytest.approx(0.25)

    def test_zero_row_only(self):
        rows = speedup_curve(16, 0)
        assert len(rows) == 1 and rows[0][2] == pytest.approx(0.5)

    def test_quantum_beats_classical_at_optimum(self):
        for n in (16, 64):
            k = optimal_query_count(n)
            assert quantum_win_prob(n, k) > 0.5 * (1 + k / n)

    def test_n64_quadratic_separation(self):
        # quantum reaches 0.99 within 8 queries; classically that needs k >= 63
        rows = speedup_curve(64, 8)
        assert any(pq >= 0.99 for _, _, pq, _, _ in rows)
        assert all(0.5 * (1 + k / 64) < 0.99 for k in range(63))

    def test_kmax_guard(self):
        for n, k_max in ((4, 5), (16, -1)):
            with pytest.raises(ValueError, match=r"k_max must lie in \[0, N\]"):
                speedup_curve(n, k_max)

    def test_row_cap(self):
        # the largest N whose default k_max, about pi/(2 theta) - 1/2, fits the cap:
        # theta > pi/(2 MAX_CURVE_ROWS), i.e. 1/N > sin^2(pi/(4 MAX_CURVE_ROWS))
        n_top = math.floor(1 / math.sin(math.pi / (4 * MAX_CURVE_ROWS)) ** 2)
        assert optimal_query_count(n_top) == MAX_CURVE_ROWS - 1
        assert len(speedup_curve(n_top)) == MAX_CURVE_ROWS
        assert len(speedup_curve(2 * MAX_CURVE_ROWS, MAX_CURVE_ROWS - 1)) == MAX_CURVE_ROWS
        with pytest.raises(ValueError, match=f"capped at {MAX_CURVE_ROWS} rows"):
            speedup_curve(n_top + 1)
        with pytest.raises(ValueError, match=f"capped at {MAX_CURVE_ROWS} rows"):
            speedup_curve(2 * MAX_CURVE_ROWS, MAX_CURVE_ROWS)

    def test_n_beyond_floats_is_refused(self):
        assert len(speedup_curve(10 ** 300, 3)) == 4
        for n in (1, 10 ** 400):
            with pytest.raises(ValueError, match="need 2 <= N"):
                speedup_curve(n, 3)
