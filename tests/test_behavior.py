import numpy as np
import pytest
from oracles import win_prob_game1, win_prob_game2

from kway.behavior import Behavior, BehaviorError, classical_win_bound, eval_B
from kway.exactlp import support_function
from kway.polytope import MAX_N_LP, fibre_index

PERFECT_N2 = Behavior.from_table(2, [0.0, 1.0, 1.0, 0.0])


def random_behavior(rng, n):
    return Behavior.from_table(n, rng.uniform(0.0, 1.0, 2 ** n))


class TestBehaviorConstruction:
    def test_table_size_checked(self):
        with pytest.raises(BehaviorError):
            Behavior.from_table(2, [0.1, 0.2, 0.3])
        # 2^N is neither built nor printed: from N = 14,285 printing it raised a
        # plain ValueError (the int digit limit), after 1.5 s at N = 10^8
        with pytest.raises(BehaviorError, match="2\\^N entries for N = 1000000000, got 3"):
            Behavior.from_table(10 ** 9, [0.1, 0.2, 0.3])
        # a Behavior built directly checks its own table
        with pytest.raises(BehaviorError):
            Behavior(2, (0.1, 0.2, 0.3))
        with pytest.raises(BehaviorError, match="2\\^N entries for N = 1000000000, got 3"):
            Behavior(10 ** 9, (0.1, 0.2, 0.3))
        with pytest.raises(BehaviorError, match="need at least one location"):
            Behavior(0, (0.5,))

    def test_out_of_range_rejected(self):
        with pytest.raises(BehaviorError):
            Behavior.from_table(1, [0.5, 1.1])
        with pytest.raises(BehaviorError):
            Behavior.from_table(1, [-0.2, 0.5])
        with pytest.raises(BehaviorError):
            Behavior(1, (0.5, 1.1))
        with pytest.raises(BehaviorError):
            Behavior(1, (-0.2, 0.5))
        with pytest.raises(BehaviorError):  # only from_table clamps
            Behavior(1, (1.0 + 5e-13, -5e-13))

    def test_tiny_overshoot_clamped(self):
        b = Behavior.from_table(1, [1.0 + 5e-13, -5e-13])
        assert b.p1 == (1.0, 0.0)


class TestEvalB:
    def test_perfect_n2_saturates_logical_bound(self):
        assert eval_B(PERFECT_N2) == pytest.approx(2.0, abs=1e-12)

    def test_all_zero_behavior(self):
        b = Behavior.from_table(3, [0.0] * 8)
        assert eval_B(b) == 0.0

    def test_all_one_behavior_n3(self):
        b = Behavior.from_table(3, [1.0] * 8)
        assert eval_B(b) == pytest.approx(2.0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_identity_with_game1_and_upper_bound(self, n):
        rng = np.random.default_rng(17 + n)
        for _ in range(50):
            b = random_behavior(rng, n)
            v = eval_B(b)
            assert v == pytest.approx(-1 + (n + 1) * win_prob_game1(b), abs=1e-12)
            assert -1 - 1e-12 <= v <= n + 1e-12


class TestWinProbabilities:
    def test_game1_perfect_discrimination(self):
        assert win_prob_game1(PERFECT_N2) == pytest.approx(1.0)

    def test_game1_random_guess(self):
        b = Behavior.from_table(3, [0.5] * 8)
        assert win_prob_game1(b) == pytest.approx(0.5)

    def test_game1_always_output_one(self):
        b = Behavior.from_table(3, [1.0] * 8)
        assert win_prob_game1(b) == pytest.approx(0.75)

    def test_game2_always_output_zero(self):
        b = Behavior.from_table(3, [0.0] * 8)
        assert win_prob_game2(b) == pytest.approx(0.5)

    def test_game2_perfect_n2(self):
        assert win_prob_game2(PERFECT_N2) == pytest.approx(1.0)

    def test_game2_one_query_strategy_n4(self):
        # read x_1, output it
        b = Behavior.from_table(4, [(x >> 0) & 1 for x in range(16)])
        assert win_prob_game2(b) == pytest.approx(5 / 8)


class TestClassicalBound:
    @pytest.mark.parametrize(
        "n,k,expected", [(4, 1, 0.625), (7, 0, 0.5), (5, 5, 1.0), (10, 4, 0.7)]
    )
    def test_values(self, n, k, expected):
        assert classical_win_bound(n, k) == pytest.approx(expected)

    def test_rejects_k_above_n(self):
        with pytest.raises(BehaviorError):
            classical_win_bound(3, 4)
        with pytest.raises(BehaviorError, match="at least one location"):
            classical_win_bound(0, 0)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_monotone_and_matches_or_strategy(self, n):
        prev = -1.0
        for k in range(n + 1):
            bound = classical_win_bound(n, k)
            assert bound >= prev
            prev = bound
            # deterministic strategy: output 1 iff any of the first k bits is 1
            mask = (1 << k) - 1
            table = [1.0 if (x & mask) else 0.0 for x in range(2 ** n)]
            assert win_prob_game2(Behavior.from_table(n, table)) == pytest.approx(bound)

    @pytest.mark.parametrize("n", range(1, MAX_N_LP + 1))
    def test_is_the_polytope_support_at_the_game_witness(self, n):
        """The game's winning probability is (1 + y.p/N)/2, with y = -N at
        0...0 and +1 at each e_i, so its best over the k-way polytope is
        (1 + h(y)/N)/2, with h the exact support function."""
        y = [0] * 2 ** n
        y[0] = -n
        for i in range(n):
            y[1 << i] = 1
        for k in range(1, n + 1):
            h = support_function(y, fibre_index(n, k))
            assert h == k
            assert classical_win_bound(n, k) == (1 + float(h) / n) / 2
