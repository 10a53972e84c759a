"""Conditional-probability behaviors over N binary inputs and the signaling witness.

A behavior is the full table P(a | x_1 ... x_N) for one binary output a and
N binary inputs.  Only P(1|x) is stored; P(0|x) = 1 - P(1|x).  Input strings
are indexed as integers with x_1 as the least significant bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

PROB_TOL = 1e-12  # entries this near [0, 1] are clamped into it; priors sum to 1 within it


class BehaviorError(ValueError):
    """Invalid behavior table or game specification."""


def one_hot(i: int) -> int:
    """Integer encoding of the input string with x_i = 1 and all others 0 (1-based i)."""
    return 1 << (i - 1)


@dataclass(frozen=True)
class Behavior:
    """P(1|x) for every input string x of N binary inputs."""

    n_locations: int
    p1: tuple

    @classmethod
    def from_table(cls, n: int, p1) -> "Behavior":
        """Validate and build a behavior; probabilities within PROB_TOL of [0,1] are clamped."""
        if n < 1:
            raise BehaviorError("need at least one location")
        vals = [float(p) for p in p1]
        if len(vals) != 2 ** n:
            raise BehaviorError(f"table must have {2**n} entries, got {len(vals)}")
        clamped = []
        for p in vals:
            if not math.isfinite(p) or p < -PROB_TOL or p > 1.0 + PROB_TOL:
                raise BehaviorError(f"probability out of range: {p!r}")
            clamped.append(min(1.0, max(0.0, p)))
        return cls(n, tuple(clamped))

    def prob1(self, x: int) -> float:
        return self.p1[x]

    def prob(self, a: int, x: int) -> float:
        return self.p1[x] if a == 1 else 1.0 - self.p1[x]


@dataclass(frozen=True)
class GameSpec:
    """Priors over the N+1 relevant inputs: index 0 is the all-zero string, index i the one-hot e_i.

    Inputs with two or more ones are assigned prior zero.
    """

    n_locations: int
    priors: tuple

    def __post_init__(self):
        if len(self.priors) != self.n_locations + 1:
            raise BehaviorError("need one prior per relevant input")
        if any(p < 0 for p in self.priors):
            raise BehaviorError("priors must be nonnegative")
        if abs(sum(self.priors) - 1.0) > PROB_TOL:
            raise BehaviorError("priors must sum to 1")

    @classmethod
    def uniform_settings(cls, n: int) -> "GameSpec":
        """All N+1 relevant inputs equally likely."""
        return cls(n, tuple([1.0 / (n + 1)] * (n + 1)))

    @classmethod
    def half_priors(cls, n: int) -> "GameSpec":
        """All-zero input with prior 1/2; the N one-hot inputs sharing the other half."""
        return cls(n, (0.5,) + tuple([0.5 / n] * n))

    def win_prob(self, behavior: Behavior) -> float:
        """Probability of outputting 0 on the all-zero input and 1 on a one-hot input."""
        if behavior.n_locations != self.n_locations:
            raise BehaviorError("behavior/game size mismatch")
        total = self.priors[0] * behavior.prob(0, 0)
        for i in range(1, self.n_locations + 1):
            total += self.priors[i] * behavior.prob1(one_hot(i))
        return total


def eval_B(behavior: Behavior) -> float:
    """Witness value -P(1|0...0) + sum_i P(1|e_i).

    At most N-1 for any behavior explainable by reading fewer than N inputs.
    """
    n = behavior.n_locations
    return -behavior.prob1(0) + sum(behavior.prob1(one_hot(i)) for i in range(1, n + 1))


def win_prob_game1(behavior: Behavior) -> float:
    """Winning probability with all N+1 settings uniformly distributed.

    Satisfies eval_B = -1 + (N+1) * win_prob_game1 identically.
    """
    return GameSpec.uniform_settings(behavior.n_locations).win_prob(behavior)


def win_prob_game2(behavior: Behavior) -> float:
    """Winning probability with priors 1/2 on the all-zero input, 1/2 spread over one-hots."""
    return GameSpec.half_priors(behavior.n_locations).win_prob(behavior)


def classical_win_bound(n: int, k: int) -> float:
    """Best game-2 winning probability reachable by reading k of the N inputs."""
    if not 0 <= k <= n:
        raise BehaviorError(f"query count k={k} must lie in [0, {n}]")
    return 0.5 * (1.0 + k / n)
