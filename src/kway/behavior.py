"""Conditional-probability behaviors over N binary inputs and the signaling witness.

A behavior is the full table P(a | x_1 ... x_N) for one binary output a and
N binary inputs.  Only P(1|x) is stored; P(0|x) = 1 - P(1|x).  Input strings
are indexed as integers with x_1 as the least significant bit.  A Behavior is
valid by construction: it checks its own table, so no consumer re-checks it.
"""
from __future__ import annotations

from dataclasses import dataclass

PROB_TOL = 1e-12  # entries this near [0, 1] are clamped into it; helstrom's priors sum to 1 within it


class BehaviorError(ValueError):
    """Invalid behavior table or query count."""


@dataclass(frozen=True)
class Behavior:
    """P(1|x) for every input string x of N binary inputs, stored as a tuple of
    floats; N >= 1, 2^N entries and each one in [0, 1], or BehaviorError."""

    n_locations: int
    p1: tuple

    def __post_init__(self):
        n = self.n_locations
        if n < 1:
            raise BehaviorError("need at least one location")
        p1 = tuple(map(float, self.p1))
        # compared by bit length first, so that a large n builds no 2^n
        if len(p1).bit_length() != n + 1 or len(p1) != 1 << n:
            raise BehaviorError(f"table must have 2^N entries for N = {n}, got {len(p1)}")
        for p in p1:
            if not 0.0 <= p <= 1.0:  # NaN fails
                raise BehaviorError(f"probability out of range: {p!r}")
        object.__setattr__(self, "p1", p1)

    @classmethod
    def from_table(cls, n: int, p1) -> "Behavior":
        """Build a behavior, first clamping entries within PROB_TOL of [0, 1] into it."""
        vals = map(float, p1)
        return cls(n, tuple(min(1.0, max(0.0, p)) if -PROB_TOL <= p <= 1.0 + PROB_TOL else p for p in vals))


def eval_B(behavior: Behavior) -> float:
    """Witness value -P(1|0...0) + sum_i P(1|e_i).

    At most N-1 for any behavior explainable by reading fewer than N inputs.
    """
    p = behavior.p1
    return -p[0] + sum(p[1 << i] for i in range(behavior.n_locations))


def classical_win_bound(n: int, k: int) -> float:
    """Best winning probability reachable by reading k of the N inputs, in the
    game with prior 1/2 on the all-zero input and 1/(2N) on each one-hot input."""
    if n < 1:
        raise BehaviorError("need at least one location")
    if not 0 <= k <= n:
        raise BehaviorError(f"query count k={k} must lie in [0, {n}]")
    return 0.5 * (1.0 + k / n)
