"""Multi-query protocol: Grover iteration with pi-phase oracles.

With k queries, each location encodes its bit as a pi-phase shift and Alice
applies the inversion-about-mean unitary U = 2|psi0><psi0| - 1 after each
query.  The all-zero input leaves the uniform state fixed; a one-hot input at
i rotates the state toward |i> by the usual Grover angle.  The final states
are discriminated with the Helstrom measurement at equal priors and compared
against the best k-query classical strategy, 1/2 (1 + k/N).
"""
from __future__ import annotations

import math
import sys
from typing import Optional

from .behavior import classical_win_bound

MAX_CURVE_ROWS = 10_000
TIE_TOL = 1e-12  # success probabilities this close tie, and a tie goes to fewer queries


def grover_angle(n: int) -> float:
    """theta with sin(theta/2) = 1/sqrt(N)."""
    return 2.0 * math.asin(1.0 / math.sqrt(n))


def optimal_query_count(n: int) -> int:
    """Query count maximizing the success amplitude sin^2((2k+1) theta/2).

    Not the game's win probability P_W: at N = 256 this returns k = 12 with
    N(1 - P_W) = 0.623, where k = 13 gives 0.391.  The amplitude peaks at
    k = pi/(2 theta) - 1/2, so the optimum is one of the two integers around
    it (at least 1); amplitudes within TIE_TOL tie, and a tie goes to fewer
    queries.  Blind rounding of pi sqrt(N)/4 can miss (N = 4 is exactly
    solved at k = 1).
    """
    if n < 2:
        raise ValueError("need N >= 2")
    theta = grover_angle(n)
    low = max(1, math.floor(math.pi / (2.0 * theta) - 0.5))
    amp_low, amp_high = (math.sin((2 * k + 1) * theta / 2.0) ** 2 for k in (low, low + 1))
    return low if amp_low >= amp_high - TIE_TOL else low + 1


def quantum_win_prob(n: int, k: int) -> float:
    """Helstrom value (1 + ||rho1 - rho0||_1 / 2)/2 at equal priors, in closed form.

    Equals (1 + sin^2(k theta))/2 with sin(theta/2) = 1/sqrt(N): each final
    state is cos(k theta) psi0 plus sin(k theta) times a unit vector
    orthogonal to psi0, and these orthogonal parts average to the maximally
    mixed state on the complement of psi0.
    """
    if n < 2 or k < 0:
        raise ValueError("need N >= 2 and k >= 0")
    return 0.5 * (1.0 + math.sin(k * grover_angle(n)) ** 2)


def speedup_curve(n: int, k_max: Optional[int] = None):
    """Rows (n, k, p_quantum, p_classical, p_quantum - p_classical), k = 0 .. k_max in [0, N].

    At most MAX_CURVE_ROWS rows; the default k_max is optimal_query_count(N).
    """
    if not 2 <= n <= sys.float_info.max:  # exact for any int, however large
        raise ValueError(f"need 2 <= N <= {sys.float_info.max:.3g}")
    if k_max is None:
        k_max = optimal_query_count(n)
    if not 0 <= k_max <= n:
        raise ValueError(f"k_max must lie in [0, N], got k_max={k_max}, N={n}")
    if k_max >= MAX_CURVE_ROWS:
        raise ValueError(f"a curve is capped at {MAX_CURVE_ROWS} rows, so k_max <= {MAX_CURVE_ROWS - 1}")
    curve = [(k, quantum_win_prob(n, k), classical_win_bound(n, k)) for k in range(k_max + 1)]
    return [(n, k, pq, pc, pq - pc) for k, pq, pc in curve]
