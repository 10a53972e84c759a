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
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .behavior import classical_win_bound

MAX_N_DENSE = 8192
MAX_CURVE_ROWS = 10_000
TIE_TOL = 1e-12  # success probabilities this close tie, and a tie goes to fewer queries


@dataclass(frozen=True)
class GroverRun:
    n: int
    k: int
    marked: Optional[int] = None  # 1-based location; None = all-zero input

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need N >= 2")
        if self.k < 0:
            raise ValueError("query count must be nonnegative")
        if self.marked is not None and not 1 <= self.marked <= self.n:
            raise ValueError("marked location out of range")


@dataclass(frozen=True)
class ScanRecord:
    n: int
    k: int
    p_quantum: float
    p_classical: float

    @property
    def gap(self) -> float:
        return self.p_quantum - self.p_classical


def grover_angle(n: int) -> float:
    """theta with sin(theta/2) = 1/sqrt(N)."""
    return 2.0 * math.asin(1.0 / math.sqrt(n))


def grover_state_iterative(run: GroverRun) -> np.ndarray:
    """k rounds of (pi-phase oracle, then inversion about mean) on the uniform state."""
    n = run.n
    psi = np.full(n, 1.0 / math.sqrt(n))
    if run.marked is None:
        return psi  # oracle is the identity and U fixes the uniform state
    m = run.marked - 1
    for _ in range(run.k):
        psi = psi.copy()
        psi[m] = -psi[m]
        psi = 2.0 * np.mean(psi) - psi  # inversion about mean, no N x N matrix
    return psi


def grover_state_closed(run: GroverRun) -> np.ndarray:
    """cos((2k+1) theta/2)|i_bar> + sin((2k+1) theta/2)|i>."""
    if run.marked is None:
        raise ValueError("closed form needs a marked location")
    n = run.n
    ang = (2 * run.k + 1) * grover_angle(n) / 2.0
    psi = np.full(n, math.cos(ang) / math.sqrt(n - 1))
    psi[run.marked - 1] = math.sin(ang)
    return psi


def optimal_query_count(n: int) -> int:
    """Query count maximizing the success amplitude sin((2k+1) theta/2).

    Not the game's win probability P_W: at N = 256 this returns k = 12 with
    N(1 - P_W) = 0.623, where k = 13 gives 0.391.  Argmax over k in
    [1, ceil(pi sqrt(N)/4) + 1]; blind rounding of pi sqrt(N)/4 can miss
    (N = 4 is exactly solved at k = 1).
    """
    if n < 2:
        raise ValueError("need N >= 2")
    theta = grover_angle(n)
    k_hi = math.ceil(math.pi * math.sqrt(n) / 4.0) + 1
    ks = range(1, k_hi + 1)
    vals = [math.sin((2 * k + 1) * theta / 2.0) ** 2 for k in ks]
    best = max(vals)
    return next(k for k, v in zip(ks, vals) if v >= best - TIE_TOL)


def grover_rho_pair(n: int, k: int):
    """(rho0, rho1) at k queries: uniform-state projector and the exact
    average of the N marked final states; the dense test oracle."""
    if n > MAX_N_DENSE:
        raise ValueError(f"dense construction capped at N={MAX_N_DENSE}")
    ang = (2 * k + 1) * grover_angle(n) / 2.0
    s = math.sin(ang)
    beta = math.cos(ang) / math.sqrt(n - 1)
    # Column i of psi_mat is the final state for marked location i.
    psi_mat = np.full((n, n), beta)
    np.fill_diagonal(psi_mat, s)
    rho1 = (psi_mat @ psi_mat.T) / n
    rho0 = np.full((n, n), 1.0 / n)
    return rho0, rho1


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
    """ScanRecords (k, quantum, classical) for k = 0 .. k_max, with k_max in [0, N].

    At most MAX_CURVE_ROWS rows; the default k_max = optimal_query_count(N)
    is refused before its search when that search alone would go further.
    """
    if not 2 <= n <= sys.float_info.max:  # exact for any int, however large
        raise ValueError(f"need 2 <= N <= {sys.float_info.max:.3g}")
    if k_max is None:
        if n > (4 * (MAX_CURVE_ROWS - 2) / math.pi) ** 2:  # ceil(pi sqrt(N)/4) + 1 >= MAX_CURVE_ROWS
            raise ValueError(f"the default k_max searches more than {MAX_CURVE_ROWS - 1} query counts")
        k_max = optimal_query_count(n)
    if not 0 <= k_max <= n:
        raise ValueError(f"k_max must lie in [0, N], got k_max={k_max}, N={n}")
    if k_max >= MAX_CURVE_ROWS:
        raise ValueError(f"a curve is capped at {MAX_CURVE_ROWS} rows, so k_max <= {MAX_CURVE_ROWS - 1}")
    return [
        ScanRecord(n, k, quantum_win_prob(n, k), classical_win_bound(n, k))
        for k in range(k_max + 1)
    ]
