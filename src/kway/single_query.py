"""Single-query protocol: spatial superposition, phase encoding, Helstrom test.

A single particle is prepared in a uniform superposition over N spatial
modes; location i imprints a phase e^{i phi_i x_i} on mode i.  Distinguishing
the all-zero encoding (rho_0, prior 1/(N+1)) from the average of the N
one-hot encodings (rho_1, prior N/(N+1)) with the optimal binary measurement
yields a witness value N - 1 + delta; delta > 0 certifies genuine N-way
signaling.

delta is computed by two independent routes:

* delta_numeric, for any PhasePattern: (N+1)(p1 rho_1 - p0 rho_0) has at
  most one negative eigenvalue, the root of one scalar equation in sums
  over the G distinct phases.  A pattern holds its phases as runs, so the
  groups, and delta, cost O(runs), not O(N);
* delta_closed_form, for the half/half +-phi pattern: the analytic spectrum,
  a bulk eigenvalue of multiplicity N-2 and a 2x2 block, whose delta is one
  product in x = sin^2(phi/2) with a single sign factor, good to 2.5e-14
  relative up to N = 10^6 away from the threshold.

The dense operators of build_discrimination_pair, rho_0 = J/N and the
closed form of rho_1's entries, serve helstrom, whose projector pi1 onto
the positive part of the gap is the measurement, and induced_behavior,
which reads the table off pi1.  The tests check both delta routes against
a dense eigensolve of the operators averaged one outer product at a time.

Note: the commonly quoted violation threshold cos(phi) > (N(N-6)+5)/(N^2-2N+3)
for odd N does not match the analytic spectrum; the sign factor of the
closed form gives cos(phi) > (N-5)/(N-3) for odd N > 3 and a violation at
every phi in (0, pi] at N = 3.  violation_threshold returns the sharp
values, which delta_numeric confirms.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .behavior import PROB_TOL, Behavior
from .linalg import eigh

ZERO_EIG_TOL = 1e-10  # helstrom assigns gap eigenvalues at or below this to pi0
# build_discrimination_pair allocates N x N complex operators, 16 N^2 bytes each.
MAX_N_DENSE = 2048
# delta_numeric holds O(G) values for G distinct phases, two for the half/half pattern at
# any N; the cap keeps the range of N that `violation` and `scan` accept.
MAX_N_STRUCTURED = 1_000_000
# induced_behavior holds the 2^N encoded states, 16 N 2^N bytes.
MAX_N_TABLE = 16


def _canonical(phase) -> float:
    """The phase in (-pi, pi]."""
    p = float(phase)
    if not math.isfinite(p):
        raise ValueError("the phase must be a finite number")
    if not -math.pi < p <= math.pi:
        # atan2 reduces by the exact 2 pi; fmod by the float 2 pi errs by |p| 3.9e-17
        p = math.atan2(math.sin(p), math.cos(p))
    return math.pi if p == -math.pi else p


@dataclass(frozen=True, init=False)
class PhasePattern:
    """Oracle phases in location order, held as runs ((phase, count), ...).

    Each phase is canonicalized to (-pi, pi], and adjacent locations with
    equal phases share one run.  PhasePattern(phases) takes one phase per
    location; PhasePattern(runs=...) takes (phase, count) pairs.
    """

    runs: tuple

    def __init__(self, phases=None, *, runs=None):
        if (phases is None) == (runs is None):
            raise ValueError("give either phases or runs")
        if runs is None:
            runs = ((p, 1) for p in phases)
        merged = []
        for phase, count in runs:
            p, m = _canonical(phase), operator.index(count)
            if m < 0:
                raise ValueError("run lengths must be non-negative")
            if merged and merged[-1][0] == p:
                merged[-1][1] += m
            elif m:
                merged.append([p, m])
        object.__setattr__(self, "runs", tuple((p, m) for p, m in merged))

    @property
    def phases(self) -> tuple:
        """One phase per location: O(N), for the dense routes only."""
        return tuple(p for p, m in self.runs for _ in range(m))

    def __len__(self):
        return sum(m for _, m in self.runs)

    @classmethod
    def half_half(cls, n: int, phi: float) -> "PhasePattern":
        """ceil(N/2) locations at +phi, the remaining floor(N/2) at -phi."""
        k = n // 2
        return cls(runs=((phi, n - k), (-phi, k)))


def build_discrimination_pair(n: int, pattern: PhasePattern):
    """(p0, rho_0, p1, rho_1): all-zero encoding vs averaged one-hot encodings.

    The all-zero encoding is the uniform state, so rho_0 = 1/N everywhere.
    With z_j = e^{i phi_j}, averaging the N one-hot encodings gives
    rho_1 = 1/N on the diagonal and (N - 2 + z_j + conj(z_k))/N^2 off it.
    """
    if n < 2:
        raise ValueError("need at least two locations")
    if n > MAX_N_DENSE:
        raise ValueError(f"dense construction capped at N={MAX_N_DENSE}")
    if len(pattern) != n:
        raise ValueError("pattern length must equal N")
    # each entry of rho_0 = |psi_0><psi_0| is the squared uniform amplitude,
    # which for most N rounds differently from 1/N
    amp = 1.0 / math.sqrt(n)
    rho0 = np.full((n, n), amp * amp, dtype=complex)
    z = np.exp(1j * np.array(pattern.phases))
    # z_j + conj(z_k) first keeps rho_1 exactly Hermitian
    rho1 = ((n - 2) + (z[:, None] + z.conj()[None, :])) / (n * n)
    np.fill_diagonal(rho1, 1.0 / n)
    return 1.0 / (n + 1), rho0, n / (n + 1), rho1


def helstrom(p0: float, rho0: np.ndarray, p1: float, rho1: np.ndarray):
    """Optimal binary discrimination: (max win probability, pi1).

    One eigendecomposition of the gap p1 rho1 - p0 rho0 gives both:
    max_pw = (1 + sum |lambda|)/2, and the projector pi1, which answers 1,
    onto the eigenvectors with lambda > ZERO_EIG_TOL.  The measurement's
    other element is pi0 = I - pi1, the null space included.
    """
    if not (abs(p0 + p1 - 1.0) <= PROB_TOL and p0 >= 0 and p1 >= 0):  # NaN fails
        raise ValueError("priors must be a probability pair")
    if rho0.shape != rho1.shape:
        raise ValueError("density operators must share a dimension")
    lam, vecs = eigh(p1 * rho1 - p0 * rho0)
    max_pw = 0.5 * (1.0 + float(np.sum(np.abs(lam))))
    pos = vecs[:, lam > ZERO_EIG_TOL]
    return max_pw, pos @ pos.conj().T


def delta_numeric(n: int, pattern: PhasePattern) -> float:
    """Witness violation of the Helstrom measurement, from one scalar equation.

    With G phase groups of sizes m_g, w_g = 1 - e^{i phi_g} and d_g = |w_g|^2,
    N (N+1)(p1 rho_1 - p0 rho_0) = diag(d) + [1 w] [[N - 1, -1], [-1, 0]] [1 w]^H
    is a PSD diagonal plus a rank-2 term of inertia (1, 1), so its one negative
    eigenvalue, if any, is -N delta = -mu*: the root of the decreasing Schur
    complement g(mu) = 1 - mu A - |1 - B|^2/A, with A = sum_g m_g/(d_g + mu)
    and B = sum_g m_g w_g/(d_g + mu) (Golub, SIAM Rev. 15, 1973).  A group with
    d_g = 0 (phase 0, or |phi| < 1.6e-162) makes g(0+) <= 1 - m_g <= 0.  Newton
    from 0, bisecting [0, N] (delta <= 1) when a step leaves it, is within
    1.4e-14 relative of a 50-digit reference on the half/half pattern up to
    N = 10^6, 1e-3 or more from the threshold.
    """
    if n < 2:
        raise ValueError("need at least two locations")
    if n > MAX_N_STRUCTURED:
        raise ValueError(f"structured route capped at N={MAX_N_STRUCTURED}")
    if len(pattern) != n:
        raise ValueError("pattern length must equal N")
    groups = {}
    for p, m in pattern.runs:
        groups[p] = groups.get(p, 0) + m
    terms = []  # (d_g, w_g, m_g) by ascending phase, so the sums do not depend on the order of the runs
    for p in sorted(groups):
        d = 4 * math.sin(p / 2) ** 2
        if d == 0.0:
            return 0.0
        terms.append((d, complex(d / 2, -math.sin(p)), groups[p]))
    lo, hi, mu = 0.0, float(n), 0.0
    while True:
        a = sum(m / (d + mu) for d, _, m in terms)
        c = (sum(m * w / (d + mu) for d, w, m in terms) - 1) / a
        g = 1 - a * (mu + abs(c) ** 2)  # = 1 - mu A - |1 - B|^2/A
        if not g > 0 and mu == 0.0:  # g decreases, so it has no root: no negative eigenvalue
            return 0.0
        lo, hi = (mu, hi) if g > 0 else (lo, mu)
        # Newton's step, with g'(mu) = -sum_g m_g |w_g - c|^2/(d_g + mu)^2
        step = mu + g / sum(m * abs(w - c) ** 2 / (d + mu) / (d + mu) for d, w, m in terms)
        # N stays in reach until g(N) is known: the root is N itself at N = 2, phi = pi
        if step != mu and not (lo < step < hi or step == hi == n):
            step = 0.5 * (lo + hi)
        if step in (mu, lo) or step == hi < n:
            return mu / n
        mu = step


def _sign_factor(n: int):
    """(q0, q1): the half/half delta has the sign of Q = q0 - q1 sin^2(phi/2),
    N - (N-2)^2 x for even N and (N-1)(1 - (N-3)x) for odd N."""
    return n - n % 2, (n - 2) ** 2 - n % 2


def delta_closed_form(n: int, phi: float) -> float:
    """Analytic delta for the half/half +-phi pattern, N >= 2.

    With x = sin^2(phi/2), a = N - 1 - 4x and f = 1 (even N) or 1 - 1/N^2
    (odd N), (N+1)(p1 rho_1 - p0 rho_0) is (4x/N) I plus a 2x2 block with
    diagonal (a, 0) and off-diagonal squared 16x(1-x)f, so delta is the
    positive part of w/2 - 4x/N, w = r - a, r = sqrt(a^2 + 16x(1-x)f), which
    is Q w / (N (2Nf(1-x) + w)).  No factor but Q is negative or cancels
    (w = 16x(1-x)f/(r + a) for a > 0), so Q's sign is the regime; the error
    is at most 2.5e-14 relative of a 50-digit reference for N <= 10^6 and x
    at least 1% from the threshold x* = q0/q1.
    """
    if n < 2:
        raise ValueError("closed form defined for N >= 2")
    x = math.sin(phi / 2) ** 2
    q0, q1 = _sign_factor(n)
    q = q0 - q1 * x
    if q <= 0:
        return 0.0
    f = 1 - (n % 2) / (n * n)
    a = n - 1 - 4 * x
    k = 16 * x * (1 - x) * f
    r = math.sqrt(a * a + k)
    w = k / (r + a) if a > 0 else r - a
    return q * w / (n * (2 * n * f * (1 - x) + w))


def violation_threshold(n: int) -> float:
    """Sharp lower bound on cos(phi) for delta > 0 with the half/half pattern:
    1 - 2x*, (N(N-6)+4)/(N-2)^2 for even N > 2 and (N-5)/(N-3) for odd N > 3.
    N = 2, 3: every phi in (0, pi] violates (-1 is attained at phi = pi).
    """
    if n < 2:
        raise ValueError("threshold defined for N >= 2")
    q0, q1 = _sign_factor(n)
    return (q1 - 2 * q0) / q1 if q1 else -1.0


def induced_behavior(n: int, pattern: PhasePattern, pi1: np.ndarray) -> Behavior:
    """Device-independent table P(1|x) = Tr(pi1 rho_x) over all 2^N encodings.

    Row x of the (2^N x N) matrix psi is the encoded state of input x.
    """
    if len(pattern) != n:
        raise ValueError("pattern length must equal N")
    if n > MAX_N_TABLE:
        raise ValueError(f"behavior tables capped at N={MAX_N_TABLE}")
    if pi1.shape[0] != n:
        raise ValueError("measurement dimension must equal N")
    bits = (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1
    psi = np.exp(1j * bits * np.array(pattern.phases)) / math.sqrt(n)
    table = np.einsum("xi,xi->x", psi.conj(), psi @ pi1.T).real
    return Behavior.from_table(n, table.tolist())


def delta_max(n: int):
    """(phi*, delta*) maximizing the violation over phi on (0, pi].

    Where delta > 0 it is (r - a)/2 - 4x/N (see delta_closed_form), so its
    stationary points solve a - 2f(1 - 2x) = (1 - 2/N) r.  Squared and
    scaled by N^4 that is c2 x^2 + c1 x + c0 = 0 with integer coefficients,
    linear for even N.  The maximum is at x = 1 or at a root in [0, 1]; a
    root that squaring added only loses the comparison.  For N <= 10^6,
    phi* is within 1.3e-16 relative of a 60-digit argmax.
    """
    if n < 2:
        raise ValueError("need N >= 2")
    big_f, g2 = n * n - n % 2, (n - 2) ** 2  # N^2 f and N^2 (1 - 2/N)^2
    l0, l1 = n * n * (n - 1) - 2 * big_f, 4 * (big_f - n * n)  # N^2 (a - 2f(1 - 2x)) = l0 + l1 x
    # (l0 + l1 x)^2 - g2 (N^2 a^2 + 16 N^2 f x (1 - x)) in powers of x
    c2, c1, c0 = l1 * (l1 + 4 * g2), 2 * l0 * (l1 + 4 * g2), l0 * l0 - g2 * (n * (n - 1)) ** 2
    disc, xs = c1 * c1 - 4 * c2 * c0, [1.0]
    if disc >= 0:
        s = -0.5 * (c1 + math.copysign(math.sqrt(disc), c1))  # cancellation-free root pair
        xs += ([c0 / s] if s else []) + ([s / c2] if c2 else [])
    phis = [2 * math.asin(math.sqrt(x)) for x in xs if 0.0 <= x <= 1.0]
    return max(((phi, delta_closed_form(n, phi)) for phi in phis), key=lambda pair: pair[1])
