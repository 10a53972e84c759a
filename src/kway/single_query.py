"""Single-query protocol: spatial superposition, phase encoding, Helstrom test.

A single particle is prepared in a uniform superposition over N spatial
modes; location i imprints a phase e^{i phi_i x_i} on mode i.  Distinguishing
the all-zero encoding (rho_0, prior 1/(N+1)) from the average of the N
one-hot encodings (rho_1, prior N/(N+1)) with the optimal binary measurement
yields a witness value N - 1 + delta; delta > 0 certifies genuine N-way
signaling.

delta is computed by two independent routes:

* delta_numeric, for any PhasePattern: (N+1)(p1 rho_1 - p0 rho_0) is a
  diagonal plus a part that depends only on the phases, so grouping the
  locations by phase deflates its spectrum to one eigenvalue per group
  and a G x G Hermitian block for G distinct phases.  A pattern holds its
  phases as runs, so the groups, and delta, cost O(runs), not O(N);
* delta_closed_form, for the half/half +-phi pattern: the analytic spectrum,
  a bulk eigenvalue of multiplicity N-2 and a 2x2 block.

The dense operators of build_discrimination_pair, rho_0 = J/N and the
closed form of rho_1's entries, serve helstrom, whose projector pi1 onto
the positive part of the gap is the measurement, and induced_behavior,
which reads the table off pi1.  The tests check both delta routes against
a dense eigensolve of the operators averaged one outer product at a time.

Note: the commonly quoted violation threshold cos(phi) > (N(N-6)+5)/(N^2-2N+3)
for odd N does not match the analytic spectrum; the condition
|(2/N)(1-cos phi)| < |lambda_-| reduces to cos(phi) > (N-5)/(N-3) for odd
N > 3 and holds for every phi in (0, pi] at N = 3.  violation_threshold
returns the sharp values, which delta_numeric confirms.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .behavior import PROB_TOL, Behavior
from .linalg import eigh, eigvalsh

ZERO_EIG_TOL = 1e-10  # helstrom assigns gap eigenvalues at or below this to pi0
# build_discrimination_pair allocates N x N complex operators (16 N^2 bytes
# each), and delta_numeric a G x G block for G distinct phases.
MAX_N_DENSE = 2048
# delta_numeric holds O(runs) values and the half/half pattern two runs at
# any N; the cap keeps the range of N that `violation` and `scan` accept.
MAX_N_STRUCTURED = 1_000_000
# induced_behavior holds the 2^N encoded states, 16 N 2^N bytes.
MAX_N_TABLE = 16


def _canonical(phase) -> float:
    """The phase in (-pi, pi]."""
    p = float(phase)
    if not math.isfinite(p):
        raise ValueError("phases must be finite")
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
    # z_j + conj(z_k) first, as in delta_numeric, keeps rho_1 exactly Hermitian
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
    """Witness violation of the Helstrom measurement, from the phase groups.

    With z_i = e^{i phi_i}, H = (N+1)(p1 rho_1 - p0 rho_0) = diag(d) + M
    where d_i = |z_i - 1|^2/N and M_ij = (N - 3 + z_i + conj(z_j))/N.
    delta = (||H||_1 - (N - 1))/2 and Tr H = N - 1, so delta is the sum of
    |lambda| over the negative eigenvalues of H.  Group the locations by
    phase, G groups of sizes m_g.  Every vector on one group that sums to
    zero is an eigenvector with eigenvalue d_g >= 0 (m_g - 1 of them); the
    other G eigenvalues are those of the block on the normalised group
    indicators, R_gh = sqrt(m_g m_h)(N - 3 + z_g + conj(z_h))/N + [g = h] d_g
    (the deflation of Golub, SIAM Rev. 15, 1973).  Only R can go negative.
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
    if len(groups) > MAX_N_DENSE:
        raise ValueError(f"phase-group block capped at G={MAX_N_DENSE} distinct phases")
    phases = sorted(groups)  # ascending, so the block does not depend on the order of the runs
    z = [complex(math.cos(p), math.sin(p)) for p in phases]
    root_m = [math.sqrt(groups[p]) for p in phases]
    # z_g + conj(z_h) is exactly conj(z_h + conj(z_g)) in floating point, so r
    # is exactly Hermitian however large N makes its entries.  Scaling by the
    # float 1/N matches numpy's complex division by N bit for bit.
    inv_n = 1.0 / n
    r = [[root_m[g] * root_m[h] * ((n - 3) + (z[g] + z[h].conjugate())) * inv_n for h in range(len(z))]
         for g in range(len(z))]
    for g, p in enumerate(phases):
        t = 2 * math.sin(p / 2)
        r[g][g] += t * t / n
    # the float start keeps delta a float, and 0.0 + -0.0 is 0.0
    return sum((max(-lam, 0.0) for lam in eigvalsh(np.array(r)).tolist()), 0.0)


def delta_closed_form(n: int, phi: float):
    """Analytic (delta, violates) for the half/half +-phi pattern, N >= 2.

    The shifted operator (N+1)(p1 rho_1 - p0 rho_0) - c*I restricted to the
    span of the uniform state and the phase vector is a 2x2 block with
    diagonal A = N - 3 + 2 cos(phi) and off-diagonal sin(phi) (even N) or
    sin(phi) sqrt(1 - 1/N^2) (odd N), where c = (2/N)(1 - cos phi).
    violates is c < |lambda_-|, exactly when delta is positive; at phi = 0
    both are exactly 0, so phi = 0 gives no violation.  At N = 2 the even
    form gives delta = (sqrt(5 - 4 cos phi) - 1)/2, positive for every phi != 0.
    """
    if n < 2:
        raise ValueError("closed form defined for N >= 2")
    c = math.cos(phi)
    s = math.sin(phi)
    a = n - 3 + 2 * c
    off2 = 4 * s * s
    if n % 2 == 1:
        off2 *= 1.0 - 1.0 / (n * n)
    disc = math.sqrt(a * a + off2)
    violates = (2.0 / n) * (1.0 - c) < abs(0.5 * (a - disc))
    delta = 1.5 - n / 2 - 2.0 / n + (2.0 / n) * c - c + 0.5 * disc
    return (delta if violates else 0.0), violates


def violation_threshold(n: int) -> float:
    """Sharp lower bound on cos(phi) for delta > 0 with the half/half pattern.

    Even N > 2: (N(N-6)+4)/(N-2)^2.  Odd N > 3: (N-5)/(N-3).  N = 2, 3:
    every phi in (0, pi] violates (the bound -1 is attained at phi = pi).
    """
    if n < 2:
        raise ValueError("threshold defined for N >= 2")
    if n <= 3:
        return -1.0
    if n % 2 == 0:
        return (n * (n - 6) + 4) / (n - 2) ** 2
    return (n - 5) / (n - 3)


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

    With c = cos(phi), g = 1 - 2/N, a = N - 3 + 2c and f = 1 (even N) or
    1 - 1/N^2 (odd N), the violation branch of delta_closed_form is
    delta(c) = 3/2 - N/2 - 2/N - g c + sqrt(a^2 + 4 f (1 - c^2))/2.  It
    vanishes at phi = 0 and at the threshold, so the maximum is at phi = pi
    or where d delta/dc = 0, i.e. a - 2fc = g sqrt(a^2 + 4 f (1 - c^2)).
    Squared, that is q2 c^2 + q1 c + q0 = 0, linear for even N; its roots
    in [-1, 1] with a - 2fc >= 0 are the stationary points.
    """
    if n < 2:
        raise ValueError("need N >= 2")
    m, g2 = n - 3, (1.0 - 2.0 / n) ** 2
    e = 0.0 if n % 2 == 0 else 1.0 / (n * n)  # 1 - f, so a - 2fc = m + 2ec
    q2 = 4 * e * (e - g2)
    q1 = 4 * m * (e - g2)
    q0 = m * m - g2 * (m * m + 4 * (1 - e))
    disc = q1 * q1 - 4 * q2 * q0
    roots = []
    if disc >= 0:
        # cancellation-free root pair; only q0 / s remains when q2 = 0
        s = -0.5 * (q1 + math.copysign(math.sqrt(disc), q1))
        if s != 0:
            roots.append(q0 / s)
        if q2 != 0:
            roots.append(s / q2)
    cands = [-1.0] + [c for c in roots if -1.0 <= c <= 1.0 and m + 2 * e * c >= 0]
    return max(((math.acos(c), delta_closed_form(n, math.acos(c))[0]) for c in cands),
               key=lambda pair: pair[1])
