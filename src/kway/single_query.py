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
  and a G x G Hermitian block for G distinct phases;
* delta_closed_form, for the half/half +-phi pattern: the analytic spectrum,
  a bulk eigenvalue of multiplicity N-2 and a 2x2 block.

The dense operators of build_discrimination_pair, built from the closed
form of rho_1's entries, serve helstrom and induced_behavior, which need
the measurement itself.  The tests check both delta routes against a
dense eigensolve of the operators averaged one outer product at a time.

Note: the commonly quoted violation threshold cos(phi) > (N(N-6)+5)/(N^2-2N+3)
for odd N does not match the analytic spectrum; the condition
|(2/N)(1-cos phi)| < |lambda_-| reduces to cos(phi) > (N-5)/(N-3) for odd
N > 3 and holds for every phi in (0, pi] at N = 3.  violation_threshold
returns the sharp values, which delta_numeric confirms.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .behavior import PROB_TOL, Behavior
from .linalg import check_hermitian, eigvalsh, positive_eigenspace_projector, trace_norm

OPERATOR_TOL = 1e-10  # density operators and POVM elements pass their checks within this
# build_discrimination_pair allocates N x N complex operators (16 N^2 bytes
# each); delta_numeric holds O(N) floats plus the pattern itself.
MAX_N_DENSE = 2048
MAX_N_STRUCTURED = 1_000_000
# induced_behavior holds the 2^N encoded states, 16 N 2^N bytes.
MAX_N_TABLE = 16


class Regime(enum.Enum):
    NO_VIOLATION = "none"
    VIOLATION = "violation"


@dataclass(frozen=True)
class PhasePattern:
    """Per-location oracle phases, canonicalized to (-pi, pi]."""

    phases: tuple

    def __post_init__(self):
        vals = [float(p) for p in self.phases]
        if not all(math.isfinite(p) for p in vals):
            raise ValueError("phases must be finite")
        canon = []
        for p in vals:
            r = math.fmod(p, 2 * math.pi)
            if r > math.pi:
                r -= 2 * math.pi
            elif r <= -math.pi:
                r += 2 * math.pi
            canon.append(r)
        object.__setattr__(self, "phases", tuple(canon))

    def __len__(self):
        return len(self.phases)

    @classmethod
    def half_half(cls, n: int, phi: float) -> "PhasePattern":
        """ceil(N/2) locations at +phi, the remaining floor(N/2) at -phi."""
        k = n // 2
        plus = n - k
        return cls(tuple([phi] * plus + [-phi] * k))


@dataclass(frozen=True)
class BinaryPOVM:
    """Two-outcome measurement: PSD operators pi0 + pi1 = identity."""

    pi0: np.ndarray
    pi1: np.ndarray

    def __post_init__(self):
        check_hermitian(self.pi0, OPERATOR_TOL)
        check_hermitian(self.pi1, OPERATOR_TOL)
        dim = self.pi0.shape[0]
        if np.max(np.abs(self.pi0 + self.pi1 - np.eye(dim))) > OPERATOR_TOL:
            raise ValueError("POVM elements must sum to the identity")
        for m in (self.pi0, self.pi1):
            if np.min(np.linalg.eigvalsh(m)) < -OPERATOR_TOL:
                raise ValueError("POVM element is not positive semidefinite")


@dataclass(frozen=True)
class ClosedFormSpectrum:
    a_coef: float           # N - 3 + 2 cos(phi)
    lambda_plus: float
    lambda_minus: float
    bulk_eigenvalue: float  # (2/N)(1 - cos phi)/(N+1), multiplicity N-2
    regime: Regime


def assert_density_operator(rho: np.ndarray, tol: float = OPERATOR_TOL):
    check_hermitian(rho, tol)
    if abs(np.trace(rho).real - 1.0) > tol:
        raise ValueError("density operator trace differs from 1")
    if np.min(np.linalg.eigvalsh(rho)) < -tol:
        raise ValueError("density operator is not positive semidefinite")


def uniform_state(n: int) -> np.ndarray:
    if n < 1:
        raise ValueError("need at least one mode")
    return np.full(n, 1.0 / math.sqrt(n), dtype=complex)


def apply_phase_oracle(state: np.ndarray, bits, pattern: PhasePattern) -> np.ndarray:
    """Multiply amplitude n by e^{i phi_n x_n}; norm is preserved."""
    n = len(state)
    if len(bits) != n or len(pattern) != n:
        raise ValueError("state, bits and pattern dimensions must match")
    phases = np.array(pattern.phases) * np.array(bits, dtype=float)
    return state * np.exp(1j * phases)


def encoded_state(n: int, bits, pattern: PhasePattern) -> np.ndarray:
    return apply_phase_oracle(uniform_state(n), bits, pattern)


def build_discrimination_pair(n: int, pattern: PhasePattern):
    """(p0, rho_0, p1, rho_1): all-zero encoding vs averaged one-hot encodings.

    With z_j = e^{i phi_j}, averaging the N one-hot encodings gives
    rho_1 = 1/N on the diagonal and (N - 2 + z_j + conj(z_k))/N^2 off it.
    """
    if n < 2:
        raise ValueError("need at least two locations")
    if n > MAX_N_DENSE:
        raise ValueError(f"dense construction capped at N={MAX_N_DENSE}")
    if len(pattern) != n:
        raise ValueError("pattern length must equal N")
    psi0 = uniform_state(n)
    rho0 = np.outer(psi0, psi0.conj())
    z = np.exp(1j * np.array(pattern.phases))
    # z_j + conj(z_k) first, as in delta_numeric, keeps rho_1 exactly Hermitian
    rho1 = ((n - 2) + (z[:, None] + z.conj()[None, :])) / (n * n)
    np.fill_diagonal(rho1, 1.0 / n)
    return 1.0 / (n + 1), rho0, n / (n + 1), rho1


def helstrom(p0: float, rho0: np.ndarray, p1: float, rho1: np.ndarray):
    """Optimal binary discrimination: (max win probability, optimal POVM).

    max_pw = (1 + ||p1 rho1 - p0 rho0||_1)/2; pi1 projects onto the positive
    eigenspace of p1 rho1 - p0 rho0 (null space assigned to pi0).
    """
    if abs(p0 + p1 - 1.0) > PROB_TOL or p0 < 0 or p1 < 0:
        raise ValueError("priors must be a probability pair")
    if rho0.shape != rho1.shape:
        raise ValueError("density operators must share a dimension")
    gap = p1 * rho1 - p0 * rho0
    max_pw = 0.5 * (1.0 + trace_norm(gap))
    pi1 = positive_eigenspace_projector(gap)
    povm = BinaryPOVM(np.eye(gap.shape[0], dtype=pi1.dtype) - pi1, pi1)
    return max_pw, povm


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
    phases, sizes = np.unique(np.array(pattern.phases), return_counts=True)
    z = np.exp(1j * phases)
    root_m = np.sqrt(sizes)
    # z_g + conj(z_h) is exactly conj(z_h + conj(z_g)) in floating point, so
    # r is exactly Hermitian however large N makes its entries
    r = np.outer(root_m, root_m) * ((n - 3) + (z[:, None] + z.conj()[None, :])) / n
    r[np.diag_indices_from(r)] += (2 * np.sin(phases / 2)) ** 2 / n
    return float(np.sum(np.maximum(-eigvalsh(r), 0.0)))


def delta_closed_form(n: int, phi: float):
    """Analytic (delta, spectrum) for the half/half +-phi pattern, N >= 2.

    The shifted operator (N+1)(p1 rho_1 - p0 rho_0) - c*I restricted to the
    span of the uniform state and the phase vector is a 2x2 block with
    diagonal A = N - 3 + 2 cos(phi) and off-diagonal sin(phi) (even N) or
    sin(phi) sqrt(1 - 1/N^2) (odd N), where c = (2/N)(1 - cos phi).
    delta is positive exactly when c < |lambda_-|; at phi = 0 both are
    exactly 0, so phi = 0 gives no violation.  At N = 2 the even form
    gives delta = (sqrt(5 - 4 cos phi) - 1)/2, positive for every phi != 0.
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
    lam_plus = 0.5 * (a + disc)
    lam_minus = 0.5 * (a - disc)
    bulk = (2.0 / n) * (1.0 - c)
    if bulk < abs(lam_minus):
        regime = Regime.VIOLATION
        delta = 1.5 - n / 2 - 2.0 / n + (2.0 / n) * c - c + 0.5 * disc
    else:
        regime = Regime.NO_VIOLATION
        delta = 0.0
    spectrum = ClosedFormSpectrum(a, lam_plus, lam_minus, bulk / (n + 1), regime)
    return delta, spectrum


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


def induced_behavior(n: int, pattern: PhasePattern, povm: BinaryPOVM) -> Behavior:
    """Device-independent table P(1|x) = Tr(pi1 rho_x) over all 2^N encodings.

    Row x of the (2^N x N) matrix psi is the encoded state of input x.
    """
    if len(pattern) != n:
        raise ValueError("pattern length must equal N")
    if n > MAX_N_TABLE:
        raise ValueError(f"behavior tables capped at N={MAX_N_TABLE}")
    if povm.pi1.shape[0] != n:
        raise ValueError("POVM dimension must equal N")
    bits = (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1
    psi = np.exp(1j * bits * np.array(pattern.phases)) / math.sqrt(n)
    table = np.einsum("xi,xi->x", psi.conj(), psi @ povm.pi1.T).real
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
