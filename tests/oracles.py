"""Reference computations the tests compare the production routes against.

Plain functions without a library's size caps, checking only inputs that
would otherwise give a silently wrong answer: dense operators, explicit
states and enumerated vertices, each the slow, direct form of something
kway computes from structure.
"""
import decimal
import functools
import math
import warnings
from itertools import combinations

import numpy as np
from scipy.optimize import linprog

from kway.behavior import Behavior
from kway.grover import grover_angle
from kway.polytope import HIGHS_FEAS_TOL, DeterministicVertex

VERTEX_LP_TOL = 1e-8
OPERATOR_TOL = 1e-10  # a density operator passes its Hermiticity, trace and positivity checks within this


def trace_norm(h):
    """Sum of the absolute eigenvalues of a Hermitian matrix."""
    return float(np.sum(np.abs(np.linalg.eigvalsh(h))))


def assert_density_operator(rho, tol=OPERATOR_TOL):
    assert np.max(np.abs(rho - rho.conj().T)) <= tol, "not Hermitian"
    assert abs(np.trace(rho).real - 1.0) <= tol, "trace differs from 1"
    assert np.min(np.linalg.eigvalsh(rho)) >= -tol, "not positive semidefinite"


# --- behaviors and games --------------------------------------------------------

def win_prob_game1(behavior):
    """Win probability with the all-zero input and the N one-hot inputs equally
    likely: answer 0 on the first, 1 on the others.  eval_B = -1 + (N+1) times this."""
    n, p = behavior.n_locations, behavior.p1
    return ((1.0 - p[0]) + sum(p[1 << i] for i in range(n))) / (n + 1)


def win_prob_game2(behavior):
    """Win probability with prior 1/2 on the all-zero input and 1/(2N) on each one-hot input."""
    n, p = behavior.n_locations, behavior.p1
    return 0.5 * (1.0 - p[0]) + 0.5 * sum(p[1 << i] for i in range(n)) / n


# --- single query ---------------------------------------------------------------

def uniform_state(n):
    return np.full(n, 1.0 / math.sqrt(n), dtype=complex)


def apply_phase_oracle(state, bits, pattern):
    """Multiply amplitude j by e^{i phi_j x_j}."""
    if not len(state) == len(bits) == len(pattern):
        raise ValueError("state, bits and pattern dimensions must match")
    return state * np.exp(1j * np.array(pattern.phases) * np.array(bits, dtype=float))


def encoded_state(n, bits, pattern):
    return apply_phase_oracle(uniform_state(n), bits, pattern)


def loop_discrimination_pair(n, pattern):
    """(p0, rho_0, p1, rho_1) from N outer products of the one-hot encodings."""
    psi0 = uniform_state(n)
    rho0 = np.outer(psi0, psi0.conj())
    rho1 = np.zeros((n, n), dtype=complex)
    for i in range(n):
        bits = [0] * n
        bits[i] = 1
        psi = apply_phase_oracle(psi0, bits, pattern)
        rho1 += np.outer(psi, psi.conj())
    return 1.0 / (n + 1), rho0, n / (n + 1), rho1 / n


def loop_induced_behavior(n, pattern, pi1):
    """P(1|x) = <psi_x| pi1 |psi_x>, one encoded state at a time."""
    table = []
    for x in range(2 ** n):
        psi = encoded_state(n, [(x >> i) & 1 for i in range(n)], pattern)
        table.append(float(np.real(psi.conj() @ pi1 @ psi)))
    return Behavior.from_table(n, table)


def dense_delta(n, pattern):
    """delta = B - (N - 1) from the dense density operators and the eigensolver."""
    p0, rho0, p1, rho1 = loop_discrimination_pair(n, pattern)
    return 0.5 - n / 2 + (n + 1) / 2 * trace_norm(p1 * rho1 - p0 * rho0)


def _sin_cos(t):
    """(sin t, cos t) for a Decimal t, |t| < 4, from their Taylor series,
    summed until a term falls below 1e-60 |t|."""
    sin = cos = decimal.Decimal(0)
    term, k = decimal.Decimal(1), 0  # t^k / k!
    while True:
        if k % 2:
            sin += term if k % 4 == 1 else -term
        else:
            cos += term if k % 4 == 0 else -term
        k += 1
        term = term * t / k
        if not term or abs(term) < abs(t) * decimal.Decimal(10) ** -60:
            return sin, cos


def reference_delta(n, phi):
    """Half/half delta at the float phase phi, |phi| < 4, as a Decimal
    computed at 50 significant digits.

    The unfactored 2x2 block of (N+1)(p1 rho_1 - p0 rho_0) - (2/N)(1 - cos
    phi) I: diagonal (A, 0) with A = N - 3 + 2 cos phi and off-diagonal
    squared 4 sin^2 phi f, f = 1 (even N) or 1 - 1/N^2 (odd N).  delta is
    minus its lower eigenvalue less the shift, when that is positive.  The
    O(N) terms cancel, and so do the block and the shift as phi -> 0: at
    N = 10^6 and the phases the tests use, about 25 of the 50 digits remain.
    """
    if not -4 < phi < 4:
        raise ValueError("the Taylor series are summed for |phi| < 4 only")
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        sin, cos = _sin_cos(decimal.Decimal(phi))  # the float's exact value
        big_n = decimal.Decimal(n)
        f = 1 if n % 2 == 0 else 1 - 1 / (big_n * big_n)
        a = big_n - 3 + 2 * cos
        lam = (a - (a * a + 4 * sin * sin * f).sqrt()) / 2
        return max(-lam - 2 * (1 - cos) / big_n, decimal.Decimal(0))


# --- Grover --------------------------------------------------------------------

def inversion_about_mean(n):
    """U = 2|psi0><psi0| - 1, as a dense N x N matrix."""
    return 2.0 * np.full((n, n), 1.0 / n) - np.eye(n)


def grover_state_iterative(n, k, marked=None):
    """k rounds of (pi-phase oracle at the 1-based location `marked`, then
    inversion about the mean) on the uniform state; marked=None is the
    all-zero input, whose oracle is the identity."""
    psi = np.full(n, 1.0 / math.sqrt(n))
    if marked is None:
        return psi  # U fixes the uniform state
    for _ in range(k):
        psi[marked - 1] = -psi[marked - 1]
        psi = 2.0 * np.mean(psi) - psi  # inversion about mean, no N x N matrix
    return psi


def grover_state_closed(n, k, marked):
    """cos((2k+1) theta/2)|i_bar> + sin((2k+1) theta/2)|i>, i = marked."""
    ang = (2 * k + 1) * grover_angle(n) / 2.0
    psi = np.full(n, math.cos(ang) / math.sqrt(n - 1))
    psi[marked - 1] = math.sin(ang)
    return psi


def grover_rho_pair(n, k):
    """(rho0, rho1) at k queries: the uniform-state projector and the exact
    average of the N marked final states, as dense N x N matrices."""
    ang = (2 * k + 1) * grover_angle(n) / 2.0
    beta = math.cos(ang) / math.sqrt(n - 1)
    # Column i of psi_mat is the final state for marked location i.
    psi_mat = np.full((n, n), beta)
    np.fill_diagonal(psi_mat, math.sin(ang))
    return np.full((n, n), 1.0 / n), (psi_mat @ psi_mat.T) / n


# --- the k-way polytope ---------------------------------------------------------

def vertex_table(v, n):
    """P(1|x) in {0,1} for all 2^n inputs x (x_1 = LSB)."""
    if v.locations and v.locations[-1] > n:
        raise ValueError("vertex reads a location beyond N")
    out = []
    for x in range(2 ** n):
        idx = 0
        for pos, loc in enumerate(v.locations):
            idx |= ((x >> (loc - 1)) & 1) << pos
        out.append(v.truth_table[idx])
    return tuple(out)


def vertex_to_behavior(v, n):
    return Behavior.from_table(n, vertex_table(v, n))


def enumerate_vertices(n, k):
    """All distinct deterministic k-way behaviors for N inputs, one
    representative (subset, function) label per table, in table order."""
    seen = {}
    for locs in combinations(range(1, n + 1), k):
        for fidx in range(2 ** (2 ** k)):
            v = DeterministicVertex(locs, tuple((fidx >> a) & 1 for a in range(2 ** k)))
            seen.setdefault(vertex_table(v, n), v)
    return [seen[t] for t in sorted(seen)]


@functools.cache
def _vertex_tables(n, k):
    return np.array([vertex_table(v, n) for v in enumerate_vertices(n, k)], dtype=float)


def vertex_lp_member(behavior, k):
    """Membership by HiGHS over one column per enumerated vertex (N <= 5)."""
    tables = _vertex_tables(behavior.n_locations, k)
    a_eq = np.vstack([tables.T, np.ones(len(tables))])
    b_eq = np.append(behavior.p1, 1.0)
    res = linprog(np.zeros(len(tables)), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if res.status == 2:
        return False
    assert res.status == 0, res.message
    assert np.max(np.abs(a_eq @ res.x - b_eq)) <= VERTEX_LP_TOL
    return True


@functools.cache
def _compact_matrices(n, k):
    """The compact membership LP of kway.polytope, dense and entry by entry:
    A_ub (g_S(a) - q_S <= 0) and A_eq (sum_S g_S(x_S) = p(x), sum_S q_S = 1)."""
    subsets = list(combinations(range(1, n + 1), k))
    c, m, size = len(subsets), 2 ** k, 2 ** n
    cm = c * m
    a_ub, a_eq = np.zeros((cm, cm + c)), np.zeros((size + 1, cm + c))
    for s, locs in enumerate(subsets):
        for a in range(m):
            a_ub[s * m + a, s * m + a], a_ub[s * m + a, cm + s] = 1, -1
        for x in range(size):
            a = sum(((x >> (loc - 1)) & 1) << pos for pos, loc in enumerate(locs))
            a_eq[x, s * m + a] = 1
        a_eq[size, cm + s] = 1
    return a_ub, a_eq


def linprog_membership(p, k, interior=False):
    """The compact membership LP by scipy.optimize.linprog, with the methods
    and options that kway passes HiGHS."""
    a_ub, a_eq = _compact_matrices(len(p).bit_length() - 1, k)
    options = {"presolve": False, "primal_feasibility_tolerance": HIGHS_FEAS_TOL}
    method, options = ("highs-ipm", {**options, "run_crossover": "off"}) if interior else ("highs", options)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="Unrecognized options")  # run_crossover goes to HiGHS verbatim
        return linprog(np.zeros(a_eq.shape[1]), A_ub=a_ub, b_ub=np.zeros(len(a_ub)), A_eq=a_eq,
                       b_eq=np.append(p, 1.0), bounds=(0, None), method=method, options=options)

