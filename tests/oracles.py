"""Reference computations the tests compare the production routes against."""
import functools
import warnings
from itertools import combinations

import numpy as np
from scipy.optimize import linprog

from kway.behavior import Behavior
from kway.linalg import trace_norm
from kway.polytope import enumerate_vertices, vertex_table
from kway.single_query import apply_phase_oracle, encoded_state, uniform_state

VERTEX_LP_TOL = 1e-8


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


def loop_induced_behavior(n, pattern, povm):
    """P(1|x) = <psi_x| pi1 |psi_x>, one encoded state at a time."""
    table = []
    for x in range(2 ** n):
        psi = encoded_state(n, [(x >> i) & 1 for i in range(n)], pattern)
        table.append(float(np.real(psi.conj() @ povm.pi1 @ psi)))
    return Behavior.from_table(n, table)


def dense_delta(n, pattern):
    """delta = B - (N - 1) from the dense density operators and the eigensolver."""
    p0, rho0, p1, rho1 = loop_discrimination_pair(n, pattern)
    return 0.5 - n / 2 + (n + 1) / 2 * trace_norm(p1 * rho1 - p0 * rho0)


def inversion_about_mean(n):
    """U = 2|psi0><psi0| - 1, as a dense N x N matrix."""
    return 2.0 * np.full((n, n), 1.0 / n) - np.eye(n)


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
    """The compact LPs of kway.polytope, dense and entry by entry: the
    membership A_ub (g_S(a) - q_S <= 0) and A_eq (sum_S g_S(x_S) = p(x),
    sum_S q_S = 1), and the separation A_ub (sum_{x_S = a} y_x - u_{S,a} <= 0,
    sum_a u_{S,a} - t <= 0)."""
    subsets = list(combinations(range(1, n + 1), k))
    c, m, size = len(subsets), 2 ** k, 2 ** n
    cm = c * m
    a_ub, a_eq = np.zeros((cm, cm + c)), np.zeros((size + 1, cm + c))
    sep = np.zeros((cm + c, size + cm + 1))
    for s, locs in enumerate(subsets):
        for a in range(m):
            a_ub[s * m + a, s * m + a], a_ub[s * m + a, cm + s] = 1, -1
            sep[s * m + a, size + s * m + a], sep[cm + s, size + s * m + a] = -1, 1
        for x in range(size):
            a = sum(((x >> (loc - 1)) & 1) << pos for pos, loc in enumerate(locs))
            a_eq[x, s * m + a] = sep[s * m + a, x] = 1
        a_eq[size, cm + s], sep[cm + s, -1] = 1, -1
    return a_ub, a_eq, sep


def linprog_membership(p, k, interior=False):
    """The compact membership LP by scipy.optimize.linprog, with the methods
    and options kway passed it before it called HiGHS directly."""
    a_ub, a_eq, _ = _compact_matrices(len(p).bit_length() - 1, k)
    method, options = ("highs-ipm", {"presolve": False, "run_crossover": "off"}) if interior else ("highs", {"presolve": False})
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="Unrecognized options")  # run_crossover goes to HiGHS verbatim
        return linprog(np.zeros(a_eq.shape[1]), A_ub=a_ub, b_ub=np.zeros(len(a_ub)), A_eq=a_eq,
                       b_eq=np.append(p, 1.0), bounds=(0, None), method=method, options=options)


def linprog_separation(p, k):
    """The separation LP, maximize y.p - t over |y| <= 1 and t >= h(y), by
    scipy.optimize.linprog as kway called it."""
    _, _, sep = _compact_matrices(len(p).bit_length() - 1, k)
    size, cols = len(p), sep.shape[1]
    cost = np.zeros(cols)
    cost[:size], cost[-1] = -np.asarray(p), 1.0
    return linprog(cost, A_ub=sep, b_ub=np.zeros(len(sep)), bounds=[(-1.0, 1.0)] * size + [(0.0, None)] * (cols - size),
                   method="highs", options={"presolve": False})
