"""Reference computations the tests compare the production routes against."""
import functools

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
