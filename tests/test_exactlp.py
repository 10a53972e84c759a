"""The exact checks behind is_k_way's exact route, and the route's certificates."""
from fractions import Fraction as F

import numpy as np
import pytest

from kway import polytope
from kway.behavior import Behavior
from kway.cli import main
from kway.exactlp import check_member, separates, solve, support_function, walsh_certificate
from kway.polytope import (
    CertificationError,
    enumerate_vertices,
    fibre_index,
    is_k_way,
    vertex_table,
)


def dense(rows):
    return [dict(enumerate(row)) for row in rows]


def check(rows, rhs, x):
    for row, b in zip(rows, rhs):
        assert sum(a * v for a, v in zip(row, x)) == b
    assert all(isinstance(v, F) for v in x)


# --- solve: the compact LP's equalities on HiGHS's support ---------------------

def test_single_equation():
    rows = [[F(1), F(1)]]
    x = solve(dense(rows), [F(1)], guess=[0.25, 0.75])
    check(rows, [F(1)], x)
    assert x == [F(1, 4), F(3, 4)]  # the unknown without a pivot keeps its guess


def test_infeasible_sign():
    # every equality holds exactly, but g_S(a) = -1/4 < 0 on the first subset
    index = fibre_index(2, 1)
    g, q = [[F(-1, 4), F(-1, 4)], [F(3, 4), F(3, 4)]], [F(0), F(1)]
    p = [F(1, 2)] * 4
    assert not check_member(g, q, p, index)
    assert check_member([[F(0), F(0)], [F(1, 2), F(1, 2)]], [F(0), F(1)], p, index)


def test_infeasible_inconsistent():
    rows = [[F(1), F(0)], [F(1), F(0)]]
    assert solve(dense(rows), [F(1), F(2)], guess=[0.0, 0.0]) is None


def test_exact_rational_solution():
    # x1 + x2 + x3 = 1, x1 + 2 x2 = 1/3
    rows = [[F(1), F(1), F(1)], [F(1), F(2), F(0)]]
    rhs = [F(1), F(1, 3)]
    check(rows, rhs, solve(dense(rows), rhs, guess=[0.1, 0.1, 0.8]))


def test_degenerate_system():
    # duplicated rows are fine
    rows = [[F(1), F(1)], [F(2), F(2)]]
    rhs = [F(1), F(2)]
    check(rows, rhs, solve(dense(rows), rhs, guess=[0.5, 0.5]))


def test_forced_unique_solution():
    rows = [[F(1), F(0)], [F(0), F(1)], [F(1), F(1)]]
    rhs = [F(1, 4), F(3, 4), F(1)]
    assert solve(dense(rows), rhs, guess=[0.3, 0.7]) == [F(1, 4), F(3, 4)]


def test_empty_system():
    assert solve([], [], []) == []


@pytest.mark.parametrize("target", [F(0), F(1, 7), F(5, 7)])
def test_interval_membership(target):
    # is target a convex combination of 0 and 5/7?
    rows = [[F(0), F(5, 7)], [F(1), F(1)]]
    rhs = [target, F(1)]
    x = solve(dense(rows), rhs, guess=[0.5, 0.5])
    check(rows, rhs, x)
    assert all(v >= 0 for v in x)


def test_interval_membership_outside():
    rows = [[F(0), F(5, 7)], [F(1), F(1)]]
    x = solve(dense(rows), [F(6, 7), F(1)], guess=[0.5, 0.5])
    assert min(x) < 0


def test_solve_matches_random_systems():
    rng = np.random.default_rng(7)
    for _ in range(200):
        m, w = rng.integers(1, 7, 2)
        a = rng.integers(-2, 3, (m, w)) * (rng.random((m, w)) < 0.5)
        b = a @ rng.integers(-3, 4, w) + (rng.random() < 0.2) * rng.integers(0, 2, m)
        x = solve(dense(a.tolist()), b.tolist(), guess=rng.random(w).tolist())
        consistent = np.linalg.matrix_rank(a) == np.linalg.matrix_rank(np.column_stack([a, b]))
        assert (x is not None) == consistent
        if x is not None:
            check(a.tolist(), b.tolist(), x)


# --- support function and separation --------------------------------------------

@pytest.mark.parametrize("n,k", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (4, 3), (5, 2)])
def test_support_function_is_the_vertex_maximum(n, k):
    rng = np.random.default_rng(10 * n + k)
    tables = np.array([vertex_table(v, n) for v in enumerate_vertices(n, k)])
    index = fibre_index(n, k)
    for _ in range(25):
        y = rng.integers(-8, 9, 2 ** n)
        best = int(np.max(tables @ y))
        assert support_function(y.tolist(), index) == best
        assert support_function([F(int(v), 7) for v in y], index) == F(best, 7)


def test_walsh_certificate():
    index = fibre_index(3, 2)
    parity = [F(bin(x).count("1") % 2) for x in range(8)]
    y = walsh_certificate(parity, 3, 2)
    assert y is not None and support_function(y, index) == 0
    assert separates(y, parity, index)
    assert walsh_certificate(parity, 3, 3) is None
    or_table = [F(x != 0) for x in range(8)]  # 3-way, so off the 2-way hull
    assert walsh_certificate(or_table, 3, 2) is not None
    assert walsh_certificate([F(1, 3)] * 8, 3, 1) is None


def test_separates_needs_a_strict_gap():
    index = fibre_index(2, 1)
    y = [-1, 1, 1, 0]  # B: h(y) = 1 at k = 1
    assert support_function(y, index) == 1
    assert separates(y, [F(0), F(1), F(1), F(0)], index)
    assert not separates(y, [F(0), F(1), F(0), F(0)], index)


# --- the exact route's certificates -------------------------------------------

def test_entries_one_ulp_below_one_are_a_certified_member():
    # HiGHS's point is off by its tolerance here (at k = 2, sum q = 1 - 2^-52)
    b = Behavior.from_table(3, [1 - 2.0 ** -53] * 8)
    for k in (1, 2):
        res = is_k_way(b, k, mode="exact")
        assert res.is_member
        assert all(isinstance(w, F) and w > 0 for w in res.weights.values())
        assert sum(res.weights.values()) == 1
        mix = [sum(w * vertex_table(v, 3)[x] for v, w in res.weights.items()) for x in range(8)]
        assert mix == [F(p) for p in b.p1]


def test_float_rounded_dirichlet_mixture_is_a_certified_non_member():
    # rounding the float mixture leaves the affine hull: a non-member, with proof
    rng = np.random.default_rng(3)
    vs = enumerate_vertices(3, 2)
    tables = np.array([vertex_table(v, 3) for v in vs], dtype=float)
    rejected = 0
    for _ in range(20):
        table = rng.dirichlet(np.ones(4)) @ tables[rng.choice(len(vs), 4, replace=False)]
        b = Behavior.from_table(3, table)
        assert is_k_way(b, 2, mode="float").is_member
        y = walsh_certificate([F(v) for v in b.p1], 3, 2)
        if y is not None:
            assert not is_k_way(b, 2, mode="exact").is_member
            assert separates(y, [F(v) for v in b.p1], fibre_index(3, 2))
            rejected += 1
    assert rejected >= 10


def test_uncertified_verdict_raises_and_exits_1(capsys, monkeypatch):
    class Junk:
        status, message = 0, "junk"

        def __init__(self, cols):
            self.x = np.zeros(cols)

    monkeypatch.setattr(polytope, "linprog", lambda c, **kwargs: Junk(len(c)))
    b = Behavior.from_table(2, [0.5] * 4)
    with pytest.raises(CertificationError):
        is_k_way(b, 1, mode="exact")
    assert main(["witness", "--n", "3", "--phi", "0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: no exact certificate") and err.count("\n") == 1


def test_solver_failure_raises_and_exits_1(capsys, monkeypatch):
    class Failed:
        status, message, x = 4, "Time limit reached", None

    monkeypatch.setattr(polytope, "linprog", lambda c, **kwargs: Failed())
    b = Behavior.from_table(2, [0.5] * 4)
    for mode in ("exact", "float"):
        with pytest.raises(CertificationError, match="LP solver failure: Time limit reached"):
            is_k_way(b, 1, mode=mode)
    assert main(["witness", "--n", "3", "--phi", "0"]) == 1
    err = capsys.readouterr().err
    assert err == "error: LP solver failure: Time limit reached\n"
