import os
import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import numpy as np
import pytest
from oracles import VERTEX_LP_TOL, linprog_membership, linprog_separation, vertex_lp_member

import kway
from kway import polytope
from kway.behavior import Behavior, eval_B
from kway.polytope import (
    MAX_N_ENUMERATE,
    MAX_N_LP,
    DeterministicVertex,
    PolytopeSizeError,
    enumerate_vertices,
    fibre_index,
    is_k_way,
    max_B_over_vertices,
    vertex_count,
    vertex_table,
    vertex_to_behavior,
)

PERFECT_N2 = Behavior.from_table(2, [0.0, 1.0, 1.0, 0.0])


class TestVertexBasics:
    def test_identity_on_first_input(self):
        v = DeterministicVertex((1,), (0, 1))
        assert vertex_table(v, 2) == (0, 1, 0, 1)

    def test_or_of_first_two(self):
        v = DeterministicVertex((1, 2), (0, 1, 1, 1))
        assert vertex_table(v, 3) == (0, 1, 1, 1, 0, 1, 1, 1)

    def test_constant_one_ignores_input(self):
        v = DeterministicVertex((2,), (1, 1))
        assert vertex_table(v, 2) == (1, 1, 1, 1)

    def test_behavior_depends_only_on_read_bits(self):
        v = DeterministicVertex((1, 3), (0, 1, 1, 0))  # XOR of x1, x3
        b = vertex_to_behavior(v, 3)
        for x in range(8):
            assert b.prob1(x) == float(((x >> 0) ^ (x >> 2)) & 1)

    def test_invalid_vertices_rejected(self):
        with pytest.raises(ValueError):
            DeterministicVertex((2, 1), (0, 1, 1, 0))
        with pytest.raises(ValueError):
            DeterministicVertex((1,), (0, 1, 1))
        with pytest.raises(ValueError):
            vertex_table(DeterministicVertex((3,), (0, 1)), 2)


class TestEnumeration:
    @pytest.mark.parametrize("n,k,count", [(2, 1, 6), (1, 1, 4), (3, 3, 256)])
    def test_counts(self, n, k, count):
        assert len(enumerate_vertices(n, k)) == count

    def test_tables_are_distinct(self):
        vs = enumerate_vertices(3, 2)
        tables = {vertex_table(v, 3) for v in vs}
        assert len(tables) == len(vs)

    def test_size_guards(self):
        with pytest.raises(PolytopeSizeError):
            enumerate_vertices(MAX_N_ENUMERATE + 1, 2)
        with pytest.raises(PolytopeSizeError):
            enumerate_vertices(3, 0)


class TestVertexCount:
    def test_matches_enumeration(self):
        for n in range(1, 5):
            for k in range(1, n + 1):
                if (n, k) != (4, 4):  # 65536 vertices: the closed form alone
                    assert vertex_count(n, k) == len(enumerate_vertices(n, k)), (n, k)
        assert vertex_count(4, 4) == 2 ** 2 ** 4

    def test_values(self):
        assert vertex_count(3, 2) == 38
        assert vertex_count(4, 3) == 942
        assert vertex_count(5, 4) == 325_262

    def test_size_guards(self):
        with pytest.raises(PolytopeSizeError):
            vertex_count(MAX_N_LP + 1, 2)
        with pytest.raises(PolytopeSizeError):
            vertex_count(3, 4)


class TestMaxB:
    @pytest.mark.parametrize(
        "n,k,expected",
        [(2, 1, 1), (3, 1, 2), (3, 2, 2), (3, 3, 3), (2, 2, 2), (4, 3, 3), (4, 4, 4), (8, 4, 7), (8, 8, 8)],
    )
    def test_bound(self, n, k, expected):
        assert max_B_over_vertices(n, k) == pytest.approx(expected)

    def test_matches_the_vertex_maximum(self):
        for n in range(1, 5):
            for k in range(1, min(n, 3) + 1):
                best = max(eval_B(vertex_to_behavior(v, n)) for v in enumerate_vertices(n, k))
                assert max_B_over_vertices(n, k) == best


class TestMembership:
    def test_quantum_violation_is_not_one_way(self):
        res = is_k_way(PERFECT_N2, 1, mode="exact")
        assert not res.is_member
        assert res.weights is None

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_vertex_is_member_at_own_level(self, mode):
        for v in enumerate_vertices(3, 2)[:10]:
            res = is_k_way(vertex_to_behavior(v, 3), 2, mode=mode)
            assert res.is_member
            total = sum(res.weights.values())
            assert float(total) == pytest.approx(1.0, abs=1e-9)

    def test_uniform_is_one_way(self):
        for n in (2, 3, 4):
            b = Behavior.from_table(n, [0.5] * 2 ** n)
            assert is_k_way(b, 1).is_member

    def test_weights_reproduce_behavior(self):
        b = Behavior.from_table(2, [0.25, 0.75, 0.25, 0.75])
        res = is_k_way(b, 1, mode="exact")
        assert res.is_member
        recon = np.zeros(4)
        for v, w in res.weights.items():
            recon += float(w) * np.array(vertex_table(v, 2), dtype=float)
        assert np.allclose(recon, b.p1, atol=1e-9)

    def test_convexity_closure_n3(self):
        rng = np.random.default_rng(5)
        vs = enumerate_vertices(3, 2)
        for _ in range(10):
            i, j = rng.integers(0, len(vs), 2)
            t = Fraction(int(rng.integers(0, 8)), 8)
            mix = [
                float(t) * a + (1 - float(t)) * b
                for a, b in zip(vertex_table(vs[i], 3), vertex_table(vs[j], 3))
            ]
            assert is_k_way(Behavior.from_table(3, mix), 2, mode="exact").is_member

    def test_monotone_in_k_n3(self):
        for v in enumerate_vertices(3, 1):
            b = vertex_to_behavior(v, 3)
            assert is_k_way(b, 2, mode="exact").is_member

    def test_exact_and_float_agree(self):
        rng = np.random.default_rng(11)
        cases = [PERFECT_N2, Behavior.from_table(2, [0.5] * 4)]
        vs = enumerate_vertices(2, 1)
        for _ in range(8):
            # dyadic weights keep the float table exactly rational, so the
            # exact and float routes see the same point
            counts = rng.multinomial(16, np.ones(len(vs)) / len(vs))
            w = counts / 16.0
            table = np.zeros(4)
            for wi, v in zip(w, vs):
                table += wi * np.array(vertex_table(v, 2), dtype=float)
            cases.append(Behavior.from_table(2, table))
        for _ in range(4):
            cases.append(Behavior.from_table(2, rng.uniform(0, 1, 4)))
        for b in cases:
            assert is_k_way(b, 1, mode="exact").is_member == is_k_way(b, 1, mode="float").is_member

    def test_size_guards(self):
        for mode in ("exact", "float", "auto"):
            with pytest.raises(PolytopeSizeError):
                is_k_way(Behavior.from_table(MAX_N_LP + 1, [0.5] * 2 ** (MAX_N_LP + 1)), 1, mode=mode)
            assert is_k_way(Behavior.from_table(MAX_N_LP, [0.5] * 2 ** MAX_N_LP), 1, mode=mode).is_member

    def test_json_shape(self):
        res = is_k_way(PERFECT_N2, 1, mode="exact")
        import json

        obj = json.loads(res.to_json(2, 1))
        assert obj == {"n": 2, "k": 1, "member": False, "weights": []}


def _run_with_kway(code):
    """stdout of `python -c code`, with the kway under test on the path; a
    failed run, an import error included, fails the test with its stderr."""
    path = [str(Path(kway.__file__).parents[1])] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    return run.stdout


def test_importing_kway_imports_no_scipy():
    code = "import sys, kway, kway.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    assert _run_with_kway(code) == "[]\n"


def test_a_verdict_loads_only_the_highs_extension():
    """In-process tests import scipy.optimize first (tests/oracles.py), so this runs in a fresh process."""
    code = """if True:
        import sys
        from kway.behavior import Behavior
        from kway.polytope import is_k_way
        assert is_k_way(Behavior.from_table(4, [0.5] * 16), 2, mode="float").is_member
        core = sys.modules["scipy.optimize._highspy._core"]
        print([m for m in ("scipy.optimize", "scipy.sparse") if m in sys.modules])
        from scipy.optimize import linprog
        res = linprog([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0])
        print(res.status, res.x.tolist())
        from scipy.optimize._highspy import _core
        print(_core is core is sys.modules["scipy.optimize._highspy._core"])
    """
    assert _run_with_kway(code).splitlines() == ["[]", "0 [1.0, 0.0]", "True"]


def _lp_tables(n, k, rng):
    """A member built from random box points g_S <= q_S, a uniform random
    table, and their midpoint."""
    q = rng.dirichlet(np.ones(comb(n, k)))
    member = np.zeros(2 ** n)
    for s, row in enumerate(fibre_index(n, k)):
        member += (q[s] * rng.uniform(0, 1, 2 ** k))[row]
    outer = rng.uniform(0, 1, 2 ** n)
    return [member, outer, (member + outer) / 2]


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_highs_called_directly_matches_scipy_linprog(n, monkeypatch):
    """Same status and bit-identical points as scipy.optimize.linprog, on the
    membership LP (simplex and interior point) and the separation LP."""
    solved, direct = [], polytope.linprog
    monkeypatch.setattr(polytope, "linprog", lambda c, **kwargs: solved.append(direct(c, **kwargs)) or solved[-1])
    rng = np.random.default_rng(n)
    statuses = set()
    for k in range(1, n):
        lp = polytope._compact_lp(n, k)
        for table in _lp_tables(n, k, rng):
            for interior in (False, True):
                res, ref = polytope._membership_lp(lp, table, interior), linprog_membership(table, k, interior)
                assert res.status == ref.status
                assert res.status == 2 or np.array_equal(res.x, ref.x)
                statuses.add(res.status)
            polytope._separating_vector(lp, table)
            ref = linprog_separation(table, k)
            assert solved[-1].status == ref.status == 0 and np.array_equal(solved[-1].x, ref.x)
    assert statuses == {0, 2}


def _member_weights_ok(res, table, k):
    w = np.array([float(x) for x in res.weights.values()])
    rebuilt = sum(wi * np.array(vertex_table(v, len(table).bit_length() - 1), dtype=float)
                  for wi, v in zip(w, res.weights))
    return (all(len(v.locations) == k for v in res.weights) and np.all(w > 0)
            and abs(w.sum() - 1) <= VERTEX_LP_TOL and np.max(np.abs(rebuilt - table)) <= VERTEX_LP_TOL)


def _witness_table(n):
    """A table with B = N > N - 1 on the (N-1)-way polytope's affine hull (N = 3, 4)."""
    weight = [bin(x).count("1") for x in range(2 ** n)]
    level = {3: [0, 1, 1, 0], 4: [0, 1, 0.5, 0, 1]}[n]
    return np.array([level[w] for w in weight], dtype=float)


def _differential_tables(n, k, rng, count):
    """Interior members, uniform random tables, and pairs of near-boundary
    tables on both sides of the witness facet B = N - 1."""
    vertices = np.array([vertex_table(v, n) for v in enumerate_vertices(n, k)], dtype=float)
    tables = []
    while len(tables) < count:
        ids = rng.choice(len(vertices), 6, replace=False)
        inner = 0.25 + 0.5 * rng.dirichlet(np.ones(6)) @ vertices[ids]
        outer = rng.uniform(0, 1, 2 ** n)
        outer[0], outer[[1 << i for i in range(n)]] = 0.0, 1.0  # B = N
        b_inner, b_outer = (-t[0] + sum(t[1 << i] for i in range(n)) for t in (inner, outer))
        tables.append(inner)
        tables.append(rng.uniform(0, 1, 2 ** n))
        for delta in (-1e-4, 1e-4):
            t = (n - 1 + delta - b_inner) / (b_outer - b_inner)
            tables.append(inner + t * (outer - inner))
    return tables[:count]


@pytest.mark.parametrize("n,k,count", [(3, 1, 12), (3, 2, 12), (4, 1, 12), (4, 2, 12), (4, 3, 12), (5, 2, 10), (5, 3, 8)])
def test_float_route_matches_the_vertex_lp(n, k, count):
    rng = np.random.default_rng(100 * n + k)
    verdicts = []
    for table in _differential_tables(n, k, rng, count):
        b = Behavior.from_table(n, table)
        res = is_k_way(b, k, mode="float")
        assert res.is_member == vertex_lp_member(b, k), table.tolist()
        assert not res.is_member or _member_weights_ok(res, np.array(b.p1), k)
        verdicts.append(res.is_member)
    assert 0 < sum(verdicts) < len(verdicts)


@pytest.mark.parametrize("n", [3, 4])
def test_exact_route_matches_the_vertex_lp_on_dyadic_tables(n):
    """Dyadic members and dyadic points near the witness facet, on the affine
    hull, so that the exact and the float verdicts agree."""
    k = n - 1
    rng = np.random.default_rng(n)
    vertices = np.array([vertex_table(v, n) for v in enumerate_vertices(n, k)], dtype=float)
    outer = _witness_table(n)
    verdicts = []
    for _ in range(8):
        ids = rng.choice(len(vertices), 4, replace=False)
        inner = 0.25 + 0.5 * ((1 + rng.multinomial(12, [0.25] * 4)) / 16) @ vertices[ids]
        b_inner = -inner[0] + sum(inner[1 << i] for i in range(n))
        t_star = (n - 1 - b_inner) / (n - b_inner)
        for t in (0.0, np.floor(t_star * 1024 - 1) / 1024, np.ceil(t_star * 1024 + 1) / 1024):
            b = Behavior.from_table(n, inner + t * (outer - inner))
            res = is_k_way(b, k, mode="exact")
            assert res.is_member == vertex_lp_member(b, k), (t, t_star)
            if res.is_member:
                assert sum(res.weights.values()) == 1
                mix = [Fraction(0)] * 2 ** n
                for v, w in res.weights.items():
                    mix = [m + w * bit for m, bit in zip(mix, vertex_table(v, n))]
                assert mix == [Fraction(p) for p in b.p1]
            verdicts.append(res.is_member)
    assert 8 < sum(verdicts) < 24
