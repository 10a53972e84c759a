import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from math import comb
from pathlib import Path

import numpy as np
import pytest
from oracles import (
    VERTEX_LP_TOL,
    _compact_matrices,
    enumerate_vertices,
    linprog_membership,
    vertex_lp_member,
    vertex_table,
    vertex_to_behavior,
)

import kway
from kway import polytope, single_query
from kway.behavior import Behavior, eval_B
from kway.exactlp import separates
from kway.polytope import (
    MAX_N_LP,
    CertificationError,
    DeterministicVertex,
    PolytopeSizeError,
    fibre_index,
    is_k_way,
    max_B_over_vertices,
    vertex_count,
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
            assert b.p1[x] == float(((x >> 0) ^ (x >> 2)) & 1)

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
        with pytest.raises(PolytopeSizeError):
            fibre_index(MAX_N_LP + 1, 2)


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


def test_import_kway_loads_no_submodule_and_the_cli_binds_every_layer():
    """The package re-exports nothing, the scalar modules load no numpy, and
    `import kway, kway.cli` binds the seven modules benchmark/tracer.py wraps."""
    code = """if True:
        import sys
        import kway
        print(sorted(m for m in sys.modules if m.startswith(("kway.", "numpy"))))
        import kway.behavior, kway.grover, kway.exactlp
        print("numpy" in sys.modules)
        import kway.cli
        layers = ("behavior", "linalg", "exactlp", "polytope", "single_query", "grover", "cli")
        print([layer for layer in layers if not hasattr(kway, layer)])
    """
    assert _run_with_kway(code).splitlines() == ["[]", "False", "[]"]


def test_a_verdict_loads_only_the_highs_extension():
    """In-process tests import scipy.optimize first (tests/oracles.py), so this runs in a fresh process."""
    code = """if True:
        import sys
        from kway.behavior import Behavior
        from kway.polytope import is_k_way
        assert is_k_way(Behavior.from_table(4, [0.5] * 16), 2, mode="float").is_member
        print([m for m in ("scipy.optimize", "scipy.sparse") if m in sys.modules])
        import scipy.optimize
        from kway import polytope
        res = scipy.optimize.linprog([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0])
        print(res.status, res.x.tolist())
        print(scipy.optimize._highspy._core is polytope._highs())
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


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_the_cached_model_is_the_compact_lp(n):
    """The matrix passModel takes is the oracle's, entry for entry, with the
    rows of each column in ascending order, and nothing cached is writable."""
    for k in range(1, n + 1):
        lp = polytope._compact_lp(n, k)
        expected = np.vstack(_compact_matrices(n, k))
        dense = np.zeros(expected.shape)
        for j in range(expected.shape[1]):
            rows = lp.row_index[lp.start[j]:lp.start[j + 1]]
            assert np.all(np.diff(rows) > 0)
            dense[rows, j] = lp.value[lp.start[j]:lp.start[j + 1]]
        assert lp.start[-1] == len(lp.row_index) == len(lp.value)
        assert np.array_equal(dense, expected)
        cached = (lp.index, lp.start, lp.row_index, lp.value, lp.zeros, lp.infinity, lp.integrality)
        assert not any(array.flags.writeable for array in cached)
        assert isinstance(lp.equalities, tuple) and all(isinstance(row, tuple) for row in lp.equalities)
        assert [list(row) for row in lp.equalities] == [np.flatnonzero(row).tolist() for row in expected[lp.cells:]]


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_highs_called_directly_matches_scipy_linprog(n):
    """A point exactly when scipy.optimize.linprog finds the membership LP
    optimal, bit-identical to its point, by simplex and by interior point;
    every infeasible simplex returns a dual ray whose table rows separate
    the table exactly.  The LPs then run again in reverse order, which
    alternates the methods on the thread's one HiGHS object, and give the
    same points and rays: the reused object carries nothing over."""
    rng = np.random.default_rng(n)
    lps = [(polytope._compact_lp(n, k), k, table, interior)
           for k in range(1, n) for table in _lp_tables(n, k, rng) for interior in (False, True)]
    forward, statuses = [], set()
    for lp, k, table, interior in lps:
        (x, ray), ref = polytope.linprog(lp, table, interior=interior, ray=True), linprog_membership(table, k, interior)
        assert ref.status in (0, 2) and (x is None) == (ref.status == 2)
        assert x is None or np.array_equal(x, ref.x)
        if x is None and not interior:
            assert separates(ray.tolist(), [Fraction(v) for v in table], lp.index)
        forward.append((x, ray))
        statuses.add(ref.status)
    assert statuses == {0, 2}
    for (lp, k, table, interior), (first_x, first_ray) in zip(reversed(lps), reversed(forward)):
        x, ray = polytope.linprog(lp, table, interior=interior, ray=True)
        assert (x is None) == (first_x is None)
        assert x is None or np.array_equal(x, first_x)
        assert (ray is None) == (first_ray is None)
        assert ray is None or np.array_equal(ray, first_ray)


def test_only_the_exact_route_asks_for_the_ray(monkeypatch):
    """getDualRay costs the float route time for a ray it never reads."""
    solve, asked = polytope.linprog, []

    def spy(lp, p, **kwargs):
        asked.append(kwargs.get("ray"))
        return solve(lp, p, **kwargs)

    monkeypatch.setattr(polytope, "linprog", spy)
    table = Behavior.from_table(3, _witness_table(3))  # on the 2-way affine hull, so the exact route solves the LP
    for mode in ("float", "exact"):
        asked.clear()
        assert not is_k_way(table, 2, mode=mode).is_member
        assert asked == [mode == "exact"]
    x, ray = solve(polytope._compact_lp(3, 2), np.array(table.p1))
    assert x is None and ray is None


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


def _dyadic_segments(n):
    """Eight (inner, outer, t*): a dyadic (N-1)-way member inner, the witness
    table outer, and the t* at which inner + t*(outer - inner) has B = N - 1."""
    rng = np.random.default_rng(n)
    vertices = np.array([vertex_table(v, n) for v in enumerate_vertices(n, n - 1)], dtype=float)
    outer = _witness_table(n)
    for _ in range(8):
        ids = rng.choice(len(vertices), 4, replace=False)
        inner = 0.25 + 0.5 * ((1 + rng.multinomial(12, [0.25] * 4)) / 16) @ vertices[ids]
        b_inner = -inner[0] + sum(inner[1 << i] for i in range(n))
        yield inner, outer, (n - 1 - b_inner) / (n - b_inner)


def _rebuilds_exactly(weights, behavior):
    """Positive Fraction weights that sum to 1 and mix their vertices into the table exactly."""
    n = behavior.n_locations
    mix = [Fraction(0)] * 2 ** n
    for v, w in weights.items():
        mix = [m + w * bit for m, bit in zip(mix, vertex_table(v, n))]
    positive = all(w > 0 for w in weights.values())
    return positive and sum(weights.values()) == 1 and mix == [Fraction(p) for p in behavior.p1]


@pytest.mark.parametrize("n", [3, 4])
def test_exact_route_matches_the_vertex_lp_on_dyadic_tables(n):
    """Dyadic members and dyadic points near the witness facet, on the affine
    hull, so that the exact and the float verdicts agree."""
    k = n - 1
    verdicts = []
    for inner, outer, t_star in _dyadic_segments(n):
        for t in (0.0, np.floor(t_star * 1024 - 1) / 1024, np.ceil(t_star * 1024 + 1) / 1024):
            b = Behavior.from_table(n, inner + t * (outer - inner))
            res = is_k_way(b, k, mode="exact")
            assert res.is_member == vertex_lp_member(b, k), (t, t_star)
            assert not res.is_member or _rebuilds_exactly(res.weights, b)
            verdicts.append(res.is_member)
    assert 8 < sum(verdicts) < 24


@pytest.mark.parametrize("j", [24, 27, 30, 34, 38, 42])
def test_dyadic_tables_just_past_the_witness_facet_are_non_members(j):
    """B exceeds N - 1 by about 2^-j.  At HiGHS's default primal tolerance,
    1e-7, both routes raised CertificationError on all eight tables at
    j = 27, and the float route called them members at j = 30.  From
    j = 34 HiGHS finds the LP feasible within HIGHS_FEAS_TOL, so there is
    no Farkas ray: the exact route, which raised CertificationError there,
    proves them non-members with y_B, and the float route calls them
    members within FLOAT_FEAS_TOL, as it may."""
    n = 3
    for inner, outer, t_star in _dyadic_segments(n):
        t = np.ceil(t_star * 2.0 ** j + 1) / 2.0 ** j
        b = Behavior.from_table(n, inner + t * (outer - inner))
        p = [Fraction(v) for v in b.p1]
        assert -p[0] + sum(p[1 << i] for i in range(n)) > n - 1
        for mode in ("exact", "float") if j <= 30 else ("exact",):
            assert not is_k_way(b, n - 1, mode=mode).is_member


def test_the_interior_point_certifies_a_member_the_simplex_point_does_not(monkeypatch):
    """A float mixture at N = 3, k = 2 (table 138 of tests/verdict_corpus.py)
    on the affine hull: no exact point lies on the support of HiGHS's
    simplex point, pinned or not, and one lies on the interior point's."""
    table = Behavior.from_table(3, [float.fromhex(h) for h in (
        "0x1.67e9187543c0ep-1", "0x1.469fa33de947dp-1", "0x1.53e5b7630caecp-2", "0x1.1152ccf457bc9p-2",
        "0x1.77569985d421bp-1", "0x1.560d244e79a8ap-1", "0x1.53e5b7630caecp-2", "0x1.1152ccf457bc9p-2")])
    solve, methods = polytope.linprog, []

    def spy(lp, p, **kwargs):
        methods.append("interior" if kwargs.get("interior") else "simplex")
        return solve(lp, p, **kwargs)

    monkeypatch.setattr(polytope, "linprog", spy)
    res = is_k_way(table, 2, mode="exact")
    assert methods == ["simplex", "interior"]
    assert res.is_member and _rebuilds_exactly(res.weights, table)


def test_helstrom_table_near_the_facet_is_a_float_non_member():
    """At phi = 2^-12 the N = 2 table sits 3e-8 past the witness facet; at
    HiGHS's default primal tolerance, 1e-7, its float weights missed it by 4.5e-8."""
    pattern = single_query.PhasePattern.half_half(2, 2.0 ** -12)
    p0, rho0, p1, rho1 = single_query.build_discrimination_pair(2, pattern)
    b = single_query.induced_behavior(2, pattern, single_query.helstrom(p0, rho0, p1, rho1)[1])
    assert not is_k_way(b, 1, mode="float").is_member
    assert not is_k_way(b, 1, mode="exact").is_member


def _verdict(behavior, k, mode):
    try:
        res = is_k_way(behavior, k, mode=mode)
    except CertificationError as error:
        return str(error)
    return res.is_member, res.weights


def _verdict_jobs(rng):
    """Float and exact verdicts at N = 4, 5: dyadic mixtures of level-k
    vertices and uniform tables at every 1 < k < N, and at N = 4, k = 3
    dyadic tables just past the witness facet, whose exact verdicts read
    the ray."""
    jobs = []
    for n in (4, 5):
        for k in range(2, n):
            index = fibre_index(n, k)
            for _ in range(4):
                w = rng.multinomial(16, [0.25] * 4) / 16
                vertices = [rng.integers(0, 2, 2 ** k)[index[rng.integers(len(index))]] for _ in w]
                jobs += [(n, k, w @ vertices), (n, k, rng.uniform(0, 1, 2 ** n))]
    for inner, outer, t_star in _dyadic_segments(4):
        jobs.append((4, 3, inner + np.ceil(t_star * 1024 + 1) / 1024 * (outer - inner)))
    return [(Behavior.from_table(n, table), k, mode) for n, k, table in jobs for mode in ("float", "exact")]


def test_verdicts_on_two_threads_match_the_serial_ones():
    """HiGHS runs without the GIL, so two threads solve at the same time,
    each on its own HiGHS object: one object shared by both failed here
    with "LP solver failure: Not Set"."""
    jobs = _verdict_jobs(np.random.default_rng(17))
    serial = [_verdict(*job) for job in jobs]
    assert {verdict[0] for verdict in serial} == {True, False}
    with ThreadPoolExecutor(2) as pool:
        assert list(pool.map(lambda job: _verdict(*job), jobs, timeout=60)) == serial
