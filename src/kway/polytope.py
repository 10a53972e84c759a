"""The k-way-signaling polytope: closed-form facts and LP membership.

A behavior that can be produced by mixing deterministic strategies, each
reading a fixed size-k subset of the N inputs, is k-way signaling.  The
extreme points are (subset, Boolean function) pairs; distinct labels can
induce the same table (e.g. constant functions).

Membership is decided in the marginal form of local-polytope LPs (Brunner
et al., Rev. Mod. Phys. 86, 419, 2014, Sec. II).  The functions on one
subset S fill the cube [0, 1]^{2^k}, so a table is k-way iff
P(1|x) = sum_S g_S(x_S) with 0 <= g_S(a) <= q_S, q_S >= 0 and sum_S q_S = 1.
That LP has C(N,k)(2^k + 1) columns.  Its sparse matrices are built once
per (N, k), column by column, and HiGHS (Huangfu and Hall, Math. Prog.
Comp. 10, 2018) solves it through scipy's compiled extension, called
directly: a fresh solver per LP, through the one seam `linprog`.  A
staircase decomposition turns each box point g_S/q_S into at most
2^k + 1 weighted vertices.

The vertex count and the largest witness value have closed forms
(vertex_count, max_B_over_vertices).  enumerate_vertices lists the
vertices themselves; no production path calls it, and the tests use it as
their oracle.
"""
from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import NamedTuple, Optional

import numpy as np

from .behavior import Behavior
from .exactlp import check_member, separates, solve, support_function, walsh_certificate

# One verdict on either route costs about a second or less up to this size,
# at every k; the worst measured is k = 5 at N = 8 (see CHANGES.md for the
# timings).  vertex_count and max_B_over_vertices share it.
MAX_N_LP = 8
MAX_N_ENUMERATE = 5   # enumerate_vertices loops over C(N,k) 2^(2^k) labels
FLOAT_FEAS_TOL = 1e-8  # float weights sum to 1 and rebuild the table within this
WEIGHT_TOL = 1e-12    # float weights at or below this are dropped
TIGHT_TOL = 1e-9      # a simplex q_S - g_S(a) or g_S(a) at or below this reads as 0
INTERIOR_TOL = 1e-6   # the same for an interior point, whose primal tolerance is 1e-7


def _highs():
    """scipy's HiGHS extension, scipy.optimize._highspy._core, loaded alone.

    Importing it the usual way runs scipy.optimize's __init__, which costs
    about a second and 50 MB; the extension alone costs a few MB.  It is
    loaded under its own name and registered in sys.modules, so a later
    `import scipy.optimize` reuses this module object.
    """
    name = "scipy.optimize._highspy._core"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")  # finds scipy without importing it
    if scipy is not None:
        folder = os.path.join(scipy.submodule_search_locations[0], "optimize", "_highspy")
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(folder, "_core" + suffix)
            if os.path.exists(path):
                spec = importlib.util.spec_from_file_location(name, path)
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
                sys.modules[name] = module
                return module
    raise ImportError(f"kway needs scipy>=1.17, which ships the HiGHS extension {name}")


class _LPResult(NamedTuple):
    status: int               # scipy's codes: 0 optimal, 2 infeasible, 4 any other outcome
    message: str
    x: Optional[np.ndarray]   # only when optimal


class _DirectHighs:
    """One LP by HiGHS: minimize c.x subject to row_lower <= A x <= row_upper
    and col_lower <= x <= col_upper, with A a _Csc matrix.

    Every LP of this module goes through the instance `linprog`: tests
    substitute fakes there, and benchmark/tracer.py times it as a layer of
    its own, which it does for an instance but not for a function.  Each
    call builds a fresh solver, so a verdict never depends on earlier calls.

    With the options of scipy's linprog, the points are bit for bit
    the ones it returns.  Presolve is off: it left the status unknown on an
    infeasible N = 8, k = 4 table that HiGHS decides without it, and small
    LPs solve as fast or faster without it.  The dual simplex runs, or with
    interior=True the interior-point method without crossover.
    """

    def __call__(self, c, *, matrix, row_lower, row_upper, col_lower, col_upper, interior=False) -> _LPResult:
        core = _highs()
        lp = core.HighsLp()
        lp.num_col_, lp.num_row_ = len(c), matrix.num_row
        lp.col_cost_, lp.col_lower_, lp.col_upper_ = c, col_lower, col_upper
        lp.row_lower_, lp.row_upper_ = row_lower, row_upper
        a = lp.a_matrix_
        a.format_ = core.MatrixFormat.kColwise
        a.num_col_, a.num_row_ = len(c), matrix.num_row
        a.start_, a.index_, a.value_ = matrix.start, matrix.index, matrix.value
        highs = core._Highs()
        highs.setOptionValue("output_flag", False)
        highs.setOptionValue("presolve", "off")
        highs.setOptionValue("simplex_strategy", int(core.simplex_constants.SimplexStrategy.kSimplexStrategyDual))
        if interior:
            highs.setOptionValue("solver", "ipm")
            highs.setOptionValue("run_crossover", "off")
        highs.passModel(lp)
        highs.run()
        status = highs.getModelStatus()
        message = highs.modelStatusToString(status)
        if status == core.HighsModelStatus.kOptimal:
            return _LPResult(0, message, np.array(highs.getSolution().col_value))
        return _LPResult(2 if status == core.HighsModelStatus.kInfeasible else 4, message, None)


linprog = _DirectHighs()


class PolytopeSizeError(ValueError):
    """Requested instance exceeds the supported exact/floating size guards."""


class CertificationError(RuntimeError):
    """No verdict checks: the exact route found neither a member point nor
    a separating hyperplane that checks in exact arithmetic, the float
    weights miss the table, or HiGHS ended neither optimal nor infeasible."""


@dataclass(frozen=True, order=True)
class DeterministicVertex:
    """A deterministic strategy: read the inputs at `locations` (1-based,
    strictly increasing) and output f of those bits.  `truth_table` lists
    f over the 2^k subset-input strings, first listed location as LSB."""

    locations: tuple
    truth_table: tuple

    def __post_init__(self):
        k = len(self.locations)
        if list(self.locations) != sorted(set(self.locations)):
            raise ValueError("locations must be strictly increasing")
        if len(self.truth_table) != 2 ** k:
            raise ValueError("truth table length must be 2^k")
        if any(b not in (0, 1) for b in self.truth_table):
            raise ValueError("truth table entries must be bits")


@dataclass(frozen=True)
class MembershipResult:
    is_member: bool
    weights: Optional[dict]  # DeterministicVertex -> weight, only when member

    def to_json(self, n: int, k: int) -> str:
        obj = {"n": n, "k": k, "member": self.is_member, "weights": []}
        if self.weights:
            for v, w in sorted(self.weights.items()):
                obj["weights"].append(
                    {
                        "locations": list(v.locations),
                        "truth_table": list(v.truth_table),
                        "lambda": float(w),
                    }
                )
        return json.dumps(obj)


def vertex_table(v: DeterministicVertex, n: int) -> tuple:
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


def vertex_to_behavior(v: DeterministicVertex, n: int) -> Behavior:
    return Behavior.from_table(n, vertex_table(v, n))


def _check_size(n: int, k: int, cap: int, what: str):
    if not 1 <= k <= n:
        raise PolytopeSizeError(f"need 1 <= k <= n, got k={k}, n={n}")
    if n > cap:
        raise PolytopeSizeError(f"{what} capped at N={cap}")


def enumerate_vertices(n: int, k: int):
    """All distinct deterministic k-way behaviors for N inputs.

    Returns a deterministically ordered list of representative vertices; two
    (subset, function) labels inducing the same table are merged.
    """
    _check_size(n, k, MAX_N_ENUMERATE, "vertex enumeration")
    seen = {}
    for locs in combinations(range(1, n + 1), k):
        for fidx in range(2 ** (2 ** k)):
            tt = tuple((fidx >> a) & 1 for a in range(2 ** k))
            v = DeterministicVertex(locs, tt)
            table = vertex_table(v, n)
            if table not in seen:
                seen[table] = v
    return [seen[t] for t in sorted(seen)]


def vertex_count(n: int, k: int) -> int:
    """Number of distinct vertices, sum_{j <= k} C(N, j) D(j).

    D(j) = sum_i (-1)^{j-i} C(j, i) 2^{2^i} counts the Boolean functions of
    j given bits that depend on all j of them (inclusion-exclusion), and
    every vertex table depends on exactly one set of at most k bits.
    """
    _check_size(n, k, MAX_N_LP, "vertex count")
    return sum(
        comb(n, j) * sum((-1) ** (j - i) * comb(j, i) * 2 ** 2 ** i for i in range(j + 1))
        for j in range(k + 1)
    )


def max_B_over_vertices(n: int, k: int) -> float:
    """Largest witness value over all level-k vertices, h(y_B): N-1 for k < N, N for k = N."""
    _check_size(n, k, MAX_N_LP, "witness bound")
    y = [0] * 2 ** n
    y[0] = -1
    for i in range(n):
        y[1 << i] = 1
    return float(support_function(y, fibre_index(n, k)))


@functools.lru_cache(maxsize=None)
def fibre_index(n: int, k: int) -> np.ndarray:
    """index[s, x] = x_S for the s-th k-subset S in lexicographic order,
    its first location as the least significant bit."""
    xs = np.arange(2 ** n)
    rows = [
        sum(((xs >> (loc - 1)) & 1) << pos for pos, loc in enumerate(locs))
        for locs in combinations(range(1, n + 1), k)
    ]
    index = np.array(rows)
    index.setflags(write=False)
    return index


class _Csc(NamedTuple):
    """A sparse matrix column by column, as HiGHS takes it: column j holds
    value[start[j]:start[j + 1]] in rows index[start[j]:start[j + 1]]."""

    num_row: int
    start: np.ndarray
    index: np.ndarray
    value: np.ndarray


def _csc(rows, cols, vals, shape) -> _Csc:
    """The CSC form of the entries (rows[i], cols[i], vals[i]), each given
    once, with the rows sorted within each column."""
    rows, cols, vals = (np.concatenate(parts) for parts in (rows, cols, vals))
    order = np.lexsort((rows, cols))
    start = np.zeros(shape[1] + 1, dtype=np.int32)
    np.cumsum(np.bincount(cols, minlength=shape[1]), out=start[1:])
    matrix = _Csc(shape[0], start, rows[order].astype(np.int32), vals[order].astype(float))
    for array in matrix[1:]:
        array.setflags(write=False)   # cached per (N, k) and shared by every call
    return matrix


@dataclass(frozen=True)
class _CompactLP:
    """The membership LP and the separation LP for one (N, k), as CSC matrices.

    Membership columns: g_S(a) at s 2^k + a, then q_S at C 2^k + s.
    Separation columns: y_x, then u_{S,a}, then t.
    """

    subsets: tuple
    index: np.ndarray
    g_cols: np.ndarray    # g_cols[s, x]: the column of g_S(x_S)
    member: _Csc          # g_S(a) - q_S <= 0, then sum_S g_S(x_S) = p(x) for each x, then sum_S q_S = 1
    separation: _Csc      # sum_{x_S = a} y_x - u_{S,a} <= 0, then sum_a u_{S,a} - t <= 0


@functools.lru_cache(maxsize=None)
def _compact_lp(n: int, k: int) -> _CompactLP:
    index = fibre_index(n, k)
    c, m, size = index.shape[0], 2 ** k, 2 ** n
    cm = c * m
    g_cols = np.arange(c)[:, None] * m + index
    g_col = g_cols.ravel()
    xs = np.tile(np.arange(size), c)
    cells, subset_of_cell = np.arange(cm), np.arange(cm) // m
    ones, minus = np.ones(cm), -np.ones(cm)
    member = _csc(
        [cells, cells, cm + xs, np.full(c, cm + size)],
        [cells, cm + subset_of_cell, g_col, cm + np.arange(c)],
        [ones, minus, np.ones(c * size), np.ones(c)],
        (cm + size + 1, cm + c),
    )
    separation = _csc(
        [g_col, cells, cm + subset_of_cell, cm + np.arange(c)],
        [xs, size + cells, size + cells, np.full(c, size + cm)],
        [np.ones(c * size), minus, ones, -np.ones(c)],
        (cm + c, size + cm + 1),
    )
    subsets = tuple(combinations(range(1, n + 1), k))
    return _CompactLP(subsets, index, g_cols, member, separation)


# Staircase vertices recur from call to call; one shared object per label
# keeps the results small.
_vertex = functools.lru_cache(maxsize=4096)(DeterministicVertex)


def _staircase(locs, g_s, q_s, tol):
    """(vertex, weight) pairs on the subset locs, weights above tol, with
    sum w = q_s and sum w table = g_s.

    Sort the coordinates in decreasing order: the j-th vertex outputs 1 on
    the top j of them, with weight (j-th largest) - ((j+1)-th largest),
    where q_s stands above the largest and 0 below the smallest.
    """
    order = sorted(range(len(g_s)), key=g_s.__getitem__, reverse=True)
    levels = [q_s] + [g_s[a] for a in order] + [0]
    table = [0] * len(g_s)
    out = []
    for j in range(len(g_s) + 1):
        if j:
            table[order[j - 1]] = 1
        w = levels[j] - levels[j + 1]
        if w > tol:
            out.append((_vertex(locs, tuple(table)), w))
    return out


def _float_member(lp: _CompactLP, x, p) -> MembershipResult:
    """Weights read off HiGHS's point, checked against the table within FLOAT_FEAS_TOL."""
    c, m = len(lp.subsets), 2 ** len(lp.subsets[0])
    g, q = x[: c * m].reshape(c, m), np.maximum(x[c * m:], 0.0)
    g = np.clip(g, 0.0, q[:, None]).tolist()
    weights, rebuilt, total = {}, np.zeros(len(p)), 0.0
    for s, locs in enumerate(lp.subsets):
        box = np.zeros(m)
        for v, w in _staircase(locs, g[s], float(q[s]), WEIGHT_TOL):
            weights[v] = w
            box += w * np.array(v.truth_table)
            total += w
        rebuilt += box[lp.index[s]]
    gap = max(float(np.max(np.abs(rebuilt - p))), abs(total - 1.0))
    if gap > FLOAT_FEAS_TOL:
        raise CertificationError(f"LP weights miss the table by {gap:g}")
    return MembershipResult(True, weights)


def _exact_member(lp: _CompactLP, x, p, tol) -> Optional[MembershipResult]:
    """Fraction weights from the compact LP's equalities solved exactly on
    the support of HiGHS's point x, or None when no such point checks.

    The first attempt drops the columns at or below tol and pins
    g_S(a) = q_S where x has them within tol, which leaves fewer unknowns.
    It fails when x is off by HiGHS's tolerance, as on the table with every
    entry 1 - 2^-53 at N = 3, k = 2, where the simplex point has
    g_S = q_S = 1 - 2^-52 on one subset; the second attempt keeps every
    positive column and pins nothing.
    """
    c, m = len(lp.subsets), 2 ** len(lp.subsets[0])
    cm = c * m
    for pin in (True, False):
        support = set(np.flatnonzero(x > (tol if pin else 0)).tolist())
        # the unknown each support column stands for: a pinned g_S(a) is q_S
        alias = {}
        for j in support:
            q_col = cm + j // m
            pinned = pin and j < cm and q_col in support and x[q_col] - x[j] <= tol
            alias[j] = q_col if pinned else j
        unknowns = sorted(set(alias.values()))
        position = {u: i for i, u in enumerate(unknowns)}
        column = {j: position[u] for j, u in alias.items()}
        rows = []
        for cells in lp.g_cols.T.tolist() + [range(cm, cm + c)]:
            row = {}
            for j in cells:
                if j in column:
                    row[column[j]] = row.get(column[j], 0) + 1
            rows.append(row)
        guess = [x[u] if x[u] > tol else 0.0 for u in unknowns]
        z = solve(rows, list(p) + [1], guess)
        if z is None:
            continue
        full = [Fraction(0)] * (cm + c)
        for j in support:
            full[j] = z[column[j]]
        g = [full[s * m:(s + 1) * m] for s in range(c)]
        q = full[cm:]
        if check_member(g, q, p, lp.index):
            weights = {v: w for locs, g_s, q_s in zip(lp.subsets, g, q) for v, w in _staircase(locs, g_s, q_s, 0)}
            return MembershipResult(True, weights)
    return None


def _membership_lp(lp: _CompactLP, p_float, interior=False):
    """HiGHS on the compact LP: a vertex of the feasible set by dual simplex,
    or with interior=True a point inside it, by the interior-point method
    without crossover."""
    cols = len(lp.member.start) - 1
    cells = cols - len(lp.subsets)
    res = linprog(np.zeros(cols), matrix=lp.member, interior=interior,
                  row_lower=np.concatenate([np.full(cells, -np.inf), p_float, [1.0]]),
                  row_upper=np.concatenate([np.zeros(cells), p_float, [1.0]]),
                  col_lower=np.zeros(cols), col_upper=np.full(cols, np.inf))
    if res.status not in (0, 2):
        raise CertificationError(f"LP solver failure: {res.message}")
    return res


def _separating_vector(lp: _CompactLP, p_float):
    """y from the separation LP: maximize y.p - t over |y| <= 1, t >= h(y)."""
    size = len(p_float)
    cols = len(lp.separation.start) - 1
    cost = np.zeros(cols)
    cost[:size], cost[-1] = -p_float, 1.0
    res = linprog(cost, matrix=lp.separation,
                  row_lower=np.full(lp.separation.num_row, -np.inf), row_upper=np.zeros(lp.separation.num_row),
                  col_lower=np.concatenate([-np.ones(size), np.zeros(cols - size)]),
                  col_upper=np.concatenate([np.ones(size), np.full(cols - size, np.inf)]))
    if res.status != 0:
        raise CertificationError(f"LP solver failure: {res.message}")
    return [Fraction(v) for v in res.x[:size].tolist()]


def is_k_way(behavior: Behavior, k: int, mode: str = "auto") -> MembershipResult:
    """Is the behavior a convex mixture of level-k vertices?

    Both routes solve the compact LP of the module docstring with HiGHS,
    called directly; infeasibility is a negative result, not an error.  An
    LP that HiGHS ends neither optimal nor infeasible raises
    CertificationError.

    mode "float" reads float weights off HiGHS's point and checks that
    they sum to 1 and reproduce the table within FLOAT_FEAS_TOL; otherwise
    it raises CertificationError.

    mode "exact" decides membership for the exact rational value of each
    float entry, and every verdict carries a proof checked in exact
    arithmetic:

    1. a nonzero Walsh coefficient at some |T| > k puts the table off the
       polytope's affine hull, a non-member (no LP is solved);
    2. a member gets Fraction weights from the LP equalities solved exactly
       on the support of HiGHS's simplex point, or failing that of an
       interior point, checked feasible before they are returned;
    3. otherwise the separation LP proposes y, and y.p > h(y) is checked.
    If no certificate checks, it raises CertificationError.  That happens
    to tables within rounding of the boundary, whose exact value may fall
    on either side.  A mixture of vertices computed in floating point is
    rounded, and the rounded table usually leaves the affine hull, so the
    exact route rejects it, with proof; use mode="float" for float data,
    and exact route inputs that are exact binary fractions (e.g. mixtures
    with weights in multiples of 1/16).

    mode "auto" takes the exact route for N <= 3 and the float route above.
    Every mode is capped at N = MAX_N_LP.
    """
    n = behavior.n_locations
    if mode == "auto":
        mode = "exact" if n <= 3 else "float"
    if mode not in ("exact", "float"):
        raise ValueError(f"unknown mode {mode!r}")
    _check_size(n, k, MAX_N_LP, f"{mode} mode")
    lp = _compact_lp(n, k)
    p_float = np.array(behavior.p1)
    if mode == "exact":
        p = [Fraction(v) for v in behavior.p1]
        y = walsh_certificate(p, n, k)
        if y is not None and separates(y, p, lp.index):
            return MembershipResult(False, None)
    res = _membership_lp(lp, p_float)
    if mode == "float":
        return _float_member(lp, res.x, p_float) if res.status == 0 else MembershipResult(False, None)
    if res.status == 0:
        member = _exact_member(lp, res.x, p, TIGHT_TOL)
        if member is None:
            inner = _membership_lp(lp, p_float, interior=True)
            member = _exact_member(lp, inner.x, p, INTERIOR_TOL) if inner.status == 0 else None
        if member is not None:
            return member
    if separates(_separating_vector(lp, p_float), p, lp.index):
        return MembershipResult(False, None)
    raise CertificationError(f"no exact certificate for N={n}, k={k}: the table may lie on the polytope's boundary")
