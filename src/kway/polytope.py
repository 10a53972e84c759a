"""The k-way-signaling polytope: closed-form facts and LP membership.

A behavior that can be produced by mixing deterministic strategies, each
reading a fixed size-k subset of the N inputs, is k-way signaling.  The
extreme points are (subset, Boolean function) pairs; distinct labels can
induce the same table (e.g. constant functions).

Membership is decided in the marginal form of local-polytope LPs (Brunner
et al., Rev. Mod. Phys. 86, 419, 2014, Sec. II).  The functions on one
subset S fill the cube [0, 1]^{2^k}, so a table is k-way iff
P(1|x) = sum_S g_S(x_S) with 0 <= g_S(a) <= q_S, q_S >= 0 and sum_S q_S = 1.
That LP has C(N,k)(2^k + 1) columns.  The model is built once per (N, k);
each LP passes only the table.  HiGHS (Huangfu and Hall, Math. Prog.
Comp. 10, 2018) solves it through scipy's compiled extension, called
directly through the one seam `linprog`, which returns HiGHS's point or
its dual ray, or raises.  One HiGHS object per thread serves both
methods, and each LP sets the method; passModel discards the previous
model's state, so results do not depend on the calls before.  A
staircase decomposition turns each box point g_S/q_S into at most
2^k + 1 weighted vertices.  Those weights, the ones returned, are the
proof of membership on both routes: they must rebuild the table and sum
to 1, within FLOAT_FEAS_TOL or exactly.  When HiGHS finds the LP
infeasible, the table rows of its dual ray, a Farkas certificate, give
the y for which the exact route checks y.p > h(y); no second LP is
solved.  The witness B's own coefficients y_B are the last y it tries.

The vertex count and the largest witness value have closed forms
(vertex_count, max_B_over_vertices), so nothing here lists the vertices;
the tests enumerate them as their oracle.
"""
from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
import threading
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Optional

import numpy as np

from .behavior import Behavior
from .exactlp import separates, solve, support_function, walsh_certificate

# One verdict on either route costs about a second or less up to this size,
# at every k; the worst measured is k = 5 at N = 8 (see CHANGES.md for the
# timings).  vertex_count and max_B_over_vertices share it.
MAX_N_LP = 8
FLOAT_FEAS_TOL = 1e-8  # float weights sum to 1 and rebuild the table within this
HIGHS_FEAS_TOL = 1e-9  # HiGHS's primal feasibility tolerance, below FLOAT_FEAS_TOL
WEIGHT_TOL = 1e-12    # float weights at or below this are dropped


@functools.cache
def _highs():
    """scipy's HiGHS extension, scipy.optimize._highspy._core, loaded alone.

    Importing it the usual way runs scipy.optimize's __init__, which costs
    about a second and 50 MB; the extension alone costs a few MB.  It is
    loaded under its own name and not registered in sys.modules; loading
    the extension file again returns the same module object, so a later
    `import scipy.optimize` sets scipy.optimize._highspy._core to this one.
    """
    name = "scipy.optimize._highspy._core"
    scipy = importlib.util.find_spec("scipy")  # finds scipy without importing it
    if scipy is not None:
        folder = os.path.join(scipy.submodule_search_locations[0], "optimize", "_highspy")
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(folder, "_core" + suffix)
            if os.path.exists(path):
                spec = importlib.util.spec_from_file_location(name, path)
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
                return module
    raise ImportError(f"kway needs scipy>=1.17, which ships the HiGHS extension {name}")


class _DirectHighs:
    """The membership LP of a table p by HiGHS: a vertex of the feasible set
    by dual simplex, or with interior=True a point inside it, by the
    interior-point method without crossover.  The model is built once per
    (N, k); each LP passes only the table, as the bounds of its rows.

    A call returns (x, ray).  x is HiGHS's point when the LP is optimal,
    else None.  ray is None unless the LP is infeasible, ray=True was
    asked and HiGHS has a dual ray; then it holds the ray's entries on the
    table rows, the y that separates checks.  The interior-point method
    without crossover returns none, and only the exact route asks for it.
    Any other outcome raises CertificationError: a model that passModel
    rejects, such as one with a NaN bound, is not run (HiGHS would still
    solve it and report a status), and an LP that HiGHS ends neither
    optimal nor infeasible is a solver failure.

    Every LP of this module goes through the instance `linprog`: tests
    substitute fakes there, and benchmark/tracer.py times it as a layer of
    its own, which it does for an instance but not for a function.  One
    HiGHS object per thread serves both methods: it is created with its
    options on the thread's first LP and reused for every later one, and
    each LP sets the method.  At N = 4, 5, building a solver and its first
    run cost 0.1-0.3 ms, as much as a whole solve at N = 4.  passModel
    discards the previous model with its basis and solution, so every LP
    still starts cold and a verdict does not depend on earlier calls.
    HiGHS runs without the GIL, so threads solve in parallel, each on its
    own object; two threads sharing one break each other's runs.

    With the options of scipy's linprog, the points are bit for bit
    the ones it returns.  Presolve is off: it left the status unknown on an
    infeasible N = 8, k = 4 table that HiGHS decides without it, and small
    LPs solve as fast or faster without it.  The primal feasibility
    tolerance is HIGHS_FEAS_TOL rather than HiGHS's default of 1e-7, which
    is looser than FLOAT_FEAS_TOL: at the default, HiGHS accepted tables
    near the boundary whose float weights then missed them, and found no
    infeasibility, hence no ray, for non-members within 1e-7 of the
    polytope.  The model goes in through passModel's flat overload, which
    takes the cached numpy arrays as buffers, not element by element.
    """

    def __init__(self):
        self._threads = threading.local()

    def __call__(self, lp, p, *, interior=False, ray=False):
        core = _highs()
        highs = getattr(self._threads, "highs", None)
        if highs is None:
            highs = self._threads.highs = core._Highs()
            dual = int(core.simplex_constants.SimplexStrategy.kSimplexStrategyDual)
            for option, value in (("output_flag", False), ("presolve", "off"), ("run_crossover", "off"),
                                  ("primal_feasibility_tolerance", HIGHS_FEAS_TOL), ("simplex_strategy", dual)):
                highs.setOptionValue(option, value)
        highs.setOptionValue("solver", "ipm" if interior else "simplex")
        row_lower = np.concatenate([-lp.infinity[:lp.cells], p, [1.0]])
        row_upper = np.concatenate([lp.zeros[:lp.cells], p, [1.0]])
        status = highs.passModel(len(lp.zeros), len(row_lower), len(lp.value), core.MatrixFormat.kColwise,
                                 core.ObjSense.kMinimize, 0.0, lp.zeros, lp.zeros, lp.infinity, row_lower,
                                 row_upper, lp.start, lp.row_index, lp.value, lp.integrality)
        if status == core.HighsStatus.kError:
            raise CertificationError("LP solver failure: HiGHS rejected the model")
        highs.run()
        status = highs.getModelStatus()
        if status == core.HighsModelStatus.kOptimal:
            return np.array(highs.getSolution().col_value), None
        if status != core.HighsModelStatus.kInfeasible:
            raise CertificationError(f"LP solver failure: {highs.modelStatusToString(status)}")
        if ray:
            _, has_ray, dual_ray = highs.getDualRay()
            if has_ray:
                return None, np.array(dual_ray)[lp.cells:lp.cells + len(p)]
        return None, None


linprog = _DirectHighs()


class PolytopeSizeError(ValueError):
    """k outside [1, N], or N above MAX_N_LP."""


class CertificationError(RuntimeError):
    """No verdict checks: the exact route found neither a member point nor
    a y that separates in exact arithmetic (HiGHS's Farkas ray or y_B), the
    float weights miss the table, or HiGHS rejected the model or ended
    neither optimal nor infeasible."""


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


def _check_size(n: int, k: int):
    if not 1 <= k <= n <= MAX_N_LP:
        raise PolytopeSizeError(f"need 1 <= k <= n <= MAX_N_LP = {MAX_N_LP}, got n={n}, k={k}")


def vertex_count(n: int, k: int) -> int:
    """Number of distinct vertices, sum_{j <= k} C(N, j) D(j).

    D(j) = sum_i (-1)^{j-i} C(j, i) 2^{2^i} counts the Boolean functions of
    j given bits that depend on all j of them (inclusion-exclusion), and
    every vertex table depends on exactly one set of at most k bits.
    """
    _check_size(n, k)
    return sum(
        comb(n, j) * sum((-1) ** (j - i) * comb(j, i) * 2 ** 2 ** i for i in range(j + 1))
        for j in range(k + 1)
    )


def _y_B(n: int) -> list:
    """The witness B's coefficients: -1 at 0...0, +1 at each e_i, 0 elsewhere."""
    y = [0] * 2 ** n
    y[0] = -1
    for i in range(n):
        y[1 << i] = 1
    return y


def max_B_over_vertices(n: int, k: int) -> float:
    """Largest witness value over all level-k vertices, h(y_B): N-1 for k < N, N for k = N."""
    _check_size(n, k)
    return float(support_function(_y_B(n), fibre_index(n, k)))


@functools.lru_cache(maxsize=None)
def fibre_index(n: int, k: int) -> np.ndarray:
    """index[s, x] = x_S for the s-th k-subset S in lexicographic order,
    its first location as the least significant bit."""
    _check_size(n, k)
    xs = np.arange(2 ** n)
    rows = [
        sum(((xs >> (loc - 1)) & 1) << pos for pos, loc in enumerate(locs))
        for locs in combinations(range(1, n + 1), k)
    ]
    index = np.array(rows)
    index.setflags(write=False)
    return index


@dataclass(frozen=True)
class _CompactLP:
    """The membership LP for one (N, k), as HiGHS's passModel takes it.

    Columns: g_S(a) at s 2^k + a, then q_S at C 2^k + s, all >= 0 at zero
    cost.  Rows: g_S(a) - q_S <= 0 at s 2^k + a, then sum_S g_S(x_S) = p(x)
    for each x, then sum_S q_S = 1.  Column j holds value[start[j]:start[j + 1]]
    in rows row_index[start[j]:start[j + 1]], in ascending order.  Every
    array is read-only: it is cached and shared by every LP of (N, k).
    """

    subsets: tuple
    index: np.ndarray        # fibre_index(n, k)
    cells: int               # the g - q rows, C 2^k
    start: np.ndarray
    row_index: np.ndarray
    value: np.ndarray
    zeros: np.ndarray        # the costs and the lower bounds
    infinity: np.ndarray     # the upper bounds
    integrality: np.ndarray  # all continuous: an empty one makes passModel fail
    equalities: tuple        # the columns in each table row, then in the last row


@functools.lru_cache(maxsize=None)
def _compact_lp(n: int, k: int) -> _CompactLP:
    index = fibre_index(n, k)
    c, m, size = index.shape[0], 2 ** k, 2 ** n
    cm = c * m
    cells = np.arange(cm)
    # g_S(a): its own g - q row, then the table rows x with x_S = a; q_S: its
    # subset's g - q rows, then the last row
    g_rows = np.hstack([cells[:, None], cm + np.argsort(index, kind="stable").reshape(cm, -1)])
    q_rows = np.hstack([cells.reshape(c, m), np.full((c, 1), cm + size)])
    arrays = (np.cumsum([0] + [g_rows.shape[1]] * cm + [m + 1] * c, dtype=np.int32),
              np.concatenate([g_rows.ravel(), q_rows.ravel()]).astype(np.int32),
              np.concatenate([np.ones(g_rows.size), np.tile([-1.0] * m + [1.0], c)]),
              np.zeros(cm + c), np.full(cm + c, np.inf), np.zeros(cm + c, np.int32))
    for array in arrays:
        array.setflags(write=False)
    g_cols = np.arange(c)[:, None] * m + index
    equalities = tuple(map(tuple, g_cols.T.tolist())) + (tuple(range(cm, cm + c)),)
    return _CompactLP(tuple(combinations(range(1, n + 1), k)), index, cm, *arrays, equalities)


# Staircase vertices recur from call to call; one shared object per label
# keeps the results small.
_vertex = functools.lru_cache(maxsize=4096)(DeterministicVertex)


def _mixture(lp: _CompactLP, g, q, p, drop):
    """(weights, gap) for the staircase vertices of each box point g_S/q_S,
    or None when a weight is negative, i.e. some g_S(a) lies outside [0, q_S].

    Sort g_S in decreasing order: the j-th vertex on S outputs 1 on the top
    j coordinates, with weight (j-th largest) - ((j+1)-th largest), q_S
    above the largest and 0 below the smallest.  Weights at or below drop
    are left out, of the sums too.  The gap, the larger of
    max_x |sum w v(x) - p(x)| and |sum w - 1|, is 0 iff the weights mix to p.
    """
    m = 2 ** len(lp.subsets[0])
    weights, rebuilt = {}, 0
    for locs, g_s, q_s, fibre in zip(lp.subsets, g, q, lp.index):
        order = sorted(range(m), key=g_s.__getitem__, reverse=True)
        levels = [q_s] + [g_s[a] for a in order] + [0]
        table, box = [0] * m, [0] * m
        for j in range(m + 1):
            if j:
                table[order[j - 1]] = 1
            w = levels[j] - levels[j + 1]
            if w < 0:
                return None
            if w > drop:
                weights[_vertex(locs, tuple(table))] = w
                for a in order[:j]:
                    box[a] += w
        rebuilt = rebuilt + np.array(box)[fibre]
    return weights, max(np.max(np.abs(rebuilt - p)), abs(sum(weights.values()) - 1))


def _float_member(lp: _CompactLP, x, p) -> MembershipResult:
    """Weights read off HiGHS's point, checked against the table within FLOAT_FEAS_TOL."""
    c, m = len(lp.subsets), 2 ** len(lp.subsets[0])
    q = np.maximum(x[c * m:], 0.0)
    g = np.clip(x[: c * m].reshape(c, m), 0.0, q[:, None])
    weights, gap = _mixture(lp, g.tolist(), q.tolist(), p, WEIGHT_TOL)  # clipped, so never None
    if not gap <= FLOAT_FEAS_TOL:
        raise CertificationError(f"LP weights miss the table by {gap:g}")
    return MembershipResult(True, weights)


def _exact_member(lp: _CompactLP, x, p) -> Optional[MembershipResult]:
    """Fraction weights from the compact LP's equalities solved exactly on
    the support of HiGHS's point x, or None when no such point checks.

    The first attempt drops the columns at or below HIGHS_FEAS_TOL and pins
    g_S(a) = q_S where x has them within it, which leaves fewer unknowns: a
    value within HiGHS's primal feasibility tolerance of a bound is at that
    bound for the solver that produced it.  The weights are checked
    exactly, so a wrong pin costs only that attempt.  Pinning fails when x
    is off by HiGHS's tolerance, as on the table with every entry
    1 - 2^-53 at N = 3, k = 2, where the simplex point has
    g_S = q_S = 1 - 2^-52 on one subset; the second attempt keeps every
    positive column and pins nothing.
    """
    c, m = len(lp.subsets), 2 ** len(lp.subsets[0])
    cm = c * m
    for pin in (True, False):
        support = set(np.flatnonzero(x > (HIGHS_FEAS_TOL if pin else 0)).tolist())
        # the unknown each support column stands for: a pinned g_S(a) is q_S
        alias = {}
        for j in support:
            q_col = cm + j // m
            pinned = pin and j < cm and q_col in support and x[q_col] - x[j] <= HIGHS_FEAS_TOL
            alias[j] = q_col if pinned else j
        unknowns = sorted(set(alias.values()))
        position = {u: i for i, u in enumerate(unknowns)}
        column = {j: position[u] for j, u in alias.items()}
        rows = []
        for cells in lp.equalities:
            row = {}
            for j in cells:
                if j in column:
                    row[column[j]] = row.get(column[j], 0) + 1
            rows.append(row)
        guess = [x[u] if x[u] > HIGHS_FEAS_TOL else 0.0 for u in unknowns]
        z = solve(rows, list(p) + [1], guess)
        if z is None:
            continue
        full = [Fraction(0)] * (cm + c)
        for j in support:
            full[j] = z[column[j]]
        mix = _mixture(lp, [full[s * m:(s + 1) * m] for s in range(c)], full[cm:], p, 0)
        if mix is not None and mix[1] == 0:
            return MembershipResult(True, mix[0])
    return None


def is_k_way(behavior: Behavior, k: int, mode: str = "auto") -> MembershipResult:
    """Is the behavior a convex mixture of level-k vertices?

    Both routes solve the compact LP of the module docstring with HiGHS,
    called directly; infeasibility is a negative result, not an error.  An
    LP that HiGHS ends neither optimal nor infeasible raises
    CertificationError; a Behavior checks its own table when built.

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
       interior point, each read at HIGHS_FEAS_TOL (see _exact_member):
       the staircase weights of that solution, checked nonnegative,
       summing to 1 and rebuilding the table exactly;
    3. when the simplex LP is infeasible, the table rows of HiGHS's dual
       ray (a Farkas certificate) are a y, and y.p > h(y) is checked;
    4. failing all of these, y = y_B, the witness B's coefficients, is
       checked the same way: it proves the tables just past the facet
       B = N - 1 that HiGHS finds feasible within its tolerance.
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
    _check_size(n, k)
    lp = _compact_lp(n, k)
    p_float = np.array(behavior.p1)
    if mode == "exact":
        p = [Fraction(v) for v in behavior.p1]
        y = walsh_certificate(p, n, k)
        if y is not None and separates(y, p, lp.index):
            return MembershipResult(False, None)
    x, ray = linprog(lp, p_float, ray=mode == "exact")
    if mode == "float":
        return _float_member(lp, x, p_float) if x is not None else MembershipResult(False, None)
    if x is not None:  # then ray is None, and the interior-point LP returns no ray
        member = _exact_member(lp, x, p)
        if member is None:
            x, _ = linprog(lp, p_float, interior=True)
            member = _exact_member(lp, x, p) if x is not None else None
        if member is not None:
            return member
    if ray is not None and separates(ray.tolist(), p, lp.index):
        return MembershipResult(False, None)
    if separates(_y_B(n), p, lp.index):
        return MembershipResult(False, None)
    raise CertificationError(f"no exact certificate for N={n}, k={k}: the table may lie on the polytope's boundary")
