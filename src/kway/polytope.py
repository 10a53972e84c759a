"""Vertex enumeration and LP membership for the k-way-signaling polytope.

A behavior that can be produced by mixing deterministic strategies, each
reading a fixed size-k subset of the N inputs, is k-way signaling.  The
extreme points are (subset, Boolean function) pairs; distinct labels can
induce the same table (e.g. constant functions), so vertices are
deduplicated by their induced 2^N table.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional

import numpy as np

from .behavior import Behavior, eval_B
from .exactlp import solve_feasibility

MAX_N_EXACT = 4
MAX_N_FLOAT = 5
FLOAT_FEAS_TOL = 1e-8


class _LinprogOnFirstCall:
    """scipy.optimize.linprog, imported on the first call: only the float
    route needs scipy, which adds about 50 MB to any process importing it.
    An instance, so that benchmark/tracer.py times it as its own layer."""

    def __call__(self, *args, **kwargs):
        from scipy.optimize import linprog as scipy_linprog

        return scipy_linprog(*args, **kwargs)


linprog = _LinprogOnFirstCall()


class PolytopeSizeError(ValueError):
    """Requested instance exceeds the supported exact/floating size guards."""


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


def enumerate_vertices(n: int, k: int):
    """All distinct deterministic k-way behaviors for N inputs.

    Returns a deterministically ordered list of representative vertices; two
    (subset, function) labels inducing the same table are merged.
    """
    if not 1 <= k <= n:
        raise PolytopeSizeError(f"need 1 <= k <= n, got k={k}, n={n}")
    if n > MAX_N_FLOAT:
        raise PolytopeSizeError(f"vertex enumeration capped at N={MAX_N_FLOAT}")
    seen = {}
    for locs in combinations(range(1, n + 1), k):
        for fidx in range(2 ** (2 ** k)):
            tt = tuple((fidx >> a) & 1 for a in range(2 ** k))
            v = DeterministicVertex(locs, tt)
            table = vertex_table(v, n)
            if table not in seen:
                seen[table] = v
    return [seen[t] for t in sorted(seen)]


def max_B_over_vertices(n: int, k: int) -> float:
    """Largest witness value over all level-k vertices: N-1 for k < N, N for k = N."""
    return max(eval_B(vertex_to_behavior(v, n)) for v in enumerate_vertices(n, k))


def is_k_way(behavior: Behavior, k: int, mode: str = "auto") -> MembershipResult:
    """LP membership test: is the behavior a convex mixture of level-k vertices?

    mode "exact" runs a rational simplex (N <= 4); "float" uses scipy's HiGHS
    with feasibility tolerance 1e-8 (N <= 5); "auto" picks exact for N <= 3.
    Infeasibility is a negative result, not an error.
    """
    n = behavior.n_locations
    if mode == "auto":
        mode = "exact" if n <= 3 else "float"
    if mode == "exact" and n > MAX_N_EXACT:
        raise PolytopeSizeError(f"exact mode capped at N={MAX_N_EXACT}")
    if mode == "float" and n > MAX_N_FLOAT:
        raise PolytopeSizeError(f"floating mode capped at N={MAX_N_FLOAT}")
    if mode not in ("exact", "float"):
        raise ValueError(f"unknown mode {mode!r}")

    vertices = enumerate_vertices(n, k)
    tables = [vertex_table(v, n) for v in vertices]

    if mode == "exact":
        rows = [[Fraction(t[x]) for t in tables] for x in range(2 ** n)]
        rows.append([Fraction(1)] * len(vertices))
        rhs = [Fraction(p) for p in behavior.p1] + [Fraction(1)]
        sol = solve_feasibility(rows, rhs)
        if sol is None:
            return MembershipResult(False, None)
        weights = {v: w for v, w in zip(vertices, sol) if w != 0}
        return MembershipResult(True, weights)

    a_eq = np.array(tables, dtype=float).T  # (2^n, nv)
    a_eq = np.vstack([a_eq, np.ones(len(vertices))])
    b_eq = np.concatenate([np.array(behavior.p1), [1.0]])
    res = linprog(
        c=np.zeros(len(vertices)),
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=(0, None),
        method="highs",
    )
    if res.status == 2:
        return MembershipResult(False, None)
    if res.status != 0:
        raise RuntimeError(f"LP solver failure: {res.message}")
    resid = np.max(np.abs(a_eq @ res.x - b_eq))
    if resid > FLOAT_FEAS_TOL:
        raise RuntimeError(f"LP residual {resid:g} above tolerance")
    weights = {v: float(w) for v, w in zip(vertices, res.x) if w > 1e-12}
    return MembershipResult(True, weights)
