"""Seeded task lists of the three workloads.

A task list is a fixed multiset.  Each size class holds a fixed count of
each kind of task, and the classes are sized so that the median and the
tail percentile of the task times fall inside a class, not on a boundary
between two.  The seed places each size at random within its own equal-width
stratum of the class range, draws phases and mixtures, and shuffles the
order; it cannot move work from one class to another.  The one class whose
cost depends strongly on its inputs, membership's exact route, draws them
from FIXED_SEED instead.

The WARMUP lists hold one small task of each kind.  They are run once
before timing, and the self-test runs them as a smoke test.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from checks import (
    grover_kmax,
    half_half_phases,
    own_delta,
    violation_threshold,
)

MIN_DELTA = 1e-3  # non-member tables sit at least this far outside the polytope


@dataclass
class Task:
    check: str                                # name of the checker in checks.py
    size_class: str
    spec: dict = field(default_factory=dict)  # inputs and what the checker needs
    argv: tuple = ()                          # a CLI call `kway <argv>`; empty for a verdict


def strata(rng, lo, hi, count):
    """One integer per equal-width stratum of [lo, hi], placed at random within it."""
    points = lo + (hi - lo) * (np.arange(count) + rng.random(count)) / count
    return [int(round(p)) for p in points]


# --- grover-curve ------------------------------------------------------------

# (class, count, of which --format json, N range).  Each range keeps
# K = ceil(pi sqrt(N)/4) + 1 constant, so tasks of a class cost the same.
# A pass costs about 1 s, so a 30 s run times each task some 30 times.
GROVER = [
    ("small", 25, 6, (112, 128)),
    ("medium", 13, 4, (176, 192)),
    ("large", 2, 0, (384, 400)),
]
GROVER_WARMUP = [("warmup", 2, 1, (64, 64))]


def grover_tasks(rng, classes):
    tasks = []
    for size_class, count, n_json, (lo, hi) in classes:
        fmts = ["json"] * n_json + ["csv"] * (count - n_json)
        rng.shuffle(fmts)
        for n, fmt in zip(strata(rng, lo, hi, count), fmts):
            kmax = grover_kmax(n)
            argv = ("grover", "--n", str(n), "--kmax", str(kmax))
            if fmt == "json":
                argv += ("--format", "json")
            tasks.append(Task("grover", size_class, {"n": n, "kmax": kmax, "fmt": fmt}, argv))
    return tasks


# --- violation-scan ----------------------------------------------------------

# (class, N range, {kind: count}); "scan" sizes are --n-max.  N = 2 appears
# only in the maximum search and in scans: with --phi, the N = 2 row mixes
# two phase patterns (see CHANGES.md), and its checker rejects it.  The
# median falls in "mid" and the tail in "upper".  The scans sit above the
# tail: a slow phase of the host slows the pool's start-up about twice as
# much as the computing around it.
VIOLATION = [
    ("tiny", (2, 2), {"max": 1}),
    ("tiny", (5, 24), {"phi-violation": 4, "phi-none": 3, "max": 3}),
    ("mid", (96, 112), {"phi-violation": 8, "phi-none": 7, "max": 5}),
    ("upper", (160, 176), {"phi-violation": 5, "phi-none": 4, "max": 3}),
    ("scan", (40, 44), {"scan": 3}),
    ("large", (256, 272), {"phi-violation": 1, "max": 1}),
]
VIOLATION_WARMUP = [("warmup", (8, 8), {"phi-violation": 1, "max": 1, "scan": 1})]


def _phi(rng, n, violating):
    """A phase on the requested side of the sharp threshold, clear of it."""
    edge = math.acos(violation_threshold(n))  # N >= 5, so edge < pi
    lo, hi = (0.1 * edge, 0.9 * edge) if violating else (1.1 * edge, math.pi - 0.05)
    return float(rng.uniform(lo, hi))


def violation_tasks(rng, classes):
    tasks = []
    for size_class, (lo, hi), counts in classes:
        kinds = [kind for kind, count in counts.items() for _ in range(count)]
        rng.shuffle(kinds)
        for n, kind in zip(strata(rng, lo, hi, len(kinds)), kinds):
            if kind == "scan":
                argv = ("scan", "--n-min", "2", "--n-max", str(n))
                tasks.append(Task("scan", size_class, {"n_max": n}, argv))
            elif kind == "max":
                tasks.append(Task("violation", size_class, {"n": n, "phi": None}, ("violation", "--n", str(n))))
            else:
                phi = _phi(rng, n, kind == "phi-violation")
                argv = ("violation", "--n", str(n), "--phi", repr(phi))
                tasks.append(Task("violation", size_class, {"n": n, "phi": phi}, argv))
    return tasks


# --- membership --------------------------------------------------------------

def _verdict(n, k, mode, member):
    return ("verdict", {"n": n, "k": k, "mode": mode, "member": member})


# (class, fixed, [(count, (checker, params))]).  Exact route: mode "auto"
# at N = 3 and "exact" at N = 4; float route: "float" at N = 4, 5.  The
# median falls in "small" (float N = 5, k = 2) and the tail in "mid"
# (float N = 4, k = 3), whose costs vary little with the table.  The exact
# route at k >= 2 (also `witness --n 3`) costs from 10 to 250 ms depending
# on the table, so the "exact" class draws its tables and phases from
# FIXED_SEED, not from the run's seed: its cost is the same in every run.
# Left out: exact N = 4, k = 3 and anything at N = 5, k = 4, whose single
# calls outlast a run.
FIXED_SEED = 0
MEMBERSHIP = [
    ("cheap", False, [
        (1, _verdict(3, 1, "auto", True)), (1, _verdict(3, 1, "auto", False)),
        (1, _verdict(4, 1, "float", True)), (1, _verdict(4, 1, "float", False)),
        (1, _verdict(4, 2, "float", True)), (1, _verdict(4, 2, "float", False)),
        (1, _verdict(5, 1, "float", True)), (1, _verdict(5, 1, "float", False)),
        (2, ("witness", {"n": 2})),
        (2, ("polytope", {"n": 3, "ks": (1, 2)})), (2, ("polytope", {"n": 4, "ks": (1, 2)})),
    ]),
    ("small", False, [(6, _verdict(5, 2, "float", True)), (6, _verdict(5, 2, "float", False))]),
    ("mid", False, [
        (10, _verdict(4, 3, "float", True)), (1, _verdict(4, 3, "float", False)),
    ]),
    ("exact", True, [
        (1, _verdict(3, 2, "auto", True)), (1, _verdict(3, 2, "auto", False)),
        (1, _verdict(4, 1, "exact", True)), (1, _verdict(4, 1, "exact", False)),
        (1, _verdict(4, 2, "exact", True)), (1, _verdict(4, 2, "exact", False)),
        (1, ("witness", {"n": 3})),
    ]),
    ("heavy", False, [
        (1, ("polytope", {"n": 4, "ks": (3,)})),
        (1, _verdict(5, 3, "float", True)), (1, _verdict(5, 3, "float", False)),
    ]),
]
MEMBERSHIP_WARMUP = [
    ("warmup", False, [
        (1, _verdict(3, 1, "auto", True)), (1, _verdict(4, 1, "float", False)),
        (1, ("witness", {"n": 2})), (1, ("polytope", {"n": 3, "ks": (1,)})),
    ]),
]


def _violating_phi(rng, n):
    """A seeded phase with delta(N, phi) >= MIN_DELTA, by the benchmark's own delta."""
    while True:
        phi = float(rng.uniform(0.3, math.pi - 0.05))
        if own_delta(n, half_half_phases(n, phi)) >= MIN_DELTA:
            return phi


def _member_table(rng, tables, exact):
    """A mixture of four distinct vertex tables.

    Exact-route weights are multiples of 1/16, so every table entry is a
    dyadic float and converts to the exact rational mixture; ordinary float
    weights round the table off the polytope's affine hull.
    """
    rows = tables[rng.choice(len(tables), size=4, replace=False)]
    if exact:
        weights = (1 + rng.multinomial(12, [0.25] * 4)) / 16
    else:
        weights = rng.dirichlet(np.ones(4))
    return [float(p) for p in weights @ rows]


def membership_tasks(rng, classes, kway, vertex_tables):
    """Members carry a prebuilt behavior; non-members carry the phase of their quantum table."""
    tasks = []
    for size_class, fixed, kinds in classes:
        draw = np.random.default_rng(FIXED_SEED) if fixed else rng
        for count, (check, params) in kinds:
            for _ in range(count):
                n = params["n"]
                if check == "witness":
                    phi = _violating_phi(draw, n)
                    argv = ("witness", "--n", str(n), "--phi", repr(phi))
                    tasks.append(Task("witness", size_class, {"n": n, "phi": phi}, argv))
                elif check == "polytope":
                    k = int(draw.choice(params["ks"]))
                    argv = ("polytope", "--n", str(n), "--k", str(k))
                    tasks.append(Task("polytope", size_class, {"n": n, "k": k}, argv))
                elif params["member"]:
                    exact = params["mode"] == "exact" or (params["mode"] == "auto" and n <= 3)
                    table = _member_table(draw, vertex_tables(n, params["k"]), exact)
                    behavior = kway.behavior.Behavior.from_table(n, table)
                    tasks.append(Task("verdict", size_class, dict(params, exact=exact, behavior=behavior)))
                else:
                    tasks.append(Task("verdict", size_class, dict(params, phi=_violating_phi(draw, n))))
    return tasks


def build(workload, seed, kway, vertex_tables, warmup=False):
    """The task list of a workload, in a seeded order."""
    rng = np.random.default_rng(seed)
    if workload == "grover-curve":
        tasks = grover_tasks(rng, GROVER_WARMUP if warmup else GROVER)
    elif workload == "violation-scan":
        tasks = violation_tasks(rng, VIOLATION_WARMUP if warmup else VIOLATION)
    else:
        tasks = membership_tasks(rng, MEMBERSHIP_WARMUP if warmup else MEMBERSHIP, kway, vertex_tables)
    order = rng.permutation(len(tasks))
    return [tasks[i] for i in order]
