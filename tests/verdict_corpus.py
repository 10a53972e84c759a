"""A seeded corpus of tables, run through both routes of is_k_way.

Not a test module: pytest does not collect it, but tests/test_corpora.py
runs it with --reverse in process and checks the digests recorded there.
Run it from the root of the repository with

    PYTHONPATH=src python tests/verdict_corpus.py

to print, for each route, the count of each verdict and a SHA-256 of every
(verdict, weights) pair, weights as the repr of each (vertex, weight) item.
Two versions of kway that print the same digests give the same verdicts
and the same weights, to the last bit, on all 1,822 tables:

* 900 tables at N = 2-6 and every k < N, 20 of each kind per (N, k):
  float mixtures of random vertices, dyadic mixtures (weights in
  multiples of 1/16), and entries drawn uniformly from [0, 1];
* 60 Helstrom tables of random phase patterns at N = 2-6, random k < N;
* 100 `witness` tables, half/half at phi = 2^-0.5 ... 2^-19.5, N = 2-6,
  k = N - 1;
* 720 tables on the segment from a dyadic member m to a table v with
  B(v) = N, at t = t* +- 2^-j, j = 10, 14, ..., 42, where t* puts B at
  N - 1, at N = 3, 4 and k = N - 1: 20 per (N, sign, j).  Where t* = 0,
  t < 0 leaves [0, 1], and the entries are clipped into it (13 tables);
* 42 tables at N = 7, 8, 7 of each of the first three kinds per N,
  random k < N.

With --reverse it solves the tables in reverse order but hashes them in
the order above; it then prints the same counts and digests as a forward
run, which shows that no verdict depends on the verdicts solved before it.

With --rungs it also prints which certificate decided each exact verdict:
members by the LP method and the attempt of polytope._exact_member that
certified them (simplex or interior, pinned or unpinned), non-members by
Walsh coefficient, Farkas ray or y_B, and the errors.  It reads them off
the calls is_k_way makes to polytope.linprog, polytope.solve and
polytope.separates, which it wraps while the corpus runs.  One HiGHS
object per thread serves both LP methods, and each LP sets the method;
polytope.linprog returns (point, ray), the point when the LP is optimal
and the ray when it is infeasible and the ray was asked for, or raises.
"""
import argparse
import contextlib
import hashlib
import math
import sys
from collections import Counter

import numpy as np

from kway import polytope, single_query
from kway.behavior import Behavior, eval_B
from kway.polytope import CertificationError, fibre_index, is_k_way

SEED = 20261018
KINDS = ("float", "dyadic", "uniform")
RUNGS = ("simplex-pinned", "simplex-unpinned", "interior-pinned", "interior-unpinned", "walsh", "ray", "y_B", "error")


def random_vertex(rng, n, k):
    """The table of a random Boolean function of a random k-subset."""
    index = fibre_index(n, k)
    f = rng.integers(0, 2, 2 ** k)
    return f[index[rng.integers(len(index))]].astype(float)


def mixture(rng, n, k, kind):
    if kind == "uniform":
        return rng.uniform(0, 1, 2 ** n)
    count = int(rng.integers(1, 6))
    if kind == "float":
        w = rng.dirichlet(np.ones(count))
    else:
        w = rng.multinomial(16, np.ones(count) / count) / 16
    return sum(wi * random_vertex(rng, n, k) for wi in w)


def helstrom_table(n, pattern):
    p0, rho0, p1, rho1 = single_query.build_discrimination_pair(n, pattern)
    _, pi1 = single_query.helstrom(p0, rho0, p1, rho1)
    return single_query.induced_behavior(n, pattern, pi1).p1


def corpus(rng):
    """(N, k, table) triples, in a fixed order."""
    for n in range(2, 7):
        for k in range(1, n):
            for kind in KINDS:
                for _ in range(20):
                    yield n, k, mixture(rng, n, k, kind)
    for n in range(2, 7):
        for _ in range(12):
            pattern = single_query.PhasePattern(tuple(rng.uniform(-math.pi, math.pi, n)))
            yield n, int(rng.integers(1, n)), helstrom_table(n, pattern)
    for j in range(20):
        for n in range(2, 7):
            yield n, n - 1, helstrom_table(n, single_query.PhasePattern.half_half(n, 2.0 ** (-0.5 - j)))
    for n in (3, 4):
        for sign in (1, -1):
            for j in range(10, 43, 4):
                for _ in range(20):
                    m = mixture(rng, n, n - 1, "dyadic")
                    v = rng.integers(0, 2, 2 ** n).astype(float)
                    v[0] = 0.0
                    v[[1 << i for i in range(n)]] = 1.0
                    b_m = eval_B(Behavior.from_table(n, m))
                    t = (n - 1 - b_m) / (n - b_m) + sign * 2.0 ** -j
                    yield n, n - 1, (1 - t) * m + t * v
    for n in (7, 8):
        for kind in KINDS:
            for _ in range(7):
                k = int(rng.integers(1, n))
                yield n, k, mixture(rng, n, k, kind)


def verdict(behavior, k, mode):
    try:
        result = is_k_way(behavior, k, mode=mode)
    except CertificationError:
        return "error", None
    weights = sorted(result.weights.items()) if result.is_member else None
    return ("member" if result.is_member else "non-member"), weights


class Calls:
    """The calls is_k_way makes to polytope.linprog, solve and separates,
    as (name, keyword arguments, result), while installed."""

    NAMES = ("linprog", "solve", "separates")

    def __init__(self):
        self.log = []

    def __enter__(self):
        self.saved = {name: getattr(polytope, name) for name in self.NAMES}
        for name, function in self.saved.items():
            setattr(polytope, name, self.wrap(name, function))
        return self

    def __exit__(self, *exc):
        for name, function in self.saved.items():
            setattr(polytope, name, function)

    def wrap(self, name, function):
        def wrapper(*args, **kwargs):
            result = function(*args, **kwargs)
            self.log.append((name, kwargs, result))
            return result
        return wrapper


def rung(log, label):
    """The certificate that decided one exact verdict, from its calls."""
    if label == "error":
        return label
    lps = [i for i, (name, _, _) in enumerate(log) if name == "linprog"]
    if not lps:
        return "walsh"
    _, kwargs, (_, ray) = log[lps[-1]]
    after = [name for name, _, _ in log[lps[-1] + 1:]]
    if label == "member":  # the last exact solve is the attempt that certified it
        return f"{'interior' if kwargs.get('interior') else 'simplex'}-{('pinned', 'unpinned')[after.count('solve') - 1]}"
    return "ray" if ray is not None and after.count("separates") == 1 else "y_B"


def main(argv=None):
    parser = argparse.ArgumentParser(description="Digests of is_k_way's verdicts over a seeded corpus.")
    parser.add_argument("--reverse", action="store_true", help="solve the tables in reverse order")
    parser.add_argument("--rungs", action="store_true", help="also count the certificates of the exact verdicts")
    args = parser.parse_args(argv)
    modes = ("exact", "float")
    jobs = [(Behavior.from_table(n, np.clip(table, 0.0, 1.0)), k) for n, k, table in corpus(np.random.default_rng(SEED))]
    order = reversed(range(len(jobs))) if args.reverse else range(len(jobs))
    verdicts, rungs, calls = [None] * len(jobs), Counter(), Calls()
    with calls if args.rungs else contextlib.nullcontext():
        for i in order:
            calls.log.clear()
            exact = verdict(*jobs[i], "exact")
            if args.rungs:
                rungs[rung(calls.log, exact[0])] += 1
            verdicts[i] = [exact, verdict(*jobs[i], "float")]
    counts = {mode: Counter() for mode in modes}
    digests = {mode: hashlib.sha256() for mode in modes}
    for pair in verdicts:
        for mode, (label, weights) in zip(modes, pair):
            counts[mode][label] += 1
            digests[mode].update(repr((label, weights)).encode())
    print(f"tables {len(jobs)}")
    for mode in modes:
        summary = " ".join(f"{label} {counts[mode][label]}" for label in ("non-member", "member", "error"))
        print(f"{mode} {summary} sha256 {digests[mode].hexdigest()}")
    if args.rungs:
        print("rungs " + " ".join(f"{name} {rungs[name]}" for name in RUNGS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
