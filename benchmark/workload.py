"""One workload in one process: set up, time whole passes, check the outputs.

    python3 benchmark/workload.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

`run.py` starts this with `src` on PYTHONPATH and no thread settings in the
environment.  It prints READY once set-up is over (import, inputs, one
warm-up pass), then, unless --setup-only, one JSON line with the counts and
raw metrics.  Every task of the list is attempted in every pass, and passes
repeat until --seconds have gone, so the share of failed operations does
not depend on the run length.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("grover-curve", "violation-scan", "membership")
TAIL_LADDER = (99, 95, 90, 75)  # task_ms_tail: the highest with >= 10 tasks beyond it


@dataclass(frozen=True)
class CliOutput:
    code: int
    out: str
    err: str


@dataclass(frozen=True)
class Verdict:
    table: tuple     # the behavior's P(1|x)
    result: object   # kway.polytope.MembershipResult


@dataclass(frozen=True)
class Failure:
    error: str
    wrong: bool = False  # True: the call returned, but its output is wrong


def import_kway():
    import kway
    import kway.cli  # noqa: F401  (the CLI is not imported by the package)

    src = (ROOT / "src").resolve()
    if src not in Path(kway.__file__).resolve().parents:
        raise SystemExit(f"kway imported from {kway.__file__}, not from {src}")
    return kway


def quantum_behavior(kway, n, phi):
    """Helstrom-optimal table of the half/half pattern, made by kway itself.

    A non-member task runs this inside its timed call, so the workload
    exercises single_query and linalg on small matrices many times.
    """
    sq = kway.single_query
    pattern = sq.PhasePattern.half_half(n, phi)
    p0, rho0, p1, rho1 = sq.build_discrimination_pair(n, pattern)
    _, povm = sq.helstrom(p0, rho0, p1, rho1)
    return sq.induced_behavior(n, pattern, povm)


def execute(kway, task):
    """Run one task: a CLI call with stdout captured, or one membership verdict."""
    if task.argv:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = kway.cli.main(list(task.argv))
        return CliOutput(code, out.getvalue(), err.getvalue())
    spec = task.spec
    if spec["member"]:
        behavior = spec["behavior"]
    else:
        behavior = quantum_behavior(kway, spec["n"], spec["phi"])
    return Verdict(behavior.p1, kway.polytope.is_k_way(behavior, spec["k"], mode=spec["mode"]))


def run_pass(kway, tasks):
    """(wall seconds, per-task seconds, outputs) of one pass over the list."""
    times, outputs = [], []
    start = time.perf_counter()
    for task in tasks:
        t0 = time.perf_counter()
        try:
            output = execute(kway, task)
        except Exception as exc:  # a raising call is one failed operation
            output = Failure(f"{type(exc).__name__}: {exc}")
        times.append(time.perf_counter() - t0)
        outputs.append(output)
    return time.perf_counter() - start, times, outputs


def make_checkers(vertex_tables):
    import checks

    return {
        "grover": checks.check_grover,
        "violation": checks.check_violation,
        "scan": checks.check_scan,
        "witness": checks.check_witness,
        "polytope": functools.partial(checks.check_polytope, vertex_tables=vertex_tables),
        "verdict": checks.check_verdict,
    }


def output_key(output):
    if isinstance(output, (CliOutput, Failure)):
        return output
    weights = output.result.weights or {}
    return (output.table, output.result.is_member, tuple(sorted((v, str(w)) for v, w in weights.items())))


class Ledger:
    """Counts operations and checks each distinct output of a task once."""

    def __init__(self, checkers):
        from checks import CheckError

        self.checkers = checkers
        self.check_error = CheckError
        self.attempted = self.failed = self.wrong = 0
        self.errors = []
        self._seen = {}

    def record(self, index, task, output):
        self.attempted += 1
        if isinstance(output, Failure):
            problem = output.error
            self.wrong += output.wrong
        else:
            key = (index, output_key(output))
            if key not in self._seen:
                try:
                    self.checkers[task.check](task.spec, output)
                    self._seen[key] = None
                except self.check_error as exc:
                    self._seen[key] = str(exc)
                    self.wrong += 1
            problem = self._seen[key]
        if problem:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{task.check} {' '.join(task.argv)}: {problem}")


def best_times(passes):
    """Each task's least time over the passes.

    The host's other tenants slow this machine by up to 1.9x for seconds
    at a time; a task's least time over several passes is the time it
    takes when nothing else competes for the cores.
    """
    return [min(samples) for samples in zip(*passes)]


def tail_percentile(per_pass):
    """With fewer than 40 tasks no percentile above the median has 10 beyond it."""
    return next((p for p in TAIL_LADDER if per_pass * (100 - p) / 100 >= 10), 50)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    kway = import_kway()
    import_s = time.perf_counter() - t0

    # These import numpy, so they come after kway's import is timed.
    import numpy as np

    import checks
    import tasks as tasklists
    from tracer import Tracer

    vertex_tables = functools.cache(checks.own_vertex_tables)
    tasks = tasklists.build(args.workload, args.seed, kway, vertex_tables)
    run_pass(kway, tasklists.build(args.workload, 0, kway, vertex_tables, warmup=True))
    print("READY", flush=True)
    if args.setup_only:
        return 0

    ledger = Ledger(make_checkers(vertex_tables))
    plain, traced, layers, all_outputs = [], [], [], []
    deadline = time.perf_counter() + args.seconds
    while not plain or time.perf_counter() < deadline:
        _, times, outputs = run_pass(kway, tasks)
        plain.append(times)
        all_outputs.append(outputs)
        if args.trace:
            tracer = Tracer()
            tracer.install(kway)
            try:
                _, times, traced_outputs = run_pass(kway, tasks)
            finally:
                tracer.uninstall()
            traced.append(times)
            layers.append(tracer.totals)
            # Tracing must not change what a user sees.
            all_outputs.append([
                Failure("stdout differs with tracing on", wrong=True)
                if isinstance(a, CliOutput) and (not isinstance(b, CliOutput) or a.out != b.out) else b
                for a, b in zip(outputs, traced_outputs)
            ])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    for outputs in all_outputs:
        for index, (task, output) in enumerate(zip(tasks, outputs)):
            ledger.record(index, task, output)
    for line in ledger.errors:
        print("FAILED", line, file=sys.stderr)

    best = best_times(plain)
    if args.trace:
        metrics = {name: min(totals.get(name, 0.0) for totals in layers) for name in set().union(*layers)}
        metrics["import.kway_s"] = import_s
        metrics["trace.overhead_s"] = sum(best_times(traced)) - sum(best)
        print(f"{len(traced)} traced passes of {len(tasks)} tasks; each per-layer figure is "
              "the least over the traced passes")
    else:
        tail = tail_percentile(len(tasks))
        metrics = {
            "wall_s": sum(best),
            "task_ms_p50": 1e3 * statistics.median(best),
            "task_ms_tail": 1e3 * float(np.percentile(best, tail)),
            "peak_rss_mb": peak_rss_mb,
        }
        print(f"task_ms_tail is p{tail} of {len(best)} task times, "
              f"each the least of {len(plain)} passes")
        classes = {}
        for task, seconds in zip(tasks, best):
            classes.setdefault(task.size_class, []).append(1e3 * seconds)
        print("size classes: " + ", ".join(
            f"{name} {len(ms)} tasks {min(ms):.1f}-{max(ms):.1f} ms" for name, ms in classes.items()))
    print(json.dumps({
        "correct": ledger.wrong == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
