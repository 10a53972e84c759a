"""Self-test of the benchmark: every checker rejects a wrong output, and
every workload runs clean on its small warm-up list, traced and untraced.

    python3 benchmark/selftest.py

Exits 0 when all cases pass.  Takes a few seconds.
"""
import sys
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import dataclasses  # noqa: E402
import functools  # noqa: E402
from fractions import Fraction  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tasks as tasklists  # noqa: E402
from tracer import Tracer  # noqa: E402
from workload import WORKLOADS, CliOutput, Ledger, execute, import_kway, make_checkers, run_pass  # noqa: E402

kway = import_kway()
vertex_tables = functools.cache(checks.own_vertex_tables)
CHECKERS = make_checkers(vertex_tables)


def cli(*argv):
    return execute(kway, tasklists.Task("", "", {}, argv))


def edit_csv(out, row, column, change):
    """The CLI output with one CSV cell changed."""
    lines = out.out.splitlines()
    cells = lines[row].split(",")
    cells[column] = change(cells[column])
    lines[row] = ",".join(cells)
    return dataclasses.replace(out, out="\n".join(lines) + "\n")


def drift(cell, by=1e-6):
    return repr(float(cell) + by)


def member_task(n, k, mode, exact):
    rng = np.random.default_rng(3)
    table = tasklists._member_table(rng, vertex_tables(n, k), exact)
    behavior = kway.behavior.Behavior.from_table(n, table)
    spec = {"n": n, "k": k, "mode": mode, "member": True, "exact": exact, "behavior": behavior}
    return tasklists.Task("verdict", "", spec)


def wrong_outputs():
    """(name, checker, spec, good output, wrong output) for each checker."""
    grover = cli("grover", "--n", "16", "--kmax", "4")
    yield ("drifted p_quantum", "grover", {"n": 16, "kmax": 4, "fmt": "csv"},
           grover, edit_csv(grover, 3, 2, drift))
    violation = cli("violation", "--n", "7", "--phi", "0.5")
    yield ("delta off by 1e-6", "violation", {"n": 7, "phi": 0.5},
           violation, edit_csv(violation, 1, 2, drift))
    best = cli("violation", "--n", "9")
    yield ("delta* off by 1e-6", "violation", {"n": 9, "phi": None},
           best, edit_csv(best, 1, 2, drift))
    scan = cli("scan", "--n-min", "2", "--n-max", "6")
    yield ("scan regime flipped", "scan", {"n_max": 6},
           scan, edit_csv(scan, 3, 4, lambda cell: "none"))
    witness = cli("witness", "--n", "3", "--phi", "1.0")
    yield ("witness verdict flipped", "witness", {"n": 3, "phi": 1.0},
           witness, dataclasses.replace(witness, out=witness.out.replace("false", "true")))
    polytope = cli("polytope", "--n", "3", "--k", "2")
    yield ("vertex count off by one", "polytope", {"n": 3, "k": 2},
           polytope, dataclasses.replace(polytope, out=polytope.out.replace("vertices 38", "vertices 37")))
    for mode, exact in (("auto", True), ("float", False)):
        task = member_task(3 if exact else 4, 2, mode, exact)
        out = execute(kway, task)
        weights = out.result.weights
        first = next(iter(weights))
        skewed = {**weights, first: weights[first] * (Fraction(1001, 1000) if exact else 1.001)}
        yield (f"{mode} member rejected", "verdict", task.spec,
               out, dataclasses.replace(out, result=dataclasses.replace(out.result, is_member=False, weights=None)))
        yield (f"{mode} weights off", "verdict", task.spec,
               out, dataclasses.replace(out, result=dataclasses.replace(out.result, weights=skewed)))
    task = tasklists.Task("verdict", "", {"n": 4, "k": 3, "mode": "float", "member": False, "phi": 1.2})
    out = execute(kway, task)
    yield ("non-member accepted", "verdict", task.spec,
           out, dataclasses.replace(out, result=dataclasses.replace(out.result, is_member=True)))


def test_checkers_reject_wrong_outputs():
    for name, check, spec, good, bad in wrong_outputs():
        CHECKERS[check](spec, good)
        try:
            CHECKERS[check](spec, bad)
        except checks.CheckError:
            continue
        raise AssertionError(f"the {check} checker accepted a wrong output: {name}")


def test_failed_exit_is_counted():
    ledger = Ledger(CHECKERS)
    ledger.record(0, tasklists.Task("grover", "", {"n": 16, "kmax": 4, "fmt": "csv"}, ("grover",)),
                  CliOutput(2, "", "error: usage"))
    if (ledger.attempted, ledger.failed, ledger.wrong) != (1, 1, 1):
        raise AssertionError("a non-zero exit was not counted as a failed, wrong operation")


def test_smoke_every_workload():
    for workload in WORKLOADS:
        task_list = tasklists.build(workload, 0, kway, vertex_tables, warmup=True)
        _, _, plain = run_pass(kway, task_list)
        tracer = Tracer()
        tracer.install(kway)
        try:
            _, _, traced = run_pass(kway, task_list)
        finally:
            tracer.uninstall()
        ledger = Ledger(CHECKERS)
        for outputs in (plain, traced):
            for index, (task, output) in enumerate(zip(task_list, outputs)):
                ledger.record(index, task, output)
        if ledger.failed or ledger.attempted != 2 * len(task_list):
            raise AssertionError(f"{workload}: {ledger.failed} of {ledger.attempted} failed: {ledger.errors}")
        if [getattr(o, "out", None) for o in plain] != [getattr(o, "out", None) for o in traced]:
            raise AssertionError(f"{workload}: stdout differs with tracing on")
        if not tracer.totals.get("cli.main.calls"):
            raise AssertionError(f"{workload}: no cli.main span recorded")
    if kway.cli.main.__name__ != "main" or hasattr(kway.cli.main, "__wrapped__"):
        raise AssertionError("the tracer left a wrapper installed")


def main():
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print("PASS", name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
