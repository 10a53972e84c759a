"""kway benchmark: run one workload and print its metrics as one JSON line.

    python3 benchmark/run.py --workload grover-curve --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The workload runs in a child process
(`workload.py`) with `src` on PYTHONPATH and with KWAY_THREADS and the BLAS
thread variables removed, so kway and OpenBLAS pick their own defaults as
they do for a user.  With --trace 0 the last line holds the end-to-end
metrics of BENCHMARK.json; set-up is measured in SETUP_SAMPLES fresh
processes and reported as their median.  With --trace 1 it holds the
per-layer metrics of a traced run.  Exit code 0 only when a result was
printed.
"""
import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import select  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from workload import ROOT, WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170
THREAD_VARS = (
    "KWAY_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS", "GOTO_NUM_THREADS",
)


def child_env():
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(args, setup_only, deadline):
    """(set-up seconds, stdout lines after READY) of one workload process."""
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True) as proc:
        try:
            if not select.select([proc.stdout], [], [], max(1.0, deadline - start))[0]:
                raise subprocess.TimeoutExpired(cmd, deadline - start)
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            rest, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise SystemExit(f"{args.workload}: the workload process ran out of time")
    if proc.returncode != 0 or ready.strip() != "READY":
        raise SystemExit(f"{args.workload}: the workload process failed (exit {proc.returncode})")
    return setup_s, rest.splitlines()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    deadline = time.perf_counter() + CHILD_TIMEOUT_S

    setups = []
    if not args.trace:
        setups = [run_child(args, True, deadline)[0] for _ in range(SETUP_SAMPLES - 1)]
    setup_s, lines = run_child(args, False, deadline)
    setups.append(setup_s)
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    print(f"workload {args.workload}, seed {args.seed}, os.cpu_count() {os.cpu_count()}")

    raw = result["metrics"]
    if not args.trace:
        raw["setup_s"] = statistics.median(setups)
        missing = [m["name"] for m in wanted if m["name"] not in raw]
        if missing:
            raise SystemExit(f"{args.workload}: no value for {missing}")
    # A per-layer function the workload never calls reads 0.
    metrics = {m["name"]: {"value": raw.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
