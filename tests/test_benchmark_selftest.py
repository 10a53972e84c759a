import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parents[1] / "benchmark" / "selftest.py"


def test_benchmark_selftest_passes():
    """The benchmark's checkers, workloads and tracer run against this tree."""
    run = subprocess.run([sys.executable, str(SELFTEST)], capture_output=True, text=True)
    assert run.returncode == 0, run.stdout + run.stderr
