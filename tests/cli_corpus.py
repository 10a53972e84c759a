"""A fixed list of command lines, run through kway.cli.main in process.

Not a test module: pytest does not collect it, but tests/test_corpora.py
runs it in process and checks the digests recorded there.  Run it from
the root of the repository with

    PYTHONPATH=src python tests/cli_corpus.py

to print the number of calls and one SHA-256 updated, call by call in the
order below, with repr((argv, exit code, stdout, stderr)).  Two versions
of kway that print the same digest give the same exit codes and the same
output, byte for byte, on all 1,112 command lines:

* violation at N = 2-39, 64, 97, 128, 255, 1000, 4097, at its maximum
  over phi and at eleven phases, in both formats;
* scan over N = 2-10, 2-44 and 30-60, in both formats;
* grover at nine N from 2 to 10^6, at the default kmax and at kmax 0, 1
  and 5, in both formats;
* witness at N = 2, 3 and four phases;
* polytope at every 1 <= k <= n <= 8;
* the 22 command lines of EDGES: argparse's usage errors, each command's
  size guards, non-finite phases, and phases passed as a separate word,
  including -1e10 and a prefix of --phi-deg.  All but four exit 2, with
  one message on stderr.

With --dump FILE it also writes each call's repr, one line per call, so
that the dumps of two versions can be compared with diff.
"""
import argparse
import contextlib
import hashlib
import io
import sys

from kway import cli

VIOLATION_N = list(range(2, 40)) + [64, 97, 128, 255, 1000, 4097]
VIOLATION_PHI = (None, 0.0, 0.3, 1.0, 1.5707963, 2.0, 2.8, 3.14159, -1.2, 7.5, 1e6)
SCAN_RANGES = ((2, 10), (2, 44), (30, 60))
GROVER_N = (2, 3, 4, 16, 64, 120, 256, 400, 10 ** 6)
GROVER_KMAX = (None, 0, 1, 5)
FORMATS = ("csv", "json")
EDGES = (
    [], ["frobnicate"], ["violation"],
    ["violation", "--n", "1"], ["violation", "--n", "1000001"],
    ["violation", "--n", "5", "--phi", "nan"], ["violation", "--n", "5", "--phi-deg", "inf"],
    ["violation", "--n", "5", "--phi", "-1e10"], ["violation", "--n", "5", "--phi-d", "-1e3"],
    ["violation", "--n", "5", "--phi-deg", "30"], ["violation", "--n", "5", "--phi", "1", "--phi-deg", "2"],
    ["violation", "--n", "5", "--format", "xml"],
    ["scan", "--n-min", "5", "--n-max", "4"], ["scan", "--n-max", "20002"],
    ["grover", "--n", "1"], ["grover", "--n", "5", "--kmax", "6"], ["grover", "--n", "20000", "--kmax", "10000"],
    ["witness", "--n", "4", "--phi", "1"], ["witness", "--n", "3"], ["witness", "--n", "3", "--phi", "-1e-3"],
    ["polytope", "--n", "9", "--k", "2"], ["polytope", "--n", "3", "--k", "0"],
)


def corpus():
    """Every argv, in a fixed order."""
    for n in VIOLATION_N:
        for phi in VIOLATION_PHI:
            for fmt in FORMATS:
                argv = ["violation", "--n", str(n), "--format", fmt]
                yield argv if phi is None else argv + [f"--phi={phi}"]
    for lo, hi in SCAN_RANGES:
        for fmt in FORMATS:
            yield ["scan", "--n-min", str(lo), "--n-max", str(hi), "--format", fmt]
    for n in GROVER_N:
        for kmax in GROVER_KMAX:
            for fmt in FORMATS:
                argv = ["grover", "--n", str(n), "--format", fmt]
                yield argv if kmax is None else argv + ["--kmax", str(kmax)]
    for n in (2, 3):
        for phi in (0.5, 1.2, 2.0, 3.0):
            yield ["witness", "--n", str(n), f"--phi={phi}"]
    for n in range(1, 9):
        for k in range(1, n + 1):
            yield ["polytope", "--n", str(n), "--k", str(k)]
    yield from EDGES


def main(argv=None):
    parser = argparse.ArgumentParser(description="Digest of kway's CLI output over a fixed corpus.")
    parser.add_argument("--dump", metavar="FILE", help="also write one repr per call to FILE")
    args = parser.parse_args(argv)
    digest = hashlib.sha256()
    calls = 0
    with open(args.dump, "w") if args.dump else contextlib.nullcontext() as dump:
        for command in corpus():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(command))
            line = repr((command, code, out.getvalue(), err.getvalue()))
            digest.update(line.encode())
            if dump:
                dump.write(line + "\n")
            calls += 1
    print(f"{calls} {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
