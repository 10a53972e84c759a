"""Command-line surface: verification commands, scans and table emission.

Exit codes: 0 success, 1 a failed checked invariant (a consistency check,
a non-Hermitian operator or a membership verdict without an exact
certificate), 2 bad usage or bad input, including any other ValueError the
library raises.
CSV output uses '.' decimals, a header row, LF endings and 12 significant
digits, so identical invocations are byte-identical.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

from . import grover, polytope, single_query
from .behavior import eval_B
from .linalg import NotHermitianError

EXIT_OK = 0
EXIT_INCONSISTENT = 1
EXIT_USAGE = 2
# A scan's rows cost O(N) each; its total, the sum of N, may reach what one
# row at single_query.MAX_N_STRUCTURED costs.
MAX_SCAN_N_SUM = single_query.MAX_N_STRUCTURED
# The Helstrom table is computed in floating point, and rounding alone can
# put it off the (N-1)-way polytope's affine hull.  At N = 5, phi = 2.0,
# where delta = 0, its top Walsh coefficient is -4.4e-16, so the exact
# route's "false" there would be an artifact of rounding.
MAX_N_WITNESS = 3
VIOLATION_TOL = 1e-9  # witness: a member table with B > N - 1 + this fails the consistency check


class UsageError(ValueError):
    pass


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _emit(rows, header, fmt: str, out):
    if fmt == "csv":
        lines = [",".join(header)]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        objs = [
            {h: (v if not isinstance(v, float) else float(_fmt(v))) for h, v in zip(header, row)}
            for row in rows
        ]
        text = json.dumps(objs, indent=2) + "\n"
    if out:
        try:
            with open(out, "w", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {out}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _resolve_phi(args) -> float:
    """--phi, or --phi-deg in radians; argparse lets at most one through."""
    phi = args.phi if args.phi_deg is None else math.radians(args.phi_deg)
    if phi is not None and not math.isfinite(phi):
        raise UsageError("the phase must be a finite number")
    return phi


def _violation_row(n: int, phi: float):
    d_num = single_query.delta_numeric(n, single_query.PhasePattern.half_half(n, phi))
    d_closed, spectrum = single_query.delta_closed_form(n, phi)
    return (n, phi, d_num, d_closed, spectrum.regime.value, n - 1 + d_num, float(n - 1))


def _delta_max_row(n: int):
    phi, _ = single_query.delta_max(n)
    return _violation_row(n, phi)


VIOLATION_HEADER = (
    "n",
    "phi",
    "delta_numeric",
    "delta_closed_form",
    "regime",
    "B_quantum",
    "B_classical_bound",
)


def cmd_violation(args) -> int:
    if not 2 <= args.n <= single_query.MAX_N_STRUCTURED:
        raise UsageError(f"violation requires 2 <= n <= {single_query.MAX_N_STRUCTURED}")
    phi = _resolve_phi(args)
    row = _violation_row(args.n, phi) if phi is not None else _delta_max_row(args.n)
    _emit([row], VIOLATION_HEADER, args.format, args.out)
    return EXIT_OK


def cmd_polytope(args) -> int:
    if not 1 <= args.k <= args.n:
        raise UsageError("polytope requires 1 <= k <= n")
    if args.n > polytope.MAX_N_LP:
        raise UsageError(f"polytope command capped at n = {polytope.MAX_N_LP}")
    max_b = polytope.max_B_over_vertices(args.n, args.k)
    expected = args.n - 1 if args.k < args.n else args.n
    print(f"n {args.n}")
    print(f"k {args.k}")
    print(f"vertices {polytope.vertex_count(args.n, args.k)}")
    print(f"max_B {_fmt(max_b)}")
    print(f"expected {expected}")
    if max_b != expected:  # h(y_B) is an integer, exactly
        print("consistency FAILED: vertex bound does not match", file=sys.stderr)
        return EXIT_INCONSISTENT
    return EXIT_OK


def cmd_grover(args) -> int:
    if args.n < 2 or args.n > grover.MAX_N_DENSE:
        raise UsageError(f"grover requires 2 <= n <= {grover.MAX_N_DENSE}")
    rows = [
        (r.n, r.k, r.p_quantum, r.p_classical, r.gap)
        for r in grover.speedup_curve(args.n, args.kmax)
    ]
    _emit(rows, ("n", "k", "p_quantum", "p_classical", "gap"), args.format, args.out)
    return EXIT_OK


def cmd_witness(args) -> int:
    if not 2 <= args.n <= MAX_N_WITNESS:
        raise UsageError(f"witness uses the exact LP path and requires 2 <= n <= {MAX_N_WITNESS}")
    phi = _resolve_phi(args)
    if phi is None:
        raise UsageError("witness requires --phi or --phi-deg")
    pattern = single_query.PhasePattern.half_half(args.n, phi)
    p0, rho0, p1, rho1 = single_query.build_discrimination_pair(args.n, pattern)
    _, povm = single_query.helstrom(p0, rho0, p1, rho1)
    behavior = single_query.induced_behavior(args.n, pattern, povm)
    b_val = eval_B(behavior)
    k = args.n - 1
    result = polytope.is_k_way(behavior, k, mode="exact")
    print(f"n {args.n}")
    print(f"phi {_fmt(phi)}")
    print(f"B {_fmt(b_val)}")
    print(f"member_k{k} {'true' if result.is_member else 'false'}")
    if b_val > args.n - 1 + VIOLATION_TOL and result.is_member:
        print("consistency FAILED: violation accepted by the LP", file=sys.stderr)
        return EXIT_INCONSISTENT
    return EXIT_OK


def cmd_scan(args) -> int:
    if not 2 <= args.n_min <= args.n_max <= single_query.MAX_N_STRUCTURED:
        raise UsageError(f"scan requires 2 <= n-min <= n-max <= {single_query.MAX_N_STRUCTURED}")
    if (args.n_min + args.n_max) * (args.n_max - args.n_min + 1) // 2 > MAX_SCAN_N_SUM:
        raise UsageError(f"scan caps the sum of N over its rows at {MAX_SCAN_N_SUM}")
    rows = [_delta_max_row(n) for n in range(args.n_min, args.n_max + 1)]
    _emit(rows, VIOLATION_HEADER, args.format, args.out)
    return EXIT_OK


def _add_output_flags(p):
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", metavar="FILE", default=None)


def _add_phi_flags(p, required=False):
    g = p.add_mutually_exclusive_group(required=required)
    g.add_argument("--phi", type=float, help="angle in radians")
    g.add_argument("--phi-deg", type=float, help="angle in degrees")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="kway", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("violation", help="single-query violation delta at a phase, or its maximum over phi")
    p.add_argument("--n", type=int, required=True)
    _add_phi_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_violation)

    p = sub.add_parser("polytope", help="vertex count and witness bound at signaling level k")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_polytope)

    p = sub.add_parser("grover", help="multi-query quantum vs classical winning probabilities")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kmax", type=int, default=None)
    _add_output_flags(p)
    p.set_defaults(func=cmd_grover)

    p = sub.add_parser("witness", help="induced behavior, witness value and LP membership")
    p.add_argument("--n", type=int, required=True)
    _add_phi_flags(p, required=True)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("scan", help="table of maximal violations over a range of N")
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, required=True)
    _add_output_flags(p)
    p.set_defaults(func=cmd_scan)

    return ap


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses exit code 2 for usage errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, polytope.CertificationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        failed_check = isinstance(exc, (NotHermitianError, polytope.CertificationError))
        return EXIT_INCONSISTENT if failed_check else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
