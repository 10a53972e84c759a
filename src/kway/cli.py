"""Command-line surface: verification commands, scans and table emission.

Exit codes: 0 success, 1 a failed checked invariant (a consistency check,
a non-Hermitian operator or a membership verdict without an exact
certificate), 2 bad usage or bad input, that is any other ValueError.
CSV output uses '.' decimals, a header row, LF endings and 12 significant
digits, so identical invocations are byte-identical.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import grover, polytope, single_query
from .behavior import eval_B
from .linalg import NotHermitianError

EXIT_OK = 0
EXIT_INCONSISTENT = 1
EXIT_USAGE = 2
# A scan row costs the same at every N, so the cap is on rows.
MAX_SCAN_ROWS = 10_000
# The Helstrom table is computed in floating point, and rounding alone can
# put it off the (N-1)-way polytope's affine hull.  At N = 5, phi = 2.0,
# where delta = 0, its top Walsh coefficient is -4.4e-16, so the exact
# route's "false" there would be an artifact of rounding.
MAX_N_WITNESS = 3


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
    if out is not None:
        try:
            with open(out, "w", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {out}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _violation_row(n: int, phi: float, d_closed: float):
    d_num = single_query.delta_numeric(n, single_query.PhasePattern.half_half(n, phi))
    return (n, phi, d_num, d_closed, "violation" if d_closed > 0 else "none", n - 1 + d_num, float(n - 1))


def _delta_max_row(n: int):
    return _violation_row(n, *single_query.delta_max(n))


VIOLATION_HEADER = ("n", "phi", "delta_numeric", "delta_closed_form", "regime", "B_quantum", "B_classical_bound")


def cmd_violation(args) -> int:
    n, phi = args.n, args.phi
    if not 2 <= n <= single_query.MAX_N_STRUCTURED:
        raise ValueError(f"violation requires 2 <= n <= {single_query.MAX_N_STRUCTURED}")
    row = _delta_max_row(n) if phi is None else _violation_row(n, phi, single_query.delta_closed_form(n, phi))
    _emit([row], VIOLATION_HEADER, args.format, args.out)
    return EXIT_OK


def cmd_polytope(args) -> int:
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
    curve = grover.speedup_curve(args.n, args.kmax)
    _emit(curve, ("n", "k", "p_quantum", "p_classical", "gap"), args.format, args.out)
    return EXIT_OK


def cmd_witness(args) -> int:
    """B of the Helstrom table (the float eval_B) and its exact (N-1)-way
    verdict.  A member's weights rebuild the table exactly, so a member
    whose B, summed in Fractions, exceeds N - 1 fails the consistency check."""
    if not 2 <= args.n <= MAX_N_WITNESS:
        raise ValueError(f"witness uses the exact LP path and requires 2 <= n <= {MAX_N_WITNESS}")
    pattern = single_query.PhasePattern.half_half(args.n, args.phi)  # the --phi flags are required here
    p0, rho0, p1, rho1 = single_query.build_discrimination_pair(args.n, pattern)
    _, pi1 = single_query.helstrom(p0, rho0, p1, rho1)
    behavior = single_query.induced_behavior(args.n, pattern, pi1)
    b_val = eval_B(behavior)
    k = args.n - 1
    result = polytope.is_k_way(behavior, k, mode="exact")
    print(f"n {args.n}")
    print(f"phi {_fmt(args.phi)}")
    print(f"B {_fmt(b_val)}")
    print(f"member_k{k} {'true' if result.is_member else 'false'}")
    p = behavior.p1
    exact_b = -Fraction(p[0]) + sum(Fraction(p[1 << i]) for i in range(args.n))
    if result.is_member and exact_b > args.n - 1:
        print("consistency FAILED: violation accepted by the LP", file=sys.stderr)
        return EXIT_INCONSISTENT
    return EXIT_OK


def cmd_scan(args) -> int:
    if not 2 <= args.n_min <= args.n_max <= single_query.MAX_N_STRUCTURED:
        raise ValueError(f"scan requires 2 <= n-min <= n-max <= {single_query.MAX_N_STRUCTURED}")
    if args.n_max - args.n_min + 1 > MAX_SCAN_ROWS:
        raise ValueError(f"scan caps its rows, n-max - n-min + 1, at {MAX_SCAN_ROWS}")
    rows = [_delta_max_row(n) for n in range(args.n_min, args.n_max + 1)]
    _emit(rows, VIOLATION_HEADER, args.format, args.out)
    return EXIT_OK


def _add_output_flags(p):
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", metavar="FILE", default=None)


def _degrees(text: str) -> float:
    return math.radians(float(text))


def _add_phi_flags(p, required=False):
    """--phi and --phi-deg both set args.phi, in radians."""
    g = p.add_mutually_exclusive_group(required=required)
    g.add_argument("--phi", type=float, help="angle in radians")
    g.add_argument("--phi-deg", type=_degrees, dest="phi", metavar="PHI_DEG", help="angle in degrees")


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


def _is_phase_flag(token: str) -> bool:
    """--phi, or a prefix of --phi-deg that argparse reads as --phi-deg alone."""
    return token == "--phi" or (len(token) > len("--phi") and "--phi-deg".startswith(token))


def _bind_phases(argv):
    """Write --phi X as --phi=X: argparse takes an X such as -1e10 for an option."""
    bound = []
    for token in argv:
        if bound and _is_phase_flag(bound[-1]) and not token.startswith("--"):
            bound[-1] += "=" + token
        else:
            bound.append(token)
    return bound


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_bind_phases(sys.argv[1:] if argv is None else argv))
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
