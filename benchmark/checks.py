"""Independent checks of kway's outputs.

Nothing here calls kway: every expected value is recomputed from the
physics with numpy, so a fault in the program cannot hide behind the
same fault in its checker.  Each checker raises CheckError on a wrong
output and returns None otherwise.
"""
from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction
from itertools import combinations

import numpy as np

# Absolute tolerances.  The CLI prints 12 significant digits, and the dense
# eigensolves agree with the closed forms to about 1e-11 at N <= 1024.
PROB_TOL = 1e-9        # grover win probabilities
DELTA_TOL = 1e-9       # delta against the benchmark's own dense trace norm
DELTA_MAX_TOL = 1e-9   # delta* against the fine-grid maximum
WEIGHT_TOL = 1e-7      # float-route mixture weights (HiGHS feasibility is 1e-8)

GROVER_HEADER = ["n", "k", "p_quantum", "p_classical", "gap"]
VIOLATION_HEADER = [
    "n", "phi", "delta_numeric", "delta_closed_form", "regime", "B_quantum", "B_classical_bound",
]


class CheckError(Exception):
    """An output that disagrees with the independent computation."""


def require(ok, message):
    if not ok:
        raise CheckError(message)


def near(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(b))


# --- reference physics -------------------------------------------------------

def half_half_phases(n, phi):
    """ceil(N/2) locations at +phi, the remaining floor(N/2) at -phi."""
    return np.array([phi] * (n - n // 2) + [-phi] * (n // 2))


def own_delta(n, phases):
    """delta = B - (N-1) from a vectorised p1 rho1 - p0 rho0 and its trace norm.

    Column i of `psi` is the uniform state with amplitude i rotated by
    e^{i phi_i}; rho1 averages the N columns.
    """
    psi = np.full((n, n), 1.0 / math.sqrt(n), dtype=complex)
    idx = np.arange(n)
    psi[idx, idx] *= np.exp(1j * np.asarray(phases, dtype=float))
    u = np.full(n, 1.0 / math.sqrt(n), dtype=complex)
    gap = (psi @ psi.conj().T - np.outer(u, u.conj())) / (n + 1)
    trace_norm = float(np.sum(np.abs(np.linalg.eigvalsh(gap))))
    return 0.5 - n / 2 + (n + 1) / 2 * trace_norm


def own_delta_grid(n, phis):
    """delta on an array of phases for the half/half pattern, in O(1) per phase.

    With a_i = e^{i phi_i} - 1 and v = sum_i a_i e_i, the operator
    (N+1)(p1 rho1 - p0 rho0) is c I + (N-1)|u><u| + (|u><v| + |v><u|)/sqrt(N)
    with c = |a_i|^2 / N.  Its only eigenvalue that can be negative lies in
    the 2x2 block on span{u, v}, and delta is minus that eigenvalue when it
    is negative.
    """
    phis = np.asarray(phis, dtype=float)
    plus, minus = n - n // 2, n // 2
    a_plus, a_minus = np.exp(1j * phis) - 1, np.exp(-1j * phis) - 1
    c = np.abs(a_plus) ** 2 / n
    alpha = (plus * a_plus + minus * a_minus) / math.sqrt(n)
    beta2 = np.maximum(n * n * c - np.abs(alpha) ** 2, 0.0)
    r_uu = n - 1 + 2 * alpha.real / math.sqrt(n)
    mu_minus = 0.5 * (r_uu - np.sqrt(r_uu ** 2 + 4 * beta2 / n))
    return np.maximum(-(c + mu_minus), 0.0)


def own_delta_max(n):
    """max over phi in [0, pi] of delta, by a grid refined twice around its peak."""
    lo, hi = 0.0, math.pi
    for _ in range(3):
        grid = np.linspace(lo, hi, 4001)
        vals = own_delta_grid(n, grid)
        i = int(np.argmax(vals))
        step = grid[1] - grid[0]
        lo, hi = max(grid[i] - step, 0.0), min(grid[i] + step, math.pi)
    return float(vals[i])


def violation_threshold(n):
    """Sharp lower bound on cos(phi) for delta > 0 with the half/half pattern, N >= 3."""
    if n % 2 == 0:
        return (n * (n - 6) + 4) / (n - 2) ** 2
    return -1.0 if n == 3 else (n - 5) / (n - 3)


def expects_violation(n, phi):
    """Sharp regime for phi in (0, pi]: N = 2 violates when cos(phi) < 0, N = 3 always."""
    if n == 2:
        return math.cos(phi) < 0.0
    return n == 3 or math.cos(phi) > violation_threshold(n)


def grover_p_quantum(n, k):
    theta = 2.0 * math.asin(1.0 / math.sqrt(n))
    return 0.5 * (1.0 + math.sin(k * theta) ** 2)


def grover_kmax(n):
    return math.ceil(math.pi * math.sqrt(n) / 4.0) + 1


def own_B(table):
    """Witness -P(1|0...0) + sum_i P(1|e_i) of a table indexed with x_1 as LSB."""
    n = len(table).bit_length() - 1
    return -table[0] + sum(table[1 << i] for i in range(n))


def own_vertex_tables(n, k):
    """Distinct 0/1 tables of all strategies reading a fixed k-subset, sorted."""
    xs = np.arange(2 ** n)
    funcs = np.arange(2 ** (2 ** k))
    rows = []
    for locs in combinations(range(n), k):
        index = sum(((xs >> loc) & 1) << pos for pos, loc in enumerate(locs))
        rows.append((funcs[:, None] >> index[None, :]) & 1)
    return np.unique(np.vstack(rows), axis=0)


def strategy_table(locations, truth_table, n):
    """Table of one deterministic strategy: f applied to the bits at `locations` (1-based)."""
    xs = np.arange(2 ** n)
    index = sum(((xs >> (loc - 1)) & 1) << pos for pos, loc in enumerate(locations))
    return np.asarray(truth_table)[index]


# --- parsing -----------------------------------------------------------------

def parse_rows(text, fmt, header):
    """CLI table output as a list of dicts, numbers as floats."""
    if fmt == "json":
        try:
            rows = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CheckError(f"output is not JSON: {exc}") from None
        require(isinstance(rows, list) and rows, "JSON output is not a non-empty list")
        for row in rows:
            require(list(row) == header, f"JSON keys {list(row)} != {header}")
        return rows
    require(text.endswith("\n") and "\r" not in text, "CSV must end in LF with no CR")
    lines = list(csv.reader(io.StringIO(text)))
    require(lines and lines[0] == header, f"CSV header {lines[:1]} != {header}")
    out = []
    for line in lines[1:]:
        require(len(line) == len(header), f"CSV row {line} has the wrong width")
        out.append({h: (v if h == "regime" else float(v)) for h, v in zip(header, line)})
    require(out, "CSV has no rows")
    return out


def parse_lines(text):
    """'key value' lines, as the polytope and witness commands print them."""
    pairs = [line.split(" ", 1) for line in text.splitlines()]
    require(all(len(p) == 2 for p in pairs), f"malformed key/value output {text!r}")
    return dict(pairs)


def require_exit_ok(out):
    require(out.code == 0, f"exit code {out.code}, stderr {out.err.strip()!r}")


# --- checkers ----------------------------------------------------------------

def check_grover(spec, out):
    """spec: n, kmax, fmt."""
    require_exit_ok(out)
    n, kmax = spec["n"], spec["kmax"]
    rows = parse_rows(out.out, spec["fmt"], GROVER_HEADER)
    require([int(r["k"]) for r in rows] == list(range(kmax + 1)), "rows are not k = 0..K")
    for r in rows:
        k = int(r["k"])
        require(r["n"] == n, f"row n {r['n']} != {n}")
        pq, pc = grover_p_quantum(n, k), 0.5 * (1.0 + k / n)
        require(near(r["p_quantum"], pq, PROB_TOL), f"p_quantum({n},{k}) = {r['p_quantum']!r}, expected {pq!r}")
        require(near(r["p_classical"], pc, PROB_TOL), f"p_classical({n},{k}) = {r['p_classical']!r}, expected {pc!r}")
        require(near(r["gap"], pq - pc, PROB_TOL), f"gap({n},{k}) = {r['gap']!r}, expected {pq - pc!r}")


def check_violation_row(row, n, phi=None):
    """One violation row; phi is the requested phase, or None for a maximum search."""
    require(row["n"] == n, f"row n {row['n']} != {n}")
    if phi is None:
        phi = row["phi"]
        best = own_delta_max(n)
        require(near(row["delta_numeric"], best, DELTA_MAX_TOL),
                f"delta*({n}) = {row['delta_numeric']!r}, fine-grid maximum {best!r}")
    else:
        require(near(row["phi"], phi, 1e-11), f"phi {row['phi']!r} != {phi!r}")
    delta = own_delta(n, half_half_phases(n, phi))
    require(near(row["delta_numeric"], delta, DELTA_TOL),
            f"delta_numeric({n}, {phi!r}) = {row['delta_numeric']!r}, expected {delta!r}")
    require(near(row["delta_closed_form"], delta, DELTA_TOL),
            f"delta_closed_form({n}, {phi!r}) = {row['delta_closed_form']!r}, expected {delta!r}")
    if n == 2:
        law = max(-math.cos(phi), 0.0)
        require(near(row["delta_numeric"], law, DELTA_TOL),
                f"delta(2, {phi!r}) = {row['delta_numeric']!r}, expected max(-cos phi, 0) = {law!r}")
    regime = "violation" if expects_violation(n, phi) else "none"
    require(row["regime"] == regime, f"regime({n}, {phi!r}) = {row['regime']!r}, expected {regime!r}")
    require(near(row["B_quantum"], n - 1 + row["delta_numeric"], 1e-11),
            f"B_quantum {row['B_quantum']!r} != N - 1 + delta")
    require(row["B_classical_bound"] == n - 1, f"B_classical_bound {row['B_classical_bound']!r} != {n - 1}")


def check_violation(spec, out):
    """spec: n, phi (None for the maximum search)."""
    require_exit_ok(out)
    rows = parse_rows(out.out, "csv", VIOLATION_HEADER)
    require(len(rows) == 1, f"{len(rows)} rows, expected 1")
    check_violation_row(rows[0], spec["n"], spec["phi"])


def check_scan(spec, out):
    """spec: n_max; rows are n = 2..n_max, each a maximum search."""
    require_exit_ok(out)
    rows = parse_rows(out.out, "csv", VIOLATION_HEADER)
    require([int(r["n"]) for r in rows] == list(range(2, spec["n_max"] + 1)), "rows are not n = 2..M")
    for row in rows:
        check_violation_row(row, int(row["n"]))


def check_witness(spec, out):
    """spec: n, phi; phi is chosen with delta >= 1e-3, so the table is not (N-1)-way."""
    require_exit_ok(out)
    n, phi = spec["n"], spec["phi"]
    got = parse_lines(out.out)
    require(list(got) == ["n", "phi", "B", f"member_k{n - 1}"], f"witness keys {list(got)}")
    require(int(got["n"]) == n and near(float(got["phi"]), phi, 1e-11), "witness echoes the wrong n or phi")
    b = n - 1 + own_delta(n, half_half_phases(n, phi))
    require(near(float(got["B"]), b, DELTA_TOL), f"witness B = {got['B']}, expected {b!r}")
    require(got[f"member_k{n - 1}"] == "false", "a table with B > N - 1 was accepted")


def check_polytope(spec, out, vertex_tables):
    """spec: n, k; vertex_tables(n, k) gives the benchmark's own distinct vertices."""
    require_exit_ok(out)
    n, k = spec["n"], spec["k"]
    tables = vertex_tables(n, k)
    got = parse_lines(out.out)
    require(list(got) == ["n", "k", "vertices", "max_B", "expected"], f"polytope keys {list(got)}")
    require(int(got["vertices"]) == len(tables), f"vertices {got['vertices']} != {len(tables)}")
    best = max(own_B(t) for t in tables)
    require(float(got["max_B"]) == best, f"max_B {got['max_B']} != {best}")
    require(int(got["expected"]) == (n - 1 if k < n else n), f"expected {got['expected']} is wrong")


def check_verdict(spec, out):
    """spec: n, k, member, and exact (members) or phi (non-members).

    A member is a mixture the benchmark built itself; its weights must be
    non-negative, sum to 1 and reproduce the table through vertex tables
    computed here.  A non-member is the quantum table at phi, whose B must
    be N - 1 + delta(N, phi) > N - 1.
    """
    n, table, result = spec["n"], out.table, out.result
    require(result.is_member == spec["member"],
            f"verdict {result.is_member} for a {'member' if spec['member'] else 'non-member'} (N={n}, k={spec['k']})")
    if not spec["member"]:
        b = n - 1 + own_delta(n, half_half_phases(n, spec["phi"]))
        require(near(own_B(table), b, DELTA_TOL), f"quantum table has B = {own_B(table)!r}, expected {b!r}")
        require(b > n - 1, f"non-member table has B = {b!r} <= N - 1")
        return
    weights = result.weights or {}
    require(all(len(v.locations) == spec["k"] for v in weights), "a vertex reads the wrong number of inputs")
    if spec["exact"]:
        require(all(isinstance(w, Fraction) and w >= 0 for w in weights.values()), "exact weights must be Fractions >= 0")
        require(sum(weights.values()) == 1, f"exact weights sum to {sum(weights.values())}")
        mix = [Fraction(0)] * 2 ** n
        for v, w in weights.items():
            for x, bit in enumerate(strategy_table(v.locations, v.truth_table, n)):
                if bit:
                    mix[x] += w
        require(mix == [Fraction(p) for p in table], "exact weights do not reproduce the table")
        return
    w = np.array(list(weights.values()), dtype=float)
    require(w.size and np.all(w >= 0), "float weights must be >= 0")
    require(abs(w.sum() - 1.0) <= WEIGHT_TOL, f"float weights sum to {w.sum()!r}")
    mix = sum(wi * strategy_table(v.locations, v.truth_table, n) for v, wi in zip(weights, w))
    gap = float(np.max(np.abs(mix - np.asarray(table))))
    require(gap <= WEIGHT_TOL, f"float weights miss the table by {gap:g}")
