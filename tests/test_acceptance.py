"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.

Two criteria check the quantitative laws of the optimal protocol, whose
derivations fix the expected values:

* criterion 2, the two-location perturbation law.  With |c> = (1,1)/sqrt 2
  and |d> = (1,-1)/sqrt 2 the N = 2 Helstrom operator is exactly
  3(p1 rho_1 - p0 rho_0) = cos(phi)|c><c| + (1 - cos phi)|d><d|, so
  delta(2, phi) = (|cos phi| - cos phi)/2, i.e. delta(2, pi - eps) =
  max(cos eps, 0).  The optimal measurement never gives delta < 0, since
  always answering 1 already reaches B = N - 1; cos(eps) alone holds only
  on [0, pi/2].
* criterion 9, the O(1/N) error law of the multi-query game.  The final
  states are psi_i = d e_i + beta 1, so rho_1 - rho_0 = aI + bJ and the
  Helstrom value at equal priors is P_W = (1 + sin^2(k theta))/2 with
  sin(theta/2) = 1/sqrt(N); hence N(1 - P_W) = N cos^2(k theta)/2.  It
  equals 1/2 only when the rotation lands exactly on the marked state and
  otherwise oscillates with N (0.62 at N=256, 0.03 at N=1024, 0.14 at
  N=4096).  At the amplitude-optimal k of optimal_query_count,
  |k theta - pi/2| <= theta, which bounds 0 <= N(1 - P_W) <= 2(N-1)/N < 2;
  at the game-optimal k (the maximizer of sin^2(k theta)) the bound
  tightens to N(1 - P_W) <= 1/2.
"""
import math

import numpy as np

from kway.behavior import Behavior, classical_win_bound
from kway.grover import (
    GroverRun,
    grover_angle,
    grover_state_closed,
    grover_state_iterative,
    optimal_query_count,
    quantum_win_prob,
)
from kway.linalg import eigh, trace_norm
from kway.polytope import enumerate_vertices, is_k_way, max_B_over_vertices, vertex_table
from kway.single_query import (
    PhasePattern,
    build_discrimination_pair,
    delta_closed_form,
    delta_max,
    delta_numeric,
    helstrom,
)

PI = math.pi


def _report(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num:02d}: {status} - {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_n2_logical_bound_saturation():
    pattern = PhasePattern((PI, PI))
    d = delta_numeric(2, pattern)
    p0, rho0, p1, rho1 = build_discrimination_pair(2, pattern)
    pw, _ = helstrom(p0, rho0, p1, rho1)
    b = -1 + 3 * pw
    ok = abs(d - 1.0) <= 1e-10 and abs(b - 2.0) <= 1e-10
    _report(1, "two-location saturation: delta(2, pi) = 1 and B = 2", ok)


def test_criterion_02_perturbation_law_full_grid():
    worst = 0.0
    for eps in np.linspace(0.0, PI, 20):
        phi = PI - eps
        d = delta_numeric(2, PhasePattern((phi, phi)))
        worst = max(worst, abs(d - (abs(math.cos(phi)) - math.cos(phi)) / 2))
    ok = worst <= 1e-9
    _report(2, "delta(2, phi) = (|cos phi| - cos phi)/2 on a 20-point grid over [0, pi]",
            ok, f"worst deviation {worst:.3g}")


def test_criterion_03_closed_form_vs_numeric_oracle():
    worst = 0.0
    phis = np.linspace(0.0, PI, 51)[1:]
    for n in range(3, 41):
        for phi in phis:
            d_closed, _ = delta_closed_form(n, phi)
            d_num = delta_numeric(n, PhasePattern.half_half(n, phi))
            worst = max(worst, abs(d_closed - d_num))
    ok = worst <= 1e-8
    _report(3, "closed form vs eigensolver, N in [3,40], 50 phi points", ok,
            f"worst gap {worst:.3g}")


def test_criterion_04_threshold_sharpness():
    from kway.single_query import violation_threshold

    ok = True
    for n in range(3, 21):
        thr = violation_threshold(n)
        if thr + 0.01 <= 1.0:
            d = delta_numeric(n, PhasePattern.half_half(n, math.acos(thr + 0.01)))
            ok = ok and d > 1e-10
        if thr - 0.01 >= -1.0:
            d = delta_numeric(n, PhasePattern.half_half(n, math.acos(thr - 0.01)))
            ok = ok and d <= 1e-10
    _report(4, "delta > 0 exactly above the violation threshold, N in [3,20]", ok)


def test_criterion_05_max_violation_curve():
    deltas = [delta_max(n)[1] for n in range(2, 51)]
    ok = all(d > 0 for d in deltas)
    ok = ok and abs(deltas[0] - 1.0) <= 1e-9
    ok = ok and all(a >= b - 1e-9 for a, b in zip(deltas, deltas[1:]))
    _report(5, "delta_max > 0 and nonincreasing for N in [2,50], delta_max(2) = 1", ok)


def test_criterion_06_polytope_bound_and_quantum_escape():
    ok = True
    for n in (2, 3):
        for k in range(1, n):
            ok = ok and abs(max_B_over_vertices(n, k) - (n - 1)) <= 1e-12
    pattern = PhasePattern((PI, PI))
    p0, rho0, p1, rho1 = build_discrimination_pair(2, pattern)
    _, povm = helstrom(p0, rho0, p1, rho1)
    from kway.single_query import induced_behavior

    quantum = induced_behavior(2, pattern, povm)
    ok = ok and not is_k_way(quantum, 1, mode="exact").is_member
    _report(6, "vertex bound N-1 for k < N (N = 2, 3); quantum table escapes k = 1", ok)


def test_criterion_07_grover_state_equivalence():
    worst = 0.0
    rng = np.random.default_rng(42)
    for n in (2, 4, 16, 100, 256):
        markeds = {1, int(rng.integers(1, n + 1))}
        for k in range(0, int(2 * math.sqrt(n)) + 1):
            for i in markeds:
                run = GroverRun(n, k, marked=i)
                diff = np.max(np.abs(grover_state_iterative(run) - grover_state_closed(run)))
                worst = max(worst, diff)
    ok = worst <= 1e-12
    _report(7, "iterative vs closed-form states, N in {2,...,256}, k <= 2 sqrt(N)", ok,
            f"worst gap {worst:.3g}")


def test_criterion_08_n4_one_query_gap():
    pq = quantum_win_prob(4, 1)
    pc = classical_win_bound(4, 1)
    # independent route: explicit averaged density operator from the simulator
    psi0 = np.full(4, 0.5)
    acc = np.zeros((4, 4))
    for i in range(1, 5):
        psi = grover_state_iterative(GroverRun(4, 1, marked=i))
        acc += np.outer(psi, psi)
    oracle = 0.5 * (1 + 0.5 * trace_norm(acc / 4 - np.outer(psi0, psi0)))
    ok = abs(pq - 0.875) <= 1e-10 and pc == 0.625 and abs(oracle - 0.875) <= 1e-10
    _report(8, "N = 4 single query: quantum 7/8 vs classical 5/8", ok)


def test_criterion_09_asymptote_window():
    values = {}
    ok = True
    for n in (256, 1024, 4096):
        k = optimal_query_count(n)
        v = n * (1 - quantum_win_prob(n, k))
        values[n] = v
        ok = ok and abs(v - n * math.cos(k * grover_angle(n)) ** 2 / 2) <= 1e-9
        ok = ok and 0.0 <= v <= 2 * (n - 1) / n
    detail = ", ".join(f"N={n}: {v:.4f}" for n, v in values.items())
    _report(9, "N (1 - P_W) = N cos^2(k theta)/2 in [0, 2(N-1)/N] at the optimal query count",
            ok, detail)


def test_criterion_10_property_suites():
    rng = np.random.default_rng(1234)
    ok = True

    # eigensolver reconstruction/orthonormality, dim <= 64
    for dim in (2, 3, 8, 17, 64):
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = (a + a.conj().T) / 2
        dec = eigh(h)
        v, lam = dec.eigenvectors, dec.eigenvalues
        scale = max(1.0, float(np.max(np.abs(h))))
        ok = ok and np.max(np.abs(v @ np.diag(lam) @ v.conj().T - h)) <= 1e-10 * dim * scale
        ok = ok and np.max(np.abs(v.conj().T @ v - np.eye(dim))) <= 1e-10

    # Helstrom achievability and delta >= 0 on random phase patterns
    for _ in range(15):
        n = int(rng.integers(2, 7))
        pattern = PhasePattern(tuple(rng.uniform(-PI, PI, n)))
        p0, rho0, p1, rho1 = build_discrimination_pair(n, pattern)
        pw, povm = helstrom(p0, rho0, p1, rho1)
        achieved = p0 * np.trace(povm.pi0 @ rho0).real + p1 * np.trace(povm.pi1 @ rho1).real
        ok = ok and abs(achieved - pw) <= 1e-10
        ok = ok and delta_numeric(n, pattern) >= -1e-10

    # polytope closure and level monotonicity at N = 3
    vs2 = enumerate_vertices(3, 2)
    for _ in range(6):
        i, j = rng.integers(0, len(vs2), 2)
        t = int(rng.integers(0, 9)) / 8
        mix = [
            t * a + (1 - t) * b
            for a, b in zip(vertex_table(vs2[i], 3), vertex_table(vs2[j], 3))
        ]
        ok = ok and is_k_way(Behavior.from_table(3, mix), 2, mode="exact").is_member
    for v in enumerate_vertices(3, 1):
        ok = ok and is_k_way(Behavior.from_table(3, vertex_table(v, 3)), 2, mode="exact").is_member

    _report(10, "eigensolver, POVM achievability, delta >= 0, polytope closure", ok)
