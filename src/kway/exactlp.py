"""Exact checks behind the exact route of polytope.is_k_way.

Nothing here searches.  HiGHS proposes an answer in floating point, and
these functions verify it in exact arithmetic (int and Fraction), in the
style of QSopt_ex (Applegate, Cook, Dash and Espinoza, Oper. Res. Lett. 35,
2007).  A table is a list of 2^N exact numbers P(1|x), x_1 the least
significant bit of x.  `index[s, x]` is x_S, the input that the function on
the s-th subset S reads at x (see polytope.fibre_index).

* walsh_certificate: the affine hull of the k-way polytope is the span of
  the Walsh characters chi_T with |T| <= k, so a nonzero coefficient with
  |T| > k proves non-membership, with y = +-chi_T and h(y) = 0.
* solve: the compact LP's equalities solved exactly on HiGHS's support.
  polytope checks the point found by its staircase weights, the ones it
  returns: nonnegative, summing to 1 and rebuilding the table exactly.
* support_function and separates: h(y), the largest y.v over the vertices
  v, and the test y.p > h(y), which proves that p is not k-way.
"""
from __future__ import annotations

import math
from fractions import Fraction


def walsh_certificate(p, n: int, k: int):
    """y = +-chi_T with y.p > 0 for some |T| > k, or None when p lies on the affine hull.

    chi_T(x) = (-1)^{|x & T|}.  The coefficients come from an integer fast
    Walsh-Hadamard transform of p scaled to a common denominator.
    """
    w, _ = _integers(p)
    h = 1
    while h < len(w):
        for start in range(0, len(w), 2 * h):
            for i in range(start, start + h):
                w[i], w[i + h] = w[i] + w[i + h], w[i] - w[i + h]
        h *= 2
    t = next((t for t, c in enumerate(w) if c and bin(t).count("1") > k), None)
    if t is None:
        return None
    sign = 1 if w[t] > 0 else -1
    return [sign * (-1) ** bin(x & t).count("1") for x in range(2 ** n)]


def solve(rows, rhs, guess):
    """x with rows.x = rhs exactly, or None when the system is inconsistent.

    Each row is a sparse {unknown: coefficient} mapping.  Fraction-free
    Gauss-Jordan elimination on integer rows, each scaled by its own
    denominators and kept divided by its gcd, with the shortest candidate
    row as pivot to limit fill-in.  An unknown without a pivot keeps its
    value from `guess`, so a float point near the solution set maps to a
    nearby exact solution.
    """
    width = len(guess)  # key of the right-hand side in each sparse row
    tab = []
    for row, b in zip(rows, rhs):
        entries = {j: Fraction(v) for j, v in list(row.items()) + [(width, b)] if v != 0}
        den = math.lcm(*(v.denominator for v in entries.values()))
        tab.append({j: int(v * den) for j, v in entries.items()})
    pivots = []
    for c in range(width):
        r = len(pivots)
        candidates = [i for i in range(r, len(tab)) if c in tab[i]]
        if not candidates:
            continue
        i = min(candidates, key=lambda i: len(tab[i]))
        tab[r], tab[i] = tab[i], tab[r]
        prow = tab[r]
        a = prow[c]
        for i, row in enumerate(tab):
            f = row.get(c)
            if i != r and f:
                new = {j: a * v for j, v in row.items()}
                for j, v in prow.items():
                    new[j] = new.get(j, 0) - f * v
                g = math.gcd(*new.values())
                tab[i] = {j: v // g for j, v in new.items() if v}
        pivots.append(c)
    if any(width in row for row in tab[len(pivots):]):
        return None
    x = [Fraction(v) for v in guess]
    for row, c in zip(tab, pivots):
        rest = sum(v * x[j] for j, v in row.items() if j != c and j != width)
        x[c] = (row.get(width, 0) - rest) / Fraction(row[c])
    return x


def _integers(values):
    """Integers w and a common denominator den with values = w / den exactly."""
    exact = [Fraction(v) for v in values]
    den = math.lcm(*(v.denominator for v in exact))
    return [v.numerator * (den // v.denominator) for v in exact], den


def support_function(y, index):
    """h(y) = max over the k-way vertices v of y.v, as an exact Fraction.

    For each subset S the best function outputs 1 exactly on the fibres
    {x : x_S = a} whose y-sum is positive, so
    h(y) = max_S sum_a max(0, sum_{x_S = a} y_x), summed on integers from
    the exact value of each entry, int, float or Fraction.
    """
    w, den = _integers(y)
    best = 0
    for fibre in index.tolist():
        sums = {}
        for a, w_x in zip(fibre, w):
            sums[a] = sums.get(a, 0) + w_x
        best = max(best, sum(v for v in sums.values() if v > 0))
    return Fraction(best, den)


def separates(y, p, index) -> bool:
    """y.p > h(y), exactly for int, float or Fraction entries: the hyperplane
    y.v = h(y) separates p from the polytope."""
    return sum(Fraction(a) * Fraction(b) for a, b in zip(y, p)) > support_function(y, index)
