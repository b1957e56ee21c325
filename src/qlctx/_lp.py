"""Exact linear feasibility over the rationals.

Phase-1 simplex with Bland's rule on a dense Fraction tableau.  Intended
for the tiny polytopes that arise from two-valued-state enumerations (at
most a few hundred vertices), where exact arithmetic gives clean, bitwise
reproducible certificates.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def feasibility(a, b):
    """Decide {x >= 0 : A x = b} with Fraction entries.

    Returns ("feasible", x, None) with an exact basic solution, or
    ("infeasible", None, y) with an exact Farkas certificate satisfying
    y·A <= 0 componentwise and y·b > 0.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    sign = [-1 if b[i] < 0 else 1 for i in range(m)]
    rows = [
        [sign[i] * a[i][j] for j in range(n)]
        + [ONE if k == i else ZERO for k in range(m)]
        + [sign[i] * b[i]]
        for i in range(m)
    ]
    basis = [n + i for i in range(m)]
    # phase-1 objective: minimize the artificials' sum; reduced costs below
    cost = [ZERO] * (n + m + 1)
    for j in range(n):
        cost[j] = -sum(rows[i][j] for i in range(m))
    cost[-1] = -sum(rows[i][-1] for i in range(m))

    while True:
        enter = next((j for j in range(n + m) if cost[j] < 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            coef = rows[i][enter]
            if coef > 0:
                ratio = rows[i][-1] / coef
                key = (ratio, basis[i])
                if best is None or key < best:
                    best = key
                    leave = i
        if leave is None:  # cannot happen: objective is bounded below by 0
            raise ArithmeticError("phase-1 simplex became unbounded")
        _pivot(rows, cost, basis, leave, enter)

    objective = -cost[-1]
    if objective > 0:
        y_neg = [ONE - cost[n + i] for i in range(m)]
        y = [sign[i] * y_neg[i] for i in range(m)]
        # each verdict is checked exactly against the original system, by a
        # raise rather than an assert so that python -O keeps the check
        for j in range(n):
            if sum(y[i] * a[i][j] for i in range(m)) > 0:
                raise ArithmeticError(
                    f"Farkas certificate fails y·A <= 0 at column {j}"
                )
        if sum(y[i] * b[i] for i in range(m)) <= 0:
            raise ArithmeticError("Farkas certificate fails y·b > 0")
        return "infeasible", None, y

    x = [ZERO] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = rows[i][-1]
    for i in range(m):
        if sum(a[i][j] * x[j] for j in range(n)) != b[i]:
            raise ArithmeticError(f"basic solution fails A·x = b at row {i}")
    return "feasible", x, None


def _pivot(rows, cost, basis, r, c):
    piv = rows[r][c]
    rows[r] = [v / piv for v in rows[r]]
    for i in range(len(rows)):
        if i != r and rows[i][c] != 0:
            f = rows[i][c]
            rows[i] = [v - f * w for v, w in zip(rows[i], rows[r])]
    if cost[c] != 0:
        f = cost[c]
        for j in range(len(cost)):
            cost[j] -= f * rows[r][j]
    basis[r] = c
