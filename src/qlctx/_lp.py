"""Exact linear feasibility for integer constraint matrices.

Phase-1 simplex with Bland's rule on a fraction-free integer tableau
(Edmonds 1967; Bareiss 1968).  Intended for the tiny polytopes that arise
from two-valued-state enumerations (at most a few hundred vertices), where
exact arithmetic gives clean, bitwise reproducible certificates.

- The constraint matrix A must be integer; only b may be fractional.  b
  alone is scaled by the least common multiple L of its denominators, so
  the tableau [A | I | L·b] is integer and the artificial columns start as
  the identity.
- The tableau T is kept as D times the rational tableau, where D is the
  last pivot (D = 1 at the start).  A pivot on T[r][c] = piv > 0 updates
  every other row, and the phase-1 cost row, by
  ``row_i <- (piv·row_i - T[i][c]·row_r) // D`` and then sets D <- piv;
  each division is exact, because every entry of T is a minor of the
  starting tableau.
- Almost every pivot equals D, and then the update is done in place and
  only where a row can change.  With f = T[i][c] and w = T[r][j], the new
  entry is (D·v - f·w) / D = v - f·w / D, so a row with f = 0 stays as it
  is, and a row with f != 0 changes only at the pivot row's nonzero
  columns, by ``row_i[j] -= f·w // D``.  That division is exact too: the
  new entry is an integer minor, so D divides D·v - f·w and with it f·w.
  ``_eliminate`` builds new rows by the full rule only when piv != D.
- Scaling b changes every ratio of the ratio test by the same factor L, and
  D > 0 keeps every sign.  So the entering columns (Bland's rule) and the
  leaving rows (smallest ratio, compared by cross-multiplication, ties
  broken on the basic variable) are those of the same simplex on the
  rational tableau, and so are the returned x and y.
- Each verdict is checked in integers against the scaled system before it
  is returned: A·X = D·(L·b) for x = X / (D·L), or Y·A <= 0 and
  Y·(L·b) > 0 for y = Y / D, which hold exactly when A·x = b, or y·A <= 0
  and y·b > 0.  A failed check raises ArithmeticError rather than using an
  ``assert``, so that ``python -O`` keeps it.  Only the returned x and y
  are converted to Fractions.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import lcm


def feasibility(a, b):
    """Decide {x >= 0 : A x = b} for an integer A and a rational b.

    Entries of A are ints (or integral Fractions); a non-integer entry is a
    ValueError, and so is an A with no rows or with rows of differing
    lengths, or a b whose length is not A's number of rows.  Returns
    ("feasible", x, None) with an exact basic solution, or ("infeasible",
    None, y) with an exact Farkas certificate satisfying y·A <= 0
    componentwise and y·b > 0.  x and y are lists of Fractions.
    """
    a = [[v if type(v) is int else _integer(v) for v in row] for row in a]
    b = [Fraction(v) for v in b]
    m = len(a)
    if not m:
        raise ValueError("constraint matrix has no rows")
    n = len(a[0])
    if any(len(row) != n for row in a):
        raise ValueError("constraint matrix rows differ in length")
    if len(b) != m:
        raise ValueError(
            f"right-hand side has {len(b)} entries for {m} constraint rows"
        )
    scale = lcm(*(v.denominator for v in b))
    b_scaled = [v.numerator * (scale // v.denominator) for v in b]
    sign = [-1 if v < 0 else 1 for v in b_scaled]
    rows = [
        [-v for v in a[i]] if sign[i] < 0 else list(a[i]) for i in range(m)
    ]
    for i, row in enumerate(rows):
        row += [1 if k == i else 0 for k in range(m)]
        row.append(sign[i] * b_scaled[i])
    basis = [n + i for i in range(m)]
    # phase-1 objective: minimize the artificials' sum; reduced costs below
    cost = [-sum(col) for col in zip(*rows)]
    cost[n:n + m] = [0] * m
    d = 1

    while True:
        enter = next((j for j in range(n + m) if cost[j] < 0), None)
        if enter is None:
            break
        leave = None
        for i, row in enumerate(rows):
            coef = row[enter]
            if coef > 0:
                if leave is None:
                    leave = i
                    continue
                # row[-1]/coef against the best ratio, in integers
                best = rows[leave]
                lhs = row[-1] * best[enter]
                rhs = best[-1] * coef
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave is None:  # cannot happen: objective is bounded below by 0
            raise ArithmeticError("phase-1 simplex became unbounded")
        d = _pivot(rows, cost, basis, leave, enter, d)

    # the rational tableau is T / d with d > 0, so signs carry over
    if -cost[-1] > 0:
        # y = Y / d with Y_i = sign_i·(d - cost[n + i])
        y_num = [sign[i] * (d - cost[n + i]) for i in range(m)]
        for j, column in enumerate(zip(*a)):
            if sum(map(operator.mul, y_num, column)) > 0:
                raise ArithmeticError(
                    f"Farkas certificate fails y·A <= 0 at column {j}"
                )
        if sum(map(operator.mul, y_num, b_scaled)) <= 0:
            raise ArithmeticError("Farkas certificate fails y·b > 0")
        return "infeasible", None, [Fraction(v, d) for v in y_num]

    # x = X / (d·L), with X read off the right-hand side of the basic rows
    x_num = [0] * n
    for i, var in enumerate(basis):
        if var < n:
            x_num[var] = rows[i][-1]
    for i, row in enumerate(a):
        if sum(map(operator.mul, row, x_num)) != d * b_scaled[i]:
            raise ArithmeticError(
                f"basic solution fails A·x = b at row {i}"
            )
    denominator = d * scale
    return "feasible", [Fraction(v, denominator) for v in x_num], None


def _integer(value) -> int:
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction) and value.denominator == 1:
        return value.numerator
    raise ValueError(f"constraint matrix entry {value!r} is not an integer")


def _pivot(rows, cost, basis, r, c, d):
    """Fraction-free pivot on rows[r][c] > 0 over the tableau with
    denominator d; updates rows, cost and basis in place and returns the
    new denominator."""
    pivot_row = rows[r]
    piv = pivot_row[c]
    if piv == d:
        # in place: only rows with f != 0 change (the cost row sits last,
        # at index m != r), and only at the pivot row's nonzero columns
        support = [(j, w) for j, w in enumerate(pivot_row) if w]
        for i, row in enumerate([*rows, cost]):
            f = row[c]
            if f and i != r:
                for j, w in support:
                    row[j] -= f * w // d
    else:
        for i, row in enumerate(rows):
            if i != r:
                rows[i] = _eliminate(row, piv, pivot_row, c, d)
        cost[:] = _eliminate(cost, piv, pivot_row, c, d)
    basis[r] = c
    return piv


def _eliminate(row, piv, pivot_row, c, d):
    """(piv·row - row[c]·pivot_row) // d for piv != d; a row with
    row[c] = 0 is only rescaled."""
    f = row[c]
    if f == 0:
        return [v * piv // d for v in row]
    return [(piv * v - f * w) // d for v, w in zip(row, pivot_row)]
