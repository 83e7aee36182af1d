"""Reference kernels: exact linear algebra on package scalars.

``exactnum`` runs its linear algebra on Python ints: a rational 3x3
``Matrix`` keeps its entries as integers over one denominator for
products, sums, ``transpose``, ``scaled``, ``det``, ``inverse`` and
``apply``, and ``solve_linear`` eliminates a system with an ``ExtScalar``
entry on integer coordinates in Z[sqrt2, sqrt3].  This module keeps the kernels
those replaced, as they were, so that the tests can compare the two on
seeded inputs:

- ``product``: the plain triple loop on the entries,
- ``transpose``, ``scaled``, ``add``, ``sub``: entry by entry on the
  rows,
- ``det``: the cofactor formulas (Laplace expansion above 3x3) on the
  entries themselves,
- ``inverse``: Gauss-Jordan elimination with ``scalar_div``,
- ``apply``: one ``dot`` per row,
- ``solve_linear``: the Bareiss loop that divided field elements with
  ``scalar_div``, and the integer loop for rational systems.
"""

import math
from fractions import Fraction

from poisson_forge.exactnum import (
    ExtScalar,
    Matrix,
    SolutionSpace,
    as_scalar,
    scalar_div,
)


def dot(u, v):
    total = Fraction(0)
    for a, b in zip(u, v):
        total = total + a * b
    return total


def product(a, b):
    n = a.n
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            total = Fraction(0)
            for t in range(n):
                total = total + a.rows[i][t] * b.rows[t][j]
            row.append(total)
        rows.append(row)
    return Matrix._trusted(rows)


def transpose(m):
    return Matrix._trusted(zip(*m.rows))


def scaled(m, c):
    return Matrix._trusted([c * v for v in row] for row in m.rows)


def add(a, b):
    return Matrix._trusted([x + y for x, y in zip(r1, r2)]
                           for r1, r2 in zip(a.rows, b.rows))


def sub(a, b):
    return Matrix._trusted([x - y for x, y in zip(r1, r2)]
                           for r1, r2 in zip(a.rows, b.rows))


def apply(m, v):
    if len(v) != m.n:
        raise ValueError("size mismatch")
    return tuple(dot(row, v) for row in m.rows)


def det(m):
    if m.n == 1:
        return m.rows[0][0]
    if m.n == 2:
        (a, b), (c, d) = m.rows
        return a * d - b * c
    if m.n == 3:
        (a, b, c), (d, e, f), (g, h, i) = m.rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    # Laplace expansion along the first row (matrices here are tiny)
    total = Fraction(0)
    for j in range(m.n):
        if not m.rows[0][j]:
            continue
        minor = Matrix([
            [row[k] for k in range(m.n) if k != j]
            for row in m.rows[1:]
        ])
        term = m.rows[0][j] * det(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


def inverse(m):
    n = m.n
    work = [list(row) + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
            for i, row in enumerate(m.rows)]
    for col in range(n):
        pivot = next(
            (r for r in range(col, n) if work[r][col]), None
        )
        if pivot is None:
            raise ZeroDivisionError("singular matrix")
        work[col], work[pivot] = work[pivot], work[col]
        pv = work[col][col]
        work[col] = [scalar_div(v, pv) for v in work[col]]
        for r in range(n):
            if r == col:
                continue
            factor = work[r][col]
            if not factor:
                continue
            work[r] = [a - factor * b for a, b in zip(work[r], work[col])]
    return Matrix._trusted(row[n:] for row in work)


def _scaled_row(row):
    """(d, ints) with ints = d * row and d the lcm of row's denominators."""
    den = math.lcm(*(v.denominator for v in row))
    return den, [v.numerator * (den // v.denominator) for v in row]


def _exact_int_div(a: int, b: int) -> int:
    """a / b for ints that Bareiss elimination guarantees to divide."""
    q, rem = divmod(a, b)
    if rem:
        raise ArithmeticError("inexact Bareiss division %d / %d" % (a, b))
    return q


def solve_linear(rows, rhs, ncols=None):
    m = len(rows)
    if ncols is None:
        if m == 0:
            raise ValueError("cannot infer column count from an empty system")
        ncols = len(rows[0])
    aug = []
    for i in range(m):
        row = [as_scalar(v) for v in rows[i]]
        if len(row) != ncols:
            raise ValueError("ragged system")
        row.append(as_scalar(rhs[i]))
        aug.append(row)

    if any(isinstance(v, ExtScalar) for row in aug for v in row):
        div, prev = scalar_div, Fraction(1)
    else:
        aug = [_scaled_row(row)[1] for row in aug]
        div, prev = _exact_int_div, 1

    pivots = []  # (row, col)
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, m) if aug[i][c]), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        pivot_row = aug[r]
        pivot = pivot_row[c]
        for i in range(r + 1, m):
            row = aug[i]
            factor = row[c]
            row[c:] = [div(pivot * a - factor * b, prev)
                       for a, b in zip(row[c:], pivot_row[c:])]
        prev = pivot
        pivots.append((r, c))
        r += 1

    for i in range(r, m):
        if aug[i][ncols]:
            return SolutionSpace(ncols, None, ())

    pivot_cols = [c for (_, c) in pivots]
    free_cols = [c for c in range(ncols) if c not in pivot_cols]

    def back_substitute(free_values: dict, homogeneous: bool) -> tuple:
        x = [Fraction(0)] * ncols
        for c, v in free_values.items():
            x[c] = as_scalar(v)
        for (pr_i, pc) in reversed(pivots):
            acc = Fraction(0) if homogeneous else aug[pr_i][ncols]
            for j in range(pc + 1, ncols):
                if aug[pr_i][j] and x[j]:
                    acc = acc - aug[pr_i][j] * x[j]
            x[pc] = scalar_div(acc, aug[pr_i][pc])
        return tuple(x)

    particular = back_substitute({}, homogeneous=False)
    basis = tuple(
        back_substitute({fc: 1}, homogeneous=True) for fc in free_cols
    )
    return SolutionSpace(ncols, particular, basis)
