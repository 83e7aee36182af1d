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
  entries themselves, of any size, where the package has a 3x3 ``det``
  only,
- ``inverse``: Gauss-Jordan elimination with ``scalar_div``; with
  ``det`` it serves ``normal_form_reference`` in place of the package's
  ``det`` and adjugate inverse,
- ``apply``: one ``dot`` per row,
- ``solve_linear``: the Bareiss loop that divided field elements with
  ``scalar_div``, and the integer loop for rational systems, both with
  back substitution on Fractions and ExtScalars,
- ``congruent_diagonalize``: Lagrange's column operations, one cell at a
  time, on lists of package scalars; ``normal_form_reference.classify``
  runs on it,
- ``gram_of_quadratic``: the Gram matrix built from Fraction rows, with
  each off-diagonal coefficient halved by ``scalar_div``; the package no
  longer has a Gram reader, and ``form_reference`` uses this one,
- ``derivation_rows``: the 10x10 matrix of F -> (Kx).grad F, column by
  column from ``poly_reference``'s dict-of-scalars derivation of each
  cubic monomial, the oracle of ``quaddef._derivation_rows``,
- ``stacked_solve_F``: the deformation solver's one 16x10 system, the
  kernel equations of the twist (``derivation_rows``) stacked on the
  coefficient equations, the one oracle of ``quaddef.solve_F``,
- ``kernel``: the cubic kernel of a twist by eliminating its ten kernel
  equations (``derivation_rows``), which a regular twist no longer
  needs, the one oracle of ``quaddef.cubic_kernel``,
- ``der0_rows``: the system of ``linclass.der0_space`` as its rows were
  built before they were read off the forms, on nine unit matrices:
  their traces, their images of k and the coefficients of
  ``poly_reference``'s derivation of the case's potential along each,
  the oracle of ``der0_space``,
- ``direction_in_span``, ``contains``, ``same_space``: membership in a
  ``SolutionSpace`` by solving for the coefficients of the basis with
  this module's ``solve_linear``, for a basis of any shape, and equality
  as containment both ways; the package reads membership off the free
  columns of the canonical shape, and equality as equality of canonical
  forms.  With ``solve_linear`` for the rank they are also the oracle of
  ``SolutionSpace.spanned_by``, which builds that shape.
"""

import math
from fractions import Fraction

import poly_reference
from poisson_forge import exactnum, quaddef
from poisson_forge.exactnum import (
    ExtScalar,
    Matrix,
    Polynomial,
    SolutionSpace,
    as_scalar,
    scalar_div,
)
from poisson_forge.linclass import standard_pair


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


def congruent_diagonalize(a: Matrix, rng=None):
    """Lagrange congruence: returns (R, d) with R^T A R = diag(d) exactly.

    A must be symmetric.  With ``rng`` given, admissible pivots are chosen
    at random (used to check that signature counts are order-independent);
    otherwise pivot selection is deterministic by index.
    """
    if not a.is_symmetric():
        raise ValueError("matrix is not symmetric")
    n = a.n
    b = [list(row) for row in a.rows]
    r = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]

    def add_col(dst, src, factor):
        # column operation plus the mirrored row operation keeps symmetry
        for i in range(n):
            b[i][dst] = b[i][dst] + factor * b[i][src]
        for j in range(n):
            b[dst][j] = b[dst][j] + factor * b[src][j]
        for i in range(n):
            r[i][dst] = r[i][dst] + factor * r[i][src]

    def swap_cols(i, j):
        for row in b:
            row[i], row[j] = row[j], row[i]
        b[i], b[j] = b[j], b[i]
        for row in r:
            row[i], row[j] = row[j], row[i]

    for k in range(n):
        candidates = [i for i in range(k, n) if b[i][i]]
        if not candidates:
            off = [
                (i, j)
                for i in range(k, n) for j in range(i + 1, n)
                if b[i][j]
            ]
            if not off:
                break  # the rest of the form is zero
            if rng is not None:
                i, j = off[rng.randrange(len(off))]
            else:
                i, j = off[0]
            add_col(i, j, Fraction(1))
            candidates = [i]
        if rng is not None:
            p = candidates[rng.randrange(len(candidates))]
        else:
            p = candidates[0]
        if p != k:
            swap_cols(k, p)
        pivot = b[k][k]
        for j in range(k + 1, n):
            if b[k][j]:
                add_col(j, k, scalar_div(-b[k][j], pivot))

    return Matrix(r), tuple(b[i][i] for i in range(n))


def gram_of_quadratic(p: Polynomial) -> "Matrix":
    """Symmetric Gram matrix A with p = (A x, x), for homogeneous quadratics."""
    if not p.is_homogeneous(2):
        raise ValueError("not a homogeneous quadratic: %s" % p)
    n = p.nvars
    rows = [[Fraction(0)] * n for _ in range(n)]
    for exps, coef in p.terms.items():
        support = [i for i, e in enumerate(exps) if e]
        if len(support) == 1:
            i = support[0]
            rows[i][i] = coef
        else:
            i, j = support
            half = scalar_div(coef, 2)
            rows[i][j] = half
            rows[j][i] = half
    return Matrix(rows)


def derivation_rows(k_matrix):
    """The 10x10 matrix of F -> (Kx).grad F on cubic coefficients: column
    s holds the coefficients of ``poly_reference.apply_matrix_derivation``
    of x^e, e = CUBIC_MONOMIALS[s], in value and type, a missing one as
    Fraction(0)."""
    images = [poly_reference.apply_matrix_derivation(
        k_matrix, poly_reference.Polynomial.monomial(3, e))
        for e in quaddef.CUBIC_MONOMIALS]
    return [[p.terms.get(t, Fraction(0)) for p in images]
            for t in quaddef.CUBIC_MONOMIALS]


def stacked_solve_F(lp, k_matrix):
    """The affine set of admissible cubics as ``quaddef.solve_F`` found it
    before it solved on the cubic kernel: the ten kernel equations stacked
    on the six coefficient equations of the quadratic identity, one 16x10
    system for the package's ``solve_linear``.  The bracket re-check is
    left out."""
    quaddef._check_twist(k_matrix)
    (den, vals), (s, k) = (quaddef.deform_rhs(lp, k_matrix)._form,
                           _scaled_row(lp.k))
    drift = quaddef._drift_rows([den * c for c in k])
    rhs = [vals.get(m, 0) for m in quaddef.QUAD_MONOMIALS]
    if s != 1:
        rhs = [s * v for v in rhs]
    rows = derivation_rows(k_matrix) + drift
    return exactnum.solve_linear(rows, [0] * 10 + rhs, 10)


def kernel(k_matrix):
    """ker D_K as the package's ``solve_linear`` eliminates it from the
    rows of ``derivation_rows`` (the flag of ``quaddef._kernel`` aside)."""
    return exactnum.solve_linear(derivation_rows(k_matrix), [0] * 10, 10)


def der0_rows(case_id):
    """The rows of tr D = 0, D k = 0 and D^ f = 0 for the traceless
    derivations D of a standard pair (k, A), f = (A x, x), D flattened
    row-major into R^9: column c of each row is read off the unit matrix
    E_c, in value and type."""
    pair = standard_pair(case_id)
    f = poly_reference.quadratic_form_poly(pair.gram)
    units = [Matrix([[Fraction(int(3 * i + j == c)) for j in range(3)]
                     for i in range(3)]) for c in range(9)]
    rows = [[u.rows[0][0] + u.rows[1][1] + u.rows[2][2] for u in units]]
    images = [apply(u, pair.k) for u in units]
    rows += [[v[i] for v in images] for i in range(3)]
    derived = [poly_reference.apply_matrix_derivation(u, f) for u in units]
    rows += [[p.coeff(e) for p in derived] for e in quaddef.QUAD_MONOMIALS]
    return rows


def direction_in_span(space, v):
    """Whether the direction v is a combination of the basis of ``space``:
    the system whose columns are the basis vectors, solved for v."""
    if space.is_empty:
        return False
    if not space.basis:
        return not any(v)
    rows = [[b[i] for b in space.basis] for i in range(space.ambient_dim)]
    return not solve_linear(rows, list(v)).is_empty


def contains(space, v):
    return not space.is_empty and direction_in_span(
        space, tuple(a - b for a, b in zip(v, space.particular)))


def same_space(a, b):
    """Equality of two affine sets: a contains b's particular point, and
    each spans the other's directions.  The lengths of the bases are not
    compared, since a basis given by hand may be dependent."""
    if a.is_empty or b.is_empty:
        return a.is_empty and b.is_empty
    if a.ambient_dim != b.ambient_dim:
        return False
    return contains(a, b.particular) and all(
        direction_in_span(a, d) for d in b.basis) and all(
        direction_in_span(b, d) for d in a.basis)
