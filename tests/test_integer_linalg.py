"""Integer kernels of ``exactnum`` against the kernels they replaced.

A rational ``Matrix`` keeps the integer form (D, M) from operation to
operation: products, sums, ``transpose``, ``scaled`` and the 3x3
``inverse`` run on it, and ``det`` and ``apply`` read it.  ``solve_linear``
eliminates a system with an ``ExtScalar`` entry on integer coordinates
in Z[sqrt2, sqrt3].  ``linalg_reference`` keeps the old kernels: on
seeded inputs both must give the same values, with the same types on
rational input and the same ``scalar_to_json`` of every coordinate on
field systems.  The form must be canonical (D > 0, gcd(D, M) = 1), so
that ``==`` on forms agrees with ``==`` on entries.
"""

import math
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest

import linalg_reference as ref
from conftest import rational_valued
from poisson_forge.exactnum import (
    SQRT2,
    SQRT3,
    SQRT6,
    ExtScalar,
    Matrix,
    Polynomial,
    _norm_cofactor,
    _ring_update,
    congruent_diagonalize,
    quadratic_form_poly,
    scalar_to_json,
    solve_linear,
)


def _same(got, want):
    """Equal values of equal types, entry by entry."""
    assert got == want
    assert [type(v) for v in got] == [type(v) for v in want]


def _random_rational(rng, digits):
    if rng.random() < 0.25:
        return F(0)
    top = 10 ** digits
    return F(rng.randint(-top, top), rng.randint(1, top))


def _random_matrix(rng, n, digits, singular=False):
    rows = [[_random_rational(rng, digits) for _ in range(n)] for _ in range(n)]
    if singular:                       # last row: a combination of two others
        a, b = _random_rational(rng, digits), _random_rational(rng, digits)
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    return Matrix(rows)


def _check_against_reference(m, v):
    """det, apply and inverse against the reference; the package takes
    the det of a 3x3 matrix only, and inverts rational 3x3 ones only."""
    if m.n != 3:
        with pytest.raises(ValueError, match="^det is implemented for 3x3, not"):
            m.det()
    else:
        _same((m.det(),), (ref.det(m),))
    _same(m.apply(v), ref.apply(m, v))
    if m.n != 3:
        with pytest.raises(ValueError, match="for 3x3"):
            m.inverse()
        return
    if not rational_valued(m):
        with pytest.raises(TypeError, match="expected a rational value"):
            m.inverse()
        return
    try:
        want = ref.inverse(m)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError, match="singular"):
            m.inverse()
        return
    got = m.inverse()
    for row, want_row in zip(got.rows, want.rows):
        _same(row, want_row)


@pytest.mark.parametrize("digits", [1, 3, 30])
def test_rational_matrices_match_the_fraction_kernels(digits):
    rng = random.Random(8100 + digits)
    singular = 0
    for k in range(150):
        m = _random_matrix(rng, 3, digits, singular=k % 5 == 0)
        v = tuple(_random_rational(rng, digits) for _ in range(3))
        _check_against_reference(m, v)
        singular += not m.det()
    assert singular >= 30


def test_rational_matrices_of_other_sizes_match_the_fraction_kernels():
    rng = random.Random(8110)
    for n in (1, 2, 4):
        for k in range(40):
            m = _random_matrix(rng, n, 2, singular=n > 1 and k % 4 == 0)
            v = tuple(_random_rational(rng, 2) for _ in range(n))
            _check_against_reference(m, v)


def test_integer_entries_and_vectors_keep_their_results():
    m = Matrix([[2, 0, 1], [1, 3, 0], [0, 1, 1]])
    _check_against_reference(m, (1, 2, 3))
    _check_against_reference(m, (F(1), F(1, 2), F(-3, 4)))
    _check_against_reference(Matrix._trusted([[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
                             (F(1), F(2), F(3)))


def _assert_canonical(m):
    """m's integer form is the canonical one of its entries."""
    den, ints = m.integer_form()
    assert den > 0 and math.gcd(den, *ints) == 1
    assert type(ints) is tuple and len(ints) == m.n * m.n
    assert Matrix([list(row) for row in m.rows]).integer_form() == (den, ints)


@pytest.mark.parametrize("digits", [1, 3, 30])
def test_chains_of_integer_operations_match_the_fraction_kernels(digits):
    rng = random.Random(8150 + digits)
    ops = ("product", "product", "transpose", "scaled", "inverse", "negate",
           "sum", "difference")
    seen = set()
    for _ in range(40):
        got = _random_matrix(rng, 3, digits)
        want = Matrix._trusted(got.rows)    # the reference reads rows only
        for _ in range(6):
            op = rng.choice(ops)
            if op == "product":
                other = _random_matrix(rng, 3, digits)
                if rng.random() < 0.5:
                    got, want = got * other, ref.product(want, other)
                else:
                    got, want = other * got, ref.product(other, want)
            elif op in ("sum", "difference"):
                other = _random_matrix(rng, 3, digits)
                if op == "sum":
                    got, want = got + other, ref.add(want, other)
                else:
                    got, want = got - other, ref.sub(want, other)
            elif op == "transpose":
                got, want = got.transpose(), ref.transpose(want)
            elif op == "scaled":
                c = _random_rational(rng, digits)
                c = c.numerator if c.denominator == 1 else c
                got, want = got.scaled(c), ref.scaled(want, F(c))
            elif op == "negate":
                got, want = -got, ref.scaled(want, F(-1))
            else:
                try:
                    want = ref.inverse(want)
                except ZeroDivisionError:
                    with pytest.raises(ZeroDivisionError, match="singular"):
                        got.inverse()
                    seen.add("singular")
                    break
                got = got.inverse()
            seen.add(op)
            for row, want_row in zip(got.rows, want.rows):
                _same(row, want_row)
            _assert_canonical(got)
            v = tuple(_random_rational(rng, digits) for _ in range(3))
            _same((got.det(),), (ref.det(want),))
            _same(got.apply(v), ref.apply(want, v))
    assert seen == set(ops) | {"singular"}


def test_equality_and_hash_agree_across_the_three_views():
    rng = random.Random(8160)
    identity = Matrix.identity(3)
    for digits in (1, 3, 30):
        for _ in range(30):
            m = _random_matrix(rng, 3, digits)
            bump = Matrix.diagonal([0, _random_rational(rng, digits) or 1, 0])
            views = []
            for entries in (m.rows, (m + bump).rows):
                by_form = Matrix(entries) * identity  # built by an integer op
                by_rows = Matrix([list(row) for row in entries])
                by_ext = Matrix([[ExtScalar.of(v) for v in row]
                                 for row in entries])
                # rational-valued ExtScalars make a matrix of the rational
                # kind, with Fraction rows
                assert by_form.integer_form() == by_rows.integer_form() == (
                    by_ext.integer_form()) is not None
                assert all(type(v) is F for row in by_ext.rows for v in row)
                views.append((by_form, by_rows, by_ext))
            same, other = views
            for a in same:
                for b in same:
                    assert a == b and not a != b
                for b in other:
                    assert a != b and not a == b
                assert {hash(b) for b in same} == {hash(a)}


def test_zero_and_common_factors_normalise_to_the_canonical_form():
    zero = (1, (0,) * 9)
    m = Matrix([[F(1, 3), F(2, 5), 0], [0, F(7, 2), 1], [F(-1, 6), 0, 2]])
    for z in (Matrix.zero(3), m * Matrix.zero(3), m.scaled(0), -Matrix.zero(3),
              m.scaled(F(1, 7)) * Matrix.zero(3).transpose()):
        assert z.integer_form() == zero
        assert z == Matrix.zero(3)
    # (I/2) * diag(2, 4, 6) is (2, diag(2, 4, 6)) before the common 2 goes
    product = Matrix.diagonal([F(1, 2)] * 3) * Matrix.diagonal([2, 4, 6])
    assert product.integer_form() == (1, (1, 0, 0, 0, 2, 0, 0, 0, 3))
    assert product == Matrix.diagonal([1, 2, 3])
    # m/3 * 3m^-1: every numerator carries the denominator's factors
    assert m.scaled(F(1, 3)) * m.inverse().scaled(3) == Matrix.identity(3)
    assert m.scaled(F(2, 9)).scaled(F(9, 2)).integer_form() == m.integer_form()
    # det(M) < 0: the inverse still has D > 0
    flip = Matrix.diagonal([F(-2, 3), 1, 1])
    assert flip.inverse().integer_form() == (2, (-3, 0, 0, 0, 2, 0, 0, 0, 2))
    assert flip.inverse() == Matrix.diagonal([F(-3, 2), 1, 1])
    for a in (m, m.inverse(), flip.inverse(), -m, m * m.transpose()):
        _assert_canonical(a)


def test_singular_inverse_raises_on_the_integer_form():
    a = Matrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    for m in (a, a * Matrix.identity(3), a.transpose(), a.scaled(F(2, 7)),
              -a, Matrix.zero(3)):
        assert m.integer_form() is not None
        with pytest.raises(ZeroDivisionError, match="singular"):
            m.inverse()


def _random_field_entry(rng):
    value = _random_rational(rng, 1)
    if rng.random() < 0.4:
        return value + _random_rational(rng, 1) * rng.choice([SQRT2, SQRT3])
    return value


def test_mixed_extension_matrices_keep_the_field_loops():
    rng = random.Random(8120)
    for k in range(150):
        rows = [[_random_rational(rng, 2) for _ in range(3)] for _ in range(3)]
        i, j = rng.randrange(3), rng.randrange(3)
        rows[i][j] = rows[i][j] + F(rng.randint(1, 5), rng.randint(1, 5)) * SQRT2
        if k % 5 == 0:
            rows[2] = [a + b for a, b in zip(rows[0], rows[1])]
        m = Matrix(rows)
        v = tuple(_random_field_entry(rng) for _ in range(3))
        _check_against_reference(m, v)


def _same_entries(got, want):
    for row, want_row in zip(got.rows, want.rows):
        _same(row, want_row)


def _random_field_matrix(rng):
    """3x3 with entries in Q(sqrt2, sqrt3), at least one of them irrational."""
    rows = [[_random_field_entry(rng) for _ in range(3)] for _ in range(3)]
    i, j = rng.randrange(3), rng.randrange(3)
    rows[i][j] = rows[i][j] + F(rng.randint(1, 5), rng.randint(1, 5)) * SQRT2
    return Matrix(rows)


def test_chains_on_matrices_with_an_irrational_entry_match_the_scalar_kernels():
    rng = random.Random(8170)
    ops = ("product", "product", "sum", "difference", "transpose", "negate",
           "scaled", "scaled-ext", "inverse")
    seen = set()
    for _ in range(40):
        got = _random_field_matrix(rng)
        want = Matrix._trusted(got.rows)    # the reference reads rows only
        for _ in range(6):
            op = rng.choice(ops)
            # the other operand is rational or irrational, on either side
            other = (_random_field_matrix(rng) if rng.random() < 0.5
                     else _random_matrix(rng, 3, 2))
            if op == "product":
                if rng.random() < 0.5:
                    got, want = got * other, ref.product(want, other)
                else:
                    got, want = other * got, ref.product(other, want)
            elif op == "sum":
                if rng.random() < 0.5:
                    got, want = got + other, ref.add(want, other)
                else:
                    got, want = other + got, ref.add(other, want)
            elif op == "difference":
                if rng.random() < 0.5:
                    got, want = got - other, ref.sub(want, other)
                else:
                    got, want = other - got, ref.sub(other, want)
            elif op == "transpose":
                got, want = got.transpose(), ref.transpose(want)
            elif op == "negate":
                got, want = -got, ref.scaled(want, F(-1))
            elif op in ("scaled", "scaled-ext"):
                c = _random_rational(rng, 2)
                if op == "scaled-ext":
                    c = c + _random_rational(rng, 1) * SQRT3 + SQRT6
                got, want = got.scaled(c), ref.scaled(want, c)
                # the other operand, rational or not, scaled by c
                _same_entries(other.scaled(c), ref.scaled(other, c))
                if op == "scaled-ext":
                    assert (other.scaled(c).integer_form() is None) is not (
                        other.is_zero())
            else:
                if rational_valued(got):       # a zero scale, say
                    try:
                        want = ref.inverse(want)
                    except ZeroDivisionError:
                        with pytest.raises(ZeroDivisionError, match="singular"):
                            got.inverse()
                        break
                    assert got.inverse() == want
                    break
                # an irrational matrix has no inverse in the package
                with pytest.raises(TypeError, match="expected a rational value"):
                    got.inverse()
            seen.add(op)
            # the matrix is on the ints exactly when its entries are rational
            assert (got.integer_form() is None) is not rational_valued(want)
            _same_entries(got, want)
            v = tuple(_random_field_entry(rng) for _ in range(3))
            _same((got.det(),), (ref.det(want),))
            _same(got.apply(v), ref.apply(want, v))
            for m, r in ((got, want), (other, other)):
                _same((m.trace(),), (sum((r.rows[i][i] for i in range(3)), F(0)),))
    assert seen == set(ops)


def _random_field_system(rng, m, n):
    """Seeded m x n system with ExtScalar entries: of random rank, with a
    zero row now and then, consistent or with a random right-hand side."""
    rank = rng.randint(0, min(m, n))
    left = [[_random_field_entry(rng) for _ in range(rank)] for _ in range(m)]
    right = [[_random_field_entry(rng) for _ in range(n)] for _ in range(rank)]
    rows = [[sum((left[i][t] * right[t][j] for t in range(rank)), F(0))
             for j in range(n)] for i in range(m)]
    if rng.random() < 0.3:
        rows[rng.randrange(m)] = [F(0)] * n
    # keep one irrational entry, so the field route is the one taken
    rows[rng.randrange(m)][rng.randrange(n)] += SQRT3
    if rng.random() < 0.5:
        x = [_random_field_entry(rng) for _ in range(n)]
        rhs = [sum((a * b for a, b in zip(row, x)), F(0)) for row in rows]
    else:
        rhs = [_random_field_entry(rng) for _ in range(m)]
    return rows, rhs


def _as_json(space):
    if space.is_empty:
        return None
    return [[scalar_to_json(v) for v in x]
            for x in (space.particular,) + space.basis]


def test_field_systems_match_the_scalar_div_loop():
    rng = random.Random(8130)
    seen = set()
    for _ in range(250):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        rows, rhs = _random_field_system(rng, m, n)
        got, want = solve_linear(rows, rhs, n), ref.solve_linear(rows, rhs, n)
        assert got.particular == want.particular
        assert got.basis == want.basis
        assert _as_json(got) == _as_json(want)
        seen.add((m == n, got.is_empty, bool(not got.is_empty and got.basis)))
    # square and rectangular; inconsistent, unique and underdetermined
    assert {(True, True, False), (False, True, False), (True, False, False),
            (False, False, True), (True, False, True)} <= seen


def test_field_systems_of_catalog_size_match_the_scalar_div_loop():
    rng = random.Random(8140)
    for _ in range(6):
        rows, rhs = _random_field_system(rng, 16, 10)
        got, want = solve_linear(rows, rhs, 10), ref.solve_linear(rows, rhs, 10)
        assert _as_json(got) == _as_json(want)


def _pivot_columns(rows, n):
    """Columns that raise the rank of the columns before them, from the
    kernel dimension of each leading block under the reference solver."""
    m = len(rows)
    ranks = [0] + [c - ref.solve_linear([row[:c] for row in rows], [0] * m,
                                        c).dim for c in range(1, n + 1)]
    return {c for c in range(n) if ranks[c + 1] > ranks[c]}


def _assert_field_entry_types(space, pivot_cols):
    """ExtScalar pivot coordinates; free ones exactly Fraction(0) or
    Fraction(1) (1 only at the free column of a basis vector)."""
    free_cols = [c for c in range(space.ambient_dim) if c not in pivot_cols]
    assert len(space.basis) == len(free_cols)
    for x, one_at in [(space.particular, None)] + list(zip(space.basis,
                                                           free_cols)):
        for c, v in enumerate(x):
            if c in pivot_cols:
                assert type(v) is ExtScalar, (c, v)
            else:
                assert type(v) is F, (c, v)
                assert v == (1 if c == one_at else 0)


@pytest.mark.parametrize("rows, rhs", [
    # a rational-valued ExtScalar pivot, with a free column after it
    ([[SQRT2 * SQRT2, 1], [F(0), F(0)]], [SQRT2 * SQRT2, 0]),
    # a zero ExtScalar entry beside an irrational pivot
    ([[ExtScalar.parts(0), SQRT3, 1], [1, ExtScalar.parts(0), SQRT2 * SQRT2]],
     [SQRT6, 0]),
    # no pivot at all: every coordinate is free
    ([[ExtScalar.parts(0), 0], [0, 0]], [0, ExtScalar.parts(0)]),
    # rank-deficient and consistent, zero ExtScalar right-hand side
    ([[SQRT2, 2, SQRT2 * SQRT3], [2, 2 * SQRT2, 2 * SQRT3]],
     [ExtScalar.parts(0), 0]),
], ids=["rational-ext-pivot", "zero-ext-entry", "no-pivot", "rank-one"])
def test_field_solutions_keep_their_entry_types_on_hand_built_systems(rows,
                                                                      rhs):
    n = len(rows[0])
    got, want = solve_linear(rows, rhs, n), ref.solve_linear(rows, rhs, n)
    assert not got.is_empty
    assert got.particular == want.particular and got.basis == want.basis
    _assert_field_entry_types(got, _pivot_columns(rows, n))


def test_field_solutions_keep_their_entry_types():
    rng = random.Random(8160)
    seen = set()
    for _ in range(200):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        rows, rhs = _random_field_system(rng, m, n)
        got, want = solve_linear(rows, rhs, n), ref.solve_linear(rows, rhs, n)
        assert got.is_empty == want.is_empty
        if got.is_empty:
            seen.add("inconsistent")
            continue
        assert got.particular == want.particular and got.basis == want.basis
        pivot_cols = _pivot_columns(rows, n)
        _assert_field_entry_types(got, pivot_cols)
        seen.add("rank-deficient" if len(pivot_cols) < min(m, n) else
                 "full-rank")
        if got.basis:
            seen.add("free-columns")
    assert seen == {"inconsistent", "rank-deficient", "full-rank",
                    "free-columns"}


def _random_rational_system(rng, m, n, kind):
    """Seeded m x n rational system of one kind: ``rank-deficient`` (a
    product of random factors of rank below min(m, n), consistent),
    ``inconsistent`` (rank-deficient, with a right-hand side off the
    column space) or ``wide`` (full random entries whose numerators and
    denominators reach 10^12)."""
    def entry():
        if kind == "wide":
            top = 10 ** 12
            return F(rng.randint(-top, top), rng.randint(top // 2, top))
        return F(rng.randint(-6, 6), rng.randint(1, 4))

    if kind == "wide":
        rows = [[entry() for _ in range(n)] for _ in range(m)]
    else:
        rank = rng.randint(0, min(m, n) - 1)
        left = [[entry() for _ in range(rank)] for _ in range(m)]
        right = [[entry() for _ in range(n)] for _ in range(rank)]
        rows = [[sum((left[i][t] * right[t][j] for t in range(rank)), F(0))
                 for j in range(n)] for i in range(m)]
    x = [entry() for _ in range(n)]
    rhs = [sum((a * b for a, b in zip(row, x)), F(0)) for row in rows]
    if kind == "inconsistent":
        # add a vector off the column space: one that pairs to 1 with a
        # vector of its left kernel
        left_kernel = solve_linear([list(c) for c in zip(*rows)], [0] * n, m)
        y = left_kernel.basis[0]
        rhs = [r + v / sum(v * v for v in y) for r, v in zip(rhs, y)]
    elif rng.random() < 0.5:
        rhs = [entry() for _ in range(m)]
    return rows, rhs


@pytest.mark.parametrize("kind", ["rank-deficient", "inconsistent", "wide"])
def test_rational_systems_match_the_fraction_back_substitution(kind):
    # back substitution runs on int numerators over the last Bareiss
    # pivot; the reference back-substitutes on Fractions
    rng = random.Random(8150)
    seen = set()
    for _ in range(150):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        rows, rhs = _random_rational_system(rng, m, n, kind)
        got, want = solve_linear(rows, rhs, n), ref.solve_linear(rows, rhs, n)
        assert got.is_empty == want.is_empty
        if not got.is_empty:
            _same(got.particular, want.particular)
            assert len(got.basis) == len(want.basis)
            for b, c in zip(got.basis, want.basis):
                _same(b, c)
        seen.add((got.is_empty, bool(not got.is_empty and got.basis)))
    if kind == "inconsistent":
        assert seen == {(True, False)}
    elif kind == "rank-deficient":
        assert (False, True) in seen
    else:
        assert (False, False) in seen and (False, True) in seen


def test_field_system_with_only_zero_rows():
    rows = [[F(0), ExtScalar.parts(0, 0, 0, 0)], [F(0), F(0)]]
    got, want = solve_linear(rows, [0, SQRT2], 2), ref.solve_linear(rows, [0, SQRT2], 2)
    assert got.is_empty and want.is_empty
    got = solve_linear(rows, [0, ExtScalar.parts(0)], 2)
    assert _as_json(got) == _as_json(ref.solve_linear(rows, [0, 0], 2))
    assert got.dim == 2


def test_ring_division_remainder_raises_under_python_O():
    # 1 / 2 has no integer coordinates, in the ring and on the int path:
    # the remainder check must raise, and it must not be an assert that -O
    # strips
    code = (
        "from poisson_forge.exactnum import (_int_update, _norm_cofactor,\n"
        "                                    _ring_update)\n"
        "try:\n"
        "    _ring_update((1, 0, 0, 0), (0, 0, 0, 0), [(1, 0, 0, 0)],\n"
        "                 [(0, 0, 0, 0)], _norm_cofactor((2, 0, 0, 0)))\n"
        "except ArithmeticError as exc:\n"
        "    print('raised', exc)\n"
        "try:\n"
        "    _int_update(1, 0, [4, 1], [0, 0], 2)\n"
        "except ArithmeticError as exc:\n"
        "    print('raised', exc)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised inexact Bareiss division")
    assert proc.stdout.splitlines()[1:] == ["raised inexact Bareiss division "
                                            "1 / 2"]


def test_ring_division_is_exact_division_by_the_previous_pivot():
    # (1 + sqrt2) * (3 - sqrt3) over (1 + sqrt2) is 3 - sqrt3
    p = (1, 1, 0, 0)
    prod = (3, 3, -1, -1)
    [cell] = _ring_update((1, 0, 0, 0), (0, 0, 0, 0), [prod], [(0, 0, 0, 0)],
                          _norm_cofactor(p))
    assert cell == (3, 0, -1, 0)
    with pytest.raises(ArithmeticError, match="inexact"):
        _ring_update((1, 0, 0, 0), (0, 0, 0, 0), [(1, 0, 0, 0)],
                     [(0, 0, 0, 0)], _norm_cofactor((0, 2, 0, 0)))


def _random_symmetric(rng, n, field, zero_diagonal):
    """n x n symmetric, with entries in Q(sqrt2, sqrt3) when ``field``."""
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i == j and zero_diagonal:
                continue
            rows[i][j] = rows[j][i] = (_random_field_entry(rng) if field
                                       else _random_rational(rng, 2))
    return Matrix(rows)


@pytest.mark.parametrize("field", [False, True], ids=["rational", "field"])
def test_congruence_on_the_form_matches_the_column_loop(field):
    """Same R and d as Lagrange's column loop, with and without a seeded
    rng, which must also be left in the same state (one ``randrange``
    per pivot choice); same entry types on rational input."""
    rng = random.Random(8300 + field)
    zero_diagonals = irrational = refused = 0
    for t in range(400):
        n = 1 + t % 4
        zero_diagonal = rng.random() < 0.3
        a = _random_symmetric(rng, n, field, zero_diagonal)
        zero_diagonals += zero_diagonal and n > 1 and not a.is_zero()
        irrational += a.integer_form() is None
        if not rational_valued(a):
            # the congruence reads A as rational: an irrational entry refuses
            with pytest.raises(TypeError, match="expected a rational value"):
                congruent_diagonalize(a)
            refused += 1
            continue
        for seed in (None, t):
            pick_got = None if seed is None else random.Random(seed)
            pick_want = None if seed is None else random.Random(seed)
            r, d = congruent_diagonalize(a, rng=pick_got)
            r_want, d_want = ref.congruent_diagonalize(a, rng=pick_want)
            assert (r, d) == (r_want, d_want)
            if seed is not None:
                assert pick_got.getstate() == pick_want.getstate()
            if a.integer_form() is not None:
                _same(d, d_want)
                _same_entries(r, r_want)
            assert r.transpose() * a * r == Matrix.diagonal(d)
            assert ref.det(r) in (1, -1)
    assert zero_diagonals > 50
    assert (irrational > 100) is field
    assert (refused > 100) is field


def _random_quadratic(rng, n, field):
    terms = {}
    for i in range(n):
        for j in range(i, n):
            if rng.random() < 0.7:
                exps = [0] * n
                exps[i] += 1
                exps[j] += 1
                terms[tuple(exps)] = (_random_field_entry(rng) if field
                                      else _random_rational(rng, 2))
    return Polynomial(n, terms)


@pytest.mark.parametrize("field", [False, True], ids=["rational", "field"])
def test_quadratic_form_poly_inverts_the_reference_gram_matrix(field):
    """quadratic_form_poly undoes the Gram matrix of the Fraction rows, on
    quadratics of both kinds."""
    rng = random.Random(8310 + field)
    kinds = set()
    for t in range(400):
        p = _random_quadratic(rng, 1 + t % 4, field)
        assert quadratic_form_poly(ref.gram_of_quadratic(p)) == p
        kinds.add(p._rational)
    assert kinds == ({True, False} if field else {True})


def _random_diagonal_entry(rng):
    """An int, a Fraction, an irrational ExtScalar or a rational one."""
    kind = rng.randrange(4)
    if kind == 0:
        return rng.randint(-5, 5)
    value = _random_rational(rng, 2)
    if kind == 1:
        return value
    if kind == 2:
        return value + F(rng.randint(1, 5), rng.randint(1, 5)) * rng.choice(
            [SQRT2, SQRT3, SQRT6])
    return ExtScalar.of(value)


def test_structured_constructors_match_the_rows_they_stand_for(rng):
    """identity, zero and diagonal are built on the form: Matrix(rows) of
    the same entries gives the same values, form and entry types."""
    def same(got, want):
        assert got == want and got.rows == want.rows
        assert got.integer_form() == want.integer_form()
        assert ([[type(v) for v in row] for row in got.rows]
                == [[type(v) for v in row] for row in want.rows])

    kinds = set()
    for n in range(1, 5):
        same(Matrix.identity(n),
             Matrix([[int(i == j) for j in range(n)] for i in range(n)]))
        same(Matrix.zero(n), Matrix([[0] * n for _ in range(n)]))
        for _ in range(100):
            values = [_random_diagonal_entry(rng) for _ in range(n)]
            kinds.update(type(v) for v in values)
            same(Matrix.diagonal(values),
                 Matrix([[values[i] if i == j else 0 for j in range(n)]
                         for i in range(n)]))
        values[rng.randrange(n)] = 0.5
        with pytest.raises(TypeError):
            Matrix.diagonal(values)
    assert kinds == {int, F, ExtScalar}
