"""Twists whose values are rational, given as ExtScalars or carried along
a catalog rotation, and the symmetry rows of ``der0_space`` on ints.

A twist T K T' carried along a catalog rotation T usually has rational
values, though T has sqrt2 and sqrt3 entries; by the kind rule of
``Matrix._of_form`` such a K is of the rational kind, held on ints, as
is a K given rational-valued ExtScalars.  ``quaddef.solve_F`` and
``cubic_kernel`` solve it on ints, and the field elimination stays for a
K with an irrational entry.  ``linalg_reference.stacked_solve_F`` solves
K's own rows, and the spaces must agree in value and in entry type, as
``cubic_kernel`` must agree with ``linalg_reference.kernel``.
Along every route that builds a matrix or polynomial, its kind and
entry types follow its values alone: a Fraction for a rational value, an
ExtScalar for an irrational one.  ``_derivation_rows`` fills int rows
from the slot table, against
``linalg_reference.derivation_rows``; ``linclass.der0_space`` builds its
rows on the forms, against the unit matrices of
``linalg_reference.der0_rows``.
"""

from collections import Counter
from fractions import Fraction as F

import linalg_reference as ref
import poly_reference
from conftest import (
    SWEEP_FAMILIES,
    kind_values,
    random_rational_invertible,
    rational_kind,
    rational_valued,
)
from poisson_forge import exactnum, quaddef
from poisson_forge.exactnum import (
    SQRT2,
    SQRT3,
    SQRT6,
    ExtScalar,
    Matrix,
    Polynomial,
    as_rational,
    scalar_div,
)
from poisson_forge.linclass import der0_space, standard_pair
from poisson_forge.quaddef import (
    CUBIC_MONOMIALS,
    _derivation_rows,
    cubic_from_coords,
    cubic_kernel,
    enumerate_orbit_pairs,
    solve_F,
)


def _typed(vectors):
    return [[(type(v), v) for v in x] for x in vectors]


def _typed_space(space):
    if space.is_empty:
        return None
    return _typed((space.particular,) + space.basis)


def _wrapped(rng, twist):
    """The twist with a random nonempty set of its nonzero entries wrapped
    in ``ExtScalar.of``: rational in value."""
    rows = [list(row) for row in twist.rows]
    cells = [(i, j) for i in range(3) for j in range(3) if rows[i][j]]
    for i, j in rng.sample(cells, rng.randint(1, len(cells))):
        rows[i][j] = ExtScalar.of(rows[i][j])
    return Matrix(rows)


def _conjugates(rng, shape, count):
    out = []
    for _ in range(count):
        t = random_rational_invertible(rng)
        out.append(t * shape * t.inverse())
    return out


def _twin_twists(rng):
    """(twist, the twist given rational-valued ExtScalars) for regular and
    singular rational twists: random traceless draws, and conjugates of a
    repeated eigenvalue, the two nilpotent shapes and the eigenvalues 0
    and +-mu."""
    twists = []
    for _ in range(10):
        rows = [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)]
                for _ in range(3)]
        rows[2][2] = -rows[0][0] - rows[1][1]
        twists.append(Matrix(rows))
    lam, mu = F(rng.randint(1, 4), rng.randint(1, 3)), F(rng.randint(1, 5))
    for shape in (Matrix.diagonal([lam, lam, -2 * lam]),
                  Matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]]),
                  Matrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]]),
                  Matrix.diagonal([mu, -mu, 0])):
        twists += [shape] + _conjugates(rng, shape, 3)
    return [(twist, _wrapped(rng, twist)) for twist in twists
            if not twist.is_zero()]


def _transported_twists():
    return [orbit.twist for family in SWEEP_FAMILIES
            for orbit in enumerate_orbit_pairs(family)]


def _check_against_the_elimination(twist):
    """K's kernel and its solves over the ten cases equal the eliminations
    of K's own rows, in values and entry types: (the kernel's dimension,
    the number of nonempty solves)."""
    quaddef._kernel_of.cache_clear()
    space = cubic_kernel(twist)
    assert _typed_space(space) == _typed_space(ref.kernel(twist))
    solved = 0
    for case in range(1, 11):
        lp = standard_pair(case)
        answer = solve_F(lp, twist)
        assert _typed_space(answer) == _typed_space(
            ref.stacked_solve_F(lp, twist)), case
        solved += not answer.is_empty
    return space.dim, solved


def test_rational_twists_on_the_field_solve_as_the_field_elimination(rng):
    """Rational-valued ExtScalar entries: the twist is on the ints, with
    the form of its Fraction twin, and solves as the elimination of its
    rows does."""
    dims, solved = set(), 0
    for twin, twist in _twin_twists(rng):
        assert twist._rational and twist._form == twin._form
        dim, count = _check_against_the_elimination(twist)
        dims.add(dim)
        solved += count
    assert {1, 2, 3} <= dims
    assert solved >= 10


def test_transported_twists_take_the_twin_or_the_field_path():
    """The catalog twists: all but two have rational values and are on
    the ints; the two with an irrational entry stay on the field.  Each
    solves as the elimination of its rows does."""
    kinds = {"field": 0, "rational": 0}
    for twist in _transported_twists():
        kinds["rational" if twist._rational else "field"] += 1
        assert twist._rational is rational_valued(twist)
        _check_against_the_elimination(twist)
    assert kinds == {"field": 2, "rational": 21}
    cubics = [cubic._rational for family in SWEEP_FAMILIES
              for orbit in enumerate_orbit_pairs(family)
              for cubic in orbit.cubics]
    assert (len(cubics), sum(cubics)) == (38, 32)


def test_irrational_twists_stay_on_the_field():
    for twist in (Matrix.diagonal([SQRT2, SQRT3, -SQRT2 - SQRT3]),
                  Matrix([[0, SQRT2, 0], [0, 0, 1], [0, 0, 0]]),
                  Matrix([[SQRT2, 1, 0], [0, -SQRT2, 0], [0, 0, 0]]),
                  Matrix([[ExtScalar.of(1), SQRT3, 0], [0, 2, 0],
                          [0, 0, -3]])):
        assert not twist._rational
        _check_against_the_elimination(twist)
        assert quaddef._kernel(twist)[0] is True


def test_zero_extscalars_alone_keep_the_int_path():
    # a K whose ExtScalars are all zero is of the rational kind: its
    # kernel is on Fractions
    twist = Matrix([[1, 0, 0], [0, -1, 0], [0, 0, ExtScalar.of(0)]])
    assert twist._rational
    quaddef._kernel_of.cache_clear()
    assert _typed_space(cubic_kernel(twist)) == _typed_space(ref.kernel(twist))
    assert quaddef._kernel(twist)[0] is False


def _entry(rng):
    """An int, a Fraction or the ExtScalar of a rational, zero too."""
    q = F(rng.randint(-4, 4), rng.randint(1, 3))
    return rng.choice([q.numerator, q, ExtScalar.of(q), ExtScalar.of(0)])


def _entries(rng, count, irrational):
    """``count`` entries, one of them irrational when ``irrational``."""
    out = [_entry(rng) for _ in range(count)]
    if irrational:
        out[rng.randrange(count)] += rng.choice([SQRT2, SQRT3, SQRT6])
    return out


def _product(a, b):
    """A B on square rows of scalars, by scalar arithmetic alone, flat."""
    n = len(a)
    return [sum((a[i][t] * b[t][j] for t in range(n)), F(0))
            for i in range(n) for j in range(n)]


def _rows(flat, n=3):
    return [flat[k:k + n] for k in range(0, n * n, n)]


def _check_matrix(got, values):
    """``got`` holds the flat ``values``, computed without forms, as the
    kind rule says: on ints exactly when every value is rational, each
    entry a Fraction when rational and an ExtScalar otherwise, and the
    form, ``==`` and hash of the matrix given those entries (the Fraction
    twin for the rational kind)."""
    rational = rational_kind(values)
    assert got._rational is rational
    held = _rows(kind_values(values), got.n)
    assert _typed(got.rows) == _typed(held)
    twin = Matrix(held)
    assert got._form == twin._form
    assert got.integer_form() == (twin._form if rational else None)
    assert got == twin and hash(got) == hash(twin)


def _check_polynomial(got, values):
    """``_check_matrix`` for a polynomial of the terms ``values``."""
    values = {e: v for e, v in values.items() if v}
    rational = rational_kind(values.values())
    assert got._rational is rational
    held = dict(zip(values, kind_values(values.values())))
    assert ({e: (type(v), v) for e, v in got.terms.items()}
            == {e: (type(v), v) for e, v in held.items()})
    twin = Polynomial(got.nvars, held)
    assert got._form == twin._form
    assert got.integer_form() == (twin._form if rational else None)
    assert got == twin and hash(got) == hash(twin)


def test_a_form_is_on_ints_exactly_when_its_values_are_rational(rng):
    kinds = Counter()

    def matrix(got, values):
        _check_matrix(got, values)
        kinds["matrix", got._rational] += 1

    def polynomial(got, values):
        _check_polynomial(got, values)
        kinds["polynomial", got._rational] += 1

    for _ in range(30):
        irrational = rng.random() < 0.4
        # the constructors, _of_form and diagonal
        vals, den = _entries(rng, 9, irrational), rng.randint(1, 6)
        matrix(Matrix(_rows(vals)), vals)
        matrix(Matrix._of_form(3, den, list(vals), False),
               [scalar_div(v, den) for v in vals])
        diag = _entries(rng, 3, irrational)
        matrix(Matrix.diagonal(diag), [diag[0], 0, 0, 0, diag[1], 0, 0, 0,
                                       diag[2]])
        terms = dict(zip(CUBIC_MONOMIALS, _entries(rng, 10, irrational)))
        polynomial(Polynomial(3, terms), terms)
        polynomial(Polynomial._of_form(3, den, dict(terms), False),
                   {e: scalar_div(v, den) for e, v in terms.items()})
        c = _entries(rng, 1, irrational)[0]
        polynomial(Polynomial.constant(3, c), {(0, 0, 0): c})
        # cubic_from_coords on rationals wrapped in ExtScalar.of
        coords = [ExtScalar.of(as_rational(v)) if rational_kind((v,)) else v
                  for v in _entries(rng, 10, irrational)]
        polynomial(cubic_from_coords(coords), dict(zip(CUBIC_MONOMIALS, coords)))
        # scaled, and sums whose sqrt parts cancel
        m = Matrix(_rows(_entries(rng, 9, False)))
        unit = rng.choice([SQRT2, SQRT3, SQRT6])
        flat = [v for row in m.rows for v in row]
        matrix(m.scaled(unit), [v * unit for v in flat])
        matrix(m.scaled(unit).scaled(unit), [v * unit * unit for v in flat])
        other = Matrix(_rows(_entries(rng, 9, True)))
        theirs = [v for row in other.rows for v in row]
        matrix(m + other, [a + b for a, b in zip(flat, theirs)])
        matrix((m + other) - other,
               [(a + b) - b for a, b in zip(flat, theirs)])
        p = Polynomial(3, dict(zip(CUBIC_MONOMIALS, _entries(rng, 10, False))))
        q = Polynomial(3, dict(zip(CUBIC_MONOMIALS, _entries(rng, 10, True))))
        polynomial(p * unit, {e: v * unit for e, v in p.terms.items()})
        polynomial(p * unit * unit, {e: v * unit * unit
                                     for e, v in p.terms.items()})
        polynomial((p + q) - q, dict(p.terms))
    # T K T' and the pullbacks by T' and then by T, for every catalog rotation
    cubic = Polynomial(3, dict(zip(CUBIC_MONOMIALS, _entries(rng, 10, False))))
    for points in quaddef._REP_POINTS.values():
        for point in points.values():
            t = quaddef._rep_rotation(point)[2]
            tt = t.transpose()
            for family in SWEEP_FAMILIES:
                k = family.matrix()
                for twist in (k, k + Matrix.diagonal([SQRT2, -SQRT2, 0])):
                    matrix(t * twist * tt,
                           _product(_rows(_product(t.rows, twist.rows)),
                                    tt.rows))
            there = cubic.compose_linear(tt)
            polynomial(there, poly_reference.Polynomial(
                3, cubic.terms).compose_linear(tt).terms)
            back = there.compose_linear(t)
            polynomial(back, poly_reference.Polynomial(
                3, there.terms).compose_linear(t).terms)
            assert back == cubic
    assert min(kinds.values()) >= 40 and len(kinds) == 4, kinds


def test_int_derivation_rows_fill_the_slot_table(rng):
    for _ in range(200):
        k = [rng.randint(-6, 6) if rng.random() < 0.7 else 0
             for _ in range(9)]
        got = _derivation_rows(k)
        want = ref.derivation_rows(Matrix._of_form(3, 1, k, False))
        assert [[type(v) for v in row] for row in got] == [[int] * 10] * 10
        assert got == want


def test_der0_space_solves_the_unit_matrix_rows():
    for case in range(1, 11):
        got = der0_space.__wrapped__(case)
        rows = ref.der0_rows(case)
        for want in (exactnum.solve_linear(rows, [0] * len(rows)),
                     ref.solve_linear(rows, [0] * len(rows))):
            assert _typed_space(got) == _typed_space(want), case
