"""Exact scalar, polynomial and linear algebra tests."""

import copy
import math
import pickle
import random
from fractions import Fraction

import pytest

import linalg_reference as ref
from conftest import along, evaluate
from poisson_forge.exactnum import (
    SQRT2,
    SQRT3,
    SQRT6,
    ExactSqrtError,
    ExtScalar,
    Matrix,
    ParseError,
    Polynomial,
    _exact_int_div,
    congruent_diagonalize,
    int_from_json,
    quadratic_form_poly,
    scalar_div,
    scalar_from_json,
    scalar_to_json,
    solve_linear,
    sqrt_exact,
)


F = Fraction


def P(nvars, terms):
    return Polynomial(nvars, terms)


# ---------------------------------------------------------------------------
# extension field
# ---------------------------------------------------------------------------


def test_ext_scalar_basis_products():
    assert SQRT2 * SQRT2 == 2
    assert SQRT3 * SQRT3 == 3
    assert SQRT6 * SQRT6 == 6
    assert SQRT2 * SQRT3 == SQRT6
    assert SQRT2 * SQRT6 == 2 * SQRT3
    assert SQRT3 * SQRT6 == 3 * SQRT2


def test_ext_scalar_inverse_of_half_sqrt2():
    # (sqrt2 / 2)^-1 = sqrt2
    half = ExtScalar.parts(0, F(1, 2), 0, 0)
    assert half.inverse() == SQRT2
    assert half * SQRT2 == 1


def test_ext_scalar_inverse_of_one_plus_sqrt2():
    # (1 + sqrt2)^-1 = -1 + sqrt2
    a = ExtScalar.parts(1, 1, 0, 0)
    assert a.inverse() == ExtScalar.parts(-1, 1, 0, 0)


def test_ext_scalar_random_inverse_roundtrip():
    rng = random.Random(20260816)
    for _ in range(50):
        coords = tuple(F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(4))
        a = ExtScalar(coords)
        if not a:
            continue
        assert a * a.inverse() == 1


def test_ext_scalar_mixed_arithmetic_with_fractions():
    a = F(2, 3) + SQRT2
    assert isinstance(a, ExtScalar)
    assert a - SQRT2 == F(2, 3)
    assert (F(1, 2) * SQRT6) / SQRT2 == F(1, 2) * SQRT3


# Fraction-coordinate reference arithmetic: the formulas ExtScalar used
# before it stored integer numerators over one denominator.


def _ref_mul(a, b):
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (
        a0 * b0 + 2 * a1 * b1 + 3 * a2 * b2 + 6 * a3 * b3,
        a0 * b1 + a1 * b0 + 3 * (a2 * b3 + a3 * b2),
        a0 * b2 + a2 * b0 + 2 * (a1 * b3 + a3 * b1),
        a0 * b3 + a3 * b0 + a1 * b2 + a2 * b1,
    )


def _ref_conjugate(a, flip2, flip3):
    c0, c1, c2, c3 = a
    if flip2:
        c1, c3 = -c1, -c3
    if flip3:
        c2, c3 = -c2, -c3
    return (c0, c1, c2, c3)


def _ref_inverse(a):
    cofactor = _ref_mul(
        _ref_mul(_ref_conjugate(a, True, False), _ref_conjugate(a, False, True)),
        _ref_conjugate(a, True, True),
    )
    norm = _ref_mul(a, cofactor)
    assert norm[1:] == (0, 0, 0) and norm[0] != 0
    return tuple(c / norm[0] for c in cofactor)


def _random_coords(rng):
    # zero slots often, so rational and partly-rational elements occur
    return tuple(
        F(0) if rng.random() < 0.3 else F(rng.randint(-30, 30), rng.randint(1, 24))
        for _ in range(4)
    )


def _assert_canonical(x, coords):
    assert x.coords == coords
    assert all(type(c) is F for c in x.coords)
    assert x._den > 0
    assert math.gcd(x._den, *x._num) == 1
    assert x.coords == tuple(F(n, x._den) for n in x._num)


def test_ext_scalar_matches_fraction_reference():
    rng = random.Random(20261017)
    for _ in range(300):
        a, b = _random_coords(rng), _random_coords(rng)
        x, y = ExtScalar(a), ExtScalar(b)
        _assert_canonical(x * y, _ref_mul(a, b))
        _assert_canonical(x + y, tuple(p + q for p, q in zip(a, b)))
        _assert_canonical(x - y, tuple(p - q for p, q in zip(a, b)))
        _assert_canonical(-x, tuple(-p for p in a))
        if any(b):
            _assert_canonical(y.inverse(), _ref_inverse(b))
            _assert_canonical(x / y, _ref_mul(a, _ref_inverse(b)))
        assert (x == y) == (a == b)
        # mixed operands on both sides
        q = rng.choice([rng.randint(-9, 9), F(rng.randint(-9, 9), rng.randint(1, 9))])
        r = (F(q), F(0), F(0), F(0))
        _assert_canonical(x * q, _ref_mul(a, r))
        _assert_canonical(q * x, _ref_mul(r, a))
        _assert_canonical(x + q, tuple(p + s for p, s in zip(a, r)))
        _assert_canonical(q + x, tuple(s + p for p, s in zip(a, r)))
        _assert_canonical(x - q, tuple(p - s for p, s in zip(a, r)))
        _assert_canonical(q - x, tuple(s - p for p, s in zip(a, r)))
        if q:
            _assert_canonical(x / q, _ref_mul(a, _ref_inverse(r)))
        if any(a):
            _assert_canonical(q / x, _ref_mul(r, _ref_inverse(a)))


def test_ext_scalar_rationals_hash_and_compare_like_fractions():
    rng = random.Random(7)
    for _ in range(200):
        q = rng.choice([rng.randint(-50, 50), F(rng.randint(-50, 50), rng.randint(1, 40))])
        e = ExtScalar.of(q)
        assert hash(e) == hash(q) == hash(F(q))
        assert e == q and q == e
        assert e.is_rational and e.rational_value() == q
        _assert_canonical(e, (F(q), F(0), F(0), F(0)))
    assert ExtScalar.parts(F(1, 2), 0, 0, 0) != F(1, 3)
    assert SQRT2 != 0 and not (SQRT2 == 2)
    with pytest.raises(ValueError, match="4 coordinates"):
        ExtScalar((1, 2, 3))
    with pytest.raises(ZeroDivisionError):
        ExtScalar.of(0).inverse()


def test_ext_scalar_float_value():
    v = ExtScalar.parts(1, 1, -1, 0)
    assert abs(float(v) - (1 + 2 ** 0.5 - 3 ** 0.5)) < 1e-12


def test_sqrt_exact_representable_values():
    assert sqrt_exact(F(9, 4)) == F(3, 2)
    assert sqrt_exact(F(1, 2)) == F(1, 2) * SQRT2
    assert sqrt_exact(F(3, 4)) == F(1, 2) * SQRT3
    assert sqrt_exact(24) == 2 * SQRT6
    assert sqrt_exact(0) == 0


def test_sqrt_exact_rejects_outside_field():
    with pytest.raises(ExactSqrtError):
        sqrt_exact(5)
    with pytest.raises(ExactSqrtError):
        sqrt_exact(F(-1))
    with pytest.raises(ExactSqrtError):
        sqrt_exact(SQRT2)


@pytest.mark.parametrize("data", ["a", "1/0", ["1", "0", "x", "0"],
                                  ["1", "0", "1/0", "0"], None, 1.5, True,
                                  ["0", False, "0", "0"]])
def test_scalar_json_rejects_malformed_literals(data):
    with pytest.raises(ParseError):
        scalar_from_json(data)


def test_rejected_literals_are_echoed_whole_only_when_short():
    with pytest.raises(ParseError, match=r"^bad rational literal 'a'$"):
        scalar_from_json("a")
    with pytest.raises(ParseError) as info:
        scalar_from_json("a" * 1000)
    assert str(info.value) == ("bad rational literal '%s... (1000 characters)"
                               % ("a" * 39))


def test_exponent_notation_is_capped_at_the_digit_limit():
    assert scalar_from_json("1e3") == 1000
    assert scalar_from_json("-2.5E-2") == F(-1, 40)
    for literal in ("1e5000", "1e-5000", "1e1000000000", " 3E+9_999 "):
        with pytest.raises(ParseError, match="an exponent may be at most"):
            scalar_from_json(literal)


def test_int_from_json_takes_ints_and_digit_strings_only():
    assert int_from_json(3) == 3
    assert int_from_json("12") == 12
    for data in (True, False, 1.5, 2.0, "1.5", "-1", " 1", "", None, [1]):
        with pytest.raises(ParseError, match="^bad integer"):
            int_from_json(data)


@pytest.mark.parametrize("exp", [[1, 0], [1, 0, 0, 0], [1, -1, 0], ["a", 0, 0]])
def test_polynomial_json_rejects_malformed_exponents(exp):
    data = {"vars": ["x", "y", "z"], "terms": [{"exp": exp, "coef": "1"}]}
    with pytest.raises(ParseError):
        Polynomial.from_json(data)


def test_scalar_json_roundtrip():
    for s in (F(-7, 3), F(0), ExtScalar.parts(1, F(1, 2), 0, -2)):
        assert scalar_from_json(scalar_to_json(s)) == s


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


def test_polynomial_drops_zero_terms():
    p = P(2, {(1, 0): 1, (0, 1): 0})
    assert (0, 1) not in p.terms
    q = P(2, {(1, 0): 1}) - P(2, {(1, 0): 1})
    assert q.is_zero()


def test_polynomial_product_and_power():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    assert (x + y) * (x - y) == x * x - y * y
    assert (x + y) ** 2 == x * x + 2 * (x * y) + y * y


def test_polynomial_diff():
    x = Polynomial.variable(3, 0)
    y = Polynomial.variable(3, 1)
    z = Polynomial.variable(3, 2)
    p = x ** 2 * y + 3 * z ** 3
    assert p.diff(0) == 2 * (x * y)
    assert p.diff(1) == x ** 2
    assert p.diff(2) == 9 * z ** 2


# the package has no evaluation and no directional derivative: the tests
# that need them use the helpers ``evaluate`` and ``along``, pinned here


def test_polynomial_directional_diff():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    p = x ** 2 + y ** 2
    assert along(p, (1, -1)) == 2 * x - 2 * y


def test_polynomial_eval_exact():
    p = P(3, {(2, 1, 0): F(1, 3), (0, 0, 1): -2})
    assert evaluate(p, (F(1, 2), 3, F(5, 7))) == F(1, 3) * F(1, 4) * 3 - 2 * F(5, 7)


def test_pullback_shear():
    # p = x^2 - y^2 pulled back along (x, y, z) -> (x - y, y, z)
    x = Polynomial.variable(3, 0)
    y = Polynomial.variable(3, 1)
    p = x ** 2 - y ** 2
    t = Matrix([[1, -1, 0], [0, 1, 0], [0, 0, 1]])
    assert p.compose_linear(t) == x ** 2 - 2 * (x * y)


def test_pullback_matches_pointwise_composition():
    rng = random.Random(4242)
    for _ in range(25):
        p = Polynomial(3, {
            tuple(rng.randint(0, 2) for _ in range(3)): F(rng.randint(-4, 4))
            for _ in range(4)
        })
        t = Matrix([[F(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)])
        v = tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3))
        assert evaluate(p.compose_linear(t), v) == evaluate(p, t.apply(v))


def test_pullback_is_contravariant():
    rng = random.Random(99)
    p = P(3, {(1, 1, 0): 2, (0, 0, 2): -1, (3, 0, 0): F(1, 2)})
    a = Matrix([[1, 2, 0], [0, 1, 1], [1, 0, 1]])
    b = Matrix([[0, 1, 0], [1, 0, 2], [0, 0, 1]])
    assert p.compose_linear(a).compose_linear(b) == p.compose_linear(a * b)
    del rng


def test_term_order_lists_cubics_x_major():
    x = Polynomial.variable(3, 0)
    y = Polynomial.variable(3, 1)
    z = Polynomial.variable(3, 2)
    basis = [
        x ** 3, x ** 2 * y, x ** 2 * z, x * y ** 2, x * y * z, x * z ** 2,
        y ** 3, y ** 2 * z, y * z ** 2, z ** 3,
    ]
    total = Polynomial.zero(3)
    for i, m in enumerate(basis):
        total = total + (i + 1) * m
    got = [exps for exps, _ in total.sorted_terms()]
    want = [next(iter(m.terms)) for m in basis]
    assert got == want


def test_quadratic_gram_roundtrip():
    a = Matrix([[1, F(1, 2), 0], [F(1, 2), -2, 3], [0, 3, F(5, 4)]])
    p = quadratic_form_poly(a)
    assert ref.gram_of_quadratic(p) == a


X1, Y1, ONE = (1, 0, 0), (0, 1, 0), (0, 0, 0)


def _through_cancelled_irrationals(nvars, terms):
    """P(nvars, terms), reached along a chain of mixed polynomials whose
    irrational terms cancel at the end."""
    irrational = Polynomial.monomial(nvars, (0, 0, 3), SQRT2)
    return (P(nvars, terms) * F(1, 3) + irrational) * 3 - irrational * 3


@pytest.mark.parametrize("ints, den, terms, build", [
    ({X1: 6, Y1: -4, ONE: 12}, 2, {X1: 3, Y1: -2, ONE: 6}, P),
    ({X1: 6, Y1: -4}, 12, {X1: F(1, 2), Y1: F(-1, 3)}, P),
    ({X1: 6, Y1: -4}, 12, {X1: F(1, 2), Y1: F(-1, 3)},
     _through_cancelled_irrationals),
], ids=["integral", "rational", "cancelled-chain"])
def test_polynomial_kinds_agree_on_equality_and_hash(ints, den, terms, build):
    on_form = Polynomial._of_form(3, den, ints)
    from_init = build(3, terms)
    # a rational-valued ExtScalar coefficient leaves the polynomial on ints
    with_ext = P(3, {**terms, X1: ExtScalar.of(terms[X1])})
    assert on_form.integer_form() == from_init.integer_form() == (
        with_ext.integer_form()) is not None
    assert on_form == from_init == with_ext
    assert with_ext == on_form and with_ext == from_init
    assert hash(on_form) == hash(from_init) == hash(with_ext)
    for p in (on_form, from_init, with_ext):
        assert all(type(c) is Fraction for c in p.terms.values())
    # an irrational one keeps the field kind, which no rational form equals
    irrational = P(3, {**terms, X1: terms[X1] + SQRT2})
    assert irrational.integer_form() is None
    assert type(irrational.terms[X1]) is ExtScalar
    assert irrational != on_form and irrational - on_form == P(3, {X1: SQRT2})


def test_zero_polynomial_has_the_unit_form():
    x = Polynomial.variable(3, 0)
    for zero in (Polynomial.zero(3), P(3, {X1: 0, Y1: F(0)}), x - x,
                 x * F(0), Polynomial._of_form(3, 6, {X1: 0}),
                 P(3, {X1: SQRT2, Y1: F(1, 2)}) * 0,
                 Polynomial.constant(3, 1).diff(0)):
        assert zero.integer_form() == (1, {})
        assert zero.is_zero() and zero.terms == {} and zero.degree() == 0
        assert zero == Polynomial.zero(3)
        assert hash(zero) == hash(Polynomial.zero(3))


def test_polynomials_of_both_kinds_survive_copy_and_pickle():
    for p in (P(3, {X1: F(1, 2), Y1: 3}), P(3, {X1: F(1, 2), Y1: SQRT2})):
        for twin in (copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
            assert twin == p and twin.integer_form() == p.integer_form()
            assert {e: type(c) for e, c in twin.terms.items()} == {
                e: type(c) for e, c in p.terms.items()}


def test_matrices_of_both_kinds_survive_copy_and_pickle():
    rational = Matrix([[F(1, 2), 3], [0, F(-2, 3)]])
    # rows given, rows not yet built, and a matrix with an ExtScalar entry
    for m in (rational, rational * rational, Matrix([[F(1, 2), SQRT2], [0, 1]])):
        for twin in (copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
            assert twin == m and twin.integer_form() == m.integer_form()
            assert twin * m == m * m and twin.n == m.n
            assert [type(v) for row in twin.rows for v in row] == [
                type(v) for row in m.rows for v in row]


def test_polynomial_json_roundtrip():
    p = P(3, {(1, 2, 0): F(-3, 7), (0, 0, 1): SQRT2 * F(1, 2)})
    assert Polynomial.from_json(p.to_json()) == p


def test_polynomial_str():
    x = Polynomial.variable(3, 0)
    z = Polynomial.variable(3, 2)
    p = x ** 2 - F(1, 6) * z ** 3
    # canonical order is degree-major, so the cubic term prints first
    assert str(p) == "-1/6·z^3 + x^2"


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


def test_matrix_det_and_inverse():
    m = Matrix([[2, 1, 0], [0, 1, -1], [1, 0, 3]])
    assert m.det() == 5
    assert m * m.inverse() == Matrix.identity(3)
    assert m.inverse() * m == Matrix.identity(3)


def test_matrix_inverse_over_extension_field():
    # the inverse reads its matrix as rational: an irrational entry refuses
    with pytest.raises(TypeError, match="^expected a rational value, got sqrt2$"):
        Matrix.diagonal([SQRT2, 1, 1]).inverse()
    with pytest.raises(TypeError, match="^expected a rational value"):
        Matrix([[SQRT2, 1, 0], [0, SQRT3, 0], [0, 0, 1]]).inverse()
    # rational-valued ExtScalar entries read as their Fractions
    m = Matrix([[ExtScalar.of(2), ExtScalar.of(1), 0],
                [0, ExtScalar.of(F(1, 2)), 0],
                [ExtScalar.of(1), 0, ExtScalar.of(3)]])
    assert m.integer_form() == (2, (4, 2, 0, 0, 1, 0, 2, 0, 6))
    assert all(type(v) is F for row in m.rows for v in row)
    inv = m.inverse()
    assert inv.integer_form() is not None
    assert inv == Matrix([[F(1, 2), -1, 0], [0, 2, 0], [F(-1, 6), F(1, 3), F(1, 3)]])
    assert all(type(v) is F for row in inv.rows for v in row)
    assert m * inv == Matrix.identity(3)


def test_matrix_det_4x4():
    m = Matrix([
        [1, 0, 2, 0],
        [0, 1, 0, 3],
        [2, 0, 1, 0],
        [0, 3, 0, 1],
    ])
    # no product takes a det of another size: the closed form is 3x3's
    for other in (m, Matrix.identity(4), Matrix.identity(2), Matrix([[5]])):
        message = "^det is implemented for 3x3, not %dx%d$" % (other.n, other.n)
        with pytest.raises(ValueError, match=message):
            other.det()


def test_matrix_inverse_is_3x3_only():
    for n in (1, 2, 4):
        with pytest.raises(ValueError, match="^inverse is implemented for 3x3"):
            Matrix.identity(n).inverse()
    with pytest.raises(ValueError, match="not 2x2$"):
        Matrix([[SQRT2, 1], [0, SQRT3]]).inverse()


def test_matrix_singular_raises():
    with pytest.raises(ZeroDivisionError):
        Matrix([[1, 2, 0], [2, 4, 0], [0, 0, 1]]).inverse()


def test_matrix_predicates():
    assert Matrix([[1, 2], [2, 5]]).is_symmetric()
    assert not Matrix([[1, 2], [3, 4]]).is_symmetric()
    assert Matrix.diagonal([1, 2, 3]).is_diagonal()


# ---------------------------------------------------------------------------
# linear systems
# ---------------------------------------------------------------------------


def test_solve_unique():
    sol = solve_linear([[2, 1], [1, -1]], [5, 1])
    assert not sol.is_empty
    assert sol.dim == 0
    assert sol.particular == (2, 1)


def test_solve_inconsistent():
    sol = solve_linear([[1, 1], [2, 2]], [1, 3])
    assert sol.is_empty


def test_solve_underdetermined_canonical_form():
    # x + y + z = 3 twice: particular has zeros in the free slots
    sol = solve_linear([[1, 1, 1], [2, 2, 2]], [3, 6])
    assert sol.dim == 2
    assert sol.particular == (3, 0, 0)
    assert sol.contains((1, 1, 1))
    assert not sol.contains((1, 1, 2))


def test_solve_homogeneous_kernel():
    sol = solve_linear([[1, 2, 3]], [0])
    assert sol.dim == 2
    assert sol.particular == (0, 0, 0)
    for b in sol.basis:
        assert b[0] + 2 * b[1] + 3 * b[2] == 0


def test_solve_over_extension_field():
    sol = solve_linear([[SQRT2, 1], [0, 1]], [2, SQRT2])
    assert sol.dim == 0
    x, y = sol.particular
    assert x == ExtScalar.parts(-1, 1, 0, 0)  # (2 - sqrt2)/sqrt2 = sqrt2 - 1
    assert y == SQRT2


def test_solve_random_systems_verify_residual():
    rng = random.Random(7)
    for _ in range(40):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        rows = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
        rhs = [F(rng.randint(-3, 3)) for _ in range(m)]
        sol = solve_linear(rows, rhs, ncols=n)
        if sol.is_empty:
            continue
        for x in (sol.particular,) + tuple(
            tuple(p + b_i for p, b_i in zip(sol.particular, b)) for b in sol.basis
        ):
            for row, want in zip(rows, rhs):
                assert sum((r * v for r, v in zip(row, x)), F(0)) == want


def _reference_solve(rows, rhs, ncols):
    """Gauss-Jordan reference solver with plain field division.

    Reduces to reduced row echelon form and reads off solve_linear's
    canonical form: zeros in the free slots of the particular solution,
    one unit free coordinate per basis vector.  Returns (None, ()) for an
    inconsistent system.
    """
    aug = [[F(v) if isinstance(v, int) else v for v in list(row) + [b]]
           for row, b in zip(rows, rhs)]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(aug)) if aug[i][c] != 0), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        pivot = aug[r][c]
        aug[r] = [v / pivot for v in aug[r]]
        for i in range(len(aug)):
            factor = aug[i][c]
            if i != r and factor != 0:
                aug[i] = [a - factor * b for a, b in zip(aug[i], aug[r])]
        pivots.append(c)
    if any(row[ncols] != 0 for row in aug[len(pivots):]):
        return None, ()
    particular = [F(0)] * ncols
    for i, c in enumerate(pivots):
        particular[c] = aug[i][ncols]
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        x = [F(0)] * ncols
        x[free] = F(1)
        for i, c in enumerate(pivots):
            x[c] = -aug[i][free]
        basis.append(tuple(x))
    return tuple(particular), tuple(basis)


def _random_entry(rng, irrational):
    if rng.random() < 0.3:
        return F(0)
    value = F(rng.randint(-9, 9), rng.randint(1, 4))
    if irrational and rng.random() < 0.4:
        return ExtScalar.parts(value, *(F(rng.randint(-2, 2), rng.randint(1, 3))
                                        for _ in range(3)))
    return value


def _random_system(rng, irrational):
    """Seeded m x n system: often of low rank, sometimes with zero rows,
    with a consistent or a random right-hand side."""
    m, n = rng.randint(1, 6), rng.randint(1, 6)
    rank = rng.randint(0, min(m, n))
    left = [[_random_entry(rng, irrational) for _ in range(rank)] for _ in range(m)]
    right = [[_random_entry(rng, irrational) for _ in range(n)] for _ in range(rank)]
    rows = [[sum((left[i][t] * right[t][j] for t in range(rank)), F(0))
             for j in range(n)] for i in range(m)]
    if rng.random() < 0.3:
        rows[rng.randrange(m)] = [F(0)] * n
    if rng.random() < 0.5:
        x = [_random_entry(rng, irrational) for _ in range(n)]
        rhs = [sum((a * b for a, b in zip(row, x)), F(0)) for row in rows]
    else:
        rhs = [_random_entry(rng, irrational) for _ in range(m)]
    return rows, rhs, n


@pytest.mark.parametrize("irrational, count", [(False, 600), (True, 150)])
def test_solve_matches_gauss_jordan_reference(irrational, count):
    rng = random.Random(2026 + irrational)
    shapes = set()
    for _ in range(count):
        rows, rhs, n = _random_system(rng, irrational)
        particular, basis = _reference_solve(rows, rhs, n)
        sol = solve_linear(rows, rhs, n)
        assert sol.particular == particular
        assert sol.basis == basis
        if not any(isinstance(v, ExtScalar) for row in rows + [rhs] for v in row):
            vectors = ((sol.particular,) if sol.particular else ()) + sol.basis
            assert all(type(v) is Fraction for x in vectors for v in x)
        shapes.add((len(rows) == n, sol.is_empty, bool(sol.basis)))
    # square and rectangular, inconsistent, unique and underdetermined
    assert {(True, True, False), (False, True, False),
            (True, False, False), (False, False, True)} <= shapes


def test_bareiss_integer_division_checks_exactness():
    assert _exact_int_div(-12, 4) == -3
    with pytest.raises(ArithmeticError, match="inexact"):
        _exact_int_div(7, 2)


def test_scalar_div_promotes_only_the_rational_operand(monkeypatch):
    quarter_sqrt2 = ExtScalar.parts(0, F(1, 4), 0, 0)
    promoted = []
    of = ExtScalar.__dict__["of"].__func__

    def counting_of(cls, value):
        promoted.append(value)
        return of(cls, value)

    monkeypatch.setattr(ExtScalar, "of", classmethod(counting_of))
    assert scalar_div(SQRT6, SQRT2) == SQRT3
    assert promoted == []
    assert scalar_div(F(1, 2), SQRT2) == quarter_sqrt2
    assert promoted == [F(1, 2)]
    assert scalar_div(SQRT2, 2) * 2 == SQRT2
    assert type(scalar_div(3, 4)) is Fraction


def test_solution_space_same_space():
    a = solve_linear([[1, 1, 0]], [2])
    b = solve_linear([[2, 2, 0]], [4])
    c = solve_linear([[1, 1, 0]], [0])
    assert a.same_space(b)
    assert not a.same_space(c)


# ---------------------------------------------------------------------------
# congruence diagonalization
# ---------------------------------------------------------------------------


def _congruence_checks(a, r, d):
    rt = r.transpose()
    assert rt * a * r == Matrix.diagonal(list(d))
    assert ref.det(r) != 0


def test_congruent_diagonalize_hyperbolic_plane():
    a = Matrix([[0, 1], [1, 0]])
    r, d = congruent_diagonalize(a)
    _congruence_checks(a, r, d)
    signs = sorted(1 if v > 0 else -1 for v in d)
    assert signs == [-1, 1]


def test_congruent_diagonalize_rank_deficient():
    a = Matrix([[1, 1, 0], [1, 1, 0], [0, 0, 0]])
    r, d = congruent_diagonalize(a)
    _congruence_checks(a, r, d)
    assert sum(1 for v in d if v != 0) == 1


def test_congruent_diagonalize_signature_is_pivot_order_invariant():
    base = random.Random(314159)
    for _ in range(20):
        rows = [[F(base.randint(-4, 4)) for _ in range(3)] for _ in range(3)]
        a = Matrix(rows)
        a = a + a.transpose()  # symmetrize
        r0, d0 = congruent_diagonalize(a)
        _congruence_checks(a, r0, d0)
        want = sorted((1 if v > 0 else -1 if v < 0 else 0) for v in d0)
        for trial in range(5):
            rng = random.Random(base.randint(0, 10 ** 9))
            r1, d1 = congruent_diagonalize(a, rng=rng)
            _congruence_checks(a, r1, d1)
            got = sorted((1 if v > 0 else -1 if v < 0 else 0) for v in d1)
            assert got == want


def test_congruent_diagonalize_rejects_asymmetric():
    with pytest.raises(ValueError):
        congruent_diagonalize(Matrix([[0, 1], [0, 0]]))


def test_congruent_diagonalize_refuses_an_irrational_entry():
    with pytest.raises(TypeError, match="^expected a rational value, got sqrt2$"):
        congruent_diagonalize(Matrix([[1, SQRT2], [SQRT2, 0]]))
    # a symmetric matrix of rational-valued ExtScalars reads as rational
    a = Matrix([[0, ExtScalar.of(1)], [ExtScalar.of(1), 0]])
    r, d = congruent_diagonalize(a)
    assert r.integer_form() is not None
    assert all(type(v) is F for v in d)
    _congruence_checks(a, r, d)
