"""Results built without re-validation equal their validated copies.

Arithmetic on polynomials, matrices and multivector fields wraps its
results without re-checking them, and rational matrix products run on
integers.  These tests run random rational and extension-field inputs,
including ones that cancel to zero, through every such path and compare
each result with the validating constructor's copy and with a slow
reference; the public constructors must still reject bad input.
"""

import itertools
import random
from fractions import Fraction

import pytest

import linalg_reference
import poly_reference
from conftest import (
    evaluate,
    random_ext_field,
    random_ext_polynomial,
    random_ext_scalar,
    random_field,
    rational_valued,
)
from form_reference import DifferentialForm, ext_deriv, vol_dual, vol_dual_inv
from poisson_forge.exactnum import (
    SQRT2,
    SQRT3,
    ExtScalar,
    Matrix,
    ParseError,
    Polynomial,
    as_rational_matrix,
)
from poisson_forge.multivec import (
    MultiVectorField,
    _check_index_tuple,
    curl,
    schouten,
    wedge,
)
from poisson_forge.linclass import (
    STANDARD_PAIRS,
    LinearPair,
    StdFormLabel,
    Witness,
    aut_member,
    decompose,
    pair_of,
    standard_pair,
    transform_pair,
)
from poisson_forge.quaddef import (
    NILPOTENT_FULL,
    OTHER,
    JordanFamily,
    P2Point,
    cubic_coords,
    cubic_from_coords,
    cubic_kernel,
    t_of_v,
)

F = Fraction


def _assert_valid_poly(p):
    copy = Polynomial(p.nvars, p.terms)
    assert copy == p
    for exps, coef in p.terms.items():
        assert type(exps) is tuple and len(exps) == p.nvars
        assert all(type(e) is int and e >= 0 for e in exps)
        assert type(coef) in (Fraction, ExtScalar)
        assert type(copy.terms[exps]) is type(coef)
        assert coef


def _same(actual, expected):
    assert actual == expected
    assert {e: type(c) for e, c in actual.terms.items()} == {
        e: type(c) for e, c in expected.terms.items()}
    _assert_valid_poly(actual)


@pytest.mark.parametrize("irrational", [False, True])
def test_polynomial_arithmetic_matches_validated_reference(irrational):
    rng = random.Random(5101 + irrational)
    for _ in range(150):
        n = rng.randint(1, 3)
        p = random_ext_polynomial(rng, n, irrational)
        q = random_ext_polynomial(rng, n, irrational)
        c = random_ext_scalar(rng, irrational)
        # the dict kernel's results, through the validating constructor
        a, b = (poly_reference.Polynomial(n, r.terms) for r in (p, q))
        _same(p + q, Polynomial(n, (a + b).terms))
        _same(p - q, Polynomial(n, (a - b).terms))
        _same(-p, Polynomial(n, {e: -v for e, v in p.terms.items()}))
        _same(p * q, Polynomial(n, (a * b).terms))
        _same(p * c, Polynomial(n, {e: v * c for e, v in p.terms.items()}))
        _same(3 * p, Polynomial(n, {e: v * 3 for e, v in p.terms.items()}))
        for i in range(n):
            _same(p.diff(i), Polynomial(n, a.diff(i).terms))
        m = Matrix([[random_ext_scalar(rng, irrational) for _ in range(n)]
                    for _ in range(n)])
        pulled = p.compose_linear(m)
        _assert_valid_poly(pulled)
        point = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
        assert evaluate(pulled, point) == evaluate(p, m.apply(point))


def test_polynomial_results_that_cancel_are_empty():
    rng = random.Random(5103)
    for irrational in (False, True):
        for _ in range(40):
            p = random_ext_polynomial(rng, 3, irrational)
            c = random_ext_scalar(rng, irrational)
            for zero in (p - p, p + (-p), p * 0, p * Polynomial.zero(3),
                         Polynomial.constant(3, c).diff(1)):
                assert zero.terms == {} and zero == Polynomial.zero(3)
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    # (x + y)(x - y) - x^2 + y^2: every product term cancels
    assert ((x + y) * (x - y) - x * x + y * y).terms == {}
    r = SQRT2 * x + SQRT3 * y
    assert (r * r - r ** 2).terms == {}


def _assert_valid_field(f):
    copy = type(f)(f.nvars, f.grade, f.components)
    assert copy == f
    for exps, poly in f.components.items():
        _check_index_tuple(exps, f.nvars, f.grade)
        assert poly.nvars == f.nvars and poly.terms
        _assert_valid_poly(poly)


@pytest.mark.parametrize("irrational", [False, True])
def test_field_operations_match_validated_copies(rng, irrational):
    for _ in range(12):
        n = rng.randint(2, 4)
        gu, gv = rng.randint(0, n), rng.randint(0, n)
        if irrational:
            u, v = random_ext_field(rng, n, gu), random_ext_field(rng, n, gv)
            w = random_ext_field(rng, n, gu)
        else:
            u, v = random_field(rng, n, gu), random_field(rng, n, gv)
            w = random_field(rng, n, gu)
        c = random_ext_scalar(rng, irrational)
        results = [u + w, u - w, -u, u.scale(c), u.scale(0), wedge(u, v),
                   curl(u), schouten(u, v), vol_dual(u),
                   vol_dual_inv(vol_dual(u)), ext_deriv(vol_dual(u))]
        for f in results:
            _assert_valid_field(f)
        assert vol_dual_inv(vol_dual(u)) == u
        assert (u - w) + w == u


def test_field_results_that_cancel_are_empty(rng):
    for _ in range(10):
        u = random_ext_field(rng, 3, 1)
        v = random_field(rng, 3, 2)
        for zero in (u - u, wedge(u, u), curl(curl(v)), u.scale(0),
                     ext_deriv(ext_deriv(vol_dual(v)))):
            assert zero.components == {}
    # a Poisson bivector: its self-bracket cancels term by term
    x, y, z = (Polynomial.variable(3, i) for i in range(3))
    rot = MultiVectorField(3, 2, {(0, 1): z, (0, 2): -y, (1, 2): x})
    assert schouten(rot, rot).components == {}
    assert isinstance(schouten(rot, rot), MultiVectorField)
    assert isinstance(vol_dual(rot), DifferentialForm)


def _assert_product(a, b):
    got = a * b
    want = linalg_reference.product(a, b).rows
    assert got.rows == want
    assert [[type(v) for v in r] for r in got.rows] == [
        [type(v) for v in r] for r in want]
    assert got == Matrix(got.rows)


def _fraction_matrix(rng, n, digits=2):
    bound = 10 ** digits
    return Matrix([[F(rng.randint(-bound, bound), rng.randint(1, bound))
                    if rng.random() < 0.8 else F(0) for _ in range(n)]
                   for _ in range(n)])


def test_integer_matrix_product_matches_fraction_reference():
    rng = random.Random(5104)
    for _ in range(300):
        n = rng.choice([1, 2, 3, 3, 4])
        a, b = _fraction_matrix(rng, n), _fraction_matrix(rng, n)
        _assert_product(a, b)
        assert all(type(v) is F for row in (a * b).rows for v in row)
    for _ in range(40):
        a, b = _fraction_matrix(rng, 3, 30), _fraction_matrix(rng, 3, 30)
        _assert_product(a, b)
    z = Matrix.zero(3)
    a = _fraction_matrix(rng, 3)
    _assert_product(z, a)
    _assert_product(a, z)
    assert (z * a).rows == ((F(0),) * 3,) * 3


def test_mixed_extension_matrix_product_keeps_the_exact_loop():
    rng = random.Random(5105)
    for _ in range(100):
        a = _fraction_matrix(rng, 3)
        b = Matrix([[random_ext_scalar(rng, True) for _ in range(3)]
                    for _ in range(3)])
        _assert_product(a, b)
        _assert_product(b, a)
    # rational values carried as ExtScalar stay ExtScalar in the product
    one = ExtScalar.of(1)
    e = Matrix([[one, 0, 0], [0, one, 0], [0, 0, one]])
    _assert_product(e, _fraction_matrix(rng, 3))


def test_matrix_results_match_validated_copies():
    rng = random.Random(5106)
    for irrational in (False, True):
        for _ in range(60):
            a = Matrix([[random_ext_scalar(rng, irrational) for _ in range(3)]
                        for _ in range(3)])
            b = Matrix([[random_ext_scalar(rng, irrational) for _ in range(3)]
                        for _ in range(3)])
            results = [a + b, a - b, -a, a.transpose(), a.scaled(F(2, 3)),
                       a * b, a - a]
            if a.det() and rational_valued(a):
                results.append(a.inverse())
                assert a * a.inverse() == Matrix.identity(3)
            elif a.det():
                # the inverse reads its matrix as rational
                with pytest.raises(TypeError, match="expected a rational value"):
                    a.inverse()
            for m in results:
                assert m == Matrix(m.rows)
                assert type(m.rows) is tuple and m.n == 3
                assert all(type(r) is tuple and len(r) == 3 for r in m.rows)
                assert all(type(v) in (F, ExtScalar) for r in m.rows for v in r)


def test_rational_matrix_returns_its_checked_argument():
    m = Matrix([[1, F(1, 2), 0], [0, 1, 0], [0, 0, 1]])
    assert as_rational_matrix(m) is m
    # a matrix whose entries are all rational, ExtScalars too, is rational
    given = Matrix([[1, 0, 0], [0, ExtScalar.of(F(1, 2)), 0],
                    [0, 0, ExtScalar.of(1)]])
    assert as_rational_matrix(given) is given
    assert given.integer_form() == (2, (2, 0, 0, 0, 1, 0, 0, 0, 2))
    assert given == Matrix.diagonal([1, F(1, 2), 1])
    # the first irrational entry of any other raises
    with pytest.raises(TypeError, match="got sqrt2$"):
        as_rational_matrix(Matrix([[ExtScalar.of(1), SQRT2, 0],
                                   [0, SQRT3, 0], [0, 0, 1]]))
    with pytest.raises(TypeError, match="got sqrt2"):
        as_rational_matrix(Matrix([[ExtScalar.of(1), 0, 0], [0, SQRT2, 0],
                                   [0, 0, 1]]))


@pytest.mark.parametrize("build, error", [
    (lambda: Polynomial(2, {(1, 0, 0): 1}), ValueError),
    (lambda: Polynomial(2, {(-1, 0): 1}), ValueError),
    (lambda: Polynomial(2, {(1, 0): "x"}), TypeError),
    (lambda: Polynomial(2, {(1, 0): 0.5}), TypeError),
    (lambda: Polynomial.monomial(2, (1, 2, 3)), ValueError),
    (lambda: Polynomial.constant(2, None), TypeError),
    (lambda: Polynomial(2, {(1, 0): 1, (0, 1): "a"}), TypeError),
    (lambda: Polynomial.from_json({"vars": ["x", "y"],
                                   "terms": [{"exp": [1], "coef": "1"}]}),
     ParseError),
    (lambda: MultiVectorField(3, 2, {(1, 0): 1}), ValueError),
    (lambda: MultiVectorField(3, 2, {(0, 3): 1}), ValueError),
    (lambda: MultiVectorField(3, 1, {(0, 1): 1}), ValueError),
    (lambda: MultiVectorField(3, 1, {(0,): Polynomial.variable(2, 0)}),
     ValueError),
    (lambda: MultiVectorField(3, 1, {(0,): "x"}), TypeError),
    (lambda: MultiVectorField(3, -1, {}), ValueError),
    (lambda: MultiVectorField.from_json({"n": 3, "grade": 1, "components": {
        "4": {"vars": ["x", "y", "z"], "terms": []}}}), ValueError),
    (lambda: Matrix([[1, 2], [3]]), ValueError),
    (lambda: Matrix([[1, 0.5], [0, 1]]), TypeError),
    (lambda: JordanFamily.diag_repeated(0.1), TypeError),
    (lambda: JordanFamily.diag_repeated("1/2"), TypeError),
    (lambda: ExtScalar.of(0.1), TypeError),
    (lambda: ExtScalar.parts(0, "1/2"), TypeError),
], ids=["poly-length", "poly-negative", "poly-str-coef", "poly-float-coef",
        "monomial-length", "constant-none", "linear-str", "poly-json",
        "field-order", "field-range", "field-length", "field-arity",
        "field-coef", "field-grade", "field-json", "matrix-ragged",
        "matrix-float", "family-float-lambda", "family-str-lambda",
        "ext-float", "ext-str-coordinate"])
def test_public_constructors_still_reject_bad_input(build, error):
    with pytest.raises(error):
        build()


_X = Polynomial.variable(3, 0)


@pytest.mark.parametrize("build, message", [
    (lambda: cubic_kernel(Matrix.identity(2)), "twist matrix must be 3x3"),
    (lambda: cubic_coords(_X), "not a homogeneous cubic on three variables"),
    (lambda: cubic_from_coords([0] * 9), "expected 10 cubic coefficients"),
    (lambda: JordanFamily("BOGUS"), "unknown family tag 'BOGUS'"),
    (lambda: JordanFamily(NILPOTENT_FULL, (1,)),
     "nilpotent family takes no parameters"),
    (lambda: JordanFamily(OTHER).matrix(), "no normal-form matrix for tag"),
    (lambda: P2Point((1, 2)), "projective points live on three coordinates"),
    (lambda: t_of_v((0.0, 0.0, 0.0)), "zero vector has no direction"),
    (lambda: standard_pair(8, 0), "modulus must be positive"),
    (lambda: pair_of(MultiVectorField(4, 2, {
        (0, 1): Polynomial.variable(4, 2)})), "pairs are defined on R\\^3"),
    (lambda: decompose(MultiVectorField(3, 1, {(0,): _X})),
     "expected a bivector field"),
    (lambda: StdFormLabel(8), "modulus present exactly for cases 8 and 9"),
    (lambda: StdFormLabel(8, -1), "modulus a\\^2 must be positive"),
    (lambda: Witness(Matrix.identity(2), (1, 1, 1)), "witness lives on R\\^3"),
    (lambda: Witness(Matrix.diagonal([1, 1, 0]), (1, 1, 1)),
     "witness base must be invertible"),
    (lambda: LinearPair((0, 0), Matrix.zero(2)), "pairs live on R\\^3"),
    (lambda: transform_pair(Matrix.zero(3), STANDARD_PAIRS[1]),
     "transformation must be invertible"),
    (lambda: aut_member(Matrix.zero(3), 1), "transformation must be invertible"),
    (lambda: aut_member(Matrix.identity(2), 1),
     "det is implemented for 3x3, not 2x2"),
], ids=["kernel-size", "cubic-coords", "cubic-length", "family-tag",
        "family-parameters", "family-other-matrix", "point-length",
        "float-zero-vector", "zero-modulus", "pair-of-r4", "decompose-grade",
        "label-no-modulus", "label-negative-modulus", "witness-size",
        "witness-singular", "pair-size", "transform-singular",
        "aut-singular", "aut-size"])
def test_library_error_branches_raise(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_float_rotation_flips_down_vectors_and_fixes_the_axis():
    rows = t_of_v((0.6, 0.0, -0.8))
    assert rows[2] == pytest.approx((-0.6, 0.0, 0.8), abs=1e-15)
    assert rows[2][2] >= 0
    assert t_of_v((0.0, 0.0, 2.0)) == ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                                       (0.0, 0.0, 1.0))


def test_family_reads_a_rational_valued_lambda_as_its_fraction():
    family = JordanFamily.diag_repeated(ExtScalar.of(2))
    assert family == JordanFamily.diag_repeated(2)
    assert [type(v) for v in family.lambdas] == [F]
    family = JordanFamily.diag_distinct(ExtScalar.of(F(1, 2)), F(-3, 2), 1)
    assert family.lambdas == (F(1, 2), F(-3, 2), F(1))
    assert all(type(v) is F for v in family.lambdas)


@pytest.mark.parametrize("build", [
    lambda: Polynomial(-1),
    lambda: Polynomial(-2, {}),
    lambda: Polynomial.zero(-2),
    lambda: Polynomial.constant(-1, 3),
    lambda: Polynomial.constant(-1, SQRT2),
    lambda: Polynomial.variable(-2, 0),
    lambda: Polynomial.monomial(-1, ()),
    lambda: MultiVectorField(-3, 2),
    lambda: MultiVectorField(-1, 0, {}),
    lambda: MultiVectorField.zero(-1, 0),
], ids=["poly", "poly-empty-terms", "poly-zero", "constant", "constant-ext",
        "variable", "monomial", "field", "field-grade-0", "field-zero"])
def test_constructors_refuse_a_negative_variable_count(build):
    # the message the JSON boundary gives for the same input
    with pytest.raises(ValueError, match="^negative n$"):
        build()


@pytest.mark.parametrize("build", [
    lambda: Polynomial.variable(3, -1),
    lambda: Polynomial.variable(3, -3),
    lambda: Polynomial.variable(3, 3),
    lambda: Polynomial.variable(0, 0),
    lambda: Polynomial(3, {(1, 1, 1): 1}).diff(-1),
    lambda: Polynomial(3, {(1, 1, 1): 1}).diff(3),
], ids=["variable-wraps-to-z", "variable-wraps-to-x", "variable-past-end",
        "variable-of-none", "diff-wraps", "diff-past-end"])
def test_variable_indices_and_directions_out_of_range_are_refused(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("grade, exps", [
    (1, (5,)), (1, (3,)), (1, (-1,)), (1, (0, 1)), (1, ()),
    (2, (1, 0)), (2, (1, 1)), (2, (0,)), (2, (0, 3)), (0, (0,)),
], ids=["past-end", "just-past-end", "negative", "too-long", "too-short",
        "decreasing", "repeated", "short-pair", "pair-past-end",
        "function-with-index"])
def test_component_refuses_index_tuples_the_field_cannot_have(grade, exps):
    stored = (0, 1, 2)[:grade]
    field = MultiVectorField(3, grade, {stored: 1})
    with pytest.raises(ValueError):
        field.component(exps)
    # a stored key returns its component, a valid missing one zero
    assert field.component(stored) == Polynomial.constant(3, 1)
    assert field.component(list(stored)) is field.components[stored]
    for valid in itertools.combinations(range(3), grade):
        if valid != stored:
            assert field.component(valid).is_zero()


def test_constructors_take_zero_variables():
    assert Polynomial.zero(0).nvars == 0
    assert Polynomial.constant(0, 3) == Polynomial(0, {(): 3})
    assert MultiVectorField(0, 0).nvars == 0
