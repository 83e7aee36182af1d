"""Integer-form polynomials against the dict-of-scalars kernel they replaced.

A ``Polynomial`` whose coefficients are all Fractions keeps the form
(D, {exponents: int}), and products, sums, negation, scaling, ``diff``,
the constructors, ``compose_linear``, ``apply_matrix_derivation`` and
``quadratic_form_poly`` run on it.  ``poly_reference`` keeps the old
kernel: along seeded chains of these operations, on 1-, 3- and 30-digit
coefficients mixed with ints and rational and irrational ExtScalars,
both must give the same values with the same coefficient types, the
reference's read by the kind rule (conftest's ``kind_values``: each
rational value a Fraction, each irrational one an ExtScalar), and the
form must stay canonical (D > 0, gcd(D, numerators) = 1, no zero entry), so that ``==``
on forms agrees with ``==`` on terms.
"""

import math
import random
from fractions import Fraction as F

import pytest

import poly_reference as ref
from conftest import along, kind_values, rational_kind
from poisson_forge.exactnum import (
    SQRT2,
    SQRT3,
    ExtScalar,
    Matrix,
    Polynomial,
    apply_matrix_derivation,
    quadratic_form_poly,
)


def _coef(rng, digits, kinds):
    """A nonzero coefficient of one of ``kinds``."""
    top = 10 ** digits
    q = F(rng.choice([-1, 1]) * rng.randint(1, top), rng.randint(1, top))
    kind = rng.choice(kinds)
    if kind == "int":
        return q.numerator
    if kind == "ext":
        return ExtScalar.of(q)
    if kind == "irrational":
        return q + q * rng.choice([SQRT2, SQRT3])
    return q


#: coefficient mixes: mostly rational, so that most chains stay on the form
RATIONAL = ("fraction", "fraction", "int")
MIXED = ("fraction", "fraction", "int", "ext", "irrational")


def _terms(rng, digits, kinds, nterms=4, max_degree=3):
    terms = {}
    for _ in range(nterms):
        exps = [0] * 3
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(3)] += 1
        terms[tuple(exps)] = _coef(rng, digits, kinds)
    return terms


def _kind(p):
    """The reference polynomial p as a form holds it."""
    return ref.Polynomial._trusted(
        p.nvars, dict(zip(p.terms, kind_values(p.terms.values()))))


def _pair(terms):
    """The same polynomial in the package and in the reference."""
    return Polynomial(3, terms), _kind(ref.Polynomial(3, terms))


def _matrix(rng, digits, kinds):
    entries = [[_coef(rng, digits, kinds) if rng.random() < 0.7 else 0
                for _ in range(3)] for _ in range(3)]
    return Matrix(entries)


def _scalar(rng, digits):
    pick = rng.random()
    if pick < 0.1:
        return 0
    return _coef(rng, digits, MIXED)


def _assert_canonical(p):
    form = p.integer_form()
    if form is None:
        assert not rational_kind(p.terms.values())
        return
    den, ints = form
    assert type(den) is int and den > 0
    assert all(type(v) is int and v for v in ints.values())
    assert math.gcd(den, *ints.values()) == 1
    assert Polynomial(p.nvars, dict(p.terms)).integer_form() == form


def _same(got, want):
    """Equal values and equal coefficient types, term by term, with the
    reference's as a form holds them."""
    want = _kind(want)
    assert got.nvars == want.nvars
    assert got.terms == want.terms
    assert {e: type(c) for e, c in got.terms.items()} == {
        e: type(c) for e, c in want.terms.items()}
    assert hash(got) == hash(want)
    assert got.is_zero() == want.is_zero()
    assert got.degree() == want.degree()
    for d in range(4):
        assert got.is_homogeneous(d) == want.is_homogeneous(d)
    _assert_canonical(got)


def _step(rng, digits, kinds, got, want):
    op = rng.choice(("mul", "mul", "add", "sub", "neg", "scale", "diff",
                     "compose", "derive", "directional"))
    if op in ("mul", "add", "sub"):
        other, other_ref = _pair(_terms(rng, digits, kinds, nterms=3,
                                        max_degree=2))
        if op == "mul":
            return got * other, want * other_ref
        if op == "add":
            return got + other, want + other_ref
        return got - other, want - other_ref
    if op == "neg":
        return -got, -want
    if op == "scale":
        c = _scalar(rng, digits)
        return (got * c, want * c) if rng.random() < 0.5 else (c * got, c * want)
    if op == "diff":
        i = rng.randrange(3)
        return got.diff(i), want.diff(i)
    if op == "directional":
        v = [_scalar(rng, digits) for _ in range(3)]
        return along(got, v), want.directional_diff(v)
    m = _matrix(rng, digits, kinds)
    if op == "compose":
        return got.compose_linear(m), want.compose_linear(m)
    return apply_matrix_derivation(m, got), ref.apply_matrix_derivation(m, want)


@pytest.mark.parametrize("kinds", [RATIONAL, MIXED], ids=["rational", "mixed"])
@pytest.mark.parametrize("digits", [1, 3, 30])
def test_chains_of_operations_match_the_dict_kernel(digits, kinds):
    rng = random.Random(9100 + digits + 7 * len(kinds))
    for _ in range(25):
        got, want = _pair(_terms(rng, digits, kinds))
        _same(got, want)
        for _ in range(6):
            if got.degree() > 5:        # keep the chain small
                got, want = _pair(_terms(rng, digits, kinds))
            got, want = _step(rng, digits, kinds, got, want)
            _same(got, want)


@pytest.mark.parametrize("kinds", [RATIONAL, MIXED], ids=["rational", "mixed"])
@pytest.mark.parametrize("digits", [1, 3, 30])
def test_equality_matches_the_dict_kernel(digits, kinds):
    rng = random.Random(9200 + digits + 7 * len(kinds))
    for _ in range(60):
        p, p_ref = _pair(_terms(rng, digits, kinds))
        # an equal twin half the time, built along another route
        if rng.random() < 0.5:
            q, q_ref = p * 2 - p, p_ref * 2 - p_ref
        else:
            q, q_ref = _pair(_terms(rng, digits, kinds))
        assert (p == q) == (p_ref == q_ref)
        assert (p != q) == (p_ref != q_ref)
        if p == q:
            assert hash(p) == hash(q)


@pytest.mark.parametrize("kinds", [RATIONAL, MIXED], ids=["rational", "mixed"])
@pytest.mark.parametrize("digits", [1, 3, 30])
def test_constructors_and_quadratic_forms_match_the_dict_kernel(digits, kinds):
    rng = random.Random(9300 + digits + 7 * len(kinds))
    for _ in range(30):
        c = _scalar(rng, digits)
        _same(Polynomial.constant(3, c), ref.Polynomial.constant(3, c))
        i = rng.randrange(3)
        _same(Polynomial.variable(3, i), ref.Polynomial.variable(3, i))
        exps = [rng.randint(0, 3) for _ in range(3)]
        _same(Polynomial.monomial(3, exps, c),
              ref.Polynomial.monomial(3, exps, c))
        coeffs = [_scalar(rng, digits) for _ in range(3)]
        _same(Polynomial(3, {(1, 0, 0): coeffs[0], (0, 1, 0): coeffs[1],
                             (0, 0, 1): coeffs[2]}),
              ref.Polynomial.linear(coeffs))
        m = _matrix(rng, digits, kinds)
        _same(quadratic_form_poly(m), ref.quadratic_form_poly(m))
        power = rng.randint(0, 3)
        got, want = _pair(_terms(rng, digits, kinds, nterms=2, max_degree=1))
        _same(got ** power, want ** power)
    _same(Polynomial.zero(3), ref.Polynomial.zero(3))


def test_a_symmetric_form_with_cancelling_entries_drops_its_term():
    m = Matrix([[F(1, 6), F(2, 15), 0], [F(-2, 15), F(7, 4), 0], [0, 0, 0]])
    _same(quadratic_form_poly(m), ref.quadratic_form_poly(m))
    assert quadratic_form_poly(m).integer_form() == (
        12, {(2, 0, 0): 2, (0, 2, 0): 21})


#: entries that cancel across rows and across the two scalar types, so
#: that a sum over the rows of a derivation can be zero or rational in
#: one order of addition and an ExtScalar in another
CANCELLING = (0, 1, -1, F(1, 2), F(-1, 2), SQRT2, -SQRT2,
              ExtScalar.of(1), ExtScalar.of(-1), ExtScalar.of(0))


def _typed_terms(p):
    return {e: (type(c), c) for e, c in p.terms.items()}


@pytest.mark.parametrize("nvars", [2, 3, 4])
def test_derivation_on_field_forms_matches_the_dict_kernel(nvars, rng):
    """``apply_matrix_derivation`` sums each row of M on its own and adds
    the rows in order: on ExtScalar matrices and polynomials whose rows
    cancel, every coefficient has the value and the type of the dict
    kernel's sum of the products (M x)_i d_i p."""
    kinds = {"ext": 0, "fraction": 0}
    for _ in range(400):
        m = Matrix([[rng.choice(CANCELLING) for _ in range(nvars)]
                    for _ in range(nvars)])
        terms = {}
        for _ in range(rng.randint(1, 5)):
            exps = [0] * nvars
            for _ in range(rng.randint(1, 3)):
                exps[rng.randrange(nvars)] += 1
            terms[tuple(exps)] = rng.choice(CANCELLING[1:])
        got = apply_matrix_derivation(m, Polynomial(nvars, terms))
        want = _kind(ref.apply_matrix_derivation(
            m, _kind(ref.Polynomial(nvars, terms))))
        assert _typed_terms(got) == _typed_terms(want)
        assert got._form == Polynomial(nvars, want.terms)._form
        _same(got, want)
        if got.integer_form() is None:
            for c in got.terms.values():
                kinds["ext" if type(c) is ExtScalar else "fraction"] += 1
    assert min(kinds.values()) >= 100, kinds
