import itertools
import os
import random
from fractions import Fraction

import pytest

import normal_form_reference
import poly_reference
from poisson_forge.exactnum import (
    SQRT2,
    SQRT3,
    ExtScalar,
    Matrix,
    Polynomial,
    SolutionSpace,
    as_rational,
    as_scalar,
)
from poisson_forge.linclass import (
    LinearPair,
    classification_to_json,
    classify,
    standard_pair,
    transform_pair,
)
from poisson_forge.multivec import MultiVectorField
from poisson_forge.quaddef import JordanFamily
from poisson_forge.verify import DEFAULT_SEED


#: the five families a ``verify-paper`` pass transports
SWEEP_FAMILIES = (
    JordanFamily.diag_distinct(1, 2, -3),
    JordanFamily.diag_distinct(1, -4, 3),
    JordanFamily.diag_repeated(1),
    JordanFamily.diag_repeated(2),
    JordanFamily.nilpotent_full(),
)


def _suite_seed() -> int:
    return int(os.environ.get("POISSON_FORGE_SEED", DEFAULT_SEED))


@pytest.fixture
def rng():
    return random.Random(_suite_seed())


def random_fraction(rng, lo=-4, hi=4, max_den=3) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def random_rational_invertible(rng) -> Matrix:
    """A 3x3 matrix of ``random_fraction(rng, -5, 5)`` entries, drawn
    until invertible: Fractions, so that its form has a denominator other
    than 1."""
    while True:
        m = Matrix([[random_fraction(rng, -5, 5) for _ in range(3)]
                    for _ in range(3)])
        if m.det():
            return m


def random_pairs(rng, count):
    """Conjugates of the standard pairs (8 and 9 at a random modulus), with
    their negated Gram matrices, and pairs with A = 0 and a random k."""
    pairs = []
    while len(pairs) < count:
        case = rng.randint(1, 10)
        scale = random_fraction(rng, 1, 9, 4) if case in (8, 9) else 1
        pair = transform_pair(random_rational_invertible(rng),
                              standard_pair(case, scale))
        pairs += [pair, LinearPair(pair.k, pair.gram.scaled(-1))]
        k = [random_fraction(rng, -5, 5) if rng.random() < 0.7 else Fraction(0)
             for _ in range(3)]
        if any(k):
            pairs.append(LinearPair(tuple(k), Matrix.zero(3)))
    return pairs


def moduli_pairs():
    """Cases 8 and 9 at moduli that are not squares, squares, and large."""
    moduli = (Fraction(1), Fraction(2), Fraction(1, 3), Fraction(9, 4),
              Fraction(18), Fraction(10 ** 12, 7))
    return [standard_pair(case, a) for case in (8, 9) for a in moduli]


def same_classification(pair):
    """The same JSON, witness form and entry types from ``classify`` and
    ``normal_form_reference.classify``; the label."""
    label, witness = classify(pair)
    want_label, want_witness = normal_form_reference.classify(pair)
    assert classification_to_json(label, witness) == classification_to_json(
        want_label, want_witness), pair
    assert type(label.a_squared) is type(want_label.a_squared)
    assert witness.base._form == want_witness.base._form
    assert witness.base._rational is want_witness.base._rational is True
    assert [type(v) for v in witness.scales] == [Fraction] * 3
    assert [type(v) for v in want_witness.scales] == [Fraction] * 3
    return label


def random_polynomial(rng, nvars, max_degree=2, nterms=3) -> Polynomial:
    terms = {}
    for _ in range(nterms):
        deg = rng.randint(0, max_degree)
        exps = [0] * nvars
        for _ in range(deg):
            exps[rng.randrange(nvars)] += 1
        terms[tuple(exps)] = random_fraction(rng)
    return Polynomial(nvars, terms)


def along(p: Polynomial, vector) -> Polynomial:
    """The derivative of p along a constant vector, sum_i v_i dp/dx_i,
    with each v_i read as a package scalar and a zero one skipped."""
    if len(vector) != p.nvars:
        raise ValueError("direction of length %d for %d variables"
                         % (len(vector), p.nvars))
    out = Polynomial.zero(p.nvars)
    for i, v in enumerate(vector):
        v = as_scalar(v)
        if v:
            out = out + p.diff(i) * v
    return out


def evaluate(p: Polynomial, point):
    """p at a point, by the reference kernel's evaluation, which would
    read a point of the wrong length without a word."""
    if len(point) != p.nvars:
        raise ValueError("point of length %d for %d variables"
                         % (len(point), p.nvars))
    return poly_reference.Polynomial(p.nvars, p.terms).eval(point)


def rational_kind(values) -> bool:
    """The kind of a form with these values, by the one rule of
    ``Matrix._of_form`` and ``Polynomial._of_form``: the rational kind, on
    ints, exactly when every value is rational, an ExtScalar one too;
    the field kind otherwise."""
    return all(not isinstance(v, ExtScalar) or v.is_rational for v in values)


def kind_values(values) -> list:
    """A reference result's values as a form holds them, whatever its
    kind: each rational value as its Fraction, an ExtScalar one too, and
    each irrational one as its ExtScalar."""
    return [v if isinstance(v, ExtScalar) and not v.is_rational
            else as_rational(v) for v in values]


def rational_valued(m) -> bool:
    """Every entry of the matrix m is rational, an ExtScalar one too."""
    return rational_kind(v for row in m.rows for v in row)


def matrix_span(mats):
    """The span of 3x3 matrices, each given as its rows, as a space of
    coefficient vectors in Q^9 on the canonical shape."""
    return SolutionSpace.spanned_by(
        (Fraction(0),) * 9, [[v for row in m for v in row] for m in mats])


def function_field(poly: Polynomial, cls=MultiVectorField):
    """A polynomial as a grade-0 field, or as a 0-form for a subclass."""
    return cls(poly.nvars, 0, {(): poly})


def random_field(rng, nvars, grade, max_degree=2) -> MultiVectorField:
    comps = {}
    for exps in itertools.combinations(range(nvars), grade):
        if rng.random() < 0.8:
            comps[exps] = random_polynomial(rng, nvars, max_degree)
    return MultiVectorField(nvars, grade, comps)


def random_ext_scalar(rng, irrational):
    """A Fraction, or when ``irrational`` half the time an ExtScalar."""
    q = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
    if irrational and rng.random() < 0.5:
        return q + Fraction(rng.randint(-3, 3), rng.randint(1, 3)) * rng.choice(
            [SQRT2, SQRT3])
    return q


def random_ext_polynomial(rng, nvars, irrational, nterms=4, max_degree=3):
    """Coefficients from ``random_ext_scalar``."""
    terms = {}
    for _ in range(nterms):
        exps = [0] * nvars
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(nvars)] += 1
        terms[tuple(exps)] = random_ext_scalar(rng, irrational)
    return Polynomial(nvars, terms)


def random_ext_field(rng, nvars, grade):
    """A field whose coefficients are Fractions and ExtScalars."""
    comps = {}
    for exps in itertools.combinations(range(nvars), grade):
        if rng.random() < 0.8:
            comps[exps] = random_ext_polynomial(rng, nvars, True, nterms=3,
                                                max_degree=2)
    return MultiVectorField(nvars, grade, comps)


def typed_components(field):
    """Each component of a field as (D, {exps: (value, type)}, rational
    flag): equal exactly when the forms, the flags and the coefficient
    types agree."""
    return {e: (p._form[0], {x: (v, type(v)) for x, v in p._form[1].items()},
                p._rational)
            for e, p in field.components.items()}
