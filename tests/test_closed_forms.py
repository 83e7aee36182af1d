"""The R^3 bivectors and their pairs read off the integer forms in one step.

``linclass.bivector_of`` and ``quaddef.pi_quad`` build each component as
one polynomial on the forms of the pair.  ``form_reference`` keeps the
generic construction they replaced, a wedge product with the Euler field
that is scaled and added to the potential bivector; on seeded pairs the
two must agree in every component's form (D, T), its rational flag and
the type of every coefficient.

The other way round, ``linclass.pair_of`` reads (k, A) off the
coefficients of a linear bivector on R^3, and ``linclass.decompose``
reads everything it reports off the structure constants of one on R^n:
k as their trace, the curl-free part L on the form, [k^, L] = 0 as a
derivative along k and curl(L ^ L) = 0 as the Jacobi identity of L's
constants.  ``form_reference`` keeps their curl, wedge and
Schouten-bracket routes; on seeded bivectors, Poisson or not, on R^2 to
R^8 for ``decompose`` and with Fraction or ExtScalar coefficients, the
two must agree in values, entry types, exception types and messages.
A field given rational-valued ExtScalar coefficients is on the ints, so
that ``pair_of`` gives what the reference gives on its Fraction twin,
and each pair it builds unchecked is what ``LinearPair``'s validating
constructor makes of its fields.

Last, ``quaddef.deform_check`` decides the deformation criterion on
coefficient forms, its bracket route from the vector fields of the two
bivectors and its identity route as a sum over F's terms.
``form_reference`` keeps the Schouten-bracket route (on its wedge-route
``pi_quad``) and the source term built by matrix products; on seeded
pairs with Fraction or ExtScalar entries the two must agree in
verdicts, exception types and messages, and ``deform_rhs`` in values
and entry types.
"""

import itertools
from collections import Counter
from fractions import Fraction as F

import pytest

import form_reference as ref
from conftest import random_ext_scalar, random_fraction, typed_components

from poisson_forge import linclass
from poisson_forge.exactnum import (SQRT2, SQRT3, ExtScalar, Matrix, Polynomial,
                                    _scaled_row)
from poisson_forge.linclass import (
    STANDARD_PAIRS,
    Decomposition,
    LinearPair,
    _linear_rows,
    _signed_rows,
    bivector_of,
    decompose,
    pair_of,
    standard_pair,
)
from poisson_forge.linclass import transform_pair as transform_linear_pair
from poisson_forge.multivec import MultiVectorField, schouten
from poisson_forge.quaddef import (
    QUAD_MONOMIALS,
    JordanFamily,
    QuadraticPair,
    _brackets_to_zero,
    _quad_sums,
    cubic_from_coords,
    cubic_kernel,
    deform_check,
    deform_rhs,
    enumerate_orbit_pairs,
    pi_quad,
    solve_F,
    transform_pair,
)
from poisson_forge.verify import random_invertible, random_kernel_cubic, random_traceless


def _same(got, want):
    assert got == want
    assert typed_components(got) == typed_components(want)


def _random_modulus(rng):
    return F(rng.randint(2, 9), rng.randint(1, 4))


def test_bivector_of_matches_the_wedge_route(rng):
    pairs = list(STANDARD_PAIRS.values())
    pairs += [standard_pair(case, _random_modulus(rng))
              for case in (8, 9) for _ in range(3)]
    pairs += [transform_linear_pair(random_invertible(rng),
                                    standard_pair(rng.randint(1, 10)))
              for _ in range(60)]
    pairs += [transform_linear_pair(random_invertible(rng).scaled(
                  F(1, rng.randint(2, 7))),
              standard_pair(rng.choice((8, 9)), _random_modulus(rng)))
              for _ in range(20)]
    fractional_k = 0
    for pair in pairs:
        got = bivector_of(pair)
        _same(got, ref.bivector_of(pair))
        assert all(p._rational for p in got.components.values())
        fractional_k += any(v.denominator != 1 for v in pair.k)
    assert fractional_k >= 5


def _orbit_pairs(rng):
    families = [
        JordanFamily.diag_distinct(*rng.choice([(1, 2, -3), (F(1, 2), F(-3, 2), 1),
                                                (3, -1, -2)])),
        JordanFamily.diag_repeated(F(rng.randint(1, 4), rng.randint(1, 3))),
        JordanFamily.nilpotent_full(),
    ]
    for family in families:
        for orbit in enumerate_orbit_pairs(family):
            for cubic in orbit.cubics:
                yield QuadraticPair(orbit.twist, cubic)
            if len(orbit.cubics) > 1:
                yield QuadraticPair(orbit.twist, sum(
                    orbit.cubics[1:], orbit.cubics[0] * rng.randint(-3, 3)))


def test_pi_quad_matches_the_wedge_route(rng):
    pairs = list(_orbit_pairs(rng))
    pairs += [transform_pair(random_invertible(rng), qp)
              for qp in rng.sample(pairs, 12)]
    for _ in range(30):
        twist = random_traceless(rng).scaled(F(1, rng.randint(1, 5)))
        pairs.append(QuadraticPair(twist, random_kernel_cubic(rng, twist)))
    # twists whose ExtScalar entries are rational, or zero: the rational
    # kind
    for twist in (Matrix([[ExtScalar.of(1), 0, 0], [0, ExtScalar.of(-1), 0],
                          [0, 0, 0]]),
                  Matrix([[1, 0, 0], [0, -1, 0], [0, 0, ExtScalar.of(0)]]),
                  Matrix([[ExtScalar.of(F(1, 2)), 1, 0], [0, F(-1, 2), 0],
                          [0, 0, ExtScalar.of(0)]])):
        assert twist.integer_form() is not None
        pairs.append(QuadraticPair(twist, random_kernel_cubic(rng, twist)))
    # twists of the field kind: an irrational entry among ExtScalars and
    # Fractions
    for _ in range(10):
        rows = [[random_ext_scalar(rng, True) for _ in range(3)]
                for _ in range(3)]
        rows[0][1] += SQRT2
        rows[2][2] = -rows[0][0] - rows[1][1]
        twist = Matrix(rows)
        pairs.append(QuadraticPair(twist, random_kernel_cubic(rng, twist)))
    field_twists = 0
    for qp in pairs:
        _same(pi_quad(qp), ref.pi_quad(qp))
        field_twists += qp.twist.integer_form() is None
    assert field_twists >= 10


# ---------------------------------------------------------------------------
# pair_of and decompose against their Schouten-bracket routes
# ---------------------------------------------------------------------------


def _typed_scalars(values):
    return tuple((v, type(v)) for v in values)


def _typed_result(call, pi):
    """What ``call(pi)`` gives, with every entry type, or the exception
    type and message it raises."""
    try:
        out = call(pi)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)
    if isinstance(out, LinearPair):
        return (_typed_scalars(out.k), out.gram._form, out.gram._rational,
                tuple(type(v) for v in out.gram._form[1]))
    assert isinstance(out, Decomposition)
    return (_typed_scalars(out.k), typed_components(out.curl_free),
            out.square_closed, out.twist_commutes)


def _standard_bivectors(rng):
    """bivector_of of every standard pair, moduli of cases 8 and 9, and
    transforms of them."""
    pairs = list(STANDARD_PAIRS.values())
    pairs += [standard_pair(case, _random_modulus(rng))
              for case in (8, 9) for _ in range(3)]
    for case in range(1, 11):
        for _ in range(4):
            scale = _random_modulus(rng) if case in (8, 9) else 1
            t = random_invertible(rng).scaled(F(1, rng.randint(1, 4)))
            pairs.append(transform_linear_pair(t, standard_pair(case, scale)))
    return [bivector_of(pair) for pair in pairs]


def _random_linear_bivector(rng, n, coefficient):
    comps = {}
    for exps in itertools.combinations(range(n), 2):
        if rng.random() < 0.8:
            comps[exps] = Polynomial(n, {
                tuple(int(m == j) for m in range(n)): coefficient(rng)
                for j in rng.sample(range(n), rng.randint(1, n))})
    return MultiVectorField(n, 2, comps)


def _field_coefficient(rng):
    """A Fraction, or an ExtScalar that is irrational, rational or zero."""
    q = random_fraction(rng)
    return rng.choice([q, q, ExtScalar.of(q), ExtScalar.of(0),
                       q + random_fraction(rng) * rng.choice([SQRT2, SQRT3])])


def _retyped(pi, rng, scale=1):
    """(``pi`` times ``scale``, with about half of its coefficients given
    as ExtScalars, and how many were): still Poisson when ``pi`` is."""
    comps, wrapped = {}, 0
    for exps, poly in pi.components.items():
        terms = {}
        for x, c in poly.terms.items():
            if rng.random() < 0.5:
                c, wrapped = ExtScalar.of(c), wrapped + 1
            terms[x] = c * scale
        comps[exps] = Polynomial(pi.nvars, terms)
    return MultiVectorField(pi.nvars, 2, comps), wrapped


def _drawn_bivectors(rng, poisson):
    """(field, whether it is built with rational-valued ExtScalars): random
    linear bivectors with Fraction and with field coefficients, and Poisson
    bivectors with ExtScalar coefficients, rational-valued ones and the
    same scaled by sqrt2 or 1 + sqrt3."""
    fields = [(_random_linear_bivector(rng, 3, random_fraction), False)
              for _ in range(80)]
    fields += [(_random_linear_bivector(rng, 3, _field_coefficient), False)
               for _ in range(60)]
    for pi in rng.sample(poisson, 30):
        field, wrapped = _retyped(pi, rng)
        fields.append((field, wrapped > 0))
        fields.append((_retyped(pi, rng, rng.choice([SQRT2, 1 + SQRT3]))[0],
                       False))
    return fields


#: floors on three outcomes: a ValueError, a pair from a Poisson bivector
#: given rational-valued ExtScalar coefficients, and a TypeError for an
#: irrational coefficient.  Over the seeds 1 to 40 one draw of
#: ``_drawn_bivectors`` gave 90 to 115, 23 to 29 and 29 to 40 of them,
#: so draws go on until every floor is met, at most PAIR_OF_DRAWS of
#: them; eleven seeds needed two.
VALUE_ERROR_FLOOR = 100
EXT_PAIRS_FLOOR = 20
IRRATIONAL_FLOOR = 25
PAIR_OF_DRAWS = 4


def test_pair_of_matches_the_schouten_route(rng):
    poisson = _standard_bivectors(rng)
    outcomes = Counter()

    def check(fields):
        for pi, ext_built in fields:
            got = _typed_result(pair_of, pi)
            if ext_built:
                # rational-valued ExtScalars leave every component on the
                # ints and its coefficients Fractions, so that pair_of
                # gives what the reference gives on the Fraction twin
                assert all(p.integer_form() is not None
                           for p in pi.components.values())
            assert got == _typed_result(ref.pair_of, pi)
            outcome = (got[0] if got[0] in (ValueError, TypeError)
                       else LinearPair)
            if outcome is LinearPair:
                # pair_of wraps its pair unchecked: it must be what the
                # validating constructor makes of the same fields
                pair = pair_of(pi)
                assert got == _typed_result(
                    lambda _: LinearPair(pair.k, pair.gram), pi)
            outcomes[outcome] += 1
            outcomes["ext pair"] += outcome is LinearPair and ext_built

    check((pi, False) for pi in poisson)
    assert outcomes[LinearPair] == len(poisson)
    # k = 0 with a mixed off-diagonal pair: M_01 - M_10 is an ExtScalar 0
    check([(MultiVectorField(3, 2, {
        (0, 2): Polynomial(3, {(1, 0, 0): ExtScalar.of(-2)}),
        (1, 2): Polynomial(3, {(0, 1, 0): F(2)})}), True)])
    for _ in range(PAIR_OF_DRAWS):
        check(_drawn_bivectors(rng, poisson))
        if (outcomes[ValueError] >= VALUE_ERROR_FLOOR
                and outcomes["ext pair"] >= EXT_PAIRS_FLOOR
                and outcomes[TypeError] >= IRRATIONAL_FLOOR):
            break
    assert outcomes[ValueError] >= VALUE_ERROR_FLOOR
    assert outcomes["ext pair"] >= EXT_PAIRS_FLOOR
    assert outcomes[TypeError] >= IRRATIONAL_FLOOR


def test_pair_of_words_the_jacobiator_without_a_bracket(rng, monkeypatch):
    # [pi, pi] = 4 (A k).x d1^d2^d3 on R^3: pair_of words its error from
    # the sums of its Poisson test, and a Schouten bracket that raises
    # changes nothing
    from poisson_forge import linclass, multivec

    fields = [_random_linear_bivector(rng, 3, coefficient)
              for coefficient in (random_fraction, _field_coefficient)
              for _ in range(20)]
    fields += [_retyped(pi, rng, SQRT2)[0] for pi in fields[:10]]
    want = [_typed_result(ref.pair_of, pi) for pi in fields]

    def refuse(*args):
        raise RuntimeError("no bracket expected")

    monkeypatch.setattr(multivec, "schouten", refuse)
    # and under the name an import into linclass would bind
    monkeypatch.setattr(linclass, "schouten", refuse, raising=False)
    jacobiators = 0
    for pi, expected in zip(fields, want):
        got = _typed_result(pair_of, pi)
        assert got == expected
        jacobiators += "Jacobiator component (1,2,3)" in str(got[1])
    assert jacobiators >= 25


def _semidirect(rng, n, coefficient):
    """[e_0, e_i] = sum_j c_ji e_j on R^n: Poisson, and so is its
    curl-free part, the kernel of its modular character being the
    abelian ideal spanned by e_1, ..., e_(n-1)."""
    return MultiVectorField(n, 2, {(0, i): Polynomial(n, {
        tuple(int(m == j) for m in range(n)): coefficient(rng)
        for j in rng.sample(range(1, n), rng.randint(1, n - 1))})
        for i in range(1, n)})


def test_decompose_matches_the_schouten_route(rng):
    fields = _standard_bivectors(rng)
    for n in range(2, 9):
        # the Schouten route's wedge grows as n^6: fewer draws above R^5
        few = n > 5
        fields += [_random_linear_bivector(rng, n, random_fraction)
                   for _ in range(8 if few else 25)]
        fields += [_random_linear_bivector(rng, n, _field_coefficient)
                   for _ in range(4 if few else 15)]
        fields += [_semidirect(rng, n, coefficient)
                   for coefficient in (random_fraction, _field_coefficient)]
    fields += [_retyped(pi, rng, SQRT2)[0] for pi in rng.sample(fields, 20)]
    closed, commutes = set(), set()
    for pi in fields:
        got = _typed_result(decompose, pi)
        assert got == _typed_result(ref.decompose, pi)
        if pi.nvars >= 4:
            closed.add(got[2])
        commutes.add(got[3])
    assert closed == {True, False}
    assert commutes == {True, False}


def test_decompose_raises_as_the_schouten_route():
    x = {(1, 0, 0, 0): 1}
    cases = [
        MultiVectorField(3, 2, {(0, 1): Polynomial(3, {(2, 0, 0): 1})}),
        MultiVectorField(3, 2, {(0, 2): Polynomial(3, {(0, 0, 0): F(1, 2)})}),
        MultiVectorField(5, 2, {(1, 4): Polynomial(5, {(0, 1, 0, 0, 1): 1})}),
        MultiVectorField(4, 2, {(0, 1): Polynomial(4, x),
                                (2, 3): Polynomial(4, {(1, 1, 0, 0): SQRT3})}),
        MultiVectorField(1, 2),
        MultiVectorField(0, 2),
        MultiVectorField(3, 1, {(0,): Polynomial(3, {(1, 0, 0): 1})}),
        MultiVectorField(4, 3, {(0, 1, 2): Polynomial(4, x)}),
        MultiVectorField(2, 0, {(): Polynomial(2, {(1, 0): 1})}),
    ]
    for pi in cases:
        got = _typed_result(decompose, pi)
        assert got[0] is ValueError
        assert got == _typed_result(ref.decompose, pi)


def _perturbing(real, l, m):
    """``real`` with the entry (l, m) of the rows it returns moved by one."""
    def rows(gram, kform):
        den, out = real(gram, kform)
        out[l][m] += 1
        return den, out
    return rows


def test_pair_of_checks_its_round_trip_on_the_rows(monkeypatch):
    # pair_of compares the rows of the pair it read with the rows of the
    # bivector, cross-multiplied: a wrong entry anywhere must be caught
    pair = standard_pair(9, F(9, 4))
    pi = bivector_of(pair)
    assert pair_of(pi) == pair
    real = linclass._linear_rows
    for l, m in itertools.product(range(3), repeat=2):
        monkeypatch.setattr(linclass, "_linear_rows", _perturbing(real, l, m))
        with pytest.raises(ValueError,
                           match="^bivector is not of potential type$"):
            pair_of(pi)


def _same_rows(got, want):
    """(den, rows) and (d, M) hold the same values over their
    denominators: rows d = M den, entry by entry."""
    (den, rows), (d, m) = got, want
    assert len(rows) == len(m)
    for row, signed in zip(rows, m):
        assert len(row) == len(signed)
        assert all(u * d == v * den for u, v in zip(row, signed))


# ---------------------------------------------------------------------------
# deform_check and deform_rhs against the Schouten and matrix routes
# ---------------------------------------------------------------------------


def _random_field_twist(rng):
    """A traceless twist with Fraction entries and, half the time each,
    ExtScalar ones."""
    rows = [[random_ext_scalar(rng, True) for _ in range(3)] for _ in range(3)]
    rows[2][2] = -rows[0][0] - rows[1][1]
    return Matrix(rows)


def _random_quadratic_bivector(rng):
    comps = {}
    for exps in ((0, 1), (0, 2), (1, 2)):
        if rng.random() < 0.8:
            comps[exps] = Polynomial(3, {
                e: random_ext_scalar(rng, True)
                for e in rng.sample(QUAD_EXPONENTS, rng.randint(1, 6))})
    return MultiVectorField(3, 2, comps)


QUAD_EXPONENTS = [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1),
                  (0, 0, 2)]


def test_bracket_of_vector_fields_matches_the_schouten_bracket(rng):
    # [pi_X, pi_Y] = -(X.curl Y + Y.curl X) d1^d2^d3 on any linear and
    # quadratic bivectors, Poisson or not, with ExtScalar coefficients
    vanishing = 0
    for _ in range(150):
        lin = _random_linear_bivector(rng, 3, _field_coefficient)
        quad = _random_quadratic_bivector(rng)
        if rng.random() < 0.2:
            quad = MultiVectorField(3, 2, {})
        got = _brackets_to_zero(_signed_rows(lin)[1],
                                _signed_rows(quad, QUAD_MONOMIALS)[1])
        assert got == schouten(lin, quad).is_zero()
        vanishing += got
    assert vanishing >= 10


def _deformation_inputs(rng):
    """(lp, qp) pairs: kernel cubics of rational and field twists with
    Fraction or ExtScalar coefficients, solved cubics, and orbit pairs."""
    for _ in range(60):
        lp = transform_linear_pair(random_invertible(rng),
                                   standard_pair(rng.randint(1, 10)))
        twist = (_random_field_twist(rng) if rng.random() < 0.5
                 else random_traceless(rng).scaled(F(1, rng.randint(1, 3))))
        basis = cubic_kernel(twist).basis
        coeffs = [random_ext_scalar(rng, True) for _ in basis]
        cubic = cubic_from_coords([sum((c * b[i] for c, b in zip(coeffs, basis)),
                                       F(0)) for i in range(10)])
        yield lp, QuadraticPair(twist, cubic)
        yield from _solved_pairs(rng, lp, twist)
    for qp in _orbit_pairs(rng):
        lp = standard_pair(rng.randint(1, 10))
        yield lp, qp
        yield from _solved_pairs(rng, lp, qp.twist)


def _solved_pairs(rng, lp, twist):
    """The particular solved cubic, and a member off it by ExtScalar or
    Fraction steps along the basis."""
    space = solve_F(lp, twist)
    if space.is_empty:
        return
    yield lp, QuadraticPair(twist, cubic_from_coords(space.particular))
    steps = [random_ext_scalar(rng, True) for _ in space.basis]
    yield lp, QuadraticPair(twist, cubic_from_coords([
        p + sum((c * b[i] for c, b in zip(steps, space.basis)), F(0))
        for i, p in enumerate(space.particular)]))


def _verdict(check, lp, qp):
    try:
        return check(lp, qp)
    except Exception as exc:        # noqa: BLE001 - compared, not hidden
        return type(exc), str(exc)


def test_row_builders_match_the_signed_rows_of_the_bivectors(rng):
    # deform_check brackets the rows of the two builders and builds no
    # bivector: they must be the signed rows that _signed_rows reads off
    # bivector_of and pi_quad, up to the common scale
    counts = Counter()
    for lp, qp in _deformation_inputs(rng):
        scaled = transform_linear_pair(random_invertible(rng).scaled(
            F(1, rng.randint(2, 7))), lp)
        for pair in (lp, scaled):
            den, rows = _linear_rows(pair.gram, _scaled_row(pair.k))
            assert all(type(v) is int for row in rows for v in row)
            d, m, _ = _signed_rows(bivector_of(pair))
            _same_rows((den, rows), (d, m))
            counts["fractional k"] += any(v.denominator != 1 for v in pair.k)
        den, rows = _quad_sums(qp)
        d, m, rational = _signed_rows(pi_quad(qp), QUAD_MONOMIALS)
        _same_rows((den, rows), (d, m))
        if qp.twist._rational and qp.cubic._rational:
            assert all(type(v) is int for row in rows for v in row)
        counts["field"] += not rational
    assert counts["fractional k"] >= 20 and counts["field"] >= 20, counts


def test_deform_check_matches_the_schouten_route(rng):
    inputs = list(_deformation_inputs(rng))
    # a pair that skips QuadraticPair's invariance check, and two inputs
    # that are no pairs at all
    inputs.append((standard_pair(7), tuple.__new__(QuadraticPair, (
        Matrix.diagonal([1, 2, -3]), Polynomial(3, {(3, 0, 0): SQRT2})))))
    inputs.append((standard_pair(7), (Matrix.zero(3), Polynomial.zero(3))))
    inputs.append((None, QuadraticPair(Matrix.zero(3), Polynomial.zero(3))))
    verdicts = Counter()
    for lp, qp in inputs:
        got = _verdict(deform_check, lp, qp)
        assert got == _verdict(ref.deform_check, lp, qp)
        verdicts[got if isinstance(got, bool) else got[0]] += 1
        verdicts["field"] += (isinstance(qp, QuadraticPair)
                              and qp.twist.integer_form() is None)
    assert verdicts[True] >= 20 and verdicts[False] >= 20
    assert verdicts[AttributeError] == 2
    assert verdicts["field"] >= 20


def test_deform_rhs_matches_the_matrix_route(rng):
    twists = [_random_field_twist(rng) for _ in range(60)]
    twists += [random_traceless(rng).scaled(F(1, rng.randint(1, 3)))
               for _ in range(30)]
    # field-form twists whose ExtScalar entries are rational, or zero
    twists += [Matrix([[ExtScalar.of(1), 0, 0], [0, ExtScalar.of(-1), 0],
                       [0, 0, 0]]),
               Matrix([[1, ExtScalar.of(0), 0], [0, 2, 0], [0, 0, -3]])]
    for twist in twists:
        lp = transform_linear_pair(random_invertible(rng).scaled(
            F(1, rng.randint(1, 4))), standard_pair(rng.randint(1, 10)))
        got, want = deform_rhs(lp, twist), ref.deform_rhs(lp, twist)
        assert got._form == want._form and got._rational is want._rational
        assert {e: type(v) for e, v in got._form[1].items()} == \
            {e: type(v) for e, v in want._form[1].items()}
