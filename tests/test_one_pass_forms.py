"""pi_quad, deform_check and classify against the bodies they replaced.

``quaddef.pi_quad`` sums each component of pi_F + (1/3) I^ ^ Kx in one
pass over the forms of F and K, ``quaddef.deform_check`` sums k.grad F
over F's own terms instead of applying the 6x10 drift matrix, and
``linclass.classify`` reads the signs, |d|, the rescaling and a^2 off
the ints of the diagonal d.  ``form_reference`` (``pi_quad_by_parts``,
``deform_check_on_drift_rows``) and ``normal_form_reference``
(``classify_on_fractions``) keep the bodies they had before.  On seeded
inputs -- conjugates of all ten cases, cases 8 and 9 at several moduli,
rank-deficient Gram matrices, catalog twists on ExtScalars, entries that
are rational-valued ExtScalars, and components whose terms cancel --
both must give the same values, forms (D, T), entry types and rational
flags, the same verdicts and witnesses, and errors of the same type and
message.

``QuadraticPair`` tests D_K F = 0 on slot sums over the numerators of
K and F, and ``cubic_from_coords`` builds its cubic on the form: the
first must accept exactly when ``apply_matrix_derivation(K, F)`` is
zero and word a refusal with that residual, and the second must give
what the validating ``Polynomial`` constructor gives, in value, form
and rational flag, or raise as it raises.
"""

from collections import Counter
from fractions import Fraction as F

import form_reference as ref
import normal_form_reference as nf_ref
from conftest import (
    moduli_pairs,
    random_ext_scalar,
    random_fraction,
    random_pairs,
    random_rational_invertible,
    typed_components,
)
from poisson_forge.exactnum import (SQRT2, SQRT3, ExtScalar, Matrix, Polynomial,
                                    apply_matrix_derivation)
from poisson_forge.linclass import (
    LinearPair,
    classify,
    standard_pair,
    transform_pair,
)
from poisson_forge import quaddef
from poisson_forge.quaddef import (
    CUBIC_MONOMIALS,
    JordanFamily,
    QuadraticPair,
    _brackets_to_zero as brackets_to_zero,
    _drift_rows,
    catalog,
    cubic_from_coords,
    cubic_kernel,
    deform_check,
    enumerate_orbit_pairs,
    pi_quad,
    solution_polys,
    solve_F,
)
from poisson_forge.verify import random_kernel_cubic, random_traceless

#: the complement (i, j) of each l, and the sign of dF/dx_l on it
_COMPONENTS = (((1, 2), 1), ((0, 2), -1), ((0, 1), 1))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:        # noqa: BLE001 - compared, not hidden
        return type(exc), str(exc)


def _unchecked_pair(twist, cubic):
    """A pair that skips QuadraticPair's invariance check."""
    return tuple.__new__(QuadraticPair, (twist, cubic))


def _field_twist(rng):
    """Traceless, with Fraction entries and, half the time each, ExtScalar
    ones."""
    rows = [[random_ext_scalar(rng, True) for _ in range(3)] for _ in range(3)]
    rows[2][2] = -rows[0][0] - rows[1][1]
    return Matrix(rows)


def _twists(rng):
    """Rational, field and catalog twists, twists whose ExtScalar entries
    are rational-valued or cancel on the diagonal, and the zero twist."""
    twists = [random_traceless(rng).scaled(F(1, rng.randint(1, 5)))
              for _ in range(25)]
    twists += [_field_twist(rng) for _ in range(25)]
    for family in (JordanFamily.diag_distinct(1, 2, -3),
                   JordanFamily.diag_repeated(F(3, 2)),
                   JordanFamily.nilpotent_full()):
        twists += [orbit.twist for orbit in enumerate_orbit_pairs(family)]
    one = ExtScalar.of(1)
    twists += [
        Matrix([[one, 0, 0], [0, ExtScalar.of(-1), 0], [0, 0, 0]]),
        Matrix([[ExtScalar.of(F(1, 2)), 1, 0], [0, F(-1, 2), 0],
                [0, 0, ExtScalar.of(0)]]),
        # K_00 = K_11: the x y entry of the (0, 1) twist cancels
        Matrix.diagonal([one, one, -2]),
        Matrix.diagonal([SQRT2, SQRT2, SQRT2 * -2]),
        Matrix([[SQRT3, 1, 0], [2, SQRT3, 0], [0, 0, SQRT3 * -2]]),
        Matrix.zero(3),
    ]
    return twists


def _cancelling_cubic(rng, twist):
    """A cubic whose partials cancel some coefficients of pi_quad's twist
    part: c x^(q + u_l) with s_l (q_l + 1) c = -v for an entry v x^q of
    the component on the complement of l.  It need not be invariant."""
    part = ref.pi_quad_by_parts(_unchecked_pair(twist, Polynomial.zero(3)))
    terms = {}
    for l, (comp, s) in enumerate(_COMPONENTS):
        poly = part.components.get(comp)
        for q, v in (poly.terms.items() if poly is not None else ()):
            if rng.random() < 0.6:
                e = tuple(x + (r == l) for r, x in enumerate(q))
                terms[e] = terms.get(e, F(0)) - v / (s * e[l])
    return Polynomial(3, terms)


def _quadratic_pairs(rng, twist):
    """Kernel cubics (one scaled by a rational-valued ExtScalar), one on
    ExtScalar or Fraction steps along the kernel basis, the zero cubic, and
    cancelling cubics that skip the invariance check."""
    cubic = random_kernel_cubic(rng, twist)
    yield QuadraticPair(twist, cubic)
    yield QuadraticPair(twist, cubic * ExtScalar.of(F(rng.randint(1, 5), 3)))
    basis = cubic_kernel(twist).basis
    steps = [random_ext_scalar(rng, True) for _ in basis]
    yield QuadraticPair(twist, cubic_from_coords([
        sum((c * b[i] for c, b in zip(steps, basis)), F(0))
        for i in range(10)]))
    yield QuadraticPair(twist, Polynomial.zero(3))
    yield _unchecked_pair(twist, _cancelling_cubic(rng, twist))
    yield _unchecked_pair(twist, _cancelling_cubic(rng, twist) + cubic)


def _linear_pairs(rng):
    """Conjugates of all ten cases, their negated Gram matrices, pairs with
    A = 0, and cases 8 and 9 at several moduli, as given and conjugated."""
    pairs = random_pairs(rng, 40) + moduli_pairs()
    pairs += [transform_pair(random_rational_invertible(rng), pair)
              for pair in moduli_pairs()]
    return pairs


def _catalog_pairs(rng):
    """The solved cubics of the catalog of one family, on ExtScalars."""
    family = JordanFamily.diag_distinct(1, 2, -3)
    for case in (7, 8, 10):
        for entry in catalog(case, family):
            if entry.solution.is_empty:
                continue
            particular, basis = solution_polys(entry.solution)
            yield case, QuadraticPair(entry.twist, particular)
            if basis:
                step = random_ext_scalar(rng, True)
                yield case, QuadraticPair(entry.twist,
                                          particular + basis[0] * step)


def test_pi_quad_matches_the_sum_of_the_two_bivectors(rng):
    kinds = Counter()
    for twist in _twists(rng):
        for qp in _quadratic_pairs(rng, twist):
            got, want = pi_quad(qp), ref.pi_quad_by_parts(qp)
            assert got == want
            assert typed_components(got) == typed_components(want)
            for poly in got.components.values():
                kinds[poly._rational] += 1
                kinds["ext"] += any(type(v) is ExtScalar
                                    for v in poly._form[1].values())
            kinds["empty"] += not got.components
            kinds["partial"] += 0 < len(got.components) < 3
    for _, qp in _catalog_pairs(rng):
        got, want = pi_quad(qp), ref.pi_quad_by_parts(qp)
        assert typed_components(got) == typed_components(want)
    assert kinds[True] >= 100 and kinds[False] >= 100 and kinds["ext"] >= 100
    assert kinds["empty"] >= 2 and kinds["partial"] >= 5, kinds


def test_pi_quad_keeps_the_type_of_a_cancelled_twist_entry():
    # the twist part of the (0, 1) component cancels at x y, in ExtScalars;
    # f's Fraction at x y z then stands alone, as in the sum of bivectors,
    # and the component goes back on ints
    one = ExtScalar.of(1)
    qp = QuadraticPair(Matrix.diagonal([one, one, -2]),
                       Polynomial(3, {(1, 1, 1): F(1, 2)}))
    got = pi_quad(qp).components[(0, 1)]
    assert got._rational and got._form == (2, {(1, 1, 0): 1})
    assert typed_components(pi_quad(qp)) == typed_components(
        ref.pi_quad_by_parts(qp))


def test_deform_check_matches_the_drift_rows(rng):
    verdicts = Counter()
    linear = _linear_pairs(rng)
    inputs = []
    for twist in _twists(rng):
        lp = rng.choice(linear)
        inputs += [(lp, qp) for qp in _quadratic_pairs(rng, twist)]
        for lp in (lp, rng.choice(linear)):
            space = solve_F(lp, twist)
            if space.is_empty:
                continue
            steps = [random_ext_scalar(rng, True) for _ in space.basis]
            for member in (space.particular, [
                    p + sum((c * b[i] for c, b in zip(steps, space.basis)), F(0))
                    for i, p in enumerate(space.particular)]):
                inputs.append((lp, QuadraticPair(twist, cubic_from_coords(member))))
    inputs += [(LinearPair((0, 0, 1), Matrix.diagonal([1, 1, 0])), qp)
               for _, qp in _catalog_pairs(rng)]
    inputs += [(standard_pair(case), qp) for case, qp in _catalog_pairs(rng)]
    # no pair at all, on either side
    inputs.append((linear[0], (Matrix.zero(3), Polynomial.zero(3))))
    inputs.append((None, QuadraticPair(Matrix.zero(3), Polynomial.zero(3))))
    for lp, qp in inputs:
        got = _outcome(deform_check, lp, qp)
        assert got == _outcome(ref.deform_check_on_drift_rows, lp, qp)
        verdicts[got if isinstance(got, bool) else got[0]] += 1
    assert verdicts[True] >= 30 and verdicts[False] >= 100, verdicts
    assert verdicts[AttributeError] == 2, verdicts


def test_deform_check_raises_as_the_drift_rows_do_on_disagreeing_routes(
        rng, monkeypatch):
    # route one negated: every verdict becomes a disagreement
    monkeypatch.setattr(quaddef, "_brackets_to_zero",
                        lambda x, y: not brackets_to_zero(x, y))
    linear, messages = _linear_pairs(rng), Counter()
    for twist in _twists(rng)[::4]:
        for qp in _quadratic_pairs(rng, twist):
            lp = rng.choice(linear)
            got = _outcome(deform_check, lp, qp)
            assert got == _outcome(ref.deform_check_on_drift_rows, lp, qp)
            assert got[0] is AssertionError
            messages[got[1]] += 1
    assert len(messages) == 2, messages


def test_drift_rows_keep_their_entries(rng):
    for _ in range(200):
        k = [rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(3)]
        assert _drift_rows(k) == ref.drift_rows(k)
        assert all(type(v) is int for row in _drift_rows(k) for v in row)


def _same_classification(pair):
    got = _outcome(classify, pair)
    want = _outcome(nf_ref.classify_on_fractions, pair)
    if not isinstance(want[0], tuple):
        assert got == want
        return got[0]
    (label, witness), (want_label, want_witness) = got, want
    assert label == want_label and witness == want_witness
    assert type(label.a_squared) is type(want_label.a_squared)
    assert witness.base._form == want_witness.base._form
    assert [type(v) for v in witness.scales] == [F] * 3
    return label.case_id


def test_classify_matches_the_fraction_tail(rng):
    pairs = _linear_pairs(rng) + random_pairs(rng, 200)
    # rank-deficient Gram matrices with k = 0 and with k != 0
    for _ in range(40):
        u = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)]
        v = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)]
        sign = rng.choice((1, -1))
        gram = Matrix([[a * b + sign * c * d for b, d in zip(u, v)]
                       for a, c in zip(u, v)])
        pairs.append(LinearPair((0, 0, 0), gram))
        w = [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
             u[0] * v[1] - u[1] * v[0]]
        if any(w):
            pairs.append(LinearPair(tuple(w), gram))
    # incompatible pairs that skip LinearPair's check
    pairs += [tuple.__new__(LinearPair, ((0, 0, 1), Matrix.identity(3))),
              tuple.__new__(LinearPair, ((1, 0, 0), Matrix.diagonal([1, 1, 0])))]
    cases = Counter(_same_classification(pair) for pair in pairs)
    assert set(range(1, 11)) <= set(cases), cases
    assert cases[AssertionError] == 2, cases


def test_pair_invariance_matches_the_derivation_residual(rng):
    # a cubic plus a multiple of one monomial is invariant only when that
    # monomial's weight vanishes; a cancelling cubic need not be invariant
    verdicts = Counter()
    for twist in _twists(rng):
        kernel = random_kernel_cubic(rng, twist)
        cubics = [kernel, Polynomial.zero(3), kernel * SQRT2,
                  _cancelling_cubic(rng, twist)]
        cubics += [kernel + Polynomial(3, {
            rng.choice(CUBIC_MONOMIALS): random_ext_scalar(rng, True) or 1})
            for _ in range(4)]
        for cubic in cubics:
            residual = apply_matrix_derivation(twist, cubic)
            got = _outcome(QuadraticPair, twist, cubic)
            if residual.is_zero():
                assert type(got) is QuadraticPair and got == (twist, cubic)
            else:
                assert got == (ValueError, "cubic is not invariant under the "
                               "twist flow (derivation residual %s)" % residual)
            verdicts[twist._rational, residual.is_zero()] += 1
    assert min(verdicts.values()) >= 80 and len(verdicts) == 4, verdicts


def _coordinate(rng):
    """An int, a Fraction or an ExtScalar, rational-valued, irrational or
    zero, or a bool.  A rational-valued ExtScalar leaves the cubic on the
    ints; an irrational one, also drawn outright, gives the field kind."""
    q = random_fraction(rng)
    return rng.choice([0, F(0), ExtScalar.of(0), rng.randint(-5, 5), q, q,
                       ExtScalar.of(q), random_ext_scalar(rng, True),
                       q + rng.choice([SQRT2, SQRT3]), True])


def test_cubic_from_coords_matches_the_validating_constructor(rng):
    kinds = Counter()
    for _ in range(400):
        coords = [_coordinate(rng) for _ in range(10)]
        if rng.random() < 0.25:
            coords[rng.randrange(10)] = rng.choice([1.5, "1", None, 2j, [1]])
        got = _outcome(cubic_from_coords, coords)
        want = _outcome(Polynomial, 3, dict(zip(CUBIC_MONOMIALS, coords)))
        if isinstance(want, tuple):
            assert got == want
            kinds[want[0]] += 1
            continue
        assert got == want and got._rational == want._rational
        assert got._form[0] == want._form[0]
        assert ([(e, type(v), v) for e, v in got._form[1].items()]
                == [(e, type(v), v) for e, v in want._form[1].items()])
        kinds[got._rational] += 1
    assert kinds[TypeError] >= 60 and kinds[True] >= 25 and kinds[False] >= 150
    for coords in ([0] * 9, [F(1)] * 11, ()):
        assert _outcome(cubic_from_coords, coords) == (
            ValueError, "expected 10 cubic coefficients")
