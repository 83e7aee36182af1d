"""The verify sweep's matrix steps on int forms against the routes they
replaced.

``verify.random_invertible``, ``random_traceless`` and the draw of the
"symmetry membership agrees along two routes" item build their matrices
with ``Matrix._of_form`` on ints; ``linclass.transform_pair`` is one
congruence by the adjugate of T's numerators; ``linclass._aut_closed_form``
cross-multiplies each automorphism group's description on (D, M);
``verify.random_kernel_cubic`` sums on the kernel numerators.  The
oracles are the Fraction generators below and ``normal_form_reference``'s
``transform_pair`` and ``aut_closed_form``: on seeded inputs both sides
must give the same matrices, cubics and rng states, the same pairs in
form and entry types, the same verdicts and the same errors.  The
rational maps (D > 1) and the pairs come from the shared generators of
``conftest``.  A pass builds its fixed tables once: the caches of
``enumerate_orbit_pairs`` and ``der0_space`` are bounded, hold what a
fresh call computes, and keep no error and no value off the catalog;
``Polynomial.terms`` is read-only, so no reader can change them.  A
``P2Point`` of three ints divides each as one Fraction; the oracle is the
``as_scalar`` and ``scalar_div`` route every input took before, which
must give the same coordinates in value and type, and the same errors in
type, message and order.
"""

import itertools
import random
from fractions import Fraction as F

import pytest

import normal_form_reference as ref
from conftest import SWEEP_FAMILIES, random_pairs, random_rational_invertible
from poisson_forge import verify
from poisson_forge.exactnum import (
    SQRT2,
    SQRT3,
    ExtScalar,
    Matrix,
    Polynomial,
    as_scalar,
    scalar_div,
)
from poisson_forge.linclass import (
    STANDARD_PAIRS,
    _aut_closed_form,
    aut_member,
    der0_space,
    standard_pair,
    transform_pair,
)
from poisson_forge.quaddef import (
    OTHER,
    JordanFamily,
    P2Point,
    cubic_from_coords,
    cubic_kernel,
    enumerate_orbit_pairs,
    jordan_family_of,
)

# ---------------------------------------------------------------------------
# the generators: same draws, same matrices
# ---------------------------------------------------------------------------


def _fraction_invertible(rng):
    while True:
        m = Matrix([[F(rng.randint(-4, 4)) for _ in range(3)]
                    for _ in range(3)])
        if m.det() != 0:
            return m


def _fraction_traceless(rng, lo=-4, hi=4):
    rows = [[F(rng.randint(lo, hi)) for _ in range(3)] for _ in range(3)]
    rows[2][2] = -rows[0][0] - rows[1][1]
    return Matrix(rows)


def _fraction_sparse_invertible(rng):
    density = rng.choice([1.0, 0.7, 0.4])
    m = Matrix([[F(rng.randint(-3, 3)) if rng.random() < density else F(0)
                 for _ in range(3)] for _ in range(3)])
    return None if m.det() == 0 else m


def _same_matrix(got, want):
    assert got._form == want._form and got._rational is want._rational
    assert got.rows == want.rows
    assert all(type(v) is F for row in got.rows for v in row)


def test_generators_draw_the_fraction_matrices_from_the_same_stream():
    """For seeds 0-199 the int generators give the matrices the Fraction
    ones gave, in the same entry types, and leave the rng where those
    left it."""
    singular = 0
    for seed in range(200):
        new, old = random.Random(seed), random.Random(seed)
        lo, hi = -(seed % 5), seed % 7
        for _ in range(3):
            _same_matrix(verify.random_invertible(new),
                         _fraction_invertible(old))
        _same_matrix(verify.random_traceless(new), _fraction_traceless(old))
        _same_matrix(verify.random_traceless(new, lo, hi),
                     _fraction_traceless(old, lo, hi))
        for _ in range(10):
            got = verify._random_sparse_invertible(new)
            want = _fraction_sparse_invertible(old)
            assert (got is None) == (want is None)
            if got is None:
                singular += 1
            else:
                _same_matrix(got, want)
        assert new.getstate() == old.getstate()
    assert singular >= 20


def test_the_membership_item_draws_as_the_fraction_loop_did(monkeypatch, rng):
    """The item hands aut_member the matrices of the Fraction loop, known
    members first, and leaves the rng where that loop left it."""
    seen, want = [], []
    monkeypatch.setattr(verify, "aut_member",
                        lambda t, case: seen.append((case, t)) or True)
    old = random.Random()
    old.setstate(rng.getstate())
    verify._check_aut_two_routes(None, rng)
    for case in range(1, 11):
        want.append((case, verify._AUT_SAMPLES[case]))
        for _ in range(100):
            m = _fraction_sparse_invertible(old)
            if m is not None:
                want.append((case, m))
    assert len(seen) == len(want) > 500
    for (case, got), (want_case, m) in zip(seen, want):
        assert case == want_case
        _same_matrix(got, m)
    assert rng.getstate() == old.getstate()


def _fraction_kernel_cubic(rng, twist):
    """The Fraction-sum route of ``random_kernel_cubic``."""
    ker = cubic_kernel(twist)
    coeffs = [F(rng.randint(-3, 3)) for _ in ker.basis]
    coords = tuple(
        sum((c * b[i] for c, b in zip(coeffs, ker.basis)), F(0))
        for i in range(10)
    )
    return cubic_from_coords(coords)


def _typed_terms(p):
    return {e: (type(c), c) for e, c in p.terms.items()}


def _kernel_twists(rng):
    """Traceless twists with kernels of dimension 1 to 10: int and rational
    draws, conjugated repeated-eigenvalue and nilpotent twists, the zero
    twist, the transported twists of the sweep's families (ExtScalar
    entries), and draws and twists with rational, irrational and zero
    ExtScalars."""
    twists = [verify.random_traceless(rng) for _ in range(60)]
    for _ in range(40):
        rows = [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)]
                for _ in range(3)]
        rows[2][2] = -rows[0][0] - rows[1][1]
        twists.append(Matrix(rows))
    for _ in range(30):
        rows = [[rng.choice([0, F(rng.randint(-3, 3), 2),
                             ExtScalar.of(rng.randint(-2, 2)),
                             ExtScalar.parts(rng.randint(-2, 2),
                                             rng.randint(-1, 1), 0, 1)])
                 for _ in range(3)] for _ in range(3)]
        rows[2][2] = -rows[0][0] - rows[1][1]
        twists.append(Matrix(rows))
    shapes = [Matrix.diagonal([1, 1, -2]),
              Matrix.diagonal([F(-7, 3), F(-7, 3), F(14, 3)]),
              Matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]]),
              Matrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]])]
    for shape in shapes:
        twists.append(shape)
        for _ in range(10):
            t = random_rational_invertible(rng)
            twists.append(t * shape * t.inverse())
    twists.append(Matrix.zero(3))
    for family in SWEEP_FAMILIES:
        twists += [orbit.twist for orbit in enumerate_orbit_pairs(family)]
    twists += [Matrix.diagonal([SQRT2, SQRT3, -SQRT2 - SQRT3]),
               Matrix([[ExtScalar.of(1), 1, 0], [0, 2, 0], [0, 0, -3]]),
               Matrix([[1, ExtScalar.of(0), 0], [0, 1, 0], [0, 0, -2]]),
               Matrix([[0, SQRT2, 0], [0, 0, 1], [0, 0, 0]])]
    return twists


def test_random_kernel_cubic_sums_as_the_fraction_route(rng):
    """On the kernel numerators, three draws per twist give the cubic of
    the Fraction sums, in value, form and coefficient types, and leave
    the rng where that route left it."""
    twists = _kernel_twists(rng)
    dims, rational = set(), set()
    for twist in twists:
        seed = rng.randrange(2 ** 32)
        new, old = random.Random(seed), random.Random(seed)
        for _ in range(3):
            got = verify.random_kernel_cubic(new, twist)
            want = _fraction_kernel_cubic(old, twist)
            assert got == want
            assert got._form == want._form
            assert got._rational is want._rational
            assert _typed_terms(got) == _typed_terms(want)
            assert new.getstate() == old.getstate()
            rational.add(got._rational)
        dims.add(cubic_kernel(twist).dim)
    assert len(twists) >= 200
    assert {1, 2, 3, 10} <= dims
    assert rational == {True, False}


# ---------------------------------------------------------------------------
# transform_pair: the adjugate congruence against the inverse route
# ---------------------------------------------------------------------------


def _outcome(t, pair, transform):
    try:
        got = transform(t, pair)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)
    return (got.k, [type(v) for v in got.k], got.gram._form,
            got.gram._rational, [type(v) for row in got.gram.rows for v in row])


def _rational_maps(rng, count):
    """``count`` draws of ``random_rational_invertible`` whose form has a
    denominator D > 1."""
    maps = []
    while len(maps) < count:
        m = random_rational_invertible(rng)
        if m._form[0] > 1:
            maps.append(m)
    return maps


def test_transform_pair_matches_the_inverse_route(rng):
    """Int, rational (D > 1), int-typed and rational-valued ExtScalar maps
    give the same k, the same Gram form and Fraction entries."""
    maps = [verify.random_invertible(rng) for _ in range(40)]
    maps += _rational_maps(rng, 40)
    maps.append(Matrix._trusted([[1, 2, 0], [0, 1, 1], [1, 0, 3]]))
    maps += [Matrix._trusted([[ExtScalar.of(v) for v in row] for row in t.rows])
             for t in maps[35:45]]
    pairs = list(STANDARD_PAIRS.values()) + random_pairs(rng, 30)
    for t in maps:
        for pair in rng.sample(pairs, 6):
            got = _outcome(t, pair, transform_pair)
            assert got == _outcome(t, pair, ref.transform_pair)
            assert got[1] == [F] * 3 and got[3] is True
            assert set(got[4]) == {F}


def test_transform_pair_raises_as_the_inverse_route():
    pair = standard_pair(8, 2)
    singular = Matrix([[1, 2, 3], [2, 4, 6], [F(1, 2), 0, 1]])
    singular_ext = Matrix._trusted([[ExtScalar.of(v) for v in row]
                                    for row in singular.rows])
    invertible = (ValueError, "transformation must be invertible")
    irrational = (TypeError, "expected a rational value, got sqrt2")
    two_by_two = (ValueError, "det is implemented for 3x3, not 2x2")
    cases = [
        (Matrix.zero(3), invertible),
        (singular, invertible),
        (singular_ext, invertible),
        (Matrix([[1, 2], [2, 4]]), two_by_two),
        (Matrix([[1, 2], [3, 4]]), two_by_two),
        (Matrix([[2]]), (ValueError, "det is implemented for 3x3, not 1x1")),
        (Matrix.identity(4), (ValueError, "det is implemented for 3x3, not 4x4")),
        (Matrix.diagonal([SQRT2, 1, 1]), irrational),
        (Matrix([[SQRT2, 0], [0, 1]]), irrational),
        (singular.scaled(SQRT2), irrational),
    ]
    # rational-valued ExtScalars give the rational kind: singular's form
    assert singular_ext._rational and singular_ext._form == singular._form
    assert not singular.scaled(SQRT2)._rational
    for t, error in cases:
        assert _outcome(t, pair, transform_pair) == error
        assert _outcome(t, pair, ref.transform_pair) == error


# ---------------------------------------------------------------------------
# the closed-form automorphism test on (D, M) against the rows
# ---------------------------------------------------------------------------


#: legs and hypotenuse: a^2 + b^2 = c^2
PYTHAGOREAN = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (20, 21, 29))


def _signed_permutations():
    out = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1, -1), repeat=3):
            cells = [0] * 9
            for r, c in enumerate(perm):
                cells[3 * r + c] = signs[r]
            out.append(Matrix._of_form(3, 1, cells))
    return out


def _built_members(rng):
    """Matrices of the groups' own shapes: rotations and reflections about
    e3 (scaled, with a free bottom row), rotations about e2, boosts,
    hyperbolic blocks, shears fixing e3 and lower-triangular blocks of
    matching corner."""
    out = []
    for a, b, c in PYTHAGOREAN:
        bottom = [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(2)]
        s = F(rng.randint(1, 4), rng.randint(1, 3))
        for sign in (1, -1):
            block = [[F(a, c), F(-b, c) * sign], [F(b, c), F(a, c) * sign]]
            for scale, corner in ((1, 1), (s, 1), (s, sign),
                                  (s, F(rng.randint(2, 5)))):
                out.append(Matrix([[scale * v for v in block[0]] + [0],
                                   [scale * v for v in block[1]] + [0],
                                   bottom + [corner]]))
        out.append(Matrix([[F(a, c), 0, F(-b, c)], [0, 1, 0],
                           [F(b, c), 0, F(a, c)]]))
        out.append(Matrix([[F(c, b), 0, F(a, b)], [0, 1, 0],
                           [F(a, b), 0, F(c, b)]]))
        x, y = F(c, a), F(b, a)
        for lam in (1, -1):
            out.append(Matrix([[lam * x, y, 0], [lam * y, x, 0],
                               bottom + [lam]]))
        out.append(Matrix([[y, 0, 0], [s, y, 0], bottom + [1]]))
        lower = [[F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(2)]
                 for _ in range(2)]
        corner = lower[0][0] * lower[1][1] - lower[0][1] * lower[1][0]
        if corner:
            out.append(Matrix([[corner, 0, 0], [bottom[0]] + lower[0],
                               [bottom[1]] + lower[1]]))
    return out


def _perturbed(rng, m):
    cells = list(m.rows[0] + m.rows[1] + m.rows[2])
    cells[rng.randrange(9)] += rng.choice([-1, 1, F(1, 2)])
    return Matrix([cells[0:3], cells[3:6], cells[6:9]])


def _aut_inputs(rng):
    ints = [verify._random_sparse_invertible(rng) for _ in range(400)]
    fixing = []
    for _ in range(150):
        top = [F(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))
               for _ in range(4)]
        bottom = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(2)]
        corner = rng.choice([1, 1, 1, -1, F(rng.randint(-4, 4) or 1, 2)])
        fixing.append(Matrix([top[0:2] + [0], top[2:4] + [0],
                              bottom + [corner]]))
    members = (_signed_permutations() + _built_members(rng)
               + list(verify._AUT_SAMPLES.values()))
    rational = _rational_maps(rng, 100)
    out = [m for m in ints + fixing + members + rational if m is not None]
    out += [_perturbed(rng, m) for m in members + fixing[:50]]
    return [m for m in out if m.det()]


def test_aut_closed_form_on_the_forms_matches_the_rows(rng):
    """Every case of the closed form gives the row route's verdict, a
    bool, on int and rational (D > 1) matrices, on matrices that fix e3,
    on built members and on their perturbations; cases 2-10 see both
    verdicts, and case 1, the whole of GL(3), only True."""
    inputs = _aut_inputs(rng)
    verdicts = {case: set() for case in range(1, 11)}
    for t in inputs:
        for case in range(1, 11):
            got = _aut_closed_form(t, case)
            assert type(got) is bool
            assert got == ref.aut_closed_form(t, case), (case, t)
            assert aut_member(t, case) == got
            verdicts[case].add(got)
    assert sum(t._form[0] > 1 for t in inputs) >= 100
    assert verdicts[1] == {True}
    for case in range(2, 11):
        assert verdicts[case] == {True, False}, case


# ---------------------------------------------------------------------------
# the sweep's fixed tables: one transport per family, one solve per case
# ---------------------------------------------------------------------------


def test_a_pass_transports_each_family_and_solves_each_case_once():
    enumerate_orbit_pairs.cache_clear()
    der0_space.cache_clear()
    assert all(item.passed for item in verify.run_verification())
    families, cases = enumerate_orbit_pairs.cache_info(), der0_space.cache_info()
    assert (families.misses, families.currsize) == (5, 5)
    assert (cases.misses, cases.currsize) == (10, 10)
    assert families.hits > 0 and cases.hits > 0


def test_the_tables_are_bounded_and_equal_a_fresh_solve():
    """The caches hold a pass's five families and ten cases, and no more
    than a fixed number; each entry is what a fresh call computes, in
    value, form and entry types."""
    assert 5 <= enumerate_orbit_pairs.cache_info().maxsize <= 64
    assert 10 <= der0_space.cache_info().maxsize <= 64
    for family in SWEEP_FAMILIES:
        cached = enumerate_orbit_pairs(family)
        assert enumerate_orbit_pairs(family) is cached
        fresh = enumerate_orbit_pairs.__wrapped__(family)
        assert cached == fresh
        for got, want in zip(cached, fresh):
            assert got.rep == want.rep
            assert got.twist._form == want.twist._form
            assert [type(v) for v in got.twist._form[1]] == [
                type(v) for v in want.twist._form[1]]
            assert [_typed_terms(c) for c in got.cubics] == [
                _typed_terms(c) for c in want.cubics]
    for case in range(1, 11):
        cached = der0_space(case)
        assert der0_space(case) is cached
        fresh = der0_space.__wrapped__(case)
        assert cached == fresh
        assert [[type(v) for v in b] for b in cached.basis] == [
            [type(v) for v in b] for b in fresh.basis]


def test_values_off_the_tables_raise_with_the_tables_filled():
    der0_space(1)
    der0_space(8)
    # True == 1 and 8.0 == 8, but neither is a case id
    for case_id in (True, 8.0, 0, 11):
        with pytest.raises(ValueError, match=r"^case_id must be 1\.\.10$"):
            der0_space(case_id)
    other = jordan_family_of(Matrix([[0, -1, 0], [1, 0, 0], [0, 0, 0]]))
    assert other.tag == OTHER
    # a report given as lists is kept as tuples, so the family is a key
    listed = JordanFamily(OTHER, (), [list(z) for z in other.eigen_report])
    assert listed == other
    before = enumerate_orbit_pairs.cache_info()
    for family in (other, other, listed):
        with pytest.raises(ValueError, match="no normal-form matrix"):
            enumerate_orbit_pairs(family)
    after = enumerate_orbit_pairs.cache_info()
    # each call ran and raised, and no entry was kept for it
    assert after.misses == before.misses + 3
    assert after.currsize == before.currsize
    # a plain tuple equal to a cached family is not a family
    family = SWEEP_FAMILIES[0]
    enumerate_orbit_pairs(family)
    with pytest.raises(AttributeError):
        enumerate_orbit_pairs(tuple(family))


def test_terms_are_read_only_and_keep_the_cached_orbit_data():
    family = JordanFamily.diag_repeated(1)

    def typed_cubics(pairs):
        return [[_typed_terms(c) for c in of.cubics] for of in pairs]

    before = typed_cubics(enumerate_orbit_pairs(family))
    cubics = [c for of in enumerate_orbit_pairs(family) for c in of.cubics]
    # a transported cubic on ExtScalars, whose terms are its form's values
    assert any(not c._rational for c in cubics)
    for c in cubics + [Polynomial.variable(3, 0)]:
        exps = next(iter(c.terms))
        with pytest.raises(TypeError):
            c.terms[exps] = F(7)
        with pytest.raises(TypeError):
            del c.terms[exps]
    assert typed_cubics(enumerate_orbit_pairs(family)) == before
    assert typed_cubics(enumerate_orbit_pairs.__wrapped__(family)) == before


# ---------------------------------------------------------------------------
# projective points: one Fraction per int coordinate
# ---------------------------------------------------------------------------


def _p2_by_scalars(coords):
    """The coordinates of ``P2Point(coords)`` as every input was read
    before three ints divided as one Fraction each."""
    coords = tuple(as_scalar(v) for v in coords)
    if len(coords) != 3:
        raise ValueError("projective points live on three coordinates")
    last = next((i for i in (2, 1, 0) if coords[i]), None)
    if last is None:
        raise ValueError("projective point needs a nonzero coordinate")
    return tuple(scalar_div(v, coords[last]) for v in coords)


def _point_outcome(build, coords):
    """(typed coordinates) or (error type, message) of ``build``."""
    try:
        return [(type(v), v) for v in build(coords)]
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def test_p2_point_on_ints_matches_the_scalar_route(rng):
    # every int point in [-2, 2]^3: negative pivots, zeros in each slot
    # and the zero point; then large ones
    points = list(itertools.product(range(-2, 3), repeat=3))
    points += [tuple(rng.randint(-10 ** 9, 10 ** 9) for _ in range(3))
               for _ in range(40)]
    mixed = [(True, 0, 2), (0, False, True), (False, False, False),
             (F(1, 2), 3, -4), (F(0), F(0), F(-3, 7)), (SQRT2, 0, 2),
             (1, SQRT3, F(2, 3)), (ExtScalar.of(2), 0, 0),
             (SQRT2 - SQRT2, 0, 0)]
    bad = [(1, 2), (1, 2, 3, 4), (0, 0, 0, 0), (), (1.0, 0, 1),
           (0, 0, 0.0), ("x", 1, 1), (1, 2, "x", 4), (0.5, 1),
           (0, 0, 0, "x")]
    outcomes = set()
    for coords in points + mixed + bad:
        want = _point_outcome(_p2_by_scalars, coords)
        for given in (coords, list(coords), iter(coords)):
            got = _point_outcome(lambda c: P2Point(c).coords, given)
            assert got == want, coords
        outcomes.add(want[0] if isinstance(want, tuple) else "point")
    assert outcomes == {"point", TypeError, ValueError}
    assert P2Point((3, 0, -5)) == P2Point((F(3), F(0), F(-5)))
