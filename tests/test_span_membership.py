"""Solution spaces on the canonical shape, against elimination.

``solve_linear``, ``SolutionSpace.spanned_by``, ``quaddef._line_space``
and ``solve_F`` build every space on one canonical shape: each basis
vector is 1 on its free column, its last nonzero slot, and 0 on the
other free columns, the free columns rise, and the point is 0 on every
free column.  On that shape ``SolutionSpace.direction_in_span`` decides
d = sum_j d[f_j] b_j coordinate by coordinate and ``same_space``
compares the two records, with no elimination; a space built by hand
off the shape raises ValueError.  The oracle is ``linalg_reference``'s
elimination for a basis of any shape, and containment both ways for
equality: on the ten ``der0`` spaces, the ``solve_F`` and ``catalog``
spaces (rational, and on ExtScalars for the twists transported by a
rotation), the cubic kernels, ``span_of_cubics``, the spans of
reversed, rescaled, mixed and dependent bases, and the empty and
zero-dimensional spaces, both must give the same verdicts of
``direction_in_span``, ``contains`` and ``same_space``, on vectors
inside and outside the span, with Fraction and ExtScalar entries.

``spanned_by`` reduces the vectors it is given straight to the shape;
``linalg_reference.spanned_by`` keeps the route it replaced, one
elimination for the annihilator of the span, and the two records must
be equal in value and entry type, also with ``exactnum.solve_linear``
raising, on spans of every rank, with zero, duplicate and dependent
vectors, and on twelve dependent ExtScalar vectors in R^12.
"""

from collections import Counter
from fractions import Fraction as F

import pytest

import linalg_reference as ref
from conftest import random_ext_scalar
from poisson_forge import exactnum
from poisson_forge.exactnum import (
    SQRT2,
    ExtScalar,
    Polynomial,
    SolutionSpace,
    solve_linear,
)
from poisson_forge.linclass import der0_space, standard_pair
from poisson_forge.quaddef import (
    JordanFamily,
    catalog,
    cubic_coords,
    cubic_from_coords,
    cubic_kernel,
    enumerate_orbit_pairs,
    ktilde,
    solve_F,
    span_of_cubics,
)
from poisson_forge.verify import random_traceless

FAMILIES = (JordanFamily.diag_distinct(1, 2, -3),
            JordanFamily.diag_repeated(1),
            JordanFamily.nilpotent_full())


def _on_ext(space):
    return any(type(v) is ExtScalar
               for b in (space.particular,) + space.basis for v in b)


def _solved_spaces(rng):
    """The spaces the package solves, each once: the ``der0`` cases, the
    catalogs of every case over the three families and the rotation
    twist, ``solve_F`` on random twists, and the cubic kernels of the
    transported and random twists (the line of ``_line_space`` for a
    regular twist, the ``spanned_by`` span of its Jordan type's cubics
    otherwise)."""
    spaces = [der0_space(case) for case in range(1, 11)]
    twists = [of.twist for fam in FAMILIES for of in enumerate_orbit_pairs(fam)]
    twists += [random_traceless(rng) for _ in range(6)]
    for case in range(1, 11):
        for fam in FAMILIES:
            spaces += [entry.solution for entry in catalog(case, fam)]
        spaces += [solve_F(standard_pair(case), k) for k in twists[-3:]]
    spaces += [catalog(case, ktilde((0, 0, 1)))[0].solution
               for case in (2, 3)]
    spaces += [cubic_kernel(k) for k in twists]
    return list(dict.fromkeys(spaces))


def _combination(space, rng, irrational):
    """A random combination of the basis, with Fraction coefficients or,
    when ``irrational``, some ExtScalar ones."""
    d = [F(0)] * space.ambient_dim
    for b in space.basis:
        c = random_ext_scalar(rng, irrational)
        d = [x + c * y for x, y in zip(d, b)]
    return tuple(d)


def _directions(space, rng):
    """Directions in the span and moved off it in one coordinate, random
    ones, zero and the basis itself."""
    n = space.ambient_dim
    inside = [_combination(space, rng, irrational)
              for irrational in (False, True, True)]
    moved = []
    for d in inside:
        d = list(d)
        d[rng.randrange(n)] += rng.choice([F(1, 3), SQRT2, 1 + SQRT2])
        moved.append(tuple(d))
    noise = [tuple(random_ext_scalar(rng, irrational) for _ in range(n))
             for irrational in (False, True)]
    return inside + moved + noise + [(F(0),) * n] + list(space.basis)


def _agree(space, rng):
    """The package's and the oracle's verdicts on directions and points
    agree; their count."""
    verdicts = Counter()
    offset = (F(0),) * space.ambient_dim if space.is_empty else space.particular
    for d in _directions(space, rng):
        got = space.direction_in_span(d)
        assert got is ref.direction_in_span(space, d), (space, d)
        point = tuple(a + b for a, b in zip(offset, d))
        assert space.contains(point) is ref.contains(space, point), (
            space, point)
        verdicts[got] += 1
    return verdicts


def test_membership_matches_elimination_on_the_solved_spaces(rng):
    spaces = _solved_spaces(rng)
    nonempty = [s for s in spaces if not s.is_empty]
    for space in nonempty:
        space._free_columns()  # raises off the canonical shape
    assert any(_on_ext(s) and s.basis for s in nonempty)
    assert any(s.is_empty for s in spaces)
    assert any(not s.basis for s in nonempty)
    verdicts = Counter()
    for space in spaces:
        verdicts += _agree(space, rng)
    assert verdicts[True] > 100 and verdicts[False] > 100


def _variants(space, rng):
    """(point, basis) of the same space: the basis reversed, rescaled and
    mixed (b0 + b1 for b0), and the point moved by b0; bases of other
    spans: b0 dropped and b0 replaced by zero; and the point moved in
    one coordinate."""
    n, basis, p = space.ambient_dim, space.basis, space.particular
    scale = rng.choice([F(2), F(-1, 3), SQRT2])
    same = [(p, basis[::-1]),
            (p, tuple(tuple(scale * v for v in b) for b in basis)),
            (tuple(a + b for a, b in zip(p, basis[0])), basis)]
    if len(basis) > 1:
        same.append((p, (tuple(a + b for a, b in zip(basis[0], basis[1])),)
                     + basis[1:]))
    other = [basis[1:], ((F(0),) * n,) + basis[1:]]
    moved = tuple(a + b for a, b in zip(p, _directions(space, rng)[3]))
    return same, other, moved


def test_membership_matches_elimination_off_the_canonical_shape(rng):
    """The spaces of points and bases off the shape, built by
    ``spanned_by``, are the solved space itself or answer as the oracle
    does; the same spaces built by hand raise ValueError in the package
    and not in the oracle."""
    spaces = [s for s in _solved_spaces(rng) if not s.is_empty and s.basis]
    verdicts = Counter()
    for space in spaces:
        n, p = space.ambient_dim, space.particular
        same, other, moved = _variants(space, rng)
        for q, basis in same:
            variant = SolutionSpace.spanned_by(q, basis)
            assert variant == space
            verdicts += _agree(variant, rng)
            by_hand = SolutionSpace(n, q, basis)
            if by_hand != space:
                d = _directions(space, rng)[0]
                for call in (lambda: by_hand.direction_in_span(d),
                             lambda: by_hand.contains(q),
                             lambda: by_hand.same_space(space),
                             lambda: space.same_space(by_hand)):
                    with pytest.raises(ValueError, match="canonical shape"):
                        call()
            for a, b in ((space, by_hand), (by_hand, space)):
                assert ref.same_space(a, b) is True
        others = [SolutionSpace.spanned_by(p, basis) for basis in other]
        others.append(SolutionSpace.spanned_by(moved, space.basis))
        assert [o.dim for o in others] == [space.dim - 1] * 2 + [space.dim]
        for variant in others:
            verdicts += _agree(variant, rng)
            for a, b in ((space, variant), (variant, space)):
                assert a.same_space(b) is ref.same_space(a, b)
    assert verdicts[True] > 100 and verdicts[False] > 100


def test_span_of_cubics_matches_elimination(rng):
    verdicts = Counter()
    for size in (1, 2, 3, 4):
        for irrational in (False, True):
            cubics = [cubic_from_coords([random_ext_scalar(rng, irrational)
                                         for _ in range(10)])
                      for _ in range(size)]
            space = span_of_cubics(cubics)
            assert space.dim == size
            verdicts += _agree(space, rng)
            twin = span_of_cubics(cubics[::-1])
            assert space.same_space(twin) is ref.same_space(space, twin)
            assert twin == space
    assert verdicts[True] and verdicts[False]


def test_a_dependent_span_is_not_a_larger_space():
    """``dim`` is the rank: the span of X^3 and 2 X^3 is a line, so it is
    not the plane of X^3 and Y^3, in either order, for the package and
    the oracle; the same holds for a line in R^3 given by hand with the
    basis (e1, 2 e1), which the package refuses."""
    x, y = (Polynomial.variable(3, i) for i in range(2))
    line = span_of_cubics([x ** 3, 2 * x ** 3])
    x3, y3 = cubic_coords(x ** 3), cubic_coords(y ** 3)
    plane = solve_linear([[int(i == j) for j in range(10)]
                          for i in range(10) if not x3[i] and not y3[i]],
                         [0] * 8, 10)
    assert (line.dim, plane.dim) == (1, 2)
    assert plane.contains(x3) and plane.contains(y3)
    assert line == span_of_cubics([x ** 3])
    for a, b in ((line, plane), (plane, line)):
        assert a.same_space(b) is ref.same_space(a, b) is False
    zero, e1 = (F(0),) * 3, (F(1), F(0), F(0))
    solved = solve_linear([[0, 0, 1]], [0])
    by_hand = SolutionSpace(3, zero, (e1, (F(2), F(0), F(0))))
    for a, b in ((solved, by_hand), (by_hand, solved)):
        assert ref.same_space(a, b) is False
        with pytest.raises(ValueError, match="canonical shape"):
            a.same_space(b)
    assert SolutionSpace.spanned_by(zero, by_hand.basis) == SolutionSpace(
        3, zero, (e1,))


def _span_inputs(rng):
    """(point, vectors) for n from 1 to 10, rational and with ExtScalar
    entries: no vectors, zero vectors only, n dense vectors, random dense
    and sparse vectors, and those with a zero vector, a duplicate, a
    multiple and a combination of the others added."""
    for n in range(1, 11):
        for irrational in (False, True):
            def vector(sparse):
                return tuple(F(0) if sparse and rng.random() < 0.6
                             else random_ext_scalar(rng, irrational)
                             for _ in range(n))

            point = vector(False)
            yield point, []
            yield point, [(F(0),) * n] * 2
            yield point, [vector(False) for _ in range(n)]
            for sparse in (False, True):
                vectors = [vector(sparse) for _ in range(rng.randint(1, n))]
                c = random_ext_scalar(rng, irrational)
                combination = tuple(c * a + b for a, b in zip(*vectors[:2])
                                    ) if len(vectors) > 1 else (F(0),) * n
                yield point, vectors
                yield point, vectors + [(F(0),) * n]
                yield point, vectors + vectors[-1:]
                yield point, [tuple(c * v for v in vectors[0])] + vectors
                yield point, vectors + [combination]


def _record(space):
    """A space's entries with their types, for exact comparison."""
    return space.ambient_dim, [[(type(v), v) for v in x]
                               for x in (space.particular,) + space.basis]


def test_spanned_by_matches_elimination(rng):
    """``spanned_by`` builds the canonical shape of the span it is given:
    its record is the annihilator route's of ``linalg_reference``, in
    value and entry type, its basis and the vectors given span each
    other, its ``dim`` is the rank that ``linalg_reference.solve_linear``
    finds, and it holds the point.  Its entry types are
    ``solve_linear``'s: Fractions on the free columns, and on the bound
    ones ExtScalars when an entry given is one, Fractions otherwise."""
    kinds = Counter()
    for point, vectors in _span_inputs(rng):
        n = len(point)
        space = SolutionSpace.spanned_by(point, vectors)
        assert _record(space) == _record(ref.spanned_by(point, vectors))
        free = space._free_columns()  # raises off the canonical shape
        on_ext = any(type(v) is ExtScalar for v in point + sum(vectors, ()))
        assert all([type(v) for v in x] == [
            F if i in free or not on_ext else ExtScalar for i in range(n)]
            for x in (space.particular,) + space.basis)
        given = SolutionSpace(n, point, tuple(vectors))
        assert all(ref.direction_in_span(space, v) for v in vectors)
        assert all(ref.direction_in_span(given, b) for b in space.basis)
        rank = n - len(ref.solve_linear(vectors, [0] * len(vectors),
                                        n).basis)
        assert space.dim == rank
        assert ref.contains(space, point)
        kinds["dependent" if rank < len(vectors) else "independent"] += 1
        kinds["ext"] += any(type(v) is ExtScalar
                            for b in space.basis for v in b)
        kinds["full"] += rank == n > 1
        kinds["typed"] += on_ext
    assert kinds["dependent"] > 50 and kinds["independent"] > 50
    assert kinds["ext"] > 10 and kinds["full"] > 0 and kinds["typed"] > 50


def test_a_large_dependent_field_span_matches_the_annihilator(rng):
    """Twelve ExtScalar vectors in R^12, each a combination of the same
    six: the rows stay normalised as they are reduced, so the entries do
    not grow from one vector to the next, and the record is the
    annihilator route's."""
    n = 12
    spanning = [[random_ext_scalar(rng, True) for _ in range(n)]
                for _ in range(6)]
    vectors = []
    for _ in range(n):
        steps = [random_ext_scalar(rng, True) for _ in spanning]
        vectors.append(tuple(sum((c * b[i] for c, b in zip(steps, spanning)),
                                 F(0)) for i in range(n)))
    point = tuple(random_ext_scalar(rng, True) for _ in range(n))
    space = SolutionSpace.spanned_by(point, vectors)
    assert space.dim == 6
    assert _record(space) == _record(ref.spanned_by(point, vectors))


def test_a_ragged_span_is_refused():
    with pytest.raises(ValueError, match="ragged"):
        SolutionSpace.spanned_by((F(0),) * 3, [(F(1), F(2))])


def test_empty_and_zero_dimensional_spaces_match_elimination(rng):
    inconsistent = solve_linear([[1, 1], [2, 2]], [1, 3])
    point = solve_linear([[1, 0], [0, SQRT2]], [F(1, 2), 1])
    spaces = [inconsistent, SolutionSpace(10, None, ()), point,
              SolutionSpace(3, (F(1), F(0), SQRT2), ()),
              SolutionSpace(3, (F(0),) * 3, ())]
    assert inconsistent.is_empty and point.dim == 0
    for space in spaces:
        _agree(space, rng)
        for other in spaces:
            assert space.same_space(other) is ref.same_space(space, other)
    assert point.contains((F(1, 2), SQRT2 / 2))
    assert not point.contains((F(1, 2), F(1, 2)))


def test_the_canonical_shape_needs_no_elimination(monkeypatch, rng):
    """With ``exactnum.solve_linear`` raising, the membership tests of the
    sweep, and of a span that ``spanned_by`` built before, still answer,
    as the oracle does, and ``spanned_by`` and ``span_of_cubics`` still
    build their spaces, the annihilator route's records; a space off the
    shape raises ValueError."""
    symmetries = [der0_space(case) for case in range(1, 7)]
    solved = [s for case in (1, 7)
              for s in (solve_F(standard_pair(case), of.twist)
                        for fam in FAMILIES
                        for of in enumerate_orbit_pairs(fam))
              if not s.is_empty]
    assert any(_on_ext(s) for s in solved)
    coords = tuple(F(c) for c in range(1, 11))
    spanned = span_of_cubics([cubic_from_coords(coords)])
    off_shape = SolutionSpace(10, (F(0),) * 10, (coords,))

    def refuse(*args, **kwargs):
        raise AssertionError("membership eliminated")

    monkeypatch.setattr(exactnum, "solve_linear", refuse)
    for space in symmetries + solved + [spanned]:
        for _ in range(5):
            v = tuple(random_ext_scalar(rng, True)
                      for _ in range(space.ambient_dim))
            assert space.contains(v) is ref.contains(space, v)
            inside = tuple(a + b for a, b in zip(
                space.particular, _combination(space, rng, True)))
            assert space.contains(inside) is True
        assert space.same_space(space)
    assert spanned.contains(coords)
    assert not spanned.contains((F(1),) + (F(0),) * 9)
    for point, vectors in _span_inputs(rng):
        assert _record(SolutionSpace.spanned_by(point, vectors)) == _record(
            ref.spanned_by(point, vectors))
    for irrational in (False, True):
        cubics = [cubic_from_coords([random_ext_scalar(rng, irrational)
                                     for _ in range(10)]) for _ in range(3)]
        cubics.append(cubics[0] + cubics[1])
        assert _record(span_of_cubics(cubics)) == _record(ref.spanned_by(
            (F(0),) * 10, [cubic_coords(p) for p in cubics]))
    with pytest.raises(ValueError, match="canonical shape"):
        off_shape.contains((F(0),) * 10)
