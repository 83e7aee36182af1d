"""Membership in a solution space read off the free columns, against
elimination.

``solve_linear``, ``quaddef._line_space`` and ``solve_F`` return a basis
on the canonical shape: each vector is 1 on its free column, its last
nonzero slot, and 0 on the other free columns.  On that shape
``SolutionSpace.direction_in_span`` decides d = sum_j d[f_j] b_j
coordinate by coordinate, with no elimination; a basis of any other
shape solves for the coefficients with ``solve_linear``.  The oracle is
``linalg_reference``'s elimination for every basis: on the ten ``der0``
spaces, the ``solve_F`` and ``catalog`` spaces (rational, and on
ExtScalars for the twists transported by a rotation), the cubic kernels,
``span_of_cubics``, shuffled, rescaled and mixed bases, and the empty and
zero-dimensional spaces, both must give the same verdicts of
``direction_in_span``, ``contains`` and ``same_space``, on vectors inside
and outside the span, with Fraction and ExtScalar entries.
"""

from collections import Counter
from fractions import Fraction as F

import pytest

import linalg_reference as ref
from conftest import random_ext_scalar
from poisson_forge import exactnum
from poisson_forge.exactnum import SQRT2, ExtScalar, SolutionSpace, solve_linear
from poisson_forge.linclass import der0_space, standard_pair
from poisson_forge.quaddef import (
    JordanFamily,
    catalog,
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
    regular twist, the elimination otherwise)."""
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
    # every shape the solvers return is canonical, so none eliminates
    assert all(s._free_columns() is not None for s in nonempty if s.basis)
    assert any(_on_ext(s) and s.basis for s in nonempty)
    assert any(s.is_empty for s in spaces)
    assert any(not s.basis for s in nonempty)
    verdicts = Counter()
    for space in spaces:
        verdicts += _agree(space, rng)
    assert verdicts[True] > 100 and verdicts[False] > 100


def _variants(space, rng):
    """(whether canonical, the space) for the space with its basis
    reversed (still canonical), rescaled and mixed (b0 + b1 for b0), the
    last two off the canonical shape; other spaces: its point moved, its
    basis cut by one vector, and b0 replaced by zero."""
    n, basis, p = space.ambient_dim, space.basis, space.particular
    scale = rng.choice([F(2), F(-1, 3), SQRT2])
    variants = [
        (True, SolutionSpace(n, p, basis[::-1])),
        (False, SolutionSpace(n, p, tuple(tuple(scale * v for v in b)
                                          for b in basis))),
    ]
    moved = tuple(a + b for a, b in zip(p, _directions(space, rng)[3]))
    others = [SolutionSpace(n, moved, basis),
              SolutionSpace(n, p, basis[1:]),
              SolutionSpace(n, p, ((F(0),) * n,) + basis[1:])]
    if len(basis) > 1:
        mixed = (tuple(a + b for a, b in zip(basis[0], basis[1])),)
        variants.append((False, SolutionSpace(n, p, mixed + basis[1:])))
    return variants, others


def test_membership_matches_elimination_off_the_canonical_shape(rng):
    spaces = [s for s in _solved_spaces(rng) if not s.is_empty and s.basis]
    verdicts = Counter()
    for space in spaces:
        variants, others = _variants(space, rng)
        for canonical, variant in variants:
            assert (variant._free_columns() is not None) is canonical
            verdicts += _agree(variant, rng)
            for a, b in ((space, variant), (variant, space),
                         (variant, variant)):
                assert a.same_space(b) is ref.same_space(a, b) is True
            for other in others:
                for a, b in ((variant, other), (other, variant)):
                    assert a.same_space(b) is ref.same_space(a, b)
        for other in others:
            verdicts += _agree(other, rng)
            for a, b in ((space, other), (other, space)):
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
            verdicts += _agree(space, rng)
            twin = span_of_cubics(cubics[::-1])
            assert space.same_space(twin) is ref.same_space(space, twin)
    assert verdicts[True] and verdicts[False]


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
    sweep still answer, as the oracle does; a basis off the shape still
    eliminates."""
    symmetries = [der0_space(case) for case in range(1, 7)]
    solved = [s for case in (1, 7)
              for s in (solve_F(standard_pair(case), of.twist)
                        for fam in FAMILIES
                        for of in enumerate_orbit_pairs(fam))
              if not s.is_empty]
    assert any(_on_ext(s) for s in solved)
    off_shape = span_of_cubics([cubic_from_coords(range(1, 11))])

    def refuse(*args, **kwargs):
        raise AssertionError("membership eliminated")

    monkeypatch.setattr(exactnum, "solve_linear", refuse)
    for space in symmetries + solved:
        for _ in range(5):
            v = tuple(random_ext_scalar(rng, True)
                      for _ in range(space.ambient_dim))
            assert space.contains(v) is ref.contains(space, v)
            inside = tuple(a + b for a, b in zip(
                space.particular, _combination(space, rng, True)))
            assert space.contains(inside) is True
        assert space.same_space(space)
    with pytest.raises(AssertionError, match="membership eliminated"):
        off_shape.contains((F(0),) * 10)
