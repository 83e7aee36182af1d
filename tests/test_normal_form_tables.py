"""Table-driven normal forms against the hand-written rules they replaced.

``classify`` matches a diagonalized form to ``SIGN_PATTERNS`` by one rule
and ``p2_orbit_rep`` reads strata from one table of support patterns.
``normal_form_reference`` keeps the deciders from before, on its own
congruence and determinant: on seeded inputs both must give the same
``classification_to_json``, witness forms and entry types, and the same
family, stratum, representative and rotation.
"""

import random
from fractions import Fraction as F

import pytest

import normal_form_reference as ref
from conftest import random_pairs, random_rational_invertible, same_classification
from poisson_forge.exactnum import SQRT2, Matrix
from poisson_forge.linclass import standard_pair
from poisson_forge.quaddef import (
    JordanFamily,
    jordan_family_of,
    p2_orbit_rep,
)


def test_standard_pairs_classify_as_before():
    for case in range(1, 11):
        assert same_classification(standard_pair(case)).case_id == case


def test_seeded_pairs_classify_as_before():
    """4,000 pairs at a fixed seed meet every case."""
    pairs = random_pairs(random.Random(20260412), 4000)
    cases = {same_classification(pair).case_id for pair in pairs}
    assert len(pairs) >= 4000
    assert cases == set(range(1, 11))


def _conjugate(rng, m):
    s = random_rational_invertible(rng)
    return s * m * s.inverse()


def _seeded_twists(rng):
    """Traceless matrices from every family, conjugated and as they are."""
    lam = F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
    mu = lam + rng.randint(1, 3)
    normal = [
        Matrix.diagonal([lam, mu, -lam - mu]),
        Matrix.diagonal([lam, lam, -2 * lam]),
        Matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]]),
        # a repeated eigenvalue with a Jordan block, a zero eigenvalue,
        # a square-zero nilpotent and zero: all OTHER
        Matrix([[lam, 1, 0], [0, lam, 0], [0, 0, -2 * lam]]),
        Matrix.diagonal([lam, -lam, 0]),
        Matrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]]),
        Matrix.zero(3),
    ]
    out = list(normal)
    out.extend(_conjugate(rng, m) for m in normal)
    rows = [[F(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
    rows[2][2] = -rows[0][0] - rows[1][1]
    out.append(Matrix(rows))
    return out


def test_seeded_twists_land_in_the_same_family():
    rng = random.Random(7)
    tags = set()
    for _ in range(60):
        for m in _seeded_twists(rng):
            got = jordan_family_of(m)
            assert repr(got) == repr(ref.jordan_family_of(m)), m
            tags.add(got.tag)
    irrational = Matrix([[SQRT2, 1, 0], [0, -SQRT2, 0], [0, 0, 0]])
    assert repr(jordan_family_of(irrational)) == repr(
        ref.jordan_family_of(irrational))
    assert len(tags) == 4


_FAMILIES = (JordanFamily.diag_distinct(1, 2, -3),
             JordanFamily.diag_repeated(1),
             JordanFamily.nilpotent_full())


def test_seeded_points_land_in_the_same_stratum():
    rng = random.Random(403)
    for _ in range(400):
        coords = [F(rng.randint(-4, 4), rng.randint(1, 3))
                  if rng.random() < 0.6 else F(0) for _ in range(3)]
        if not any(coords):
            continue
        if rng.random() < 0.2:
            coords[rng.randrange(3)] += SQRT2
        for family in _FAMILIES:
            assert p2_orbit_rep(family, coords) == ref.p2_orbit_rep(
                family, coords)


def test_no_strata_outside_the_three_families():
    other = jordan_family_of(Matrix.zero(3))
    for decide in (p2_orbit_rep, ref.p2_orbit_rep):
        with pytest.raises(ValueError, match="no orbit machinery"):
            decide(other, (1, 2, 3))
