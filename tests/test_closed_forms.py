"""The two R^3 bivectors read off the integer forms in one step.

``linclass.bivector_of`` and ``quaddef.pi_quad`` build each component as
one polynomial on the forms of the pair.  ``form_reference`` keeps the
generic construction they replaced, a wedge product with the Euler field
that is scaled and added to the potential bivector; on seeded pairs the
two must agree in every component's form (D, T), its rational flag and
the type of every coefficient.
"""

from fractions import Fraction as F

import form_reference as ref
from conftest import typed_components

from poisson_forge.exactnum import ExtScalar, Matrix
from poisson_forge.linclass import STANDARD_PAIRS, bivector_of, standard_pair
from poisson_forge.linclass import transform_pair as transform_linear_pair
from poisson_forge.quaddef import (
    JordanFamily,
    QuadraticPair,
    enumerate_orbit_pairs,
    pi_quad,
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
    # field-form twists whose ExtScalar entries are rational, or zero
    for twist in (Matrix([[ExtScalar.of(1), 0, 0], [0, ExtScalar.of(-1), 0],
                          [0, 0, 0]]),
                  Matrix([[1, 0, 0], [0, -1, 0], [0, 0, ExtScalar.of(0)]]),
                  Matrix([[ExtScalar.of(F(1, 2)), 1, 0], [0, F(-1, 2), 0],
                          [0, 0, ExtScalar.of(0)]])):
        pairs.append(QuadraticPair(twist, random_kernel_cubic(rng, twist)))
    field_twists = 0
    for qp in pairs:
        _same(pi_quad(qp), ref.pi_quad(qp))
        field_twists += qp.twist.integer_form() is None
    assert field_twists >= 10
