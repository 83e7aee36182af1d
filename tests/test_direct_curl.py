"""The direct curl and potential bivector equal the volume-duality route.

``multivec.curl`` and ``multivec.bivector_from_potential`` are computed
straight from the components; ``form_reference`` keeps the route through
differential forms they replaced.  On seeded rational and extension-field
inputs, n = 2, 3, 4 and every grade, both must give the same components
with the same coefficient types.
"""

import random

import pytest

import form_reference as ref
from conftest import random_ext_field, random_ext_polynomial
from poisson_forge.exactnum import Polynomial
from poisson_forge.multivec import (
    MultiVectorField,
    bivector_from_potential,
    curl,
)
from poisson_forge.verify import _random_field


def _assert_same(got, want):
    assert type(got) is MultiVectorField and type(want) is MultiVectorField
    assert (got.nvars, got.grade) == (want.nvars, want.grade)
    assert got == want
    for exps, poly in want.components.items():
        assert got.components[exps].terms == poly.terms
        assert {e: type(c) for e, c in got.components[exps].terms.items()} \
            == {e: type(c) for e, c in poly.terms.items()}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_curl_matches_duality_route_on_rational_fields(n):
    rng = random.Random(7300 + n)
    for grade in range(n + 1):
        for _ in range(60):
            u = _random_field(rng, n, grade)
            _assert_same(curl(u), ref.curl(u))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_curl_matches_duality_route_on_extension_fields(n):
    rng = random.Random(7310 + n)
    for grade in range(n + 1):
        for _ in range(30):
            u = random_ext_field(rng, n, grade)
            _assert_same(curl(u), ref.curl(u))


def test_curl_matches_duality_route_on_cancelling_and_empty_fields():
    rng = random.Random(7320)
    for n in (2, 3, 4):
        for grade in range(n + 2):  # grade n+1 exists only as the zero field
            zero = MultiVectorField.zero(n, grade)
            _assert_same(curl(zero), ref.curl(zero))
        for grade in range(1, n + 1):
            for _ in range(10):
                u = random_ext_field(rng, n, grade)
                # curl(curl(u)) cancels term by term in both routes
                _assert_same(curl(curl(u)), ref.curl(ref.curl(u)))
                assert curl(curl(u)).components == {}


@pytest.mark.parametrize("irrational", [False, True])
def test_potential_bivector_matches_duality_route(irrational):
    rng = random.Random(7330 + irrational)
    for _ in range(150):
        n = rng.randint(1, 4)
        if irrational:
            f = random_ext_polynomial(rng, n, True)
        else:
            f = _random_field(rng, n, 0).component(())
        _assert_same(bivector_from_potential(f), ref.bivector_from_potential(f))
    for n in range(1, 5):
        zero = Polynomial.zero(n)
        _assert_same(bivector_from_potential(zero),
                     ref.bivector_from_potential(zero))


def test_potential_needs_a_variable_in_both_routes():
    f = Polynomial(0, {(): 3})
    with pytest.raises(ValueError):
        bivector_from_potential(f)
    with pytest.raises(ValueError):
        ref.bivector_from_potential(f)
