"""End-to-end acceptance gate: every published result, exact and timed."""

import subprocess
import sys
import time
from fractions import Fraction as F

import pytest

from conftest import along, matrix_span, random_field
from form_reference import euler_vf
from poisson_forge.exactnum import Matrix, Polynomial
from poisson_forge.linclass import (
    LinearPair,
    aut_member,
    bivector_of,
    classify,
    decompose,
    der0_space,
    is_isomorphism,
    standard_pair,
    transform_pair,
)
from poisson_forge.multivec import (
    MultiVectorField,
    const_vf,
    curl,
    linear_vf,
    schouten,
    wedge,
)
from poisson_forge.quaddef import (
    JordanFamily,
    P2Point,
    QuadraticPair,
    catalog,
    deform_rhs,
    ktilde,
    p2_orbit_rep,
    pi_quad,
    solution_polys,
    solve_F,
    span_of_cubics,
)
from poisson_forge.verify import (
    poly3,
    random_invertible,
    random_kernel_cubic,
    random_traceless,
)


X, Y, Z = (Polynomial.variable(3, i) for i in range(3))


def random_valid_pair(rng) -> LinearPair:
    case = rng.randrange(1, 11)
    return transform_pair(random_invertible(rng), standard_pair(case))


# --- 1: the ten standard forms are conjugation-invariant --------------------


def test_classification_survives_random_conjugation(rng):
    variants = [(case, F(1)) for case in range(1, 11)]
    variants += [(8, F(2)), (9, F(2))]
    started = time.monotonic()
    for case, scale in variants:
        base = standard_pair(case, scale) if case in (8, 9) else standard_pair(case)
        rounds = 50 if case in (8, 9) else 100
        for _ in range(rounds):
            conjugate = transform_pair(random_invertible(rng), base)
            label, _ = classify(conjugate)
            assert label.case_id == case
            if case in (8, 9):
                assert label.a_squared == scale * scale
            else:
                assert label.a_squared is None
    assert time.monotonic() - started < 10


# --- 2: splitting off the modular direction round-trips ---------------------


def test_decomposition_recovers_both_parts(rng):
    started = time.monotonic()
    for _ in range(50):
        pair = random_valid_pair(rng)
        pi = bivector_of(pair)
        dec = decompose(pi)
        assert dec.k == pair.k
        assert curl(dec.curl_free).is_zero()
        assert schouten(const_vf(dec.k), dec.curl_free).is_zero()
        twist = wedge(euler_vf(3), const_vf(dec.k)).scale(F(1, 2))
        assert twist + dec.curl_free == pi
    assert time.monotonic() - started < 5


def test_curl_free_self_bracket_is_minus_curl_of_square():
    # n = 4: a curl-free bivector that is NOT Poisson, so both sides of
    # the pinned identity [L, L] = -D(L ^ L) are nonzero.
    v = lambda i: Polynomial.variable(4, i)
    lam = MultiVectorField(4, 2, {(0, 1): v(2), (2, 3): v(0)})
    assert curl(lam).is_zero()
    bracket = schouten(lam, lam)
    assert not bracket.is_zero()
    assert bracket == curl(wedge(lam, lam)).scale(-1)


# --- 3: the two deformation criteria agree everywhere ------------------------


def test_bracket_route_matches_identity_route(rng):
    started = time.monotonic()
    verdicts = {True: 0, False: 0}
    for _ in range(200):
        lp = random_valid_pair(rng)
        twist = random_traceless(rng)
        cubic = random_kernel_cubic(rng, twist)
        qp = QuadraticPair(twist, cubic)
        route_bracket = schouten(bivector_of(lp), pi_quad(qp)).is_zero()
        route_identity = along(cubic, lp.k) == deform_rhs(lp, twist)
        assert route_bracket == route_identity
        verdicts[route_bracket] += 1
    assert verdicts[True] > 0 and verdicts[False] > 0
    assert time.monotonic() - started < 30


# --- 4: axis pair, distinct eigenvalues: three strata deform, four do not ---


@pytest.mark.parametrize("lams", [(1, 2, -3), (1, -4, 3)])
def test_axis_pair_distinct_eigenvalue_catalog(lams):
    l1, l2, l3 = (F(v) for v in lams)
    entries = catalog(7, JordanFamily.diag_distinct(*lams))
    assert [e.orbit_index for e in entries] == [1, 2, 3, 4, 5, 6, 7]
    coefs = ((l2 - l1) / 6, (l1 - l3) / 6, (l2 - l3) / 6)
    for entry, coef in zip(entries[:3], coefs):
        particular, basis = solution_polys(entry.solution)
        assert particular == poly3({(1, 1, 1): coef})
        assert basis == ()
    for entry in entries[3:]:
        assert entry.solution.is_empty


# --- 5: axis pair, repeated eigenvalue ---------------------------------------


@pytest.mark.parametrize("lam", [1, 2])
def test_axis_pair_repeated_eigenvalue_catalog(lam):
    entries = catalog(7, JordanFamily.diag_repeated(lam))
    zero = entries[0].solution
    assert not zero.is_empty and not zero.basis and not any(zero.particular)
    particular, basis = solution_polys(entries[1].solution)
    assert particular == poly3({(1, 1, 1): F(lam, 2)})
    assert basis == (X * Y * Y,)
    assert entries[2].solution.is_empty


# --- 6: axis pair, nilpotent twist -------------------------------------------


def test_axis_pair_nilpotent_catalog():
    entries = catalog(7, JordanFamily.nilpotent_full())
    assert entries[0].solution.is_empty
    particular, basis = solution_polys(entries[1].solution)
    assert particular == poly3({(2, 1, 0): F(-1, 6), (1, 0, 2): F(1, 12)})
    assert basis == (X * X * X,)
    particular, basis = solution_polys(entries[2].solution)
    assert particular == poly3({(2, 0, 1): F(-1, 6), (1, 2, 0): F(1, 12)})
    assert basis == (X * X * X,)


# --- 7: open-book pair, repeated eigenvalue: one potential ------------------


@pytest.mark.parametrize("lam", [1, 2])
def test_open_book_repeated_twist_unique_potential(lam):
    space = solve_F(standard_pair(10), Matrix.diagonal([lam, lam, -2 * lam]))
    particular, basis = solution_polys(space)
    assert particular == poly3({(2, 0, 1): -2 * lam})
    assert basis == ()


# --- 8: unimodular pairs with skew twists ------------------------------------


def test_definite_pair_rotation_catalog():
    rotation = ktilde((0, 0, 1))
    (entry,) = catalog(2, rotation)
    expected = span_of_cubics([(X * X + Y * Y) * Z, Z * Z * Z])
    assert entry.solution.same_space(expected)


def test_indefinite_pair_three_twist_catalogs():
    by_twist = {
        "rotation": (ktilde((0, 0, 1)),
                     [(X * X + Y * Y) * Z, Z * Z * Z]),
        "null": (Matrix([[0, 0, 1], [0, 0, 1], [1, 1, 0]]),
                 [(X - Y) * (X - Y) * (X - Y),
                  (X - Y) * (X * X + Y * Y - Z * Z)]),
        "hyperbolic": (Matrix([[0, 0, 0], [0, 0, 1], [0, 1, 0]]),
                       [X * X * X, X * (Y * Y - Z * Z)]),
    }
    for name, (twist, cubics) in by_twist.items():
        (entry,) = catalog(3, twist)
        assert entry.solution.same_space(span_of_cubics(cubics)), name


def test_null_twist_family_simplifies_in_sheared_coordinates():
    # substituting x -> x + y, y -> x - y turns the x - y line into a
    # coordinate axis and the null-twist cubics into single-variable data
    shear = Matrix([[1, 1, 0], [1, -1, 0], [0, 0, 1]])
    first = ((X - Y) * (X - Y) * (X - Y)).compose_linear(shear)
    assert first == poly3({(0, 3, 0): 8})
    second = ((X - Y) * (X * X + Y * Y - Z * Z)).compose_linear(shear)
    assert second == poly3({(2, 1, 0): 4, (0, 3, 0): 4, (0, 1, 2): -2})


# --- 9: infinitesimal symmetries of the six unimodular forms ----------------


def test_infinitesimal_symmetry_dimensions_and_patterns():
    assert [der0_space(case).dim for case in range(1, 11)] == [
        8, 3, 3, 3, 3, 5, 5, 3, 3, 3]
    bottom_row = [[[0, 0, 0], [0, 0, 0], [1, 0, 0]],
                  [[0, 0, 0], [0, 0, 0], [0, 1, 0]]]
    patterns = {
        1: [  # traceless matrices
            [[1, 0, 0], [0, -1, 0], [0, 0, 0]],
            [[0, 0, 0], [0, 1, 0], [0, 0, -1]],
            [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
            [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
            [[0, 0, 0], [1, 0, 0], [0, 0, 0]],
            [[0, 0, 0], [0, 0, 1], [0, 0, 0]],
            [[0, 0, 0], [0, 0, 0], [1, 0, 0]],
            [[0, 0, 0], [0, 0, 0], [0, 1, 0]],
        ],
        2: [  # skew-symmetric
            [[0, 1, 0], [-1, 0, 0], [0, 0, 0]],
            [[0, 0, 1], [0, 0, 0], [-1, 0, 0]],
            [[0, 0, 0], [0, 0, 1], [0, -1, 0]],
        ],
        3: [  # skew for the (+,+,-) form
            [[0, 1, 0], [-1, 0, 0], [0, 0, 0]],
            [[0, 0, 1], [0, 0, 0], [1, 0, 0]],
            [[0, 0, 0], [0, 0, 1], [0, 1, 0]],
        ],
        4: [  # rotation in the first two slots plus anything feeding slot 3
            [[0, 1, 0], [-1, 0, 0], [0, 0, 0]],
            [[0, 0, 0], [0, 0, 0], [1, 0, 0]],
            [[0, 0, 0], [0, 0, 0], [0, 1, 0]],
        ],
        5: [  # hyperbolic rotation instead
            [[0, 1, 0], [1, 0, 0], [0, 0, 0]],
            [[0, 0, 0], [0, 0, 0], [1, 0, 0]],
            [[0, 0, 0], [0, 0, 0], [0, 1, 0]],
        ],
        6: [  # first row zero, traceless lower block
            [[0, 0, 0], [1, 0, 0], [0, 0, 0]],
            [[0, 0, 0], [0, 1, 0], [0, 0, -1]],
            [[0, 0, 0], [0, 0, 1], [0, 0, 0]],
            [[0, 0, 0], [0, 0, 0], [1, 0, 0]],
            [[0, 0, 0], [0, 0, 0], [0, 1, 0]],
        ],
        # cases 7-10: the bottom-row pair e_31, e_32 plus an upper-left part
        7: [  # traceless upper-left block
            [[1, 0, 0], [0, -1, 0], [0, 0, 0]],
            [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
            [[0, 0, 0], [1, 0, 0], [0, 0, 0]],
        ] + bottom_row,
        8: [[[0, 1, 0], [-1, 0, 0], [0, 0, 0]]] + bottom_row,  # rotation
        9: [[[0, 1, 0], [1, 0, 0], [0, 0, 0]]] + bottom_row,  # symmetric
        10: [[[0, 0, 0], [1, 0, 0], [0, 0, 0]]] + bottom_row,  # e_21
    }
    for case, mats in patterns.items():
        assert der0_space(case).same_space(matrix_span(mats)), case


# --- 10: symmetry membership along two independent routes -------------------

# two verified members per case; products stay inside the group
SYMMETRY_SEEDS = {
    1: ([[2, 1, 0], [0, 1, 3], [1, 0, 1]], [[1, 1, 1], [0, 1, 2], [0, 0, 1]]),
    2: ([[F(3, 5), F(4, 5), 0], [F(-4, 5), F(3, 5), 0], [0, 0, 1]],
        [[1, 0, 0], [0, F(5, 13), F(12, 13)], [0, F(-12, 13), F(5, 13)]]),
    3: ([[F(5, 4), 0, F(3, 4)], [0, 1, 0], [F(3, 4), 0, F(5, 4)]],
        [[F(3, 5), F(4, 5), 0], [F(-4, 5), F(3, 5), 0], [0, 0, 1]]),
    4: ([[2, 2, 0], [-2, 2, 0], [5, 7, 1]], [[3, 0, 0], [0, 3, 0], [0, 0, 1]]),
    5: ([[3, 2, 0], [2, 3, 0], [1, 4, 1]],
        [[F(5, 4), F(3, 4), 0], [F(3, 4), F(5, 4), 0], [0, 0, 1]]),
    6: ([[6, 0, 0], [4, 2, 1], [9, 0, 3]], [[4, 0, 0], [0, 2, 0], [0, 0, 2]]),
    7: ([[1, 7, 0], [2, 5, 0], [3, 4, 1]], [[2, 0, 0], [0, 5, 0], [0, 0, 1]]),
    8: ([[1, -2, 0], [2, 1, 0], [3, 4, 1]],
        [[F(3, 5), F(4, 5), 0], [F(-4, 5), F(3, 5), 0], [0, 0, 1]]),
    9: ([[5, 2, 0], [2, 5, 0], [-1, 2, 1]],
        [[F(5, 4), F(3, 4), 0], [F(3, 4), F(5, 4), 0], [0, 0, 1]]),
    10: ([[3, 0, 0], [7, 3, 0], [2, 8, 1]], [[3, 0, 0], [0, 3, 0], [0, 0, 1]]),
}


def mat_pow(m: Matrix, exponent: int) -> Matrix:
    out = Matrix.identity(3)
    for _ in range(exponent):
        out = out * m
    return out


def test_symmetry_membership_two_routes(rng):
    started = time.monotonic()
    for case in range(1, 11):
        std = standard_pair(case)
        for _ in range(500):
            m = random_invertible(rng)
            assert aut_member(m, case) == is_isomorphism(m, std, std)
        s1, s2 = (Matrix(rows) for rows in SYMMETRY_SEEDS[case])
        for _ in range(50):
            member = mat_pow(s1, rng.randint(1, 3)) \
                * mat_pow(s2, rng.randint(1, 3)) \
                * mat_pow(s1, rng.randint(0, 2))
            assert aut_member(member, case)
            assert is_isomorphism(member, std, std)
    assert time.monotonic() - started < 20


# --- 11: operator identities and orbit coverage ------------------------------


def test_operator_identities_and_orbit_counts(rng):
    started = time.monotonic()
    for _ in range(20):
        nvars = rng.choice((3, 4))
        grade = rng.randint(1, nvars - 1)
        field = random_field(rng, nvars, grade)
        assert curl(curl(field)).is_zero()
    for _ in range(15):
        u = random_field(rng, 3, rng.randint(1, 2), max_degree=1)
        v = random_field(rng, 3, rng.randint(1, 2), max_degree=1)
        sign = -((-1) ** ((u.grade - 1) * (v.grade - 1)))
        assert schouten(u, v) == schouten(v, u).scale(sign)
    for _ in range(15):
        a = Matrix([[F(rng.randint(-4, 4)) for _ in range(3)] for _ in range(3)])
        k = tuple(F(rng.randint(-4, 4)) for _ in range(3))
        divergence = curl(linear_vf(a))
        assert divergence.as_polynomial() == Polynomial.constant(3, a.trace())
        pushed = const_vf(a.apply(k)).scale(-1)
        assert schouten(linear_vf(a), const_vf(k)) == pushed
    families = {
        JordanFamily.diag_distinct(1, 2, -3): 7,
        JordanFamily.diag_repeated(1): 3,
        JordanFamily.nilpotent_full(): 3,
    }
    for family, count in families.items():
        seen = set()
        for _ in range(1000):
            coords = [rng.randint(-6, 6) for _ in range(3)]
            if not any(coords):
                continue
            seen.add(p2_orbit_rep(family, P2Point(tuple(coords))).orbit_index)
        assert seen == set(range(1, count + 1))
    assert time.monotonic() - started < 30


# --- 12: the whole published-result sweep passes -----------------------------


def test_full_verification_sweep_passes():
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "poisson_forge.cli", "verify-paper"],
        capture_output=True, text=True,
    )
    elapsed = time.monotonic() - started
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[-1] == "35/35 items passed"
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert elapsed < 120
