"""Quadratic deformations: twist/potential pairs, solver, orbit machinery."""

import math
import random
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction as F

import pytest

import linalg_reference as ref
from conftest import along, random_ext_scalar

from poisson_forge.exactnum import (
    ExactSqrtError,
    ExtScalar,
    Matrix,
    Polynomial,
    SQRT2,
    SQRT3,
    SQRT6,
    SolutionSpace,
    apply_matrix_derivation,
    cross3,
    scalar_div,
    solve_linear,
)
from poisson_forge.linclass import (
    LinearPair,
    aut_member,
    der0_space,
    standard_pair,
)
from poisson_forge.linclass import transform_pair as transform_linear_pair
from poisson_forge import quaddef
from poisson_forge.multivec import is_poisson
from poisson_forge.quaddef import (
    CUBIC_MONOMIALS,
    DIAG_DISTINCT,
    OTHER,
    QUAD_MONOMIALS,
    JordanFamily,
    P2Point,
    QuadraticPair,
    catalog,
    coset_rep_g10,
    cubic_coords,
    cubic_from_coords,
    cubic_kernel,
    deform_check,
    deform_rhs,
    enumerate_orbit_pairs,
    jordan_family_of,
    ktilde,
    orbit_count,
    p2_orbit_rep,
    pi_quad,
    solution_polys,
    solve_F,
    span_of_cubics,
    t_of_v,
    transform_pair,
)
from poisson_forge.quaddef import (
    _derivation_rows,
    _drift_rows,
    _float_eigen_report,
    _rational_roots_monic_cubic,
    _rep_rotation,
)
from poisson_forge.verify import (
    poly3,
    random_invertible,
    random_kernel_cubic,
    random_traceless,
)


X, Y, Z = (Polynomial.variable(3, i) for i in range(3))
XYZ = poly3({(1, 1, 1): 1})
BOOK = standard_pair(7)
HALF = F(1, 2)


# ---------------------------------------------------------------------------
# twist matrix of a vector
# ---------------------------------------------------------------------------


def test_ktilde_is_cross_product(rng):
    for _ in range(20):
        k = tuple(F(rng.randint(-5, 5)) for _ in range(3))
        v = tuple(F(rng.randint(-5, 5)) for _ in range(3))
        assert ktilde(k).apply(v) == cross3(k, v)


def test_ktilde_vertical_axis():
    assert ktilde((0, 0, 1)) == Matrix([[0, -1, 0], [1, 0, 0], [0, 0, 0]])


def test_ktilde_skew_traceless(rng):
    for _ in range(10):
        k = tuple(F(rng.randint(-5, 5)) for _ in range(3))
        m = ktilde(k)
        assert m.transpose() == m.scaled(-1)
        assert m.trace() == 0


def test_drift_rhs_expansion_vertical_axis(rng):
    # For the pair (e3, 0) the right-hand side of the solvability identity
    # expands, entry by entry of K = (a_ij), to
    #   -(1/6) (-a21 x^2 + a12 y^2 + (a11 - a22) xy + a13 yz - a23 xz).
    for _ in range(15):
        k_matrix = random_traceless(rng)
        a = k_matrix.rows
        expected = poly3({}) + (
            X * X * (-a[1][0]) + Y * Y * a[0][1]
            + X * Y * (a[0][0] - a[1][1]) + Y * Z * a[0][2]
            + X * Z * (-a[1][2])
        ) * F(-1, 6)
        assert deform_rhs(BOOK, k_matrix) == expected


def test_drift_rhs_couples_gram_part():
    # With a nonzero quadratic part the symmetric term enters with weight 12;
    # here the two skew xy contributions cancel and only -2x^2 survives.
    lp = standard_pair(10)  # k = e3, gram = diag(1,0,0)
    k_matrix = Matrix.diagonal([1, 1, -2])
    assert deform_rhs(lp, k_matrix) == X * X * (-2)


# ---------------------------------------------------------------------------
# quadratic pairs
# ---------------------------------------------------------------------------


def test_pair_requires_traceless_twist():
    with pytest.raises(ValueError, match="traceless"):
        QuadraticPair(Matrix.identity(3), Polynomial.zero(3))


def test_pair_requires_invariant_cubic():
    with pytest.raises(ValueError, match="invariant"):
        QuadraticPair(Matrix.diagonal([1, 2, -3]), X * X * X)


def test_pair_requires_homogeneous_cubic():
    with pytest.raises(ValueError):
        QuadraticPair(Matrix.zero(3), X * X)


def test_pair_json_roundtrip():
    qp = QuadraticPair(Matrix.diagonal([1, 2, -3]), XYZ * F(1, 6))
    assert QuadraticPair.from_json(qp.to_json()) == qp
    # extension-field coefficients survive the trip
    fancy = QuadraticPair(
        Matrix.diagonal([1, 1, -2]),
        poly3({(2, 0, 1): 1}) * scalar_div(SQRT2, 2),
    )
    assert QuadraticPair.from_json(fancy.to_json()) == fancy


def test_transform_pair_action(rng):
    qp = QuadraticPair(
        Matrix.diagonal([1, 1, -2]),
        poly3({(1, 1, 1): 2, (2, 0, 1): -1}),
    )
    for _ in range(15):
        t1, t2 = random_invertible(rng), random_invertible(rng)
        assert transform_pair(t1, transform_pair(t2, qp)) == \
            transform_pair(t1 * t2, qp)


def test_transform_pair_determinant_weight():
    # A swap of the first two axes has determinant -1: the twist conjugates
    # and the cubic picks up the sign.
    qp = QuadraticPair(Matrix.diagonal([1, 2, -3]), XYZ * F(1, 6))
    swap = Matrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    out = transform_pair(swap, qp)
    assert out.twist == Matrix.diagonal([2, 1, -3])
    assert out.cubic == XYZ * F(-1, 6)


def test_transform_pair_rejects_singular():
    qp = QuadraticPair(Matrix.zero(3), XYZ)
    with pytest.raises(ValueError, match="invertible"):
        transform_pair(Matrix.zero(3), qp)


# ---------------------------------------------------------------------------
# the quadratic bivector
# ---------------------------------------------------------------------------


def test_pi_quad_potential_only_components():
    qp = QuadraticPair(Matrix.zero(3), XYZ)
    pi = pi_quad(qp)
    assert pi.components[(0, 1)] == X * Y
    assert pi.components[(0, 2)] == X * Z * (-1)
    assert pi.components[(1, 2)] == Y * Z


def test_pi_quad_solved_pair_components():
    qp = QuadraticPair(Matrix.diagonal([1, 2, -3]), XYZ * F(1, 6))
    pi = pi_quad(qp)
    assert pi.components[(0, 1)] == X * Y * HALF
    assert pi.components[(0, 2)] == X * Z * F(-3, 2)
    assert pi.components[(1, 2)] == Y * Z * F(-3, 2)
    assert is_poisson(pi)


def test_pi_quad_is_poisson_for_valid_pairs(rng):
    for _ in range(10):
        twist = random_traceless(rng, -3, 3)
        qp = QuadraticPair(twist, random_kernel_cubic(rng, twist))
        assert is_poisson(pi_quad(qp))


# ---------------------------------------------------------------------------
# deformation criterion
# ---------------------------------------------------------------------------


def test_deform_check_golden_true():
    qp = QuadraticPair(Matrix.diagonal([1, 2, -3]), XYZ * F(1, 6))
    assert deform_check(BOOK, qp)


def test_deform_check_golden_false():
    qp = QuadraticPair(Matrix.diagonal([1, 2, -3]), XYZ)
    assert not deform_check(BOOK, qp)


def test_deform_check_skew_twist_of_orthogonal_pair():
    # Rotations preserve the definite quadratic part, so any invariant
    # cubic deforms the case-2 pair.
    lp = standard_pair(2)
    rot = ktilde((0, 0, 1))
    for cubic in (Z * Z * Z, (X * X + Y * Y) * Z, Polynomial.zero(3)):
        assert deform_check(lp, QuadraticPair(rot, cubic))


def test_deform_check_path_equivalence(rng):
    # The bracket route and the divergence-identity route agree on random
    # tuples; a disagreement would raise inside deform_check.
    verdicts = {True: 0, False: 0}
    for _ in range(120):
        case = rng.randrange(1, 11)
        lp = transform_linear_pair(random_invertible(rng), standard_pair(case))
        twist = random_traceless(rng)
        qp = QuadraticPair(twist, random_kernel_cubic(rng, twist))
        verdicts[deform_check(lp, qp)] += 1
    assert verdicts[True] > 0 and verdicts[False] > 0


def test_unimodular_twists_deform_without_potential(rng):
    # (K, 0) is a deformation of a semisimple-type pair exactly when K is
    # an infinitesimal symmetry of it.
    zero_cubic = Polynomial.zero(3)
    for case in range(1, 7):
        lp = standard_pair(case)
        space = der0_space(case)
        for b in space.basis:
            twist = Matrix([b[0:3], b[3:6], b[6:9]])
            assert deform_check(lp, QuadraticPair(twist, zero_cubic))
        for _ in range(25):
            twist = random_traceless(rng)
            member = space.contains(tuple(v for row in twist.rows for v in row))
            assert deform_check(lp, QuadraticPair(twist, zero_cubic)) == member


# ---------------------------------------------------------------------------
# invariant cubics
# ---------------------------------------------------------------------------


def test_cubic_kernel_dimensions():
    assert cubic_kernel(Matrix.diagonal([1, 2, -3])).dim == 1
    assert cubic_kernel(Matrix.diagonal([1, 1, -2])).dim == 3
    assert cubic_kernel(Matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])).dim == 2
    assert cubic_kernel(ktilde((0, 0, 1))).dim == 2
    assert cubic_kernel(Matrix.zero(3)).dim == 10


def test_cubic_kernel_distinct_eigenvalues_span():
    space = cubic_kernel(Matrix.diagonal([1, 2, -3]))
    assert space.same_space(span_of_cubics([XYZ]))


def test_cubic_kernel_repeated_eigenvalue_span():
    space = cubic_kernel(Matrix.diagonal([1, 1, -2]))
    expected = [poly3({(1, 1, 1): 1}), poly3({(2, 0, 1): 1}), poly3({(0, 2, 1): 1})]
    assert space.same_space(span_of_cubics(expected))


def test_cubic_kernel_nilpotent_span():
    space = cubic_kernel(Matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]]))
    expected = [poly3({(0, 0, 3): 1}), poly3({(0, 2, 1): 1, (1, 0, 2): -2})]
    assert space.same_space(span_of_cubics(expected))


def test_cubic_kernel_rotation_span():
    space = cubic_kernel(ktilde((0, 0, 1)))
    expected = [poly3({(2, 0, 1): 1, (0, 2, 1): 1}), poly3({(0, 0, 3): 1})]
    assert space.same_space(span_of_cubics(expected))


def test_cubic_kernel_members_are_invariant(rng):
    for _ in range(5):
        twist = random_traceless(rng, -3, 3)
        cubic = random_kernel_cubic(rng, twist)
        assert apply_matrix_derivation(twist, cubic).is_zero()


def _random_twist_entry(rng):
    """Zero, rational, rational ExtScalar or irrational ExtScalar, so that
    entries cancel across the two scalar types."""
    pick = rng.random()
    if pick < 0.25:
        return F(0)
    if pick < 0.45:
        return ExtScalar.of(rng.randint(-2, 2))
    if pick < 0.65:
        return ExtScalar.parts(rng.randint(-2, 2), rng.randint(-1, 1),
                               0, rng.randint(-1, 1))
    return F(rng.randint(-3, 3), rng.randint(1, 2))


def _typed(rows):
    return [[(type(v), v) for v in row] for row in rows]


def _entries(m):
    """The entries of a matrix, row by row, as ``m.rows`` holds them."""
    return [v for row in m.rows for v in row]


def test_assembled_rows_match_the_polynomial_route(rng):
    for _ in range(300):
        entries = [[_random_twist_entry(rng) for _ in range(3)] for _ in range(3)]
        if rng.random() < 0.3:
            entries[1][1] = -entries[0][0]   # diagonal sums that cancel
        k_matrix = Matrix(entries)
        k = [_random_twist_entry(rng) for _ in range(3)]
        drifts = [along(Polynomial.monomial(3, e), k)
                  for e in CUBIC_MONOMIALS]
        drift = [[p.coeff(t) for p in drifts] for t in QUAD_MONOMIALS]
        assert _typed(_derivation_rows(_entries(k_matrix))) == _typed(
            ref.derivation_rows(k_matrix))
        assert _typed(_drift_rows(k)) == _typed(drift)


def test_integer_rows_are_the_scaled_rational_rows(rng):
    # solve_F and cubic_kernel assemble a rational system on ints: the
    # rows of D K and the drift of the lcm-scaled k, entry by entry the
    # rational rows times the scale, and all of type int
    for _ in range(100):
        k_matrix = Matrix([[F(rng.randint(-5, 5), rng.randint(1, 6))
                            for _ in range(3)] for _ in range(3)])
        den, ints = k_matrix.integer_form()
        int_rows = _derivation_rows(ints)
        assert _typed(int_rows) == [[(int, den * v) for v in row]
                                    for row in _derivation_rows(_entries(k_matrix))]
        k = [F(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(3)]
        scale = math.lcm(*(c.denominator for c in k))
        int_k = [(scale * c).numerator for c in k]
        assert _typed(_drift_rows(int_k)) == [[(int, scale * v) for v in row]
                                              for row in _drift_rows(k)]


def test_cubic_kernel_requires_traceless():
    with pytest.raises(ValueError, match="traceless"):
        cubic_kernel(Matrix.identity(3))


def test_cubic_coords_ordering():
    # graded order: x^3, x^2y, x^2z, xy^2, xyz, xz^2, y^3, y^2z, yz^2, z^3
    assert CUBIC_MONOMIALS[0] == (3, 0, 0)
    assert CUBIC_MONOMIALS[4] == (1, 1, 1)
    assert CUBIC_MONOMIALS[9] == (0, 0, 3)
    coords = cubic_coords(XYZ * F(1, 6))
    assert coords[4] == F(1, 6)
    assert sum(1 for c in coords if c != 0) == 1
    assert cubic_from_coords(coords) == XYZ * F(1, 6)


# ---------------------------------------------------------------------------
# the deformation solver
# ---------------------------------------------------------------------------


def test_solve_F_unique_solution():
    space = solve_F(BOOK, Matrix.diagonal([1, 2, -3]))
    particular, basis = solution_polys(space)
    assert particular == XYZ * F(1, 6)
    assert basis == ()


def test_solve_F_one_parameter_family():
    space = solve_F(BOOK, Matrix.diagonal([-2, 1, 1]))
    particular, basis = solution_polys(space)
    assert particular == XYZ * HALF
    assert basis == (poly3({(1, 2, 0): 1}),)


def test_solve_F_zero_space():
    space = solve_F(BOOK, Matrix.diagonal([1, 1, -2]))
    assert not space.is_empty and not space.basis and not any(space.particular)


def test_solve_F_empty():
    half_twist = Matrix([
        [-3, 0, 0],
        [0, F(3, 2), F(-1, 2)],
        [0, F(-1, 2), F(3, 2)],
    ])
    assert solve_F(BOOK, half_twist).is_empty


def test_solve_F_members_pass_bracket_route(rng):
    # every point of the affine solution set is an actual deformation, and
    # invariant cubics outside it are rejected
    twist = Matrix.diagonal([1, 2, -3])
    space = solve_F(BOOK, twist)
    rejected = 0
    attempts = 0
    while rejected < 25 and attempts < 400:
        attempts += 1
        cubic = random_kernel_cubic(rng, twist)
        if space.contains(cubic_coords(cubic)):
            continue
        assert not deform_check(BOOK, QuadraticPair(twist, cubic))
        rejected += 1
    assert rejected == 25


def test_solve_F_matches_the_fraction_system_for_fractional_k():
    # solve_F scales the drift rows and the right-hand side by D s (D the
    # denominator of the source, s the lcm of k's denominators); the
    # system assembled from Fraction rows must give the same space
    rng = random.Random(9400)
    families = [Matrix.diagonal([1, 2, -3]), Matrix.diagonal([1, 1, -2]),
                Matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]]), Matrix.zero(3)]
    solved = 0
    for _ in range(40):
        s = Matrix([[F(rng.randint(-4, 4), rng.randint(1, 5))
                     for _ in range(3)] for _ in range(3)])
        if not s.det():
            continue
        lp = transform_linear_pair(s, standard_pair(rng.randint(1, 10)))
        twist = (s * rng.choice(families) * s.inverse()).scaled(
            F(rng.randint(1, 5), rng.randint(1, 7)))
        rows = _derivation_rows(_entries(twist)) + _drift_rows(lp.k)
        source = deform_rhs(lp, twist)
        rhs = [F(0)] * 10 + [source.coeff(m) for m in QUAD_MONOMIALS]
        want = solve_linear(rows, rhs, 10)
        got = solve_F(lp, twist)
        assert got == want
        assert [type(v) for v in got.particular or ()] == [
            type(v) for v in want.particular or ()]
        solved += not got.is_empty and any(c.denominator > 1 for c in lp.k)
    assert solved >= 5
    lp = LinearPair((F(0), F(0), F(7, 4)), Matrix(
        [[F(1, 6), F(2, 15), 0], [F(2, 15), F(-7, 4), 0], [0, 0, 0]]))
    space = solve_F(lp, Matrix.diagonal([F(1, 6), F(1, 6), F(-1, 3)]))
    assert str(solution_polys(space)[0]) == "-2/63·x^2z - 16/315·xyz + 1/3·y^2z"
    assert space.basis == ()


def test_solve_F_equivariance(rng):
    # conjugating the twist by a symmetry of the pair transports the
    # solution set through the pair transform
    samples = [
        (2, Matrix([[F(3, 5), F(4, 5), 0], [F(-4, 5), F(3, 5), 0], [0, 0, 1]])),
        (7, Matrix([[1, 7, 0], [2, 5, 0], [3, 4, 1]])),
        (10, Matrix([[3, 0, 0], [7, 3, 0], [2, 8, 1]])),
        (3, Matrix([[F(5, 4), 0, F(3, 4)], [0, 1, 0], [F(3, 4), 0, F(5, 4)]])),
    ]
    for case, t in samples:
        assert aut_member(t, case)
        lp = standard_pair(case)
        t_inv = t.inverse()
        det = t.det()
        for _ in range(4):
            twist = random_traceless(rng)
            left = solve_F(lp, t * twist * t_inv)
            right = solve_F(lp, twist)
            if right.is_empty:
                assert left.is_empty
                continue

            def push(coords):
                moved = cubic_from_coords(coords).compose_linear(t_inv) * det
                return cubic_coords(moved)

            image = SolutionSpace.spanned_by(
                push(right.particular), [push(b) for b in right.basis])
            assert left.same_space(image)


def _typed_space(space):
    if space.is_empty:
        return None
    return [[(type(v), v) for v in x] for x in (space.particular,) + space.basis]


def _random_rational_twist(rng):
    rows = [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)]
            for _ in range(3)]
    rows[2][2] = -rows[0][0] - rows[1][1]
    return Matrix(rows)


#: traceless K with cubic kernels of dimension 3, 2, 2, 2 and 10
DEGENERATE_TWISTS = [
    Matrix.diagonal([1, 1, -2]),
    Matrix.diagonal([1, -1, 0]),
    Matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]]),
    ktilde((0, 0, 1)),
    Matrix.zero(3),
]


def test_solve_F_on_the_kernel_matches_the_stacked_system(rng):
    # solve_F solves six equations on a basis of the cubic kernel; the
    # 16x10 system it replaced must give the same space, entry by entry
    # in value and type, for rational, field and degenerate twists
    families = [
        JordanFamily.diag_distinct(*rng.choice([(1, 2, -3), (F(1, 2), F(-3, 2), 1),
                                                (3, -1, -2)])),
        JordanFamily.diag_repeated(F(rng.randint(1, 4), rng.randint(1, 3))),
        JordanFamily.nilpotent_full(),
    ]
    draws = [(transform_linear_pair(random_invertible(rng),
                                    standard_pair(rng.randint(1, 10))),
              _random_rational_twist(rng)) for _ in range(40)]
    draws += [(standard_pair(case), orbit.twist)
              for family in families for orbit in enumerate_orbit_pairs(family)
              for case in rng.sample(range(1, 11), 3)]
    draws += [(standard_pair(case), twist)
              for twist in DEGENERATE_TWISTS for case in (1, 6, 7, 10)]
    dims, field, solved = set(), 0, 0
    for lp, twist in draws:
        got, want = solve_F(lp, twist), ref.stacked_solve_F(lp, twist)
        assert got == want
        assert _typed_space(got) == _typed_space(want)
        kernel = cubic_kernel(twist)
        assert _typed_space(kernel) == _typed_space(
            solve_linear(_derivation_rows(_entries(twist)), [0] * 10, 10))
        assert kernel.dim >= 1
        dims.add(kernel.dim)
        field += twist.integer_form() is None
        solved += not got.is_empty
    assert {1, 2, 3, 10} <= dims
    assert field >= 10 and solved >= 10


def test_twists_equal_in_value_keep_the_entry_types_of_their_own_solve():
    # a field-form K whose ExtScalars are all zero solves on ints, like
    # the same K with an ExtScalar entry does not: the shared kernel must
    # keep the entry types of each
    on_ring = Matrix([[ExtScalar.of(1), 0, 0], [0, ExtScalar.of(-1), 0],
                      [0, 0, 0]])
    on_ints = Matrix([[1, 0, 0], [0, -1, 0], [0, 0, ExtScalar.of(0)]])
    assert on_ring == on_ints
    for twist in (on_ring, on_ints, on_ring, on_ints):
        assert _typed_space(cubic_kernel(twist)) == _typed_space(
            solve_linear(_derivation_rows(_entries(twist)), [0] * 10, 10))
        for case in (7, 10):
            lp = standard_pair(case)
            assert _typed_space(solve_F(lp, twist)) == _typed_space(
                ref.stacked_solve_F(lp, twist))


def _random_ring_twist(rng):
    rows = [[_random_twist_entry(rng) for _ in range(3)] for _ in range(3)]
    rows[2][2] = -rows[0][0] - rows[1][1]
    return Matrix(rows)


def test_closed_form_kernel_matches_the_elimination(rng):
    # a regular twist takes the line of det(x, Kx, K^2 x) with no
    # elimination: it must be the space the elimination gives, in values
    # and entry types, as every other twist's still is
    twists = [_random_rational_twist(rng) for _ in range(60)]
    twists += [_random_ring_twist(rng) for _ in range(80)]
    twists += DEGENERATE_TWISTS
    twists += [Matrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]]),
                # regular, with a zero and a rational ExtScalar entry
                Matrix([[1, ExtScalar.of(0), 0], [0, 2, 0], [0, 0, -3]]),
                Matrix([[ExtScalar.of(1), 1, 0], [0, 2, 0], [0, 0, -3]]),
                Matrix.diagonal([SQRT2, SQRT3, -SQRT2 - SQRT3])]
    dims, regular = set(), {True: 0, False: 0}
    for twist in twists:
        quaddef._kernel_of.cache_clear()
        got = cubic_kernel(twist)
        assert _typed_space(got) == _typed_space(ref.kernel(twist))
        dims.add(got.dim)
        values = twist._form[1]
        if quaddef._invariant_cubic(values) is not None:
            assert got.dim == 1
            regular[any(type(v) is ExtScalar and v for v in values)] += 1
    assert {1, 2, 3, 10} <= dims
    assert regular[False] >= 50 and regular[True] >= 20


def test_deform_check_raises_when_its_routes_disagree(monkeypatch):
    qp = QuadraticPair(Matrix.diagonal([1, 2, -3]), XYZ * F(1, 6))
    monkeypatch.setattr(quaddef, "_brackets_to_zero", lambda lin, quad: False)
    with pytest.raises(AssertionError, match=r"routes disagree "
                       r"\(bracket: False, identity: True\)"):
        deform_check(BOOK, qp)


# ---------------------------------------------------------------------------
# eigenvalue families
# ---------------------------------------------------------------------------


def test_family_constructors_validate():
    with pytest.raises(ValueError):
        JordanFamily.diag_distinct(1, 2, 3)       # sum != 0
    with pytest.raises(ValueError):
        JordanFamily.diag_distinct(1, 1, -2)      # not distinct
    with pytest.raises(ValueError):
        JordanFamily.diag_distinct(0, 1, -1)      # zero eigenvalue
    with pytest.raises(ValueError):
        JordanFamily.diag_repeated(0)


def test_family_matrices():
    assert JordanFamily.diag_distinct(1, 2, -3).matrix() == \
        Matrix.diagonal([1, 2, -3])
    assert JordanFamily.diag_repeated(2).matrix() == \
        Matrix.diagonal([2, 2, -4])
    assert JordanFamily.nilpotent_full().matrix() == \
        Matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])


def test_jordan_family_of_recovers_families(rng):
    assert jordan_family_of(Matrix.diagonal([1, 2, -3])) == \
        JordanFamily.diag_distinct(1, 2, -3)
    for _ in range(8):
        t = random_invertible(rng)
        t_inv = t.inverse()
        conj = t * Matrix.diagonal([2, 2, -4]) * t_inv
        assert jordan_family_of(conj) == JordanFamily.diag_repeated(2)
        nil = t * Matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]]) * t_inv
        assert jordan_family_of(nil) == JordanFamily.nilpotent_full()


def test_jordan_family_of_sorts_off_diagonal_input():
    conj = Matrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    m = conj * Matrix.diagonal([1, 2, -3]) * conj  # diag(2, 1, -3) permuted
    fam = jordan_family_of(m)
    assert fam.tag == DIAG_DISTINCT
    assert fam.lambdas == (2, 1, -3)  # descending


def test_jordan_family_of_other_cases():
    assert jordan_family_of(Matrix.zero(3)).tag == OTHER
    assert jordan_family_of(Matrix.diagonal([1, -1, 0])).tag == OTHER
    assert jordan_family_of(Matrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]])).tag == OTHER
    rot = jordan_family_of(ktilde((0, 0, 1)))
    assert rot.tag == OTHER
    assert len(rot.eigen_report) == 3  # complex spectrum, float report
    with pytest.raises(ValueError, match="traceless"):
        jordan_family_of(Matrix.identity(3))


def test_jordan_family_of_searches_the_characteristic_cubic_once(monkeypatch):
    # a rational twist outside the three families hands its root search,
    # with c2 and det, to the float report, which does not search again
    real, calls = quaddef._rational_roots_monic_cubic, []

    def counted(c2, c0):
        calls.append((c2, c0))
        return real(c2, c0)

    monkeypatch.setattr(quaddef, "_rational_roots_monic_cubic", counted)
    for m in (ktilde((0, 0, 1)), Matrix.diagonal([1, -1, 0]),
              Matrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]]),
              Matrix([[1, 2, 0], [3, -1, 1], [0, 5, 0]])):
        calls.clear()
        family = jordan_family_of(m)
        assert family.tag == OTHER and len(calls) == 1, (m, calls)
        assert family.eigen_report == _float_eigen_report(m)


@pytest.mark.parametrize("irrational", [False, True])
def test_eigen_report_satisfies_vieta(rng, irrational):
    """The reported roots of OTHER twists have sum 0 (the trace), pairwise
    product sum c2 and product det, up to float rounding."""
    seen = 0
    while seen < 60:
        rows = [[random_ext_scalar(rng, irrational) for _ in range(3)]
                for _ in range(3)]
        rows[2][2] = -rows[0][0] - rows[1][1]
        m = Matrix(rows)
        family = jordan_family_of(m)
        if family.tag != OTHER:
            continue
        seen += 1
        report = family.eigen_report
        assert report == _float_eigen_report(m)
        keys = [(round(re, 9), round(im, 9)) for re, im in report]
        assert keys == sorted(keys)
        l1, l2, l3 = (complex(re, im) for re, im in report)
        c2 = sum(m.rows[i][i] * m.rows[j][j] - m.rows[i][j] * m.rows[j][i]
                 for i, j in ((0, 1), (0, 2), (1, 2)))
        scale = max(1.0, abs(l1), abs(l2), abs(l3))
        assert abs(l1 + l2 + l3) <= 1e-9 * scale
        assert abs(l1 * l2 + l1 * l3 + l2 * l3 - float(c2)) <= 1e-9 * scale ** 2
        assert abs(l1 * l2 * l3 - float(m.det())) <= 1e-9 * scale ** 3


def test_eigen_report_scales_past_the_float_range():
    huge = Matrix([[0, F(10) ** 400, 0], [-1, 0, 0], [0, 0, 0]])
    assert _float_eigen_report(huge) == ((0.0, -1e200), (0.0, 0.0),
                                         (0.0, 1e200))
    for beyond in (Matrix([[0, F(10) ** 700, 0], [-1, 0, 0], [0, 0, 0]]),
                   Matrix.diagonal([F(10) ** 400, -F(10) ** 400, 0])):
        with pytest.raises(ValueError, match="beyond the float range"):
            jordan_family_of(beyond)


def test_eigen_report_is_exact_at_a_repeated_irrational_root():
    """With c2 != 0 and discriminant -4 c2^3 - 27 det^2 = 0 the roots are
    3 det / (2 c2), twice, and -3 det / c2, exact in the field; bisection
    to the double root would lose about half its digits."""
    r2, r3 = float(SQRT2), float(SQRT3)
    assert r2 == 1.4142135623730951
    for m in (Matrix.diagonal([SQRT2, SQRT2, -2 * SQRT2]),
              Matrix([[SQRT2, 1, 0], [0, SQRT2, 0], [0, 0, -2 * SQRT2]])):
        assert _float_eigen_report(m) == ((-2 * r2, 0.0), (r2, 0.0),
                                          (r2, 0.0))
        assert jordan_family_of(m).eigen_report == _float_eigen_report(m)
    assert _float_eigen_report(Matrix.diagonal([-SQRT3, -SQRT3, 2 * SQRT3])) == (
        (-r3, 0.0), (-r3, 0.0), (2 * r3, 0.0))
    huge = F(10) ** 400 * SQRT2
    with pytest.raises(ValueError, match="beyond the float range"):
        _float_eigen_report(Matrix.diagonal([huge, huge, -2 * huge]))


def _trial_division_roots(c2, c0):
    """Reference: one rational root by the rational-root theorem, found by
    trial division, then the deflated quadratic.  Exponential in the bit
    size of the coefficients, so only for small ones."""
    den = c2.denominator * c0.denominator
    a0 = int(c0 * den)

    def divisors(n):
        n = abs(n)
        small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
        return set(small) | {n // d for d in small}

    candidates = [F(0)] if a0 == 0 else [
        F(sign * p, q) for p in divisors(a0) for q in divisors(den)
        for sign in (1, -1)]
    root = next((t for t in candidates if t ** 3 + c2 * t + c0 == 0), None)
    if root is None:
        return None
    b, c = root, root * root + c2
    disc = b * b - 4 * c
    if disc < 0:
        return None
    rn, rd = math.isqrt(disc.numerator), math.isqrt(disc.denominator)
    if rn * rn != disc.numerator or rd * rd != disc.denominator:
        return None
    sq = F(rn, rd)
    return (root, (-b + sq) / 2, (-b - sq) / 2)


def test_rational_roots_match_trial_division():
    rng = random.Random(308)
    splits = 0
    for _ in range(300):
        if rng.random() < 0.5:
            r1, r2 = (F(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(2))
            r3 = -r1 - r2
            c2, c0 = r1 * r2 + r1 * r3 + r2 * r3, -r1 * r2 * r3
        else:
            c2, c0 = (F(rng.randint(-40, 40), rng.randint(1, 6)) for _ in range(2))
        got = _rational_roots_monic_cubic(c2, c0)
        want = _trial_division_roots(c2, c0)
        assert (got is None) == (want is None)
        if got is not None:
            assert sorted(got) == sorted(want)
            splits += 1
    assert 100 < splits < 300


def test_orbit_family_of_thirty_digit_eigenvalues_is_fast():
    # trial division up to sqrt|det| would never finish on these
    script = (
        "from fractions import Fraction as F\n"
        "from poisson_forge.exactnum import Matrix\n"
        "from poisson_forge.quaddef import _rational_roots_monic_cubic, "
        "jordan_family_of\n"
        "a, b = 3 * 10**29 + 7, -(10**29 + 1234567)\n"
        "t = Matrix([[1, 2, 0], [0, 1, 3], [1, 0, 1]])\n"
        "k = t * Matrix.diagonal([a, b, -a - b]) * t.inverse()\n"
        "print(jordan_family_of(k).lambdas == (a, b, -a - b))\n"
        "print(jordan_family_of(Matrix.diagonal([F(a, 7), F(b, 7), F(-a - b, 7)]))"
        ".lambdas == (F(a, 7), F(b, 7), F(-a - b, 7)))\n"
        "print(_rational_roots_monic_cubic(F(0), F(10**90 + 1)))\n"
        "print(_rational_roots_monic_cubic(F(-10**60), F(1)))\n"
    )
    try:
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=10)
    except subprocess.TimeoutExpired:
        pytest.fail("30-digit eigenvalues took more than 10 s")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "True", "None", "None"]


def test_orbit_family_of_four_thousand_digit_entries_is_fast():
    # a search from the Cauchy bound took tens of seconds on each twist
    script = (
        "from poisson_forge.exactnum import Matrix\n"
        "from poisson_forge.quaddef import jordan_family_of\n"
        "a = 10**4000\n"
        "family = jordan_family_of(Matrix.diagonal([a, 2 * a, -3 * a]))\n"
        "print(family.lambdas == (a, 2 * a, -3 * a))\n"
        "try:\n"
        "    jordan_family_of(Matrix([[0, a, 0], [-a, 0, 0], [0, 0, 0]]))\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    try:
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=10)
    except subprocess.TimeoutExpired:
        pytest.fail("4000-digit eigenvalues took more than 10 s")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "True", "an eigenvalue is beyond the float range"]


def test_jordan_family_roundtrip():
    for fam in (JordanFamily.diag_distinct(1, -4, 3),
                JordanFamily.diag_repeated(1),
                JordanFamily.nilpotent_full()):
        assert jordan_family_of(fam.matrix()) == fam


# ---------------------------------------------------------------------------
# projective points and orbit representatives
# ---------------------------------------------------------------------------


def test_p2_point_canonicalization():
    p = P2Point((3, 0, 5))
    assert p.coords == (F(3, 5), 0, 1)
    assert p.support == (0, 2)
    assert P2Point((0, -2, 0)).coords == (0, 1, 0)
    with pytest.raises(ValueError):
        P2Point((0, 0, 0))
    assert P2Point.from_json(p.to_json()) == p


def test_p2_point_unit_vector():
    u = P2Point((0, 1, 1)).unit_vector()
    assert u == (0, scalar_div(SQRT2, 2), scalar_div(SQRT2, 2))
    with pytest.raises(ExactSqrtError):
        P2Point((3, 0, 5)).unit_vector()  # norm sqrt(34) leaves the field


def test_orbit_counts():
    assert orbit_count(JordanFamily.diag_distinct(1, 2, -3)) == 7
    assert orbit_count(JordanFamily.diag_repeated(1)) == 3
    assert orbit_count(JordanFamily.nilpotent_full()) == 3


def test_orbit_rep_distinct_strata():
    fam = JordanFamily.diag_distinct(1, 2, -3)
    expected = {
        (0, 0, 1): 1, (0, 1, 0): 2, (1, 0, 0): 3,
        (1, 1, 0): 4, (0, 1, 1): 5, (3, 0, 5): 6, (1, 2, 3): 7,
    }
    for point, orbit in expected.items():
        assert p2_orbit_rep(fam, P2Point(point)).orbit_index == orbit


def test_orbit_rep_repeated_strata():
    fam = JordanFamily.diag_repeated(1)
    assert p2_orbit_rep(fam, P2Point((0, 0, 1))).orbit_index == 1
    assert p2_orbit_rep(fam, P2Point((1, 1, 0))).orbit_index == 2
    assert p2_orbit_rep(fam, P2Point((2, 3, 1))).orbit_index == 3


def test_orbit_rep_nilpotent_strata():
    fam = JordanFamily.nilpotent_full()
    assert p2_orbit_rep(fam, P2Point((0, 0, 1))).orbit_index == 1
    assert p2_orbit_rep(fam, P2Point((0, 5, 1))).orbit_index == 2
    assert p2_orbit_rep(fam, P2Point((1, 2, 3))).orbit_index == 3


def test_orbit_rep_rejects_unstructured_family():
    other = jordan_family_of(ktilde((0, 0, 1)))
    with pytest.raises(ValueError):
        p2_orbit_rep(other, P2Point((0, 0, 1)))


def test_orbit_rep_reaches_every_orbit(rng):
    families = [
        (JordanFamily.diag_distinct(1, 2, -3), set(range(1, 8))),
        (JordanFamily.diag_repeated(1), {1, 2, 3}),
        (JordanFamily.nilpotent_full(), {1, 2, 3}),
    ]
    for fam, wanted in families:
        seen = set()
        for _ in range(300):
            coords = [rng.randint(-2, 2) for _ in range(3)]
            if not any(coords):
                continue
            rep = p2_orbit_rep(fam, P2Point(coords))
            seen.add(rep.orbit_index)
            assert rep.rotation.transpose() * rep.rotation == Matrix.identity(3)
        assert seen == wanted


def test_orbit_rep_rotations_are_memoised_per_point():
    families = (
        JordanFamily.diag_distinct(1, 2, -3),
        JordanFamily.diag_distinct(F(1, 2), 5, F(-11, 2)),
        JordanFamily.diag_repeated(1),
        JordanFamily.diag_repeated(F(-7, 3)),
        JordanFamily.nilpotent_full(),
    )
    points = [(a, b, c) for a in (-1, 0, 2) for b in (-1, 0, 2)
              for c in (0, 1) if a or b or c]
    first = {}
    for fam in families:
        for point in points:
            rep = p2_orbit_rep(fam, P2Point(point))
            key = rep.point.coords
            # the rotation depends on the representative point alone
            assert first.setdefault(key, rep.rotation) is rep.rotation
            assert p2_orbit_rep(fam, P2Point(point)) == rep
    assert _rep_rotation.cache_info().currsize <= 13


def _run_optimized(body):
    """Run a snippet under ``python -O``, where assert statements vanish."""
    script = "import sys\nif __debug__:\n    sys.exit('not optimized')\n" + body
    return subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True)


def test_solver_recheck_survives_optimized_mode():
    proc = _run_optimized(
        "from poisson_forge import quaddef\n"
        "from poisson_forge.exactnum import Matrix\n"
        "from poisson_forge.linclass import standard_pair\n"
        "quaddef.deform_check = lambda lp, qp: False\n"
        "try:\n"
        "    quaddef.solve_F(standard_pair(7), Matrix.diagonal([1, 2, -3]))\n"
        "except AssertionError as exc:\n"
        "    print(exc)\n"
        "else:\n"
        "    sys.exit('solve_F returned a cubic the bracket route rejects')\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert "bracket route rejects" in proc.stdout


def test_route_disagreement_survives_optimized_mode():
    proc = _run_optimized(
        "from poisson_forge import quaddef\n"
        "from poisson_forge.exactnum import Matrix, Polynomial\n"
        "from poisson_forge.linclass import standard_pair\n"
        "quaddef._brackets_to_zero = lambda lin, quad: True\n"
        "qp = quaddef.QuadraticPair(Matrix.diagonal([1, 2, -3]),\n"
        "                           Polynomial(3, {(1, 1, 1): 1}))\n"
        "try:\n"
        "    quaddef.deform_check(standard_pair(7), qp)\n"
        "except AssertionError as exc:\n"
        "    print(exc)\n"
        "else:\n"
        "    sys.exit('deform_check returned on disagreeing routes')\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert "(bracket: True, identity: False)" in proc.stdout


@pytest.mark.parametrize("fake_cross, message", [
    ("lambda u, w: (0, 0, 0)", "not orthogonal"),
    ("lambda u, w: tuple(-c for c in cross3(u, w))", "determinant 1"),
])
def test_rotation_checks_survive_optimized_mode(fake_cross, message):
    proc = _run_optimized(
        "from poisson_forge import quaddef\n"
        "from poisson_forge.exactnum import cross3\n"
        "quaddef.cross3 = %s\n"
        "try:\n"
        "    quaddef.t_of_v(quaddef.P2Point((1, 1, 1)).unit_vector())\n"
        "except AssertionError as exc:\n"
        "    print(exc)\n"
        "else:\n"
        "    sys.exit('t_of_v returned a matrix outside SO(3)')\n" % fake_cross
    )
    assert proc.returncode == 0, proc.stderr
    assert message in proc.stdout


# ---------------------------------------------------------------------------
# rotations onto representatives
# ---------------------------------------------------------------------------


def test_t_of_v_identity_at_vertical():
    assert t_of_v((0, 0, 1)) == Matrix.identity(3)


def test_t_of_v_displayed_rotations():
    s = scalar_div(SQRT2, 2)
    assert t_of_v(P2Point((0, 1, 0)).unit_vector()) == \
        Matrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    assert t_of_v(P2Point((1, 0, 0)).unit_vector()) == \
        Matrix([[0, 0, 1], [0, -1, 0], [1, 0, 0]])
    assert t_of_v(P2Point((1, 1, 0)).unit_vector()) == \
        Matrix([[0, 0, 1], [s, -s, 0], [s, s, 0]])
    assert t_of_v(P2Point((0, 1, 1)).unit_vector()) == \
        Matrix([[0, -s, s], [1, 0, 0], [0, s, s]])
    assert t_of_v(P2Point((1, 0, 1)).unit_vector()) == \
        Matrix([[-s, 0, s], [0, -1, 0], [s, 0, s]])
    t7 = t_of_v(P2Point((1, 1, 1)).unit_vector())
    s6, s3 = scalar_div(SQRT6, 6), scalar_div(SQRT3, 3)
    assert t7 == Matrix([
        [-s6, -s6, scalar_div(SQRT6, 3)],
        [s, -s, 0],
        [s3, s3, s3],
    ])


def test_t_of_v_is_special_orthogonal():
    for point in ((0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 0),
                  (0, 1, 1), (1, 0, 1), (1, 1, 1)):
        t = t_of_v(P2Point(point).unit_vector())
        assert t.transpose() * t == Matrix.identity(3)
        assert t.det() == 1


def test_t_of_v_rejects_bad_exact_input():
    with pytest.raises(ValueError, match="unit"):
        t_of_v((F(1), F(1), F(0)))
    with pytest.raises(ValueError, match="nonnegative"):
        t_of_v((0, 0, F(-1)))


def _is_float_rows(t):
    return (isinstance(t, tuple) and len(t) == 3
            and all(isinstance(row, tuple) and len(row) == 3
                    and all(isinstance(v, float) for v in row) for row in t))


def test_t_of_v_float_fallback():
    t = t_of_v((0.6, 0.0, 0.8))
    assert _is_float_rows(t)
    assert max(abs(sum(a * b for a, b in zip(t[i], t[j])) - (i == j))
               for i in range(3) for j in range(3)) < 1e-12
    # |a - b| <= 1e-8 + 1e-5 |b|, the bounds of the former allclose check
    assert all(abs(a - b) <= 1e-8 + 1e-5 * abs(b)
               for a, b in zip(t[2], [0.6, 0.0, 0.8]))
    # exact input whose norm leaves the field drops to floats too
    t = t_of_v(P2Point((3, 0, 5)))
    assert _is_float_rows(t)
    det = sum(a * b for a, b in zip(t[0], cross3(t[1], t[2])))
    assert abs(det - 1.0) < 1e-12


def _exact_value(c) -> Decimal:
    """An exact scalar to 120 digits."""
    if isinstance(c, ExtScalar):
        roots = (Decimal(1), Decimal(2).sqrt(), Decimal(3).sqrt(),
                 Decimal(6).sqrt())
        return sum(n * r for n, r in zip(c._num, roots)) / c._den
    return Decimal(c.numerator) / c.denominator


def _is_nearest(u: float, c, norm_sq) -> bool:
    """Is u the float nearest c / sqrt(norm_sq)?  For rational c it is
    decided exactly: |c| / sqrt(N) lies between the midpoints of u and its
    neighbours when their squares times N bracket c^2."""
    if isinstance(c, ExtScalar) or isinstance(norm_sq, ExtScalar):
        with localcontext() as ctx:
            ctx.prec = 120
            return u == float(_exact_value(c) / _exact_value(norm_sq).sqrt())
    a = abs(u)
    if a and (u < 0) != (c < 0):
        return False
    low = (F(math.nextafter(a, 0.0)) + F(a)) / 2
    high = (F(a) + F(math.nextafter(a, math.inf))) / 2
    return low * low * norm_sq <= c * c <= high * high * norm_sq


def test_float_unit_is_correctly_rounded(rng):
    """The unit row of the float rotation of a point with no exact unit
    is c / |c| rounded to nearest, entry by entry."""
    points = [P2Point(tuple(F(rng.randint(-99999, 99999), rng.randint(1, 99999))
                            for _ in range(3))) for _ in range(300)]
    points += [P2Point((F(rng.randint(1, 99999), 10 ** rng.randint(20, 400)),
                        F(rng.randint(-9, 9)), 1)) for _ in range(20)]
    points += [P2Point((1 + SQRT2, 1, 1)), P2Point((F(1393, 985) - SQRT2, 0, 1)),
               P2Point((SQRT3 - 1, SQRT2 * F(1, 7), 0))]
    points += [P2Point((random_ext_scalar(rng, True), random_ext_scalar(rng, True),
                        1)) for _ in range(40)]
    fallback = 0
    for point in points:
        try:
            point.unit_vector()
            continue
        except ExactSqrtError:
            fallback += 1
        unit = t_of_v(point)[2]
        norm_sq = sum((c * c for c in point.coords), F(0))
        assert all(_is_nearest(u, c, norm_sq)
                   for u, c in zip(unit, point.coords)), point
    assert fallback >= 330
    # a float input reads as its exact binary value, flipped upward
    unit = t_of_v((0.6, 0.0, -0.8))[2]
    assert all(_is_nearest(u, -F(c), F(0.6) ** 2 + F(0.8) ** 2)
               for u, c in zip(unit, (0.6, 0.0, -0.8)))


# ---------------------------------------------------------------------------
# orbit pairs: conjugated twists and transported invariant cubics
# ---------------------------------------------------------------------------


def _orbit_map(family):
    return {of.rep.orbit_index: of for of in enumerate_orbit_pairs(family)}


def test_orbit_pairs_distinct_family_twists():
    pairs = _orbit_map(JordanFamily.diag_distinct(1, 2, -3))
    assert pairs[1].twist == Matrix.diagonal([1, 2, -3])
    assert pairs[2].twist == Matrix.diagonal([-3, 1, 2])
    assert pairs[3].twist == Matrix.diagonal([-3, 2, 1])
    assert pairs[4].twist == Matrix([
        [-3, 0, 0], [0, F(3, 2), F(-1, 2)], [0, F(-1, 2), F(3, 2)]])
    assert pairs[5].twist == Matrix([
        [F(-1, 2), 0, F(-5, 2)], [0, 1, 0], [F(-5, 2), 0, F(-1, 2)]])
    assert pairs[6].twist == Matrix([
        [-1, 0, -2], [0, 2, 0], [-2, 0, -1]])
    s2, s3, s6 = SQRT2, SQRT3, SQRT6
    assert pairs[7].twist == Matrix([
        [F(-3, 2), scalar_div(s3, 6), scalar_div(s2 * (-3), 2)],
        [scalar_div(s3, 6), F(3, 2), scalar_div(s6 * (-1), 6)],
        [scalar_div(s2 * (-3), 2), scalar_div(s6 * (-1), 6), 0],
    ])


def test_orbit_pairs_distinct_family_cubics():
    pairs = _orbit_map(JordanFamily.diag_distinct(1, 2, -3))
    assert pairs[1].cubics == (XYZ,)
    assert pairs[2].cubics == (XYZ,)
    assert pairs[3].cubics == (XYZ * (-1),)
    assert pairs[4].cubics == (poly3({(1, 2, 0): (-1, 2), (1, 0, 2): (1, 2)}),)
    assert pairs[5].cubics == (poly3({(2, 1, 0): (-1, 2), (0, 1, 2): (1, 2)}),)
    assert pairs[6].cubics == (poly3({(2, 1, 0): (1, 2), (0, 1, 2): (-1, 2)}),)
    (seventh,) = pairs[7].cubics
    assert seventh.coeff((0, 0, 3)) == scalar_div(SQRT3, 9)


def test_orbit_pairs_repeated_family():
    pairs = _orbit_map(JordanFamily.diag_repeated(1))
    assert pairs[1].twist == Matrix.diagonal([1, 1, -2])
    assert pairs[2].twist == Matrix.diagonal([-2, 1, 1])
    assert pairs[3].twist == Matrix([
        [F(-1, 2), 0, F(-3, 2)], [0, 1, 0], [F(-3, 2), 0, F(-1, 2)]])
    assert span_of_cubics(pairs[2].cubics).same_space(span_of_cubics([
        poly3({(1, 1, 1): 1}), poly3({(1, 2, 0): 1}), poly3({(1, 0, 2): 1})]))
    # third orbit: compare spans with the transported written family
    half_s2 = scalar_div(SQRT2, 2)
    written = [
        poly3({(2, 1, 0): (-1, 2), (0, 1, 2): (1, 2)}),
        (Y * Y * Z + X * Y * Y) * half_s2,
        poly3({(0, 0, 3): 1, (1, 0, 2): -1, (2, 0, 1): -1, (3, 0, 0): 1})
        * scalar_div(SQRT2, 4),
    ]
    assert span_of_cubics(pairs[3].cubics).same_space(span_of_cubics(written))


def test_orbit_pairs_repeated_family_scales_with_eigenvalue():
    pairs = _orbit_map(JordanFamily.diag_repeated(2))
    assert pairs[3].twist == Matrix([
        [-1, 0, -3], [0, 2, 0], [-3, 0, -1]])


def test_orbit_pairs_nilpotent_family():
    pairs = _orbit_map(JordanFamily.nilpotent_full())
    assert pairs[1].twist == Matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert pairs[2].twist == Matrix([[0, 0, 0], [0, 0, 1], [1, 0, 0]])
    assert pairs[3].twist == Matrix([[0, 0, 0], [-1, 0, 0], [0, -1, 0]])
    assert span_of_cubics(pairs[2].cubics).same_space(span_of_cubics([
        X * X * X, poly3({(2, 1, 0): 2, (1, 0, 2): -1})]))
    assert span_of_cubics(pairs[3].cubics).same_space(span_of_cubics([
        X * X * X, poly3({(2, 0, 1): 2, (1, 2, 0): -1})]))


def test_orbit_pairs_cubics_invariant_under_twist():
    for fam in (JordanFamily.diag_distinct(1, -4, 3),
                JordanFamily.diag_repeated(1),
                JordanFamily.nilpotent_full()):
        for of in enumerate_orbit_pairs(fam):
            for cubic in of.cubics:
                assert apply_matrix_derivation(of.twist, cubic).is_zero()


# ---------------------------------------------------------------------------
# deformation catalogs per family
# ---------------------------------------------------------------------------


def _catalog_map(case_id, family):
    return {e.orbit_index: e for e in catalog(case_id, family)}


def test_catalog_distinct_family_first_probe():
    entries = _catalog_map(7, JordanFamily.diag_distinct(1, 2, -3))
    for orbit, coeff in ((1, F(1, 6)), (2, F(2, 3)), (3, F(5, 6))):
        particular, basis = solution_polys(entries[orbit].solution)
        assert particular == XYZ * coeff
        assert basis == ()
    for orbit in (4, 5, 6, 7):
        assert entries[orbit].solution.is_empty


def test_catalog_distinct_family_second_probe():
    entries = _catalog_map(7, JordanFamily.diag_distinct(1, -4, 3))
    for orbit, coeff in ((1, F(-5, 6)), (2, F(-1, 3)), (3, F(-7, 6))):
        particular, basis = solution_polys(entries[orbit].solution)
        assert particular == XYZ * coeff
        assert basis == ()
    for orbit in (4, 5, 6, 7):
        assert entries[orbit].solution.is_empty


def test_catalog_distinct_family_difference_pattern(rng):
    # orbit-1 coefficient is (second - first)/6 for any valid eigenvalue draw
    for _ in range(6):
        while True:
            l1, l2 = (F(rng.randint(-6, 6)) for _ in range(2))
            l3 = -l1 - l2
            if len({l1, l2, l3}) == 3 and 0 not in (l1, l2, l3):
                break
        entries = _catalog_map(7, JordanFamily.diag_distinct(l1, l2, l3))
        particular, _ = solution_polys(entries[1].solution)
        assert particular == XYZ * ((l2 - l1) / 6)


@pytest.mark.parametrize("lam", [1, 2])
def test_catalog_repeated_family(lam):
    entries = _catalog_map(7, JordanFamily.diag_repeated(lam))
    zero = entries[1].solution
    assert not zero.is_empty and not zero.basis and not any(zero.particular)
    particular, basis = solution_polys(entries[2].solution)
    assert particular == XYZ * F(lam, 2)
    assert basis == (poly3({(1, 2, 0): 1}),)
    assert entries[3].solution.is_empty


def test_catalog_nilpotent_family():
    entries = _catalog_map(7, JordanFamily.nilpotent_full())
    assert entries[1].solution.is_empty
    particular, basis = solution_polys(entries[2].solution)
    assert particular == poly3({(2, 1, 0): (-1, 6), (1, 0, 2): (1, 12)})
    assert basis == (X * X * X,)
    particular, basis = solution_polys(entries[3].solution)
    assert particular == poly3({(2, 0, 1): (-1, 6), (1, 2, 0): (1, 12)})
    assert basis == (X * X * X,)


@pytest.mark.parametrize("lam", [1, 2])
def test_catalog_open_book_pair_repeated_family(lam):
    entries = _catalog_map(10, JordanFamily.diag_repeated(lam))
    particular, basis = solution_polys(entries[1].solution)
    assert particular == poly3({(2, 0, 1): -2 * lam})
    assert basis == ()
    assert entries[2].solution.is_empty
    assert entries[3].solution.is_empty


def test_catalog_open_book_pair_distinct_family_is_empty():
    for entry in catalog(10, JordanFamily.diag_distinct(1, 2, -3)):
        assert entry.solution.is_empty


def test_catalog_orthogonal_pair_rotation():
    (entry,) = catalog(2, ktilde((0, 0, 1)))
    expected = [poly3({(2, 0, 1): 1, (0, 2, 1): 1}), Z * Z * Z]
    assert entry.solution.same_space(span_of_cubics(expected))


def test_catalog_zero_twist_allows_any_cubic():
    for case in (2, 3):
        (entry,) = catalog(case, Matrix.zero(3))
        assert not entry.solution.is_empty
        assert entry.solution.dim == 10


def test_catalog_indefinite_pair_rotation():
    (entry,) = catalog(3, ktilde((0, 0, 1)))
    expected = [poly3({(2, 0, 1): 1, (0, 2, 1): 1}), Z * Z * Z]
    assert entry.solution.same_space(span_of_cubics(expected))


def test_catalog_indefinite_pair_null_twist():
    null_twist = Matrix([[0, 0, 1], [0, 0, 1], [1, 1, 0]])
    diff = X - Y
    expected = [diff * diff * diff, diff * (X * X + Y * Y - Z * Z)]
    for sign in (1, -1):
        (entry,) = catalog(3, null_twist.scaled(sign))
        assert entry.solution.same_space(span_of_cubics(expected))


def test_catalog_indefinite_pair_null_twist_sheared_coordinates():
    # substituting x -> x + y, y -> x - y turns the family into one spanned
    # by y^3 and y(2x^2 + 2y^2 - z^2)
    shear_inv = Matrix([[1, 1, 0], [1, -1, 0], [0, 0, 1]])
    diff = X - Y
    family = [diff * diff * diff, diff * (X * X + Y * Y - Z * Z)]
    sheared = [f.compose_linear(shear_inv) for f in family]
    assert sheared[0] == Y * Y * Y * 8
    assert sheared[1] == Y * (X * X * 2 + Y * Y * 2 - Z * Z) * 2


def test_catalog_indefinite_pair_hyperbolic_twist():
    hyper = Matrix([[0, 0, 0], [0, 0, 1], [0, 1, 0]])
    expected = [X * X * X, X * (Y * Y - Z * Z)]
    (entry,) = catalog(3, hyper)
    assert entry.solution.same_space(span_of_cubics(expected))


def test_catalog_entry_shape():
    entries = catalog(7, JordanFamily.diag_repeated(1))
    assert [e.orbit_index for e in entries] == [1, 2, 3]
    assert [e.rep.orbit_index for e in entries] == [1, 2, 3]
    assert not entries[0].solution.is_empty
    assert entries[2].solution.is_empty
    (single,) = catalog(2, ktilde((0, 0, 1)))
    assert single.orbit_index is None and single.rep is None
    assert len(single.solution.basis) == 2


# ---------------------------------------------------------------------------
# residual symmetries of the open-book pair
# ---------------------------------------------------------------------------


def test_coset_rep_golden():
    q = coset_rep_g10((F(3, 5), F(4, 5)), 2)
    assert q == Matrix([
        [F(3, 5), F(8, 5), 0], [F(-4, 5), F(6, 5), 0], [0, 0, 1]])
    assert q.det() == 2


def test_coset_rep_validation():
    with pytest.raises(ValueError, match="circle"):
        coset_rep_g10((1, 1), 1)
    with pytest.raises(ValueError):
        coset_rep_g10((1, 0), 0)


def test_scaling_reps_fix_axis_aligned_orbit_data():
    # the pure-scaling residual symmetries commute with the twists of
    # orbits 1, 2, 3, 5, 6 and rescale their cubics back to themselves
    pairs = _orbit_map(JordanFamily.diag_distinct(1, 2, -3))
    for s in (2, 3, F(1, 2), -1):
        q = coset_rep_g10((1, 0), s)
        assert q == Matrix.diagonal([1, s, 1])
        q_inv = q.inverse()
        for orbit in (1, 2, 3, 5, 6):
            of = pairs[orbit]
            assert q * of.twist == of.twist * q
            (cubic,) = of.cubics
            assert cubic.compose_linear(q_inv) * s == cubic
        for orbit in (4, 7):
            of = pairs[orbit]
            if s != -1:
                assert q * of.twist != of.twist * q
            (cubic,) = of.cubics
            assert cubic.compose_linear(q_inv) * s != cubic


# ---------------------------------------------------------------------------
# pair-level json of catalog outputs
# ---------------------------------------------------------------------------


def test_solved_pairs_are_valid_quadratic_pairs():
    entries = _catalog_map(7, JordanFamily.diag_distinct(1, 2, -3))
    for orbit in (1, 2, 3):
        entry = entries[orbit]
        particular, _ = solution_polys(entry.solution)
        qp = QuadraticPair(entry.twist, particular)
        assert deform_check(BOOK, qp)
        assert QuadraticPair.from_json(qp.to_json()) == qp
