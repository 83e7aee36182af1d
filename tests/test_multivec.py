"""Multivector calculus: wedge, curl, Schouten bracket.

The volume duality and the exterior derivative live on in the
``form_reference`` route that the direct curl replaced; their tests pin
that reference.
"""

from fractions import Fraction

import pytest

from conftest import (
    function_field,
    random_field,
    random_polynomial,
    rational_kind,
    typed_components,
)
from form_reference import (
    DifferentialForm,
    ext_deriv,
    euler_vf,
    jacobi_holds,
    lie_poisson_bivector,
    vol_dual,
    vol_dual_inv,
    volume_form,
)
from poisson_forge.exactnum import SQRT2, SQRT3, ExtScalar, Matrix, Polynomial
from poisson_forge.multivec import (
    MultiVectorField,
    bivector_from_potential,
    const_vf,
    constant_vector,
    curl,
    is_poisson,
    linear_vf,
    modular_field,
    schouten,
    wedge,
)

F = Fraction


def _var(n, i):
    return Polynomial.variable(n, i)


def _basis_vf(n, i):
    return MultiVectorField(n, 1, {(i,): 1})


# ---------------------------------------------------------------------------
# wedge
# ---------------------------------------------------------------------------


def test_wedge_unit_bivector():
    dx, dy = _basis_vf(3, 0), _basis_vf(3, 1)
    assert wedge(dx, dy) == MultiVectorField(3, 2, {(0, 1): 1})
    assert wedge(dy, dx) == MultiVectorField(3, 2, {(0, 1): -1})


def test_wedge_parallel_vanishes():
    u = MultiVectorField(3, 1, {(0,): _var(3, 0)})  # x·d/dx
    assert wedge(u, u).is_zero()


def test_wedge_above_top_grade_is_zero():
    pi = random_field(__import__("random").Random(3), 3, 2)
    quad = wedge(pi, pi)
    assert quad.grade == 4
    assert quad.is_zero()


def test_wedge_graded_commutativity(rng):
    for p, q in ((1, 1), (1, 2), (2, 2), (1, 3), (2, 3)):
        u = random_field(rng, 4, p)
        v = random_field(rng, 4, q)
        flip = wedge(v, u)
        if (p * q) % 2:
            flip = -flip
        assert wedge(u, v) == flip


def test_wedge_grade0_is_multiplication():
    f = Polynomial.variable(3, 2)  # z
    u = MultiVectorField(3, 1, {(0,): _var(3, 0)})
    fu = wedge(function_field(f), u)
    assert fu == MultiVectorField(3, 1, {(0,): _var(3, 0) * f})


# ---------------------------------------------------------------------------
# volume duality (reference route)
# ---------------------------------------------------------------------------


def test_dual_of_potential_reproduces_three_term_bivector():
    # quadratic f on R^3: dual of df must be
    #   f_x d/dy^d/dz + f_y d/dz^d/dx + f_z d/dx^d/dy
    f = random_polynomial(__import__("random").Random(11), 3, max_degree=2, nterms=5)
    pi = bivector_from_potential(f)
    assert pi.component((1, 2)) == f.diff(0)
    assert pi.component((0, 2)) == -f.diff(1)
    assert pi.component((0, 1)) == f.diff(2)


def test_dual_fixed_signs_on_r3():
    e12 = MultiVectorField(3, 2, {(0, 1): 1})
    assert vol_dual(e12) == DifferentialForm(3, 1, {(2,): 1})  # +dz
    e02 = MultiVectorField(3, 2, {(0, 2): 1})
    assert vol_dual(e02) == DifferentialForm(3, 1, {(1,): -1})  # -dy
    ex = _basis_vf(3, 0)
    assert vol_dual(ex) == DifferentialForm(3, 2, {(1, 2): 1})  # +dy^dz
    top = MultiVectorField(3, 3, {(0, 1, 2): 1})
    assert vol_dual(top) == function_field(Polynomial.constant(3, 1),
                                           DifferentialForm)


def test_dual_roundtrip_all_grades(rng):
    for n in (3, 4):
        for grade in range(n + 1):
            u = random_field(rng, n, grade)
            assert vol_dual_inv(vol_dual(u)) == u
    for n in (3, 4):
        for grade in range(n + 1):
            w = DifferentialForm(n, grade,
                                 random_field(rng, n, grade).components)
            assert vol_dual(vol_dual_inv(w)) == w


# ---------------------------------------------------------------------------
# exterior derivative (reference route)
# ---------------------------------------------------------------------------


def test_ext_deriv_basic():
    # d(x dy) = dx^dy
    w = DifferentialForm(3, 1, {(1,): _var(3, 0)})
    assert ext_deriv(w) == DifferentialForm(3, 2, {(0, 1): 1})


def test_ext_deriv_squares_to_zero(rng):
    for _ in range(20):
        f = random_polynomial(rng, 3, max_degree=3)
        df = ext_deriv(function_field(f, DifferentialForm))
        assert ext_deriv(df).is_zero()


def test_ext_deriv_of_volume_form_is_zero():
    w = volume_form(3)
    assert ext_deriv(w).is_zero()


# ---------------------------------------------------------------------------
# curl
# ---------------------------------------------------------------------------


def test_curl_of_linear_field_is_trace():
    a = Matrix.diagonal([1, 2, 3])
    div = curl(linear_vf(a))
    assert div == function_field(Polynomial.constant(3, 6))


def test_curl_of_constant_field_is_zero():
    assert curl(const_vf((0, 0, 1))).is_zero()


def test_curl_of_euler_wedge_constant():
    # radial field wedged with d/dz has curl (n-1)·d/dz on R^3
    u = wedge(euler_vf(3), const_vf((0, 0, 1)))
    assert curl(u) == const_vf((0, 0, 2))


def test_curl_squares_to_zero(rng):
    for n in (3, 4):
        for grade in range(n + 1):
            for _ in range(100):
                u = random_field(rng, n, grade, max_degree=2)
                assert curl(curl(u)).is_zero()


def test_curl_on_functions_is_zero(rng):
    f = random_polynomial(rng, 3)
    assert curl(function_field(f)).is_zero()


# ---------------------------------------------------------------------------
# Schouten bracket
# ---------------------------------------------------------------------------


def test_bracket_of_linear_and_constant_field():
    a = Matrix.diagonal([1, 2, 3])
    k = const_vf((1, 0, 0))
    assert schouten(linear_vf(a), k) == const_vf((-1, 0, 0))


def test_bracket_reduces_to_lie_bracket(rng):
    # [U,V] on vector fields = U(V) - V(U), componentwise oracle
    for _ in range(10):
        u = random_field(rng, 3, 1)
        v = random_field(rng, 3, 1)
        got = schouten(u, v)
        for i in range(3):
            lie = Polynomial.zero(3)
            for j in range(3):
                lie = lie + u.component((j,)) * v.component((i,)).diff(j)
                lie = lie - v.component((j,)) * u.component((i,)).diff(j)
            assert got.component((i,)) == lie


def test_self_bracket_of_potential_bivector_vanishes():
    f = Polynomial(3, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
    pi = bivector_from_potential(f)
    assert pi == MultiVectorField(3, 2, {
        (1, 2): 2 * _var(3, 0), (0, 2): -2 * _var(3, 1), (0, 1): 2 * _var(3, 2)
    })
    assert schouten(pi, pi).is_zero()


def test_euler_bracket_rescales_linear_bivectors(rng):
    for _ in range(10):
        pi = random_field(rng, 3, 2, max_degree=0)
        pi = MultiVectorField(3, 2, {
            e: p * Polynomial.variable(3, rng.randrange(3))
            for e, p in pi.components.items()
        })
        assert schouten(euler_vf(3), pi) == -pi


def test_graded_antisymmetry(rng):
    for p, q in ((1, 1), (1, 2), (2, 2)):
        for _ in range(10):
            u = random_field(rng, 3, p)
            v = random_field(rng, 3, q)
            lhs = schouten(u, v)
            rhs = schouten(v, u)
            if ((p - 1) * (q - 1)) % 2 == 0:
                rhs = -rhs
            assert lhs == rhs


def test_bivector_self_bracket_identity_n4(rng):
    # [pi,pi] = 2 curl(pi)^pi - curl(pi^pi), nontrivially (pi^pi != 0)
    saw_nonzero_square = False
    for _ in range(10):
        pi = random_field(rng, 4, 2, max_degree=1)
        square = wedge(pi, pi)
        saw_nonzero_square = saw_nonzero_square or not square.is_zero()
        expect = wedge(curl(pi), pi).scale(2) - curl(square)
        assert schouten(pi, pi) == expect
    assert saw_nonzero_square


def test_divergence_free_bivector_self_bracket():
    # for curl-free bivectors the identity collapses to [L,L] = -curl(L^L)
    biv = MultiVectorField(4, 2, {
        (0, 1): Polynomial.variable(4, 3),
        (2, 3): Polynomial.variable(4, 0),
        (0, 2): Polynomial.variable(4, 1),
    })
    assert curl(biv).is_zero()
    got = schouten(biv, biv)
    assert got == -curl(wedge(biv, biv))
    assert not got.is_zero()


def test_grade0_bracket_acts_as_expected(rng):
    # [f, V] = -V(f) and [V, f] = V(f) for a vector field V
    f = random_polynomial(rng, 3)
    v = random_field(rng, 3, 1)
    vf = Polynomial.zero(3)
    for i in range(3):
        vf = vf + v.component((i,)) * f.diff(i)
    assert schouten(function_field(f), v) == function_field(-vf)
    assert schouten(v, function_field(f)) == function_field(vf)


# ---------------------------------------------------------------------------
# modular fields and Poisson checks
# ---------------------------------------------------------------------------


def test_modular_field_of_half_euler_wedge():
    pi = wedge(euler_vf(3), const_vf((0, 0, 1))).scale(F(1, 2))
    assert modular_field(pi) == const_vf((0, 0, 1))
    assert constant_vector(modular_field(pi)) == (0, 0, 1)


def test_modular_field_of_potential_bivector_is_zero(rng):
    f = random_polynomial(rng, 3, max_degree=2)
    assert modular_field(bivector_from_potential(f)).is_zero()


def test_is_poisson_rotation_invariant_structure():
    # potential x^2+y^2 plus the half-radial twist along e3: compatible
    f = Polynomial(3, {(2, 0, 0): 1, (0, 2, 0): 1})
    pi = bivector_from_potential(f) \
        + wedge(euler_vf(3), const_vf((0, 0, 1))).scale(F(1, 2))
    assert is_poisson(pi)


def test_is_poisson_rejects_misaligned_potential():
    # potential z^2 with the twist along e3: directional derivative 2z != 0
    f = Polynomial(3, {(0, 0, 2): 1})
    pi = bivector_from_potential(f) \
        + wedge(euler_vf(3), const_vf((0, 0, 1))).scale(F(1, 2))
    assert not is_poisson(pi)
    assert not schouten(pi, pi).is_zero()


def test_constant_bivector_is_poisson(rng):
    pi = random_field(rng, 3, 2, max_degree=0)
    assert is_poisson(pi)


# ---------------------------------------------------------------------------
# structure constants
# ---------------------------------------------------------------------------


def _so3_constants():
    c = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    c[0][1][2], c[1][0][2] = 1, -1
    c[1][2][0], c[2][1][0] = 1, -1
    c[2][0][1], c[0][2][1] = 1, -1
    return c


def test_so3_bivector():
    pi = lie_poisson_bivector(_so3_constants())
    f = Polynomial(3, {(2, 0, 0): F(1, 2), (0, 2, 0): F(1, 2), (0, 0, 2): F(1, 2)})
    assert pi == bivector_from_potential(f)
    assert modular_field(pi).is_zero()
    assert is_poisson(pi)


def test_zero_constants():
    c = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    pi = lie_poisson_bivector(c)
    assert pi.is_zero()
    assert is_poisson(pi)


def test_scaled_solvable_constants_give_half_euler_wedge():
    # [e1,e3] = e1/2, [e2,e3] = e2/2 gives the half twist along e3
    c = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    c[0][2][0], c[2][0][0] = F(1, 2), F(-1, 2)
    c[1][2][1], c[2][1][1] = F(1, 2), F(-1, 2)
    pi = lie_poisson_bivector(c)
    assert pi == wedge(euler_vf(3), const_vf((0, 0, 1))).scale(F(1, 2))


def test_non_antisymmetric_constants_rejected():
    c = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    c[0][1][2] = 1  # missing the mirrored entry
    with pytest.raises(ValueError):
        lie_poisson_bivector(c)


@pytest.mark.parametrize("shape", [(3, 3, 2), (3, 2, 3)])
def test_ragged_structure_constants_are_refused(shape):
    a, b, c = shape
    ragged = [[[0] * c for _ in range(b)] for _ in range(a)]
    for build in (lie_poisson_bivector, jacobi_holds):
        with pytest.raises(ValueError,
                           match="^structure constants must be a 3x3x3 array$"):
            build(ragged)


def test_poisson_iff_jacobi(rng):
    for _ in range(50):
        c = [[[0] * 3 for _ in range(3)] for _ in range(3)]
        for i in range(3):
            for j in range(i + 1, 3):
                for k in range(3):
                    v = F(rng.randint(-2, 2))
                    c[i][j][k], c[j][i][k] = v, -v
        assert is_poisson(lie_poisson_bivector(c)) == jacobi_holds(c)


def test_poisson_iff_jacobi_nontrivial_cases():
    # random draws above rarely satisfy Jacobi, so pin a few that do
    rot = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    rot[0][1][2], rot[1][0][2] = F(1), F(-1)
    rot[1][2][0], rot[2][1][0] = F(1), F(-1)
    rot[2][0][1], rot[0][2][1] = F(1), F(-1)
    heis = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    heis[0][1][2], heis[1][0][2] = F(1), F(-1)
    for c in (rot, heis):
        assert jacobi_holds(c)
        biv = lie_poisson_bivector(c)
        assert not biv.is_zero()
        assert is_poisson(biv)
    broken = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    broken[0][1][0], broken[1][0][0] = F(1), F(-1)
    broken[1][2][1], broken[2][1][1] = F(1), F(-1)
    assert not jacobi_holds(broken)
    assert not is_poisson(lie_poisson_bivector(broken))


# ---------------------------------------------------------------------------
# constructors on the form
# ---------------------------------------------------------------------------


def test_euler_vf_refuses_a_negative_variable_count():
    with pytest.raises(ValueError, match="^negative n$"):
        euler_vf(-1)


def test_const_vf_refuses_a_float():
    with pytest.raises(TypeError):
        const_vf([0.5])


@pytest.mark.parametrize("n", [0, 1, 3, 5])
def test_euler_vf_matches_the_validating_constructor(n):
    want = MultiVectorField(n, 1, {(i,): _var(n, i) for i in range(n)})
    assert typed_components(euler_vf(n)) == typed_components(want)


def test_zero_entries_and_rows_give_no_component():
    assert set(const_vf((F(1, 2), 0, ExtScalar.of(0))).components) == {(0,)}
    assert const_vf((0, 0, 0)).is_zero()
    a = Matrix([[1, 2, 0], [0, 0, 0], [0, F(1, 3), -1]])
    assert set(linear_vf(a).components) == {(0,), (2,)}
    field = Matrix([[SQRT2, 0, 0], [ExtScalar.of(0), 0, 0], [0, 0, 0]])
    assert set(linear_vf(field).components) == {(0,)}
    assert linear_vf(Matrix.zero(3)).is_zero()


def _linear(row):
    """The linear form sum_j row[j] x_j through the validating constructor."""
    return Polynomial(3, {(1, 0, 0): row[0], (0, 1, 0): row[1],
                          (0, 0, 1): row[2]})


def test_linear_vf_of_a_field_matrix_matches_the_row_route():
    # rows with an irrational entry, with rational ExtScalars, with only
    # Fractions and with a zero ExtScalar: each row keeps the value and
    # the coefficient types the constructor gives it on a term dict
    a = Matrix([[SQRT2, F(1, 2), 0],
                [ExtScalar.of(F(2, 3)), ExtScalar.of(0), 1],
                [F(-1, 4), 3, ExtScalar.of(0)]])
    assert a.integer_form() is None
    want = MultiVectorField(3, 1, {(i,): _linear(row)
                                   for i, row in enumerate(a.rows)})
    assert typed_components(linear_vf(a)) == typed_components(want)
    # by the kind rule: the row of rational-valued ExtScalars is on ints
    assert [p._rational for _, p in sorted(linear_vf(a).components.items())] == [
        rational_kind(row) for row in a.rows] == [False, True, True]
    b = Matrix([[SQRT3 + 1, 2, F(1, 5)], [0, 0, 0], [F(7, 2), SQRT2, -SQRT3]])
    want = MultiVectorField(3, 1, {(i,): _linear(row)
                                   for i, row in enumerate(b.rows)})
    assert typed_components(linear_vf(b)) == typed_components(want)
