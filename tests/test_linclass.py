"""Pairs, ten standard forms, witnesses, symmetry groups."""

import itertools
from fractions import Fraction as F

import pytest

import normal_form_reference as ref
from conftest import matrix_span
from form_reference import euler_vf, lie_poisson_bivector
from poisson_forge.exactnum import (
    ExtScalar,
    Matrix,
    Polynomial,
    scalar_div,
    SQRT2,
)
from poisson_forge.linclass import (
    LinearPair,
    STANDARD_PAIRS,
    StdFormLabel,
    Witness,
    _complete_basis,
    aut_member,
    bivector_of,
    classification_to_json,
    classify,
    decompose,
    der0_space,
    is_derivation,
    is_isomorphism,
    pair_of,
    standard_pair,
    transform_pair,
    verify_witness,
)
from poisson_forge.multivec import (
    MultiVectorField,
    bivector_from_potential,
    const_vf,
    curl,
    wedge,
)
from poisson_forge.verify import poly3, random_invertible


X, Y, Z = (Polynomial.variable(3, i) for i in range(3))


# ---------------------------------------------------------------------------
# pairs
# ---------------------------------------------------------------------------


def test_pair_validation():
    with pytest.raises(ValueError):
        LinearPair((0, 0, 0), Matrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]]))
    with pytest.raises(ValueError):
        # A k != 0
        LinearPair((0, 0, 1), Matrix.diagonal([1, 1, 1]))
    # compatible pair with k not along an axis
    LinearPair((1, 2, 0), Matrix([[4, -2, 0], [-2, 1, 0], [0, 0, 0]]))


def test_standard_pairs():
    assert set(STANDARD_PAIRS) == set(range(1, 11))
    for case in range(1, 7):
        assert STANDARD_PAIRS[case].k == (0, 0, 0)
    for case in range(7, 11):
        assert STANDARD_PAIRS[case].k == (0, 0, 1)
    assert STANDARD_PAIRS[3].potential() == poly3({(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): -1})
    assert STANDARD_PAIRS[8].potential() == poly3({(2, 0, 0): 1, (0, 2, 0): 1})
    assert standard_pair(9, F(2)).potential() == poly3({(2, 0, 0): 2, (0, 2, 0): -2})
    with pytest.raises(ValueError):
        standard_pair(4, 2)  # no modulus outside 8/9


def _table_standard_pair(case_id, scale=1):
    """The standard pair as first written: all ten Gram matrices built,
    the requested one returned."""
    scale = F(scale)
    k = (0, 0, 1) if case_id >= 7 else (0, 0, 0)
    grams = {
        1: Matrix.zero(3),
        2: Matrix.diagonal([1, 1, 1]),
        3: Matrix.diagonal([1, 1, -1]),
        4: Matrix.diagonal([1, 1, 0]),
        5: Matrix.diagonal([1, -1, 0]),
        6: Matrix.diagonal([1, 0, 0]),
        7: Matrix.zero(3),
        8: Matrix.diagonal([scale, scale, 0]),
        9: Matrix.diagonal([scale, -scale, 0]),
        10: Matrix.diagonal([1, 0, 0]),
    }
    return LinearPair(k, grams[case_id])


def _assert_same_pair(got, want):
    assert got == want
    assert got.k == want.k
    assert [[(v, type(v)) for v in row] for row in got.gram.rows] == \
        [[(v, type(v)) for v in row] for row in want.gram.rows]


def test_standard_pair_matches_the_ten_gram_table():
    for case in range(1, 11):
        _assert_same_pair(standard_pair(case), _table_standard_pair(case))
        _assert_same_pair(STANDARD_PAIRS[case], _table_standard_pair(case))
    for case in (8, 9):
        for a in (F(1), F(2), F(1, 3), F(7, 2), F(10 ** 20, 3)):
            _assert_same_pair(standard_pair(case, a),
                              _table_standard_pair(case, a))
        _assert_same_pair(standard_pair(case, 5), _table_standard_pair(case, 5))


def test_pair_json_roundtrip():
    pair = LinearPair((0, 0, 1), Matrix.diagonal([F(1, 2), F(-1, 2), 0]))
    data = pair.to_json()
    assert data["k"] == ["0", "0", "1"]
    assert data["A"][0][0] == "1/2"
    assert LinearPair.from_json(data) == pair


# ---------------------------------------------------------------------------
# pairs <-> bivectors
# ---------------------------------------------------------------------------


def test_bivector_of_case8_components():
    # f = x^2+y^2 contributes the partials, the twist adds (x/2, y/2)
    pi = bivector_of(STANDARD_PAIRS[8])
    assert pi.component((1, 2)) == poly3({(1, 0, 0): 2}) + poly3({(0, 1, 0): F(1, 2)})
    assert pi.component((0, 2)) == poly3({(0, 1, 0): -2}) + poly3({(1, 0, 0): F(1, 2)})
    assert pi.component((0, 1)) == Polynomial.zero(3)


@pytest.mark.parametrize("case", range(1, 11))
def test_pair_roundtrip_standard(case):
    pair = STANDARD_PAIRS[case]
    assert pair_of(bivector_of(pair)) == pair


def test_pair_roundtrip_random(rng):
    for _ in range(50):
        case = rng.randrange(1, 11)
        scale = F(rng.randint(1, 5), rng.randint(1, 3)) if case in (8, 9) else F(1)
        t = random_invertible(rng)
        pair = transform_pair(t, standard_pair(case, scale))
        assert pair_of(bivector_of(pair)) == pair


def test_pair_of_zero_bivector():
    pair = pair_of(MultiVectorField.zero(3, 2))
    assert pair == LinearPair((0, 0, 0), Matrix.zero(3))
    assert classify(pair)[0].case_id == 1


def test_pair_of_rejects_non_poisson():
    bad = (bivector_from_potential(poly3({(0, 0, 2): 1}))
           + wedge(euler_vf(3), const_vf((0, 0, 1))).scale(F(1, 2)))
    with pytest.raises(ValueError, match=r"Jacobiator component \(1,2,3\)"):
        pair_of(bad)


def test_pair_of_recovers_gram_from_partials():
    # components (2z, -2y, 2x) on slots (0,1), (0,2), (1,2): potential x^2+y^2+z^2
    lam = MultiVectorField(3, 2, {
        (0, 1): poly3({(0, 0, 1): 2}),
        (0, 2): poly3({(0, 1, 0): -2}),
        (1, 2): poly3({(1, 0, 0): 2}),
    })
    pair = pair_of(lam)
    assert pair.k == (0, 0, 0)
    assert pair.gram == Matrix.identity(3)


def test_pair_of_reads_rational_valued_extscalar_coefficients():
    # z d/dx ^ d/dy with an ExtScalar 1 for its coefficient
    pi = MultiVectorField(3, 2, {(0, 1): Polynomial(3, {(0, 0, 1): ExtScalar.of(1)})})
    pair = pair_of(pi)
    assert pair.k == (0, 0, 0)
    assert pair.gram == Matrix.diagonal([0, 0, F(1, 2)])
    assert all(type(v) is F for v in pair.k)
    assert pair.gram.integer_form() == (2, (0,) * 8 + (1,))
    assert all(type(v) is F for row in pair.gram.rows for v in row)
    with pytest.raises(TypeError, match=r"expected a rational value, got 1/2\*sqrt2"):
        pair_of(pi.scale(SQRT2))


def test_pair_of_so3():
    c = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    c[0][1][2], c[1][0][2] = F(1), F(-1)
    c[1][2][0], c[2][1][0] = F(1), F(-1)
    c[2][0][1], c[0][2][1] = F(1), F(-1)
    pair = pair_of(lie_poisson_bivector(c))
    assert pair.k == (0, 0, 0)
    assert pair.gram == Matrix.identity(3).scaled(F(1, 2))
    assert classify(pair)[0].case_id == 2


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------


def test_decompose_case8():
    dec = decompose(bivector_of(STANDARD_PAIRS[8]))
    assert dec.k == (0, 0, 1)
    assert dec.curl_free == bivector_from_potential(poly3({(2, 0, 0): 1, (0, 2, 0): 1}))
    assert dec.square_closed and dec.twist_commutes


def test_decompose_unimodular_is_identity():
    pi = bivector_of(STANDARD_PAIRS[2])
    dec = decompose(pi)
    assert dec.k == (0, 0, 0)
    assert dec.curl_free == pi


def test_decompose_inverts_bivector_of(rng):
    for _ in range(50):
        case = rng.randrange(1, 11)
        t = random_invertible(rng)
        pair = transform_pair(t, STANDARD_PAIRS[case])
        dec = decompose(bivector_of(pair))
        assert dec.k == pair.k
        assert dec.curl_free == bivector_from_potential(pair.potential())


def test_decompose_n4_twist():
    # unimodular rotation algebra in three coordinates, twisted along the fourth
    lam = MultiVectorField(4, 2, {
        (1, 2): Polynomial.variable(4, 0),
        (0, 2): -Polynomial.variable(4, 1),
        (0, 1): Polynomial.variable(4, 2),
    })
    pi = lam + wedge(euler_vf(4), const_vf((0, 0, 0, 1))).scale(F(1, 3))
    dec = decompose(pi)
    assert dec.k == (0, 0, 0, 1)
    assert dec.curl_free == lam
    assert curl(dec.curl_free).is_zero()


def test_decompose_twist_commutes_can_fail():
    # components mixing the k direction into the coefficients
    pi = MultiVectorField(3, 2, {
        (0, 1): poly3({(0, 0, 1): 1}),
        (0, 2): poly3({(1, 0, 0): 1}),
    })
    dec = decompose(pi)
    assert dec.k == (0, 0, 1)
    assert not dec.twist_commutes


def test_decompose_rejects_nonlinear():
    with pytest.raises(ValueError, match="homogeneous linear"):
        decompose(MultiVectorField(3, 2, {(0, 1): poly3({(2, 0, 0): 1})}))
    with pytest.raises(ValueError, match="homogeneous linear"):
        decompose(MultiVectorField(3, 2, {(0, 1): poly3({(0, 0, 0): 1})}))


def _gl_bivector(m):
    """The Lie-Poisson bivector of gl(m) on R^(m^2), E_ab the coordinate
    a m + b: [E_ab, E_cd] = d_bc E_ad - d_da E_cb."""
    n = m * m
    c = [[[0] * n for _ in range(n)] for _ in range(n)]
    for a, b, e, d in itertools.product(range(m), repeat=4):
        if b == e:
            c[a * m + b][e * m + d][a * m + d] += 1
        if d == a:
            c[a * m + b][e * m + d][e * m + b] -= 1
    return lie_poisson_bivector(c)


def test_decompose_work_bounds_the_jacobi_products(rng, monkeypatch):
    from types import SimpleNamespace

    from poisson_forge import linclass

    products = []

    def mul(a, b):
        products.append(1)
        return a * b

    monkeypatch.setattr(linclass, "operator", SimpleNamespace(mul=mul))
    for m in (2, 3):
        lam = _gl_bivector(m)
        n = m * m
        k = tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n))
        # gl(m) is unimodular: twisted along k, it splits back into k and
        # gl(m), whose every triple the Jacobi test runs; the bound is
        # taken on the input, twisted or not
        for pi in (lam, lam + wedge(euler_vf(n), const_vf(k)).scale(
                F(1, n - 1))):
            products.clear()
            dec = decompose(pi)
            assert dec.curl_free == lam and dec.square_closed
            assert 0 < len(products) <= linclass.decompose_work(pi)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("case", range(1, 11))
def test_classify_standard_pair(case):
    label, witness = classify(STANDARD_PAIRS[case])
    assert label.case_id == case
    if case in (8, 9):
        assert label.a_squared == 1
    else:
        assert label.a_squared is None
    assert verify_witness(STANDARD_PAIRS[case], label, witness)


def test_classify_zero_pair_witness():
    label, witness = classify(STANDARD_PAIRS[1])
    assert witness.base == Matrix.identity(3)
    assert witness.scales == (0, 0, 0)


@pytest.mark.parametrize("case", range(1, 11))
def test_classify_label_invariance(case, rng):
    # conjugating by any invertible map never changes the label
    for _ in range(100):
        t = random_invertible(rng)
        moved = transform_pair(t, STANDARD_PAIRS[case])
        label, witness = classify(moved)
        assert label.case_id == case
        if case in (8, 9):
            assert label.a_squared == 1
        assert verify_witness(moved, label, witness)


@pytest.mark.parametrize("case", (8, 9))
def test_classify_modulus_exact(case, rng):
    for _ in range(25):
        a = F(rng.randint(1, 9), rng.randint(1, 4))
        moved = transform_pair(random_invertible(rng), standard_pair(case, a))
        label, _ = classify(moved)
        assert label.case_id == case
        assert label.a_squared == a * a


def test_classify_identity_gram_is_definite_case():
    label, _ = classify(LinearPair((0, 0, 0), Matrix.identity(3)))
    assert label.case_id == 2


def test_classify_scaled_rotation_invariant_case():
    label, _ = classify(LinearPair((0, 0, 1), Matrix.diagonal([2, 2, 0])))
    assert label.case_id == 8
    assert label.a_squared == 4


def test_classify_sheared_hyperbolic_case():
    # x^2 - 2xy has signature (+,-) on its rank-2 part
    pair = LinearPair((0, 0, 0), Matrix([[1, -1, 0], [-1, 0, 0], [0, 0, 0]]))
    label, _ = classify(pair)
    assert label.case_id == 5


def test_classify_negative_definite_flips_by_determinant():
    label, witness = classify(LinearPair((0, 0, 0), Matrix.diagonal([-1, -1, -1])))
    assert label.case_id == 2
    assert witness.base.det() < 0


def test_classify_non_axis_k():
    pair = LinearPair((1, 2, 2), Matrix([[8, -2, -2], [-2, 2, -1], [-2, -1, 2]]))
    label, witness = classify(pair)
    assert verify_witness(pair, label, witness)
    assert ref.column(witness.base, 2) == pair.k


def test_witness_tampering_detected():
    pair = transform_pair(Matrix([[1, 2, 0], [0, 1, 1], [1, 0, 3]]), STANDARD_PAIRS[8])
    label, witness = classify(pair)
    worse = Witness(witness.base, (witness.scales[0] * 2,) + witness.scales[1:])
    assert not verify_witness(pair, label, worse)
    off = Witness(witness.base * Matrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]]), witness.scales)
    assert not verify_witness(pair, label, off)
    wrong_label = StdFormLabel(9, label.a_squared)
    assert not verify_witness(pair, wrong_label, witness)


def test_classification_json_shape():
    label, witness = classify(LinearPair((0, 0, 1), Matrix.diagonal([2, 2, 0])))
    data = classification_to_json(label, witness)
    assert data["case"] == 8
    assert data["a_squared"] == "4"
    assert set(data["witness"]) == {"R", "d"}
    assert Witness.from_json(data["witness"]) == witness


# ---------------------------------------------------------------------------
# isomorphisms
# ---------------------------------------------------------------------------


def test_is_isomorphism_identity():
    for case in range(1, 11):
        pair = STANDARD_PAIRS[case]
        assert is_isomorphism(Matrix.identity(3), pair, pair)


def test_is_isomorphism_k_scaling_fails():
    pair = STANDARD_PAIRS[7]
    assert not is_isomorphism(Matrix.diagonal([1, 1, 2]), pair, pair)


def test_is_isomorphism_consistent_with_transform(rng):
    for _ in range(30):
        case = rng.randrange(1, 11)
        pair = STANDARD_PAIRS[case]
        t = random_invertible(rng)
        assert is_isomorphism(t, pair, transform_pair(t, pair))


def test_transform_pair_builds_a_valid_pair(rng):
    """transform_pair skips LinearPair's checks: its image must pass them
    and come out the same, in values and in entry types."""
    maps = [random_invertible(rng) for _ in range(60)]
    maps.append(Matrix._trusted([[1, 2, 0], [0, 1, 1], [1, 0, 3]]))  # int entries
    for t in maps:
        case = rng.randrange(1, 11)
        scale = F(rng.randint(1, 9), rng.randint(1, 9)) if case in (8, 9) else 1
        pair = transform_pair(random_invertible(rng), standard_pair(case, scale))
        got = transform_pair(t, pair)
        checked = LinearPair(got.k, got.gram)
        assert got == checked
        assert [type(v) for v in got.k] == [type(v) for v in checked.k] == [F] * 3
        assert all(type(v) is F for row in got.gram.rows for v in row)


def test_is_isomorphism_sqrt2_rotation():
    # orthogonal with irrational entries; cross-checked by pullback identity
    s = scalar_div(SQRT2, 2)
    t = Matrix([[0, -s, s], [1, 0, 0], [0, s, s]])
    assert t.det() == 1
    pair = LinearPair((0, 0, 0), Matrix.identity(3).scaled(F(1, 2)))
    assert is_isomorphism(t, pair, pair)
    f = pair.potential()
    assert f.compose_linear(t) == f * t.det()


def test_is_isomorphism_rejects_singular():
    with pytest.raises(ValueError):
        is_isomorphism(Matrix.zero(3), STANDARD_PAIRS[1], STANDARD_PAIRS[1])


# ---------------------------------------------------------------------------
# automorphism groups
# ---------------------------------------------------------------------------

AUT_MEMBERS = {
    1: Matrix([[2, 1, 0], [0, 1, 3], [1, 0, 1]]),
    2: Matrix([[F(3, 5), F(4, 5), 0], [F(-4, 5), F(3, 5), 0], [0, 0, 1]]),
    3: Matrix([[F(5, 4), 0, F(3, 4)], [0, 1, 0], [F(3, 4), 0, F(5, 4)]]),
    4: Matrix([[2, 2, 0], [-2, 2, 0], [5, 7, 1]]),
    5: Matrix([[3, 2, 0], [2, 3, 0], [1, 4, 1]]),
    6: Matrix([[6, 0, 0], [4, 2, 1], [9, 0, 3]]),
    7: Matrix([[1, 7, 0], [2, 5, 0], [3, 4, 1]]),
    8: Matrix([[1, -2, 0], [2, 1, 0], [3, 4, 1]]),
    9: Matrix([[5, 2, 0], [2, 5, 0], [-1, 2, 1]]),
    10: Matrix([[3, 0, 0], [7, 3, 0], [2, 8, 1]]),
}


@pytest.mark.parametrize("case", range(1, 11))
def test_aut_member_known_members(case):
    assert aut_member(AUT_MEMBERS[case], case)


def test_aut_member_known_non_members():
    # reflection: orthogonal but determinant -1
    assert not aut_member(Matrix.diagonal([1, 1, -1]), 2)
    # scaling the distinguished direction
    assert not aut_member(Matrix.diagonal([1, 1, 2]), 7)
    # rotating by an angle only works for the rotation-invariant potentials
    rot = AUT_MEMBERS[2]
    assert aut_member(rot, 8)
    assert not aut_member(rot, 9)


@pytest.mark.parametrize("case", range(1, 11))
def test_aut_member_paths_agree(case, rng):
    # aut_member raises internally if its two routes ever disagree
    seen_member = False
    for _ in range(500):
        density = rng.choice([1.0, 0.7, 0.4])
        m = Matrix([
            [F(rng.randint(-3, 3)) if rng.random() < density else F(0)
             for _ in range(3)]
            for _ in range(3)
        ])
        if m.det() == 0:
            continue
        seen_member = aut_member(m, case) or seen_member
    if case in (1, 7):  # these groups are dense enough to hit at random
        assert seen_member


def test_aut_member_lower_triangular_family():
    # block form with matching corner determinant
    t = Matrix([[F(3, 2), 0, 0], [5, F(1, 2), 1], [-2, 1, 5]])
    assert t.rows[1][1] * t.rows[2][2] - t.rows[1][2] * t.rows[2][1] == F(3, 2)
    assert aut_member(t, 6)


# ---------------------------------------------------------------------------
# derivations
# ---------------------------------------------------------------------------


def test_is_derivation_examples():
    skew = Matrix([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    assert is_derivation(skew, 2)
    assert not is_derivation(Matrix.diagonal([1, -1, 0]), 2)
    # case 1 has zero potential: everything derives it
    assert is_derivation(Matrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]]), 1)
    # case 7 only pins the k direction
    assert is_derivation(Matrix([[1, 2, 0], [3, 4, 0], [5, 6, 0]]), 7)
    assert not is_derivation(Matrix([[1, 2, 1], [3, 4, 0], [5, 6, 0]]), 7)


def test_is_derivation_scaling_term():
    # trace enters through tr(D) f: diag(1,1,c) derives case 8 iff the
    # potential scales by the full trace
    assert is_derivation(Matrix.diagonal([1, 1, 0]), 8)
    assert not is_derivation(Matrix.diagonal([1, 1, 1]), 8)


def test_der0_dimensions():
    assert [der0_space(case).dim for case in range(1, 7)] == [8, 3, 3, 3, 3, 5]


def test_der0_closed_forms():
    e = lambda rows: Matrix(rows)
    catalogs = {
        1: [  # traceless matrices
            e([[1, 0, 0], [0, -1, 0], [0, 0, 0]]),
            e([[0, 0, 0], [0, 1, 0], [0, 0, -1]]),
            e([[0, 1, 0], [0, 0, 0], [0, 0, 0]]),
            e([[0, 0, 1], [0, 0, 0], [0, 0, 0]]),
            e([[0, 0, 0], [1, 0, 0], [0, 0, 0]]),
            e([[0, 0, 0], [0, 0, 1], [0, 0, 0]]),
            e([[0, 0, 0], [0, 0, 0], [1, 0, 0]]),
            e([[0, 0, 0], [0, 0, 0], [0, 1, 0]]),
        ],
        2: [  # skew-symmetric
            e([[0, 1, 0], [-1, 0, 0], [0, 0, 0]]),
            e([[0, 0, 1], [0, 0, 0], [-1, 0, 0]]),
            e([[0, 0, 0], [0, 0, 1], [0, -1, 0]]),
        ],
        3: [  # skew for the (+,+,-) form
            e([[0, 1, 0], [-1, 0, 0], [0, 0, 0]]),
            e([[0, 0, 1], [0, 0, 0], [1, 0, 0]]),
            e([[0, 0, 0], [0, 0, 1], [0, 1, 0]]),
        ],
        4: [  # rotation in the first two slots plus anything feeding slot 3
            e([[0, 1, 0], [-1, 0, 0], [0, 0, 0]]),
            e([[0, 0, 0], [0, 0, 0], [1, 0, 0]]),
            e([[0, 0, 0], [0, 0, 0], [0, 1, 0]]),
        ],
        5: [  # hyperbolic rotation instead
            e([[0, 1, 0], [1, 0, 0], [0, 0, 0]]),
            e([[0, 0, 0], [0, 0, 0], [1, 0, 0]]),
            e([[0, 0, 0], [0, 0, 0], [0, 1, 0]]),
        ],
        6: [  # first row zero, traceless lower block
            e([[0, 0, 0], [1, 0, 0], [0, 0, 0]]),
            e([[0, 0, 0], [0, 1, 0], [0, 0, -1]]),
            e([[0, 0, 0], [0, 0, 1], [0, 0, 0]]),
            e([[0, 0, 0], [0, 0, 0], [1, 0, 0]]),
            e([[0, 0, 0], [0, 0, 0], [0, 1, 0]]),
        ],
    }
    for case, mats in catalogs.items():
        assert der0_space(case).same_space(
            matrix_span(m.rows for m in mats)), case


def test_der0_members_are_derivations(rng):
    for case in range(1, 11):
        space = der0_space(case)
        for vec9 in space.basis:
            m = Matrix([list(vec9[0:3]), list(vec9[3:6]), list(vec9[6:9])])
            assert is_derivation(m, case)
            assert m.trace() == 0


def test_structured_matrices_on_the_form_match_the_rows_they_stand_for(rng):
    """The completed basis is built on the (D, M) form: same values, form
    and entry types as the rows it replaced."""
    def same(got, want):
        assert got == want and got.integer_form() == want.integer_form()
        assert ([[type(v) for v in row] for row in got.rows]
                == [[type(v) for v in row] for row in want.rows])

    pivots = set()
    for _ in range(300):
        k = tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3))
        if any(k):
            got = _complete_basis(k)
            same(got, ref._complete_basis(k))
            assert ref.column(got, 2) == k
            pivots.add(max(range(3), key=lambda i: (abs(k[i]), -i)))
    assert pivots == {0, 1, 2}


#: True == 1 and 8.0 == 8, but neither is a case id
@pytest.mark.parametrize("case_id", [0, 11, -1, True, 8.0])
@pytest.mark.parametrize("call", [
    lambda case_id: is_derivation(Matrix.zero(3), case_id),
    lambda case_id: der0_space(case_id),
    lambda case_id: aut_member(Matrix.identity(3), case_id),
    lambda case_id: standard_pair(case_id),
    lambda case_id: StdFormLabel(case_id),
    lambda case_id: StdFormLabel(case_id, 2),
], ids=["is_derivation", "der0_space", "aut_member", "standard_pair",
        "label", "label-with-modulus"])
def test_a_case_id_off_the_catalog_raises_the_same_value_error(call, case_id):
    with pytest.raises(ValueError, match=r"^case_id must be 1\.\.10$"):
        call(case_id)
