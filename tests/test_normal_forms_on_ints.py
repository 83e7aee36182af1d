"""The normal-form layer on int numerators against the Matrix products it
replaced.

``classify``, ``verify_witness`` and ``is_isomorphism`` run on the forms
(D, M) of their matrices: B' A B, R' A R and T' A2 T are products of flat
numerator lists, and the identities are cross-multiplied.
``normal_form_reference`` keeps the bodies that ran on ``Matrix``
products, with the column-loop congruence of ``linalg_reference``: on
seeded inputs both must give the same labels, the same witnesses in form
and entry types, the same verdicts and the same errors.  The reference
modules must stay independent of the routines they check.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

import normal_form_reference as ref
from conftest import (
    moduli_pairs,
    random_ext_scalar,
    random_pairs,
    random_rational_invertible,
    same_classification,
)
from poisson_forge.exactnum import SQRT2, SQRT3, ExtScalar, Matrix
from poisson_forge.linclass import (
    StdFormLabel,
    Witness,
    classify,
    is_isomorphism,
    standard_pair,
    transform_pair,
    verify_witness,
)


def test_classify_matches_the_matrix_products_on_the_standard_pairs():
    """Cases 8 and 9 at the 12 moduli keep their a^2 (the ten standard
    pairs at modulus 1 are in ``test_normal_form_tables``)."""
    for pair in moduli_pairs():
        label = same_classification(pair)
        assert label.a_squared == pair.gram.rows[0][0] ** 2


def test_classify_matches_the_matrix_products_on_random_conjugates(rng):
    pairs = random_pairs(rng, 320)
    cases = {same_classification(pair).case_id for pair in pairs}
    for pair in moduli_pairs():
        moved = transform_pair(random_rational_invertible(rng), pair)
        assert same_classification(moved).a_squared == pair.gram.rows[0][0] ** 2
    assert len(pairs) >= 320
    assert cases == set(range(1, 11))


def _tampered(rng, witness):
    """The four tamperings: a sheared base, a doubled scale, a negated base
    and reversed scales."""
    base, scales = witness.base, witness.scales
    i, j = rng.sample(range(3), 2)
    cells = [int(r == c) for r in range(3) for c in range(3)]
    cells[3 * i + j] = rng.choice([-2, -1, 1, Fraction(1, 2), 3])
    doubled = list(scales)
    doubled[rng.randrange(3)] *= 2
    return {
        "sheared": Witness(base * Matrix._of_form(3, 1, cells, False), scales),
        "doubled": Witness(base, tuple(doubled)),
        "negated": Witness(-base, scales),
        "reversed": Witness(base, scales[::-1]),
    }


def _witness_edges(rng):
    """(pair, label, witness, verdict) at the edges of the cross-multiplied
    identity eps^2 prod(d+) = a^2 det(R)^2 and its sign test: det(R) < 0,
    a rank-2 witness whose spare column carries the determinant, moduli
    a^2 = 1/4 and 9, and tamperings that keep the identity but flip the
    sign of eps or of det(R)."""
    edges, negative = [], 0
    for case in (2, 3, 4, 6, 8, 10):
        # of A and -A, the one that matches the case's signs times -1 gets
        # a witness with det(R) < 0 (and eps < 0)
        moved = transform_pair(random_rational_invertible(rng),
                               standard_pair(case))
        for pair in (moved, type(moved)(moved.k, moved.gram.scaled(-1))):
            label, witness = classify(pair)
            negative += witness.base.det() < 0
            edges.append((pair, label, witness, True))
            # the other sign of A: U and eps change sign, the identity
            # holds, and only the sign test rejects it
            other = type(pair)(pair.k, pair.gram.scaled(-1))
            edges.append((other, label, witness, False))
    assert negative == 6
    for case in (4, 5):
        pair = transform_pair(random_rational_invertible(rng),
                              standard_pair(case))
        label, witness = classify(pair)
        base, (d0, d1, spare) = witness.base, witness.scales
        assert spare > 0
        edges.append((pair, label, witness, True))
        # both live scales times 4: eps^2 falls by 16 and d0 d1 grows by 16
        edges.append((pair, label, Witness(base, (4 * d0, 4 * d1, spare)),
                      True))
        # the spare column negated leaves U and eps, and flips det(R)
        flip = Matrix.diagonal([1, 1, -1])
        edges.append((pair, label, Witness(base * flip, witness.scales),
                      False))
    for case in (8, 9):
        for a, a_squared in ((Fraction(1, 2), Fraction(1, 4)),
                             (Fraction(3), Fraction(9))):
            for pair in (standard_pair(case, a), transform_pair(
                    random_rational_invertible(rng), standard_pair(case, a))):
                label, witness = classify(pair)
                assert label.a_squared == a_squared
                edges.append((pair, label, witness, True))
                other = StdFormLabel(case, 36 / a_squared)
                edges.append((pair, other, witness, False))
                negated = type(pair)(pair.k, pair.gram.scaled(-1))
                edges.append((negated, label, witness, False))
    return edges


def test_verify_witness_matches_the_matrix_products(rng):
    """Honest witnesses pass both; each tampering gets the same verdict
    from both, and every kind of tampering is rejected on some pairs.
    The edge cases of ``_witness_edges`` get their known verdict."""
    for pair, label, witness, verdict in _witness_edges(rng):
        assert verify_witness(pair, label, witness) is verdict
        assert ref.verify_witness_by_products(pair, label, witness) is verdict
    rejected = dict.fromkeys(["sheared", "doubled", "negated", "reversed",
                              "relabelled"], 0)
    for pair in random_pairs(rng, 200) + moduli_pairs():
        label, witness = classify(pair)
        assert verify_witness(pair, label, witness)
        assert ref.verify_witness_by_products(pair, label, witness)
        for kind, bad in _tampered(rng, witness).items():
            got = verify_witness(pair, label, bad)
            assert got == ref.verify_witness_by_products(pair, label, bad), kind
            rejected[kind] += not got
        if label.a_squared is not None:
            other = StdFormLabel(17 - label.case_id, label.a_squared)
            got = verify_witness(pair, other, witness)
            assert got == ref.verify_witness_by_products(pair, other, witness)
            rejected["relabelled"] += not got
    assert all(count >= 20 for count in rejected.values()), rejected


def _outcome(decide, t, p1, p2):
    try:
        return decide(t, p1, p2)
    except ValueError as exc:
        return "ValueError: %s" % exc


def _isomorphism_cases(rng):
    """(T, p1, p2) over rational, ExtScalar and singular T: images under T
    (true), under a perturbed T and between unrelated pairs (mostly false),
    and the automorphisms of cases 2, 8 and 9 with irrational entries."""
    pairs = random_pairs(rng, 60)
    cases = []
    for p1 in pairs:
        t = random_rational_invertible(rng)
        p2 = transform_pair(t, p1)
        cases += [(t, p1, p2), (t, p2, p1), (t, p1, rng.choice(pairs)),
                  (t * Matrix.diagonal([1, 1, 2]), p1, p2)]
        field = Matrix([[random_ext_scalar(rng, True) for _ in range(3)]
                        for _ in range(3)])
        cases.append((field, p1, rng.choice([p1, p2])))
        typed = Matrix._trusted([[ExtScalar.of(v) for v in row]
                                 for row in t.rows])
        cases.append((typed, p1, p2))
    h = SQRT2 / 2
    rotation = Matrix([[h, -h, 0], [h, h, 0], [0, 0, 1]])
    boost = Matrix([[1 + SQRT2, SQRT3, 0], [SQRT3, 1 + SQRT2, 0], [0, 0, 1]])
    for t, case in ((rotation, 2), (rotation, 8), (boost, 9),
                    (rotation.scaled(2), 8), (boost, 8)):
        cases.append((t, standard_pair(case), standard_pair(case)))
    for p1 in pairs[:20]:
        u, v = rng.sample(range(3), 2)
        rows = [list(row) for row in random_rational_invertible(rng).rows]
        rows[v] = [2 * x for x in rows[u]]
        cases.append((Matrix(rows), p1, p1))
        rows[v] = [SQRT2 * x for x in rows[u]]
        cases.append((Matrix(rows), p1, p1))
    cases.append((Matrix.zero(3), pairs[0], pairs[0]))
    return cases


def test_is_isomorphism_matches_the_matrix_products(rng):
    outcomes = {}
    for t, p1, p2 in _isomorphism_cases(rng):
        got = _outcome(is_isomorphism, t, p1, p2)
        assert got == _outcome(ref.is_isomorphism_by_products, t, p1, p2)
        kind = "rational" if t._rational else "field"
        outcomes.setdefault((kind, got), 0)
        outcomes[(kind, got)] += 1
    invertible = "ValueError: transformation must be invertible"
    for key in [("rational", True), ("rational", False), ("field", True),
                ("field", False), ("rational", invertible),
                ("field", invertible)]:
        assert outcomes.get(key, 0) >= 5, outcomes


def test_is_isomorphism_refuses_an_invertible_matrix_off_r3():
    pair = standard_pair(2)
    for t in (Matrix.identity(2), Matrix.identity(4)):
        with pytest.raises(ValueError, match="size mismatch"):
            is_isomorphism(t, pair, pair)
        with pytest.raises(ValueError, match="size mismatch"):
            ref.is_isomorphism_by_products(t, pair, pair)


#: what each reference module checks: it may import none of these from
#: the package
ORACLE_OF = {"congruent_diagonalize", "classify", "verify_witness",
             "is_isomorphism", "transform_pair", "_arrange",
             "_complete_basis", "_aut_closed_form", "_adjugate3",
             "direction_in_span", "contains", "same_space", "_free_columns",
             "spanned_by",
             "pi_quad", "_quad_sums", "deform_check", "_PARTIALS",
             "_derivation_rows"}


def _names_taken(path):
    """The names the module at ``path`` imports from ``poisson_forge``, and
    every attribute it reads, such as ``exactnum.name``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (
                node.module or "").startswith("poisson_forge"):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_the_references_take_nothing_they_check_from_the_package():
    here = Path(__file__).resolve().parent
    for name in ("normal_form_reference.py", "linalg_reference.py",
                 "form_reference.py"):
        taken = _names_taken(here / name)
        # the parse found the imports
        assert taken & {"Matrix", "Polynomial"}, name
        assert not taken & ORACLE_OF, (name, sorted(taken & ORACLE_OF))
