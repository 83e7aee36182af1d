"""End-to-end verification: recompute the whole result surface and compare.

Every item recomputes some published quantity from scratch — bracket
identities, classification tables, symmetry groups, deformation
catalogs — and checks it against the frozen expected-value table in
``goldens``.  The driver returns one PASS/FAIL record per item; the CLI
renders these as lines or JSON.  Items are independent: a failure in one
never stops the rest.
"""

import itertools
import math
import operator
import random
import zlib
from fractions import Fraction
from typing import List, NamedTuple, Optional

from .exactnum import Matrix, Polynomial, SolutionSpace, _det3, scalar_from_json
from .goldens import default_goldens
from .linclass import (
    LinearPair,
    aut_member,
    bivector_of,
    classify,
    decompose,
    der0_space,
    is_derivation,
    pair_of,
    standard_pair,
    transform_pair,
    verify_witness,
)
from .multivec import (
    MultiVectorField,
    const_vf,
    constant_vector,
    curl,
    linear_vf,
    schouten,
)
from .quaddef import (
    CUBIC_MONOMIALS,
    JordanFamily,
    P2Point,
    QuadraticPair,
    _check_twist,
    _kernel,
    catalog,
    coset_rep_g10,
    cubic_coords,
    cubic_from_coords,
    cubic_kernel,
    deform_check,
    deform_rhs,
    enumerate_orbit_pairs,
    ktilde,
    orbit_count,
    p2_orbit_rep,
    solution_polys,
    solve_F,
    span_of_cubics,
    t_of_v,
)

DEFAULT_SEED = 20260412


class VerificationItem(NamedTuple):
    item: str
    status: str        # "PASS" | "FAIL"
    details: str

    @property
    def passed(self) -> bool:
        return self.status == "PASS"

    def to_json(self) -> dict:
        return {"item": self.item, "status": self.status,
                "details": self.details}


class _Mismatch(Exception):
    pass


def _expect(what, computed, expected):
    if computed != expected:
        raise _Mismatch("%s: computed %r, expected %r"
                        % (what, computed, expected))


def _expect_true(what, flag):
    if not flag:
        raise _Mismatch(what)


# ---------------------------------------------------------------------------
# small random generators (kept local so the package has no test deps;
# tests/conftest.py has its own, and some tests import these).  Each
# matrix is built on its int form, and an invertible one is found by the
# determinant of those ints; the rng calls and their order fix every later
# draw of a verify item, so they must not change
# ---------------------------------------------------------------------------


def _random_poly(rng, nvars):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exps = [0] * nvars
        for _ in range(rng.randint(0, 2)):
            exps[rng.randrange(nvars)] += 1
        terms[tuple(exps)] = Fraction(rng.randint(-4, 4))
    return Polynomial(nvars, terms)


def _random_field(rng, nvars, grade):
    comps = {}
    for exps in itertools.combinations(range(nvars), grade):
        if rng.random() < 0.8:
            comps[exps] = _random_poly(rng, nvars)
    return MultiVectorField(nvars, grade, comps)


def random_invertible(rng):
    while True:
        vals = [rng.randint(-4, 4) for _ in range(9)]
        if _det3(vals):
            return Matrix._of_form(3, 1, vals)


def random_traceless(rng, lo=-4, hi=4):
    vals = [rng.randint(lo, hi) for _ in range(9)]
    vals[8] = -vals[0] - vals[4]
    return Matrix._of_form(3, 1, vals)


def _random_sparse_invertible(rng):
    """Entries in [-3, 3], each drawn with a density chosen per matrix;
    None when the draw is singular."""
    density = rng.choice([1.0, 0.7, 0.4])
    vals = [rng.randint(-3, 3) if rng.random() < density else 0
            for _ in range(9)]
    return Matrix._of_form(3, 1, vals) if _det3(vals) else None


def random_kernel_cubic(rng, twist):
    """Random combination, with integer coefficients in [-3, 3], of the
    basis of ``cubic_kernel(twist)``.

    It is summed on the basis numerators that ``quaddef._kernel`` keeps:
    ints over their lcm for a rational kernel, and the entries themselves,
    over 1, for a kernel on ExtScalars, where a coordinate is an ExtScalar
    exactly when one of the basis vectors has one there.
    """
    _check_twist(twist)
    field, _, nums = _kernel(twist)
    coeffs = [rng.randint(-3, 3) for _ in nums]
    den = math.lcm(*(e for e, _ in nums))
    weights = [c * (den // e) for c, (e, _) in zip(coeffs, nums)]
    coords = [sum(map(operator.mul, weights, column))
              for column in zip(*(m for _, m in nums))]
    return Polynomial._of_form(3, den, dict(zip(CUBIC_MONOMIALS, coords)),
                               not field)


def poly3(terms):
    """Polynomial on (x, y, z) from {exponents: int, str or (num, den)}."""
    return Polynomial(3, {k: Fraction(*v) if isinstance(v, tuple) else Fraction(v)
                          for k, v in terms.items()})


def _space_json(space: SolutionSpace):
    if space.is_empty:
        return None
    particular, basis = solution_polys(space)
    return {"particular": str(particular), "basis": [str(b) for b in basis]}


_AUT_SAMPLES = {
    1: Matrix([[2, 1, 0], [0, 1, 3], [1, 0, 1]]),
    2: Matrix([[Fraction(3, 5), Fraction(4, 5), 0],
               [Fraction(-4, 5), Fraction(3, 5), 0], [0, 0, 1]]),
    3: Matrix([[Fraction(5, 4), 0, Fraction(3, 4)], [0, 1, 0],
               [Fraction(3, 4), 0, Fraction(5, 4)]]),
    4: Matrix([[2, 2, 0], [-2, 2, 0], [5, 7, 1]]),
    5: Matrix([[3, 2, 0], [2, 3, 0], [1, 4, 1]]),
    6: Matrix([[6, 0, 0], [4, 2, 1], [9, 0, 3]]),
    7: Matrix([[1, 7, 0], [2, 5, 0], [3, 4, 1]]),
    8: Matrix([[1, -2, 0], [2, 1, 0], [3, 4, 1]]),
    9: Matrix([[5, 2, 0], [2, 5, 0], [-1, 2, 1]]),
    10: Matrix([[3, 0, 0], [7, 3, 0], [2, 8, 1]]),
}


# ---------------------------------------------------------------------------
# bracket calculus
# ---------------------------------------------------------------------------


def _check_curl_squared(g, rng):
    count = 0
    for nvars in (3, 4):
        for grade in range(1, nvars):
            for _ in range(3):
                u = _random_field(rng, nvars, grade)
                _expect_true("curl applied twice left a residue on a random "
                             "grade-%d field in %d variables" % (grade, nvars),
                             curl(curl(u)).is_zero())
                count += 1
    return "curl of curl vanished on %d random fields" % count


def _check_graded_antisymmetry(g, rng):
    count = 0
    for p in (1, 2):
        for q in (1, 2):
            for _ in range(4):
                u = _random_field(rng, 3, p)
                v = _random_field(rng, 3, q)
                sign = -(-1) ** ((p - 1) * (q - 1))
                _expect_true(
                    "bracket antisymmetry failed at grades (%d, %d)" % (p, q),
                    schouten(u, v) == schouten(v, u).scale(sign))
                count += 1
    return "graded antisymmetry held on %d random bracket pairs" % count


def _check_divergence_trace(g, rng):
    for _ in range(10):
        m = random_invertible(rng)
        div = curl(linear_vf(m))
        _expect("divergence of a linear field",
                div.as_polynomial(), Polynomial.constant(3, m.trace()))
    return "divergence of ten random linear fields equals the trace"


def _check_linear_constant_bracket(g, rng):
    for _ in range(10):
        m = random_invertible(rng)
        k = tuple(Fraction(rng.randint(-4, 4)) for _ in range(3))
        lhs = schouten(linear_vf(m), const_vf(k))
        _expect("bracket of a linear with a constant field",
                lhs, const_vf(m.apply(k)).scale(-1))
    return "bracket of linear with constant fields matched -(Ak) "\
           "on ten random draws"


def _check_modular_field(g, rng):
    for case in range(1, 11):
        lp = standard_pair(case)
        vec = constant_vector(curl(bivector_of(lp)))
        _expect("modular field of standard structure %d" % case, vec, lp.k)
    return "modular field recovered the axis vector on all ten structures"


# ---------------------------------------------------------------------------
# linear classification
# ---------------------------------------------------------------------------


def _check_standard_forms(g, rng):
    for case in range(1, 11):
        label, witness = classify(standard_pair(case))
        want = g["ten_forms"][str(case)]
        _expect("standard structure %d classified" % case,
                label.case_id, want["case"])
        a2 = None if label.a_squared is None else str(label.a_squared)
        _expect("modulus of standard structure %d" % case,
                a2, want["a_squared"])
        _expect_true("witness rejected for standard structure %d" % case,
                     verify_witness(standard_pair(case), label, witness))
    return "ten standard structures classify to themselves with "\
           "verified witnesses"


def _check_conjugation_invariance(g, rng):
    total = 0
    for case in range(1, 11):
        want = g["ten_forms"][str(case)]
        for _ in range(20):
            lp = transform_pair(random_invertible(rng), standard_pair(case))
            label, witness = classify(lp)
            _expect("conjugate of structure %d" % case,
                    label.case_id, want["case"])
            a2 = None if label.a_squared is None else str(label.a_squared)
            _expect("modulus of a conjugate of structure %d" % case,
                    a2, want["a_squared"])
            _expect_true("witness rejected on a conjugate of structure %d"
                         % case, verify_witness(lp, label, witness))
            total += 1
    return "classification invariant on %d random conjugates" % total


def _check_modulus_detection(g, rng):
    for scale in (Fraction(2), Fraction(3), Fraction(1, 2)):
        for case, pattern in ((8, (1, 1, 0)), (9, (1, -1, 0))):
            gram = Matrix.diagonal([scale * p for p in pattern])
            lp = LinearPair((0, 0, 1), gram)
            label, _ = classify(lp)
            _expect("scaled modulus, case %d" % case,
                    label.a_squared, scale * scale)
            conj = transform_pair(random_invertible(rng), lp)
            conj_label, _ = classify(conj)
            _expect("scaled modulus after conjugation, case %d" % case,
                    conj_label.a_squared, scale * scale)
    return "squared modulus detected bit-exactly across scalings "\
           "and conjugations"


def _check_decomposition(g, rng):
    for _ in range(25):
        case = rng.randrange(1, 11)
        lp = transform_pair(random_invertible(rng), standard_pair(case))
        pi = bivector_of(lp)
        dec = decompose(pi)
        _expect("decomposition axis", dec.k, lp.k)
        _expect_true("curl-free part has curl", curl(dec.curl_free).is_zero())
        _expect_true("square of curl-free part not closed", dec.square_closed)
        _expect_true("twist does not commute", dec.twist_commutes)
        _expect("pair reconstruction", pair_of(pi), lp)
    return "decomposition and reconstruction agreed on 25 random structures"


def _check_aut_two_routes(g, rng):
    tested = 0
    for case in range(1, 11):
        _expect_true("known member rejected for case %d" % case,
                     aut_member(_AUT_SAMPLES[case], case))
        for _ in range(100):
            m = _random_sparse_invertible(rng)
            if m is not None:
                aut_member(m, case)     # raises if the two routes disagree
                tested += 1
    return ("closed-form and transport routes agreed on %d random matrices "
            "plus known members" % tested)


def _check_symmetry_dims(g, rng):
    for case in range(1, 11):
        space = der0_space(case)
        _expect("symmetry dimension of case %d" % case,
                space.dim, g["symmetry_dims"][str(case)])
        for b in space.basis:
            m = Matrix([b[0:3], b[3:6], b[6:9]])
            _expect_true("basis matrix not a derivation in case %d" % case,
                         is_derivation(m, case))
    return "infinitesimal symmetry dimensions %s with derivation bases" % (
        tuple(g["symmetry_dims"][str(c)] for c in range(1, 11)),)


def _check_witness_tampering(g, rng):
    lp = transform_pair(random_invertible(rng), standard_pair(8))
    label, witness = classify(lp)
    _expect_true("honest witness rejected", verify_witness(lp, label, witness))
    tampered = type(witness)(witness.base.scaled(2), witness.scales)
    _expect_true("scaled base accepted",
                 not verify_witness(lp, label, tampered))
    tampered = type(witness)(
        witness.base, (witness.scales[0] * 2,) + witness.scales[1:])
    _expect_true("scaled column weight accepted",
                 not verify_witness(lp, label, tampered))
    shear = Matrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    tampered = type(witness)(witness.base * shear, witness.scales)
    _expect_true("sheared base accepted",
                 not verify_witness(lp, label, tampered))
    return "three corrupted witnesses rejected"


# ---------------------------------------------------------------------------
# the deformation criterion
# ---------------------------------------------------------------------------


def _check_axis_twist(g, rng):
    _expect("twist matrix of the vertical axis",
            ktilde((0, 0, 1)).to_json(), g["axis_twist_matrix"])
    return "axis twist matrix matches"


def _check_drift_expansion(g, rng):
    book = standard_pair(7)
    x, y, z = (Polynomial.variable(3, i) for i in range(3))
    for _ in range(10):
        m = random_traceless(rng)
        a = m.rows
        expected = (
            x * x * (-a[1][0]) + y * y * a[0][1]
            + x * y * (a[0][0] - a[1][1]) + y * z * a[0][2]
            + x * z * (-a[1][2])
        ) * Fraction(-1, 6)
        _expect("drift right-hand side", deform_rhs(book, m), expected)
    return "drift identity expansion matched direct differentiation "\
           "on ten random twists"


def _check_criterion_two_routes(g, rng):
    verdicts = {True: 0, False: 0}
    for _ in range(60):
        case = rng.randrange(1, 11)
        lp = transform_pair(random_invertible(rng), standard_pair(case))
        twist = random_traceless(rng)
        qp = QuadraticPair(twist, random_kernel_cubic(rng, twist))
        verdicts[deform_check(lp, qp)] += 1   # raises on route disagreement
    # a random sample may hold one verdict only; the axis pair with
    # K = diag(1, 2, -3) fixes one tuple of each: xyz/6 deforms, xyz/3 not
    axis, twist = standard_pair(7), Matrix.diagonal([1, 2, -3])
    for coef in (Fraction(1, 6), Fraction(1, 3)):
        qp = QuadraticPair(twist, Polynomial.monomial(3, (1, 1, 1), coef))
        verdicts[deform_check(axis, qp)] += 1
    _expect_true("no positive verdicts sampled", verdicts[True] > 0)
    _expect_true("no negative verdicts sampled", verdicts[False] > 0)
    return "bracket route and identity route agreed on 60 random tuples "\
           "and 2 fixed ones (%d deform, %d do not)" \
           % (verdicts[True], verdicts[False])


def _check_twist_only_deformations(g, rng):
    zero_cubic = Polynomial.zero(3)
    for case in range(1, 7):
        lp = standard_pair(case)
        space = der0_space(case)
        for b in space.basis:
            twist = Matrix([b[0:3], b[3:6], b[6:9]])
            _expect_true(
                "symmetry direction rejected as deformation in case %d" % case,
                deform_check(lp, QuadraticPair(twist, zero_cubic)))
        for _ in range(10):
            twist = random_traceless(rng)
            member = space.contains(
                tuple(v for row in twist.rows for v in row))
            _expect("twist-only criterion in case %d" % case,
                    deform_check(lp, QuadraticPair(twist, zero_cubic)),
                    member)
    return "potential-free deformations coincide with infinitesimal "\
           "symmetries on the six semisimple-type structures"


# ---------------------------------------------------------------------------
# invariant cubics and the solver
# ---------------------------------------------------------------------------


def _check_cubic_dims(g, rng):
    computed = {
        "distinct": cubic_kernel(Matrix.diagonal([1, 2, -3])).dim,
        "repeated": cubic_kernel(Matrix.diagonal([1, 1, -2])).dim,
        "nilpotent": cubic_kernel(Matrix([[0, 1, 0], [0, 0, 1],
                                          [0, 0, 0]])).dim,
        "rotation": cubic_kernel(ktilde((0, 0, 1))).dim,
        "zero": cubic_kernel(Matrix.zero(3)).dim,
    }
    _expect("invariant-cubic dimensions", computed, g["invariant_cubic_dims"])
    return "invariant-cubic space dimensions %s" % (computed,)


def _check_solver_soundness(g, rng):
    book = standard_pair(7)
    twist = Matrix.diagonal([1, 2, -3])
    space = solve_F(book, twist)
    particular, basis = solution_polys(space)
    _expect_true("solved potential rejected by the bracket route",
                 deform_check(book, QuadraticPair(twist, particular)))
    rejected = 0
    attempts = 0
    while rejected < 10 and attempts < 200:
        attempts += 1
        cubic = random_kernel_cubic(rng, twist)
        if space.contains(cubic_coords(cubic)):
            continue
        _expect_true("unsolved invariant cubic accepted",
                     not deform_check(book, QuadraticPair(twist, cubic)))
        rejected += 1
    _expect("rejected sample count", rejected, 10)
    return "solver members deform, ten outside invariant cubics do not"


def _check_solver_equivariance(g, rng):
    # random twists rarely admit a cubic, so a fixed one per case (as in
    # the criterion item) makes sure a nonempty space is transported
    for case, fixed in ((7, (1, 2, -3)), (10, (1, 1, -2))):
        t = _AUT_SAMPLES[case]
        lp = standard_pair(case)
        t_inv = t.inverse()
        det = t.det()
        twists = [random_traceless(rng), random_traceless(rng),
                  Matrix.diagonal(fixed)]
        transported = 0
        for twist in twists:
            left = solve_F(lp, t * twist * t_inv)
            right = solve_F(lp, twist)
            if right.is_empty:
                _expect_true("conjugated solver output nonempty",
                             left.is_empty)
                continue

            def push(coords):
                moved = cubic_from_coords(coords).compose_linear(t_inv) * det
                return cubic_coords(moved)

            image = SolutionSpace.spanned_by(
                push(right.particular), [push(b) for b in right.basis])
            _expect_true("solver output failed to transport",
                         left.same_space(image))
            transported += 1
        _expect_true("no nonempty space transported in case %d" % case,
                     transported > 0)
    return "solution spaces transport through pair symmetries"


# ---------------------------------------------------------------------------
# orbit machinery
# ---------------------------------------------------------------------------


_FAMILIES = (
    ("distinct", JordanFamily.diag_distinct(1, 2, -3)),
    ("repeated", JordanFamily.diag_repeated(1)),
    ("nilpotent", JordanFamily.nilpotent_full()),
)


def _check_orbit_counts(g, rng):
    seen = {}
    for name, fam in _FAMILIES:
        _expect("declared orbit count (%s)" % name,
                orbit_count(fam), g["orbit_counts"][name])
        hit = set()
        for _ in range(300):
            coords = [rng.randint(-2, 2) for _ in range(3)]
            if not any(coords):
                continue
            hit.add(p2_orbit_rep(fam, P2Point(coords)).orbit_index)
        _expect("orbits reached from random points (%s)" % name,
                len(hit), g["orbit_counts"][name])
        seen[name] = len(hit)
    return "random projective points reach %(distinct)d/%(repeated)d/"\
           "%(nilpotent)d orbits" % seen


def _check_rotations_orthogonal(g, rng):
    count = 0
    for _, fam in _FAMILIES:
        for of in enumerate_orbit_pairs(fam):
            t = of.rep.rotation
            _expect_true("rotation not orthogonal",
                         t.transpose() * t == Matrix.identity(3))
            _expect("rotation determinant", t.det(), 1)
            count += 1
    return "all %d representative rotations are exactly special "\
           "orthogonal" % count


def _check_displayed_rotations(g, rng):
    reps = [(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 0),
            (0, 1, 1), (1, 0, 1), (1, 1, 1)]
    computed = [t_of_v(P2Point(p).unit_vector()).to_json() for p in reps]
    _expect("rotation table", computed, g["representative_rotations"])
    return "seven representative rotations match the frozen table"


def _check_distinct_family_twists(g, rng):
    fam = JordanFamily.diag_distinct(1, 2, -3)
    computed = [of.twist.to_json() for of in enumerate_orbit_pairs(fam)]
    _expect("conjugated twists (distinct eigenvalues)",
            computed, g["distinct_family"]["twists"])
    return "seven conjugated twists match for eigenvalues (1, 2, -3)"


def _check_distinct_family_cubics(g, rng):
    fam = JordanFamily.diag_distinct(1, 2, -3)
    computed = [[str(c) for c in of.cubics]
                for of in enumerate_orbit_pairs(fam)]
    _expect("transported invariant cubics (distinct eigenvalues)",
            computed, g["distinct_family"]["cubics"])
    return "transported invariant cubics match on all seven orbits"


def _check_repeated_family(g, rng):
    fam = JordanFamily.diag_repeated(1)
    pairs = list(enumerate_orbit_pairs(fam))
    computed = [of.twist.to_json() for of in pairs]
    _expect("conjugated twists (repeated eigenvalue)",
            computed, g["repeated_family"]["twists"])
    spans = [[str(c) for c in of.cubics] for of in pairs]
    _expect("transported cubic spans (repeated eigenvalue)",
            spans, g["repeated_family"]["cubic_spans"])
    # second orbit: the span is exactly the x-multiples
    want = span_of_cubics([
        poly3({(1, 2, 0): 1}), poly3({(1, 1, 1): 1}), poly3({(1, 0, 2): 1})])
    _expect_true("second-orbit span mismatch",
                 span_of_cubics(pairs[1].cubics).same_space(want))
    return "repeated-eigenvalue twists and cubic spans match"


def _check_nilpotent_family(g, rng):
    fam = JordanFamily.nilpotent_full()
    pairs = list(enumerate_orbit_pairs(fam))
    computed = [of.twist.to_json() for of in pairs]
    _expect("conjugated twists (nilpotent)",
            computed, g["nilpotent_family"]["twists"])
    spans = [[str(c) for c in of.cubics] for of in pairs]
    _expect("transported cubic spans (nilpotent)",
            spans, g["nilpotent_family"]["cubic_spans"])
    x = Polynomial.variable(3, 0)
    want2 = span_of_cubics([x * x * x, poly3({(2, 1, 0): 2, (1, 0, 2): -1})])
    want3 = span_of_cubics([x * x * x, poly3({(2, 0, 1): 2, (1, 2, 0): -1})])
    _expect_true("second-orbit span mismatch",
                 span_of_cubics(pairs[1].cubics).same_space(want2))
    _expect_true("third-orbit span mismatch",
                 span_of_cubics(pairs[2].cubics).same_space(want3))
    return "nilpotent-family twists and cubic spans match"


# ---------------------------------------------------------------------------
# deformation catalogs
# ---------------------------------------------------------------------------


def _check_book_distinct_catalogs(g, rng):
    for probe in g["book_catalogs"]["distinct_probes"]:
        lams = tuple(scalar_from_json(v) for v in probe["lambdas"])
        fam = JordanFamily.diag_distinct(*lams)
        computed = [_space_json(e.solution) for e in catalog(7, fam)]
        _expect("catalog for eigenvalues %s" % (lams,),
                computed, probe["solutions"])
    return "unique axis potentials on three strata, none on four, "\
           "for both eigenvalue probes"


def _check_book_repeated_catalogs(g, rng):
    for probe in g["book_catalogs"]["repeated"]:
        lam = scalar_from_json(probe["lambda"])
        fam = JordanFamily.diag_repeated(lam)
        computed = [_space_json(e.solution) for e in catalog(7, fam)]
        _expect("catalog for repeated eigenvalue %s" % lam,
                computed, probe["solutions"])
    return "zero space, a one-parameter family, and an empty stratum "\
           "for both eigenvalue choices"


def _check_book_nilpotent_catalog(g, rng):
    fam = JordanFamily.nilpotent_full()
    computed = [_space_json(e.solution) for e in catalog(7, fam)]
    _expect("nilpotent catalog", computed, g["book_catalogs"]["nilpotent"])
    return "empty first stratum and two one-parameter families"


def _check_open_book_catalogs(g, rng):
    for probe in g["open_book_catalogs"]["repeated"]:
        lam = scalar_from_json(probe["lambda"])
        fam = JordanFamily.diag_repeated(lam)
        computed = [_space_json(e.solution) for e in catalog(10, fam)]
        _expect("open-book catalog for eigenvalue %s" % lam,
                computed, probe["solutions"])
    fam = JordanFamily.diag_distinct(1, 2, -3)
    all_empty = all(e.solution.is_empty for e in catalog(10, fam))
    _expect("open-book pair admits no distinct-eigenvalue deformation",
            all_empty, g["open_book_catalogs"]["distinct_all_empty"])
    return "unique potential on the diagonal stratum only; distinct "\
           "eigenvalues admit nothing"


def _check_orthogonal_catalog(g, rng):
    (entry,) = catalog(2, ktilde((0, 0, 1)))
    _expect("rotation-twist catalog of the orthogonal-type pair",
            _space_json(entry.solution), g["orthogonal_pair_catalog"])
    want = span_of_cubics([
        poly3({(2, 0, 1): 1, (0, 2, 1): 1}), poly3({(0, 0, 3): 1})])
    _expect_true("span mismatch against the written family",
                 entry.solution.same_space(want))
    return "rotation twist pairs with the cylindrical cubics"


def _check_indefinite_catalogs(g, rng):
    x, y, z = (Polynomial.variable(3, i) for i in range(3))
    want = g["indefinite_pair_catalogs"]
    (rot,) = catalog(3, ktilde((0, 0, 1)))
    _expect("rotation twist", _space_json(rot.solution), want["rotation"])
    null_twist = Matrix([[0, 0, 1], [0, 0, 1], [1, 1, 0]])
    (nul,) = catalog(3, null_twist)
    _expect("null twist", _space_json(nul.solution), want["null"])
    (nulneg,) = catalog(3, null_twist.scaled(-1))
    _expect("negated null twist",
            _space_json(nulneg.solution), want["null_negated"])
    (hyp,) = catalog(3, Matrix([[0, 0, 0], [0, 0, 1], [0, 1, 0]]))
    _expect("hyperbolic twist", _space_json(hyp.solution), want["hyperbolic"])
    diff = x - y
    null_family = span_of_cubics([
        diff * diff * diff, diff * (x * x + y * y - z * z)])
    _expect_true("null-twist span mismatch against the written family",
                 nul.solution.same_space(null_family))
    hyper_family = span_of_cubics([x * x * x, x * (y * y - z * z)])
    _expect_true("hyperbolic-twist span mismatch against the written family",
                 hyp.solution.same_space(hyper_family))
    return "all three twist types reproduce their written cubic families"


def _check_sheared_coordinates(g, rng):
    # sending x -> x+y, y -> x-y maps the null-twist family onto one
    # generated by y^3 and y(2x^2 + 2y^2 - z^2)
    x, y, z = (Polynomial.variable(3, i) for i in range(3))
    shear = Matrix([[1, 1, 0], [1, -1, 0], [0, 0, 1]])
    diff = x - y
    family = [diff * diff * diff, diff * (x * x + y * y - z * z)]
    sheared = [f.compose_linear(shear) for f in family]
    _expect("cubic generator of the sheared family",
            sheared[0], y * y * y * 8)
    _expect("mixed generator of the sheared family",
            sheared[1], y * (x * x * 2 + y * y * 2 - z * z) * 2)
    return "null-twist family collapses onto a single odd coordinate "\
           "after shearing"


def _check_scaling_symmetries(g, rng):
    q = coset_rep_g10((Fraction(3, 5), Fraction(4, 5)), 2)
    _expect("rational rotation-scaling representative", q.to_json(),
            [["3/5", "8/5", "0"], ["-4/5", "6/5", "0"], ["0", "0", "1"]])
    _expect("representative determinant", q.det(), 2)
    fam = JordanFamily.diag_distinct(1, 2, -3)
    pairs = {of.rep.orbit_index: of for of in enumerate_orbit_pairs(fam)}
    for s in (2, 3, Fraction(1, 2)):
        scaling = coset_rep_g10((1, 0), s)
        inv = scaling.inverse()
        for orbit in (1, 2, 3, 5, 6):
            of = pairs[orbit]
            _expect_true("scaling fails to commute on orbit %d" % orbit,
                         scaling * of.twist == of.twist * scaling)
            (cubic,) = of.cubics
            _expect_true("cubic not rescaled to itself on orbit %d" % orbit,
                         cubic.compose_linear(inv) * s == cubic)
        for orbit in (4, 7):
            (cubic,) = pairs[orbit].cubics
            _expect_true("orbit %d unexpectedly scale-invariant" % orbit,
                         cubic.compose_linear(inv) * s != cubic)
    return "pure scalings preserve the five axis-aligned catalogs and "\
           "move the other two"


def _check_json_roundtrips(g, rng):
    lp = transform_pair(random_invertible(rng), standard_pair(8))
    _expect("linear pair json", LinearPair.from_json(lp.to_json()), lp)
    qp = QuadraticPair(Matrix.diagonal([1, 2, -3]),
                       poly3({(1, 1, 1): (1, 6)}))
    _expect("quadratic pair json", QuadraticPair.from_json(qp.to_json()), qp)
    point = P2Point((3, 0, 5))
    _expect("projective point json", P2Point.from_json(point.to_json()), point)
    return "pair and point serializations round-trip"


_CHECKS = (
    ("curl twice is zero", _check_curl_squared),
    ("bracket graded antisymmetry", _check_graded_antisymmetry),
    ("divergence of linear fields is the trace", _check_divergence_trace),
    ("bracket of linear and constant fields", _check_linear_constant_bracket),
    ("modular field is the axis field", _check_modular_field),
    ("standard forms self-classify", _check_standard_forms),
    ("classification is conjugation-invariant", _check_conjugation_invariance),
    ("squared modulus detected exactly", _check_modulus_detection),
    ("decomposition round-trips", _check_decomposition),
    ("symmetry membership agrees along two routes", _check_aut_two_routes),
    ("infinitesimal symmetry dimensions", _check_symmetry_dims),
    ("tampered witnesses are rejected", _check_witness_tampering),
    ("axis twist matrix", _check_axis_twist),
    ("drift identity expansion", _check_drift_expansion),
    ("deformation criterion agrees along two routes",
     _check_criterion_two_routes),
    ("potential-free deformations are symmetries",
     _check_twist_only_deformations),
    ("invariant-cubic dimensions", _check_cubic_dims),
    ("solver soundness", _check_solver_soundness),
    ("solver equivariance", _check_solver_equivariance),
    ("projective orbit counts", _check_orbit_counts),
    ("representative rotations are special orthogonal",
     _check_rotations_orthogonal),
    ("rotation table", _check_displayed_rotations),
    ("distinct-eigenvalue family: conjugated twists",
     _check_distinct_family_twists),
    ("distinct-eigenvalue family: transported cubics",
     _check_distinct_family_cubics),
    ("repeated-eigenvalue family: twists and spans", _check_repeated_family),
    ("nilpotent family: twists and spans", _check_nilpotent_family),
    ("axis pair: distinct-eigenvalue catalogs",
     _check_book_distinct_catalogs),
    ("axis pair: repeated-eigenvalue catalogs",
     _check_book_repeated_catalogs),
    ("axis pair: nilpotent catalog", _check_book_nilpotent_catalog),
    ("open-book pair: catalogs", _check_open_book_catalogs),
    ("orthogonal-type pair: rotation catalog", _check_orthogonal_catalog),
    ("indefinite-type pair: three twist catalogs", _check_indefinite_catalogs),
    ("sheared coordinates simplify the null-twist family",
     _check_sheared_coordinates),
    ("scaling symmetries preserve axis-aligned catalogs",
     _check_scaling_symmetries),
    ("serialization round-trips", _check_json_roundtrips),
)


def run_verification(goldens: Optional[dict] = None,
                     seed: int = DEFAULT_SEED) -> List[VerificationItem]:
    """Recompute every published quantity and compare to the expected table.

    Returns one record per item.  A corrupted ``goldens`` table flips the
    corresponding items to FAIL; it never aborts the run.
    """
    table = default_goldens() if goldens is None else goldens
    results = []
    for name, check in _CHECKS:
        # a stable digest: str hashes are salted per process
        rng = random.Random(seed ^ zlib.crc32(name.encode()))
        try:
            details = check(table, rng)
            results.append(VerificationItem(name, "PASS", details))
        except Exception as exc:          # noqa: BLE001 - report, don't abort
            results.append(VerificationItem(name, "FAIL", str(exc)))
    return results
