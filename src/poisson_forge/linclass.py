"""Linear Poisson structures on R^3: pairs, normal forms, symmetries.

A linear bivector field pi on R^3 is encoded by a pair (k, A): a constant
vector k (the value of the modular field of pi) and a symmetric Gram matrix
A with quadratic potential f = (Ax, x), so that

    pi = pi_f + (1/2) I^ ^ k^,

where pi_f is the bivector whose components are the partials of f (see
multivec.bivector_from_potential) and I^ is the Euler field.  Compatibility
of the pair is the single linear condition A k = 0.  bivector_of and
pair_of go between the two on the coefficients, with no bracket: a linear
bivector on R^3 has 9 coefficients, 3 for k and 6 for a symmetric A, so
it comes from exactly one such (k, A), and it is Poisson exactly when
A k = 0: its Jacobiator [pi, pi] is 4 (A k).x d1^d2^d3, which is what
pair_of reports for one that is not.  decompose splits a linear
bivector on any R^n into the twist along its modular vector and a
curl-free part, and reads both parts and its two verdicts off the
bivector's structure constants.

Two pairs describe isomorphic structures when some invertible T satisfies
k2 = T k1 and T' A2 T = det(T) A1 (prime meaning transpose).  Under that
equivalence every pair lands in one of ten standard forms:

    k = 0 : (1) A = 0            (2) diag(1,1,1)    (3) diag(1,1,-1)
            (4) diag(1,1,0)      (5) diag(1,-1,0)   (6) diag(1,0,0)
    k = e3: (7) A = 0            (8) a*diag(1,1,0)  (9) a*diag(1,-1,0)
            (10) diag(1,0,0)                        (a > 0 a modulus)

classify() computes the case label from exact invariants and returns a
Witness: a rational matrix R plus three non-negative rationals d, encoding
the real change of coordinates T = R * diag(1/sqrt(d_i)) (factor 1 where
d_i = 0).  The witness is checkable without leaving rational arithmetic
because every sqrt appears squared in the verification identities; see
verify_witness.

The normal-form layer runs on the int numerators of the forms (D, M),
on flat lists: the fraction-free Lagrange congruence of exactnum, then
B' A B, B R, the column permutation, the sign flip, det(base) and the
scales in classify; U = R' A R in verify_witness, whose identities are
cross-multiplied; and T' A2 T in is_isomorphism, cross-multiplied with
det(T) A1 on the forms, one body for a rational T and for one with
entries in the quadratic extension field.  transform_pair is one
congruence by the adjugate of T's numerators, and _aut_closed_form, the
independent second route of aut_member, cross-multiplies each group's
defining equalities on T's numerators.

Every rational input (a pair, a modulus, a witness, the matrix given to
transform_pair, aut_member or is_derivation) is read by exactnum's one
rational reader, as_rational, or checked by as_rational_matrix, since a
matrix whose entries are all rational is held on ints.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import NamedTuple, Optional

from .exactnum import (
    Matrix,
    Polynomial,
    SolutionSpace,
    _adjugate3,
    _congruence3,
    _congruent_diagonal,
    _det3,
    _product3,
    _over,
    _scaled_row,
    _unit_exponents,
    apply_matrix_derivation,
    array_from_json,
    as_rational,
    as_rational_matrix,
    cross3,
    demote,
    quadratic_form_poly,
    scalar_from_json,
    scalar_to_json,
    solve_linear,
)
from .multivec import MultiVectorField


# ---------------------------------------------------------------------------
# pairs
# ---------------------------------------------------------------------------


class LinearPair(NamedTuple("LinearPair", [("k", tuple), ("gram", Matrix)])):
    """A compatible pair (k, A) encoding a linear bivector on R^3."""

    __slots__ = ()

    def __new__(cls, k: tuple, gram: Matrix):
        k = tuple(as_rational(v) for v in k)
        gram = as_rational_matrix(gram)
        if len(k) != 3 or gram.n != 3:
            raise ValueError("pairs live on R^3")
        if not gram.is_symmetric():
            raise ValueError("Gram matrix must be symmetric")
        if any(gram.apply(k)):
            raise ValueError("incompatible pair: A k != 0")
        return tuple.__new__(cls, (k, gram))

    @classmethod
    def _trusted(cls, k: tuple, gram: Matrix) -> "LinearPair":
        """Wrap a Fraction k and a rational Gram matrix forming a pair."""
        return tuple.__new__(cls, (k, gram))

    def potential(self) -> Polynomial:
        """The quadratic potential f = (Ax, x)."""
        return quadratic_form_poly(self.gram)

    def to_json(self):
        return {
            "k": [scalar_to_json(v) for v in self.k],
            "A": self.gram.to_json(),
        }

    @classmethod
    def from_json(cls, data) -> "LinearPair":
        return cls(tuple(scalar_from_json(v)
                         for v in array_from_json(data["k"], '"k"')),
                   Matrix.from_json(data["A"]))


# diagonal of each standard Gram matrix at modulus 1, i.e. its sign pattern
SIGN_PATTERNS = {
    1: (0, 0, 0), 2: (1, 1, 1), 3: (1, 1, -1), 4: (1, 1, 0), 5: (1, -1, 0),
    6: (1, 0, 0), 7: (0, 0, 0), 8: (1, 1, 0), 9: (1, -1, 0), 10: (1, 0, 0),
}


#: the standard pair of each case, at modulus one for cases 8 and 9
STANDARD_PAIRS = {case: LinearPair((0, 0, int(case >= 7)),
                                   Matrix.diagonal(SIGN_PATTERNS[case]))
                  for case in range(1, 11)}


def _check_case_id(case_id) -> None:
    """ValueError unless case_id is an int in 1..10 (not a bool, nor a
    float that equals one)."""
    if not (type(case_id) is int and 1 <= case_id <= 10):
        raise ValueError("case_id must be 1..10")


def standard_pair(case_id: int, scale=1) -> LinearPair:
    """The standard pair for one of the ten cases.

    ``scale`` is the positive rational modulus a for cases 8 and 9 (the
    catalog value a = 1 reads ``STANDARD_PAIRS``); no other case has one.
    """
    scale = as_rational(scale)
    _check_case_id(case_id)
    if scale == 1:
        return STANDARD_PAIRS[case_id]
    if case_id not in (8, 9):
        raise ValueError("only cases 8 and 9 carry a modulus")
    if scale <= 0:
        raise ValueError("modulus must be positive")
    return LinearPair((0, 0, 1), Matrix.diagonal(
        [scale * s for s in SIGN_PATTERNS[case_id]]))


# ---------------------------------------------------------------------------
# pairs <-> bivectors
# ---------------------------------------------------------------------------


#: the index pairs (i, j), i < j, complementary to l = 0, 1, 2
_COMPLEMENTS = ((1, 2), (0, 2), (0, 1))
_UNIT_EXPONENTS = _unit_exponents(3)


def _linear_rows(gram: Matrix, kform: tuple) -> tuple:
    """(2 d D, M): the signed rows M = diag(1, -1, 1) C of ``bivector_of``,
    2 A + T (see ``pair_of``), as ints over 2 d D for the Gram matrix's
    form (D, A) and kform = (d, k numerators) = ``_scaled_row(k)``."""
    (den, a), (d, k) = gram._form, kform
    s, (k0, k1, k2) = 4 * d, (den * v for v in k)
    return 2 * d * den, [[s * a[0], s * a[1] + k2, s * a[2] - k1],
                         [s * a[3] - k2, s * a[4], s * a[5] + k0],
                         [s * a[6] + k1, s * a[7] - k0, s * a[8]]]


def bivector_of(pair: LinearPair) -> MultiVectorField:
    """The linear bivector pi_f + (1/2) I^ ^ k^ of a pair.

    For l = 0, 1, 2 the component on the complement (i, j) of l is the
    linear form

        2 s_l (A x)_l + (1/2) (k_j x_i - k_i x_j),    s = (1, -1, 1),

    the signed partial of f = (A x, x) (see ``bivector_from_potential``)
    plus the twist: s_l times the row l of ``_linear_rows``, one
    normalisation per component, and always a rational polynomial.
    """
    den, rows = _linear_rows(pair.gram, _scaled_row(pair.k))
    rows[1] = [-v for v in rows[1]]
    return MultiVectorField._trusted(3, 2, {
        c: Polynomial._of_form(3, den, dict(zip(_UNIT_EXPONENTS, row)))
        for c, row in zip(_COMPLEMENTS, rows)})


def _require_linear(pi: MultiVectorField):
    if pi.nvars < 2 or pi.grade != 2:
        raise ValueError("expected a bivector field on R^n, n >= 2")
    for exps, poly in sorted(pi.components.items()):
        if not poly.is_homogeneous(1):
            raise ValueError(
                "component %s is not homogeneous linear: %s" % (exps, poly)
            )


def _signed_rows(pi: MultiVectorField, keys: tuple = _UNIT_EXPONENTS):
    """(d, M, rational): M = diag(1, -1, 1) C over d, for a bivector on
    R^3 whose component on the complement of l has the coefficients C_l
    on the monomials ``keys`` (x, y and z unless given).

    M holds each component's numerators over the lcm d of the three
    denominators: ints for a rational bivector.  A component with an
    irrational coefficient has denominator 1, so its scalars are only
    scaled by d and keep their type, and what is read off M and divided
    by d keeps the types of the coefficients it comes from.
    """
    comps = [pi.components.get(c) for c in _COMPLEMENTS]
    d = math.lcm(*(p._form[0] for p in comps if p is not None))
    rows = []
    for l, p in enumerate(comps):
        if p is None:
            rows.append((0,) * len(keys))
            continue
        den, vals = p._form
        s = -(d // den) if l == 1 else d // den
        rows.append(tuple(s * vals.get(u, 0) for u in keys))
    return d, rows, all(p is None or p._rational for p in comps)


def pair_of(pi: MultiVectorField) -> LinearPair:
    """Recover the pair (k, A) of a linear Poisson bivector on R^3.

    ``bivector_of`` puts 2 A + T into M = diag(1, -1, 1) C (see
    ``_signed_rows``), T the antisymmetric matrix with T_12 = k_0 / 2,
    T_20 = k_1 / 2 and T_01 = k_2 / 2.  So every linear bivector on R^3
    is ``bivector_of(k, A)`` for exactly one pair, 9 coefficients being
    3 + 6: A = (M + M') / 4 and k = (M_12 - M_21, M_20 - M_02,
    M_01 - M_10).  The bivector is Poisson exactly when A k = 0; its
    Jacobiator, which the error gives, is 4 (A k).x d1^d2^d3 by the R^3
    identity [pi_X, pi_X] = -2 X.curl X (Dufour and Zung, 2005).  The
    sums that read A off M make it symmetric, and the Poisson test has
    refused A k != 0, so the pair is built by ``LinearPair._trusted``
    after the rational reader alone: a component whose coefficients are
    all rational is on ints, ExtScalars given for them or not, so that it
    gives the pair of its Fraction twin, and an irrational coefficient
    raises the reader's TypeError.  The pair's rows must give M back.
    """
    _require_linear(pi)
    if pi.nvars != 3:
        raise ValueError("pairs are defined on R^3 only")
    d, m, rational = _signed_rows(pi)
    k = (m[1][2] - m[2][1], m[2][0] - m[0][2], m[0][1] - m[1][0])
    sym = [m[i][j] + m[j][i] for i in range(3) for j in range(3)]
    ak = [sum(map(operator.mul, sym[3 * i:3 * i + 3], k)) for i in range(3)]
    if any(ak):
        # [pi, pi] = 4 (A k).x d1^d2^d3, and 4 A k = ak / d^2
        jac = Polynomial._of_form(3, d * d, dict(zip(_UNIT_EXPONENTS, ak)),
                                  rational)
        raise ValueError(
            "not a Poisson bivector: Jacobiator component (1,2,3) is %s" % jac)
    pair = LinearPair._trusted(
        tuple(as_rational(_over(v, d)) for v in k),
        as_rational_matrix(Matrix._of_form(3, 4 * d, sym, rational)))
    den, rows = _linear_rows(pair.gram, _scaled_row(pair.k))  # round trip
    if any(u * d != v * den for r, w in zip(rows, m) for u, v in zip(r, w)):
        raise ValueError("bivector is not of potential type")  # pragma: no cover
    return pair


class Decomposition(NamedTuple):
    """Canonical splitting of a linear bivector into twist + curl-free part."""

    k: tuple
    curl_free: MultiVectorField
    square_closed: bool     # curl(L ^ L) == 0 for the curl-free part L
    twist_commutes: bool    # the bracket of k^ with L vanishes

    def to_json(self):
        return {
            "k": [scalar_to_json(v) for v in self.k],
            "curl_free": self.curl_free.to_json(),
            "square_closed": self.square_closed,
            "twist_commutes": self.twist_commutes,
        }


def _curl_numerators(rows: dict, n: int) -> list:
    """The curl of a linear bivector on R^n, a constant vector: the signed
    trace of its constants.

    ``rows`` maps (i, j), i < j, to the numerators {m: c_ij^m} of the
    component on (i, j) over one denominator; the curl's numerators over
    it are out_j = sum_(i<j) c_ij^i - sum_(m>j) c_jm^m.
    """
    out = [0] * n
    for (i, j), row in rows.items():
        out[j] += row.get(i, 0)
        out[i] -= row.get(j, 0)
    return out


def _jacobi_holds(rows: dict, n: int) -> bool:
    """Whether the linear bivector of ``rows`` (as in ``_curl_numerators``)
    is Poisson: the Jacobi identity of its constants,

        sum_l (c_jk^l c_il^m + c_ki^l c_jl^m + c_ij^l c_kl^m) = 0

    for every i < j < k and every m, with c_ji = -c_ij.  Each nonzero
    constant c_jk^l of a triple meets the row (c_il^m)_m of its third
    index i, held dense, so a triple costs n products per such constant;
    see ``decompose_work``.  The test stops at the first nonzero sum.
    """
    pairs, dense = {}, {}
    for (i, j), row in rows.items():
        row = [(m, v) for m, v in row.items() if v]
        if row:
            pairs[i, j] = row
            pairs[j, i] = [(m, -v) for m, v in row]
            vec = [0] * n
            for m, v in row:
                vec[m] = v
            dense[i, j] = vec
            dense[j, i] = [-v for v in vec]
    for i, j, k in itertools.combinations(range(n), 3):
        scalars, vecs = [], []
        for a, b, t in ((j, k, i), (k, i, j), (i, j, k)):
            for l, v in pairs.get((a, b), ()):
                vec = dense.get((t, l))
                if vec is not None:
                    scalars.append(v)
                    vecs.append(vec)
        if any(sum(map(operator.mul, scalars, col)) for col in zip(*vecs)):
            return False
    return True


def decompose_work(pi: MultiVectorField) -> int:
    """A bound on the products ``decompose``'s Jacobi test makes on ``pi``.

    The curl-free part has at most e_P + 2 nonzero constants on the pair
    P = (i, j), e_P being pi's terms there (the twist adds x_i and x_j),
    and ``_jacobi_holds`` multiplies each by a dense row of n entries for
    each of the n - 2 third indices.  So the test makes at most
    (T + n (n - 1)) n (n - 2) products, T the terms of pi: 0 for n < 4,
    where no test runs.  The count reads only the term counts of pi's
    components.
    """
    n = pi.nvars
    if n < 4:
        return 0
    terms = sum(len(p._form[1]) for p in pi.components.values())
    return (terms + n * (n - 1)) * n * (n - 2)


def decompose(pi: MultiVectorField) -> Decomposition:
    """Split a linear bivector as pi = (1/(n-1)) I^ ^ k^ + L with curl(L) = 0.

    Works on R^n for any n >= 2, in one pass over the numerators c_ij^m of
    pi's components (pi^ij = sum_m c_ij^m x_m) over the lcm D of their
    denominators: ints for a rational pi, and for one with an irrational
    coefficient its scalars times D, as in ``_signed_rows``.

    - k, the constant value of the modular field, is the signed trace of
      the constants, k_j = sum_i c_ij^i with c_ji = -c_ij (the trace of
      ad, up to sign; Weinstein, "The modular automorphism group of a
      Poisson manifold", J. Geom. Phys. 23, 1997), read as
      ``constant_vector(modular_field(pi))`` reads it, in value and type.
    - L has on (i, j) the numerators (n-1) c_ij - (k_j x_i - k_i x_j) D
      over D (n-1), one normalisation per component.  Its curl, the same
      trace on those numerators, must vanish; a nonzero one raises.
    - ``twist_commutes``: the bracket [k^, L] with a constant field is the
      derivative of L's coefficients along k, so for a linear L it
      vanishes exactly when sum_m k_m L_{I,m} = 0 on every component I.
    - ``square_closed``, curl(L ^ L) = 0: for a curl-free L this is
      -[L, L] (Koszul, "Crochet de Schouten-Nijenhuis et cohomologie",
      Asterisque 1985), which for a linear L vanishes exactly when L's
      constants satisfy the Jacobi identity; see ``_jacobi_holds``.  On
      R^2 and R^3, L ^ L has grade 4 and is zero, so it holds with no
      work.

    ``decompose_work`` bounds the products of the Jacobi test.
    """
    _require_linear(pi)
    n = pi.nvars
    comps = pi.components.values()
    d = math.lcm(*(p._form[0] for p in comps))
    rational = all(p._rational for p in comps)
    units = _unit_exponents(n)
    index = dict(zip(units, range(n)))
    rows = {}
    for key, p in pi.components.items():
        den, vals = p._form
        s = d // den
        rows[key] = {index[u]: s * v for u, v in vals.items()}
    w = _curl_numerators(rows, n)
    keys = list(rows)
    if any(w):
        keys += [key for key in itertools.combinations(range(n), 2)
                 if key not in rows]
    lam = {}
    for i, j in keys:
        row = {m: (n - 1) * v for m, v in rows.get((i, j), {}).items()}
        row[i] = row.get(i, 0) - w[j]
        row[j] = row.get(j, 0) + w[i]
        lam[i, j] = row
    if any(_curl_numerators(lam, n)):  # pragma: no cover - identity
        raise AssertionError("curl-free part has nonzero curl")
    return Decomposition(
        k=tuple(demote(_over(v, d)) for v in w),
        curl_free=MultiVectorField._trusted(n, 2, {
            key: Polynomial._of_form(
                n, d * (n - 1), {units[m]: v for m, v in row.items()},
                rational)
            for key, row in lam.items()}),
        square_closed=n < 4 or _jacobi_holds(lam, n),
        twist_commutes=not any(sum(w[m] * v for m, v in row.items())
                               for row in lam.values()),
    )


# ---------------------------------------------------------------------------
# isomorphisms
# ---------------------------------------------------------------------------


def transform_pair(t: Matrix, pair: LinearPair) -> LinearPair:
    """Image of a pair under an invertible linear map, valid by construction:
    with S = T^-1, det(T) S' A S is symmetric as A is, and it sends T k to
    det(T) S' A k = 0.

    For T = M / D_T and A = a / s it is one congruence on the numerators,
    adj(M)' a adj(M) / (D_T det(M) s), S being D_T adj(M) / det(M).  T is
    read by the rational reader, so an irrational entry raises TypeError,
    and only a 3x3 T is taken, as by ``Matrix.det``.
    """
    t = as_rational_matrix(t)
    if not t.det():
        raise ValueError("transformation must be invertible")
    (dt, m), (s, a) = t._form, pair.gram._form
    gram = Matrix._of_form(3, dt * _det3(m) * s, _congruence3(_adjugate3(m), a))
    return LinearPair._trusted(t.apply(pair.k), gram)


def is_isomorphism(t: Matrix, p1: LinearPair, p2: LinearPair) -> bool:
    """Exact test of k2 = T k1 and T' A2 T = det(T) A1.

    Both identities are cross-multiplied on the forms, T = M / D_T, the
    Gram matrices A_i / D_i and k_i = w_i / e_i: e_2 M w_1 = D_T e_1 w_2
    and M' A_2 M D_T D_1 = det(M) A_1 D_2.  One body serves a rational T,
    on ints, and a T with entries in the quadratic extension field, on
    its scalars over D_T = 1; neither rounds.
    """
    if t.n != 3:
        raise ValueError("size mismatch")
    (dt, m), (d1, a1), (d2, a2) = t._form, p1.gram._form, p2.gram._form
    det = _det3(m)
    if not det:
        raise ValueError("transformation must be invertible")
    e1, w1 = _scaled_row(p1.k)
    e2, w2 = (e1, w1) if p2.k is p1.k else _scaled_row(p2.k)
    if any(e2 * sum(map(operator.mul, m[3 * i:3 * i + 3], w1)) != dt * e1 * v
           for i, v in enumerate(w2)):
        return False
    left, right = dt * d1, det * d2
    return all(x * left == y * right
               for x, y in zip(_congruence3(m, a2), a1))


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


class StdFormLabel(NamedTuple("StdFormLabel", [
        ("case_id", int), ("a_squared", Optional[Fraction])])):
    """Which of the ten standard forms, with the exact modulus a^2 for 8/9."""

    __slots__ = ()

    def __new__(cls, case_id: int, a_squared: Optional[Fraction] = None):
        _check_case_id(case_id)
        if (a_squared is not None) != (case_id in (8, 9)):
            raise ValueError("modulus present exactly for cases 8 and 9")
        if a_squared is not None:
            a_squared = as_rational(a_squared)
            if a_squared <= 0:
                raise ValueError("modulus a^2 must be positive")
        return tuple.__new__(cls, (case_id, a_squared))

    def to_json(self):
        out = {"case": self.case_id}
        if self.a_squared is not None:
            out["a_squared"] = scalar_to_json(self.a_squared)
        return out


class Witness(NamedTuple("Witness", [("base", Matrix), ("scales", tuple)])):
    """Invertible change of coordinates in factored form R * diag(1/sqrt(d)).

    ``base`` is rational and invertible; ``scales`` holds three non-negative
    rationals, a zero meaning no scaling of that column.  The assembled map
    sends the standard pair of the classified case to the classified pair.
    """

    __slots__ = ()

    def __new__(cls, base: Matrix, scales: tuple):
        base = as_rational_matrix(base)
        scales = tuple(as_rational(v) for v in scales)
        if base.n != 3 or len(scales) != 3:
            raise ValueError("witness lives on R^3")
        if any(v < 0 for v in scales):
            raise ValueError("scales must be non-negative")
        if not _det3(base._form[1]):
            raise ValueError("witness base must be invertible")
        return tuple.__new__(cls, (base, scales))

    def to_json(self):
        return {
            "R": self.base.to_json(),
            "d": [scalar_to_json(v) for v in self.scales],
        }

    @classmethod
    def from_json(cls, data) -> "Witness":
        return cls(Matrix.from_json(data["R"]),
                   tuple(scalar_from_json(v)
                         for v in array_from_json(data["d"], '"d"')))


def classification_to_json(label: StdFormLabel, witness: Witness):
    out = label.to_json()
    out["witness"] = witness.to_json()
    return out


def _complete_basis(k) -> Matrix:
    """Rational basis with third column k: pivot on the largest coordinate,
    compared on k's numerators n over their one denominator d; the two
    unit columns and n are built over d."""
    d, n = _scaled_row(k)
    pivot = max(range(3), key=lambda i: (abs(n[i]), -i))
    units = [j for j in range(3) if j != pivot]
    return Matrix._of_form(3, d, [v for i in range(3) for v in (
        d * (i == units[0]), d * (i == units[1]), n[i])])


def _arrange(diag, s, cases):
    """Case id, column order and global sign matching a diagonal form,
    diag / s for ints ``diag`` and s > 0.

    The first of ``cases`` whose sign pattern sigma, times +1 or else -1,
    has as many 1s and -1s as the signs of ``diag`` wins; a stable sort
    puts column perm[i] in slot i, sign(diag_perm[i]) = sign * sigma_i, as
    equal signs are adjacent in sigma, so the order is deterministic.
    """
    signs = [(v > 0) - (v < 0) for v in diag]
    pos, neg = signs.count(1), signs.count(-1)
    for case in cases:
        sigma = SIGN_PATTERNS[case]
        for sign in (1, -1):
            if sigma.count(sign) == pos and sigma.count(-sign) == neg:
                want = [sign * v for v in sigma]
                perm = sorted(range(3), key=lambda i: want.index(signs[i]))
                return case, tuple(perm), sign
    raise AssertionError("no sign pattern fits %r" % (  # pragma: no cover
        tuple(Fraction(v, s) for v in diag),))


def classify(pair: LinearPair):
    """Standard-form label and an exactly checkable witness for a pair.

    The witness maps the standard pair of the found case (modulus a for
    cases 8/9) to ``pair`` in the sense of is_isomorphism; see
    verify_witness for the rational identities certifying that.

    The form is diagonalized by congruence: A when k = 0, else B' A B for
    B = _complete_basis(k), whose zero third row and column (A k = 0) keep
    column 3 of R at e3, so base = B R ends in k.  Shears and swaps give
    det R = +-1, so a^2 = |d_0 d_1| / det(B)^2 in cases 8/9.  B' A B and
    B R are products of the int numerators of the forms, base = N / D;
    the column permutation re-indexes N, the sign flip negates one of
    its columns and det(base) is det(N) / D^3.  The congruence gives d
    as ints over one s > 0 (``_congruent_diagonal``), so the signs, |d|
    and the rescaling run on the ints n / q of d; only the scales and a^2
    become Fractions, through the label's and witness's validating
    constructors, and verify_witness re-checks the witness.
    """
    if not any(pair.k):
        free, cases, flip = 3, range(1, 7), 2
        inner, s, diag = _congruent_diagonal(pair.gram)
        den, base = inner._form
    else:
        free, cases, flip = 2, range(7, 11), 0
        (e, b), (sa, a) = _complete_basis(pair.k)._form, pair.gram._form
        inner, s, diag = _congruent_diagonal(
            Matrix._of_form(3, e * e * sa, _congruence3(b, a)))
        t, r = inner._form
        den, base = e * t, _product3(b, r)
    case, perm, sign = _arrange(diag, s, cases)
    # column perm[c] goes to slot c, and |d| reads n / q slot by slot
    base = [base[i + p] for i in (0, 3, 6) for p in perm]
    n, q = [abs(diag[p]) for p in perm], [s] * 3
    rank = 3 - n.count(0)
    if rank:
        det = _det3(base)
        if (det > 0) != (sign > 0):
            base[flip::3] = [-v for v in base[flip::3]]
            det = -det
        det_sq, den6 = det * det, den ** 6  # det(base)^2 = det_sq / den6
        if rank == 3:
            # det(T) is forced: rescale to d_c det(base)^2 / (d_0 d_1 d_2)
            prod_n, prod_q = math.prod(n), math.prod(q)
            n = [det_sq * v * (prod_q // w) for v, w in zip(n, q)]
            q = [den6 * prod_n] * 3
        elif rank < free:
            # one spare column soaks up the determinant so det(T) = sign
            n[rank], q[rank] = (det_sq * math.prod(q[:rank]),
                                den6 * math.prod(n[:rank]))
    a_squared = (Fraction(n[0] * n[1] * den6, q[0] * q[1] * det_sq)
                 if case in (8, 9) else None)
    label = StdFormLabel(case, a_squared)
    witness = Witness(Matrix._of_form(3, den, base), tuple(map(Fraction, n, q)))
    if not verify_witness(pair, label, witness):  # pragma: no cover
        raise AssertionError("constructed witness failed verification")
    return label, witness


def verify_witness(pair: LinearPair, label: StdFormLabel,
                   witness: Witness) -> bool:
    """Check a classification certificate in pure rational arithmetic.

    With T = R diag(1/sqrt(d_i)) and the case's diagonal sign pattern s,
    the isomorphism identities T e3 = k (cases 7-10), T' A T = det(T) a s
    reduce to: U = R' A R diagonal with U_ii = eps * s_i * d_i for a single
    rational eps, eps^2 * prod(positive d_i) = a^2 * det(R)^2, and eps of
    the same sign as det(R).  Every square root appears squared.  U is
    computed on the numerators, u / (D_R^2 D_A) for R = N / D_R, and the
    identities for eps cross-multiplied, u_i s_l d_l = u_l s_i d_i with
    d = m / e on ints and l the first index with s_l != 0.  The closing
    identity and the sign test run on the numerators and denominators of
    eps, det(R) and a^2, so no Fraction is built.
    """
    sigma = SIGN_PATTERNS[label.case_id]
    (t, r), (s, a), d = witness.base._form, pair.gram._form, witness.scales
    u = _congruence3(r, a)
    if any(u[1:4]) or any(u[5:8]):
        return False
    diag = u[::4]
    if label.case_id >= 7:
        if d[2] != 0 or any(v * q.denominator != q.numerator * t
                            for v, q in zip(r[2::3], pair.k)):
            return False
    elif any(pair.k):
        return False
    live = [i for i in range(3) if sigma[i] != 0]
    if any(diag[i] != 0 for i in range(3) if sigma[i] == 0):
        return False
    if not live:
        return pair.gram.is_zero()
    if any(d[i] == 0 for i in live):
        return False
    e, m = _scaled_row(d)
    l = live[0]
    if any(diag[i] * sigma[l] * m[l] != diag[l] * sigma[i] * m[i]
           for i in live):
        return False
    # eps = num / den, prod(positive d) = prod(positive m) / e^k,
    # det(R) = det_r / t^3 and a^2 = p / q
    num, den = diag[l] * e, t * t * s * sigma[l] * m[l]
    positive = [v for v in m if v > 0]
    det_r = _det3(r)
    a_squared = label.a_squared if label.a_squared is not None else 1
    p, q = a_squared.numerator, a_squared.denominator
    return (num * num * math.prod(positive) * q * t ** 6
            == p * det_r * det_r * den * den * e ** len(positive)
            and (num * den > 0) == (det_r > 0))


# ---------------------------------------------------------------------------
# automorphisms
# ---------------------------------------------------------------------------


def _aut_closed_form(t: Matrix, case_id: int) -> bool:
    """Membership in the automorphism group via its explicit description.

    The defining equalities of each group are cross-multiplied on the
    numerators of the rational T = M / D (D > 0), with M = (m_ij):
    T'JT = J and det T = 1 read M'JM = D^2 J and det M = D^3 (cases 2
    and 3); B'B = c I with c > 0 and T_22 = det(B) / c, B the upper 2x2
    block, read B_M' B_M = c I with c > 0 and m_22 c = D det(B_M)
    (case 4); T e3 = e3 reads m_02 = m_12 = 0 and m_22 = D (cases 7-10).
    """
    d, m = t._form
    m00, m01, m02, m10, m11, m12, m20, m21, m22 = m
    if case_id == 1:
        return True
    if case_id in (2, 3):
        j = (1, 1, 1) if case_id == 2 else (1, 1, -1)
        cols = (m[0::3], m[1::3], m[2::3])
        return (all(sum(s * x * y for s, x, y in zip(j, cols[a], cols[b]))
                    == (j[a] * d * d if a == b else 0)
                    for a in range(3) for b in range(a, 3))
                and sum(map(operator.mul, cols[0], cross3(cols[1], cols[2])))
                == d ** 3)
    # T e3 is a multiple of e3
    keeps_axis = m02 == 0 and m12 == 0
    if case_id in (4, 8):
        # B_M' B_M = c I with c > 0
        c = m00 * m00 + m10 * m10
        conformal = (c > 0 and m00 * m01 + m10 * m11 == 0
                     and m01 * m01 + m11 * m11 == c)
        det_b = m00 * m11 - m01 * m10
        if case_id == 4:
            return keeps_axis and conformal and m22 * c == d * det_b
        return keeps_axis and m22 == d and conformal and det_b == c
    if case_id == 5:
        # lambda = T_22 = +-1, T_00 = lambda T_11 and T_10 = lambda T_01
        return (keeps_axis and m22 * m22 == d * d and d * m00 == m22 * m11
                and d * m10 == m22 * m01 and m11 * m11 != m01 * m01)
    if case_id == 6:
        return (m01 == 0 and m02 == 0 and m11 * m22 - m12 * m21 == d * m00
                and m00 != 0)
    fixes_e3 = keeps_axis and m22 == d
    if case_id == 7:
        return fixes_e3
    if case_id == 9:
        return (fixes_e3 and m00 == m11 and m10 == m01
                and m11 * m11 != m01 * m01)
    if case_id == 10:
        return fixes_e3 and m01 == 0 and m00 == m11 and m00 != 0
    raise ValueError("case_id must be 1..10")


def aut_member(t: Matrix, case_id: int) -> bool:
    """Does t preserve the standard structure of the given case?

    Computed twice, both times on the int numerators (D, M) of T: from
    the defining equations (fixed k, potential equivariant up to det) by
    ``is_isomorphism``, and from the closed-form group description by
    ``_aut_closed_form``, which shares no code with it.  A disagreement
    would mean a bug, so it raises.
    """
    t = as_rational_matrix(t)
    if not t.det():
        raise ValueError("transformation must be invertible")
    pair = standard_pair(case_id)
    by_definition = is_isomorphism(t, pair, pair)
    by_shape = _aut_closed_form(t, case_id)
    if by_definition != by_shape:  # pragma: no cover - cross-check
        raise AssertionError(
            "automorphism checks disagree for case %d: %r" % (case_id, t))
    return by_definition


# ---------------------------------------------------------------------------
# derivations
# ---------------------------------------------------------------------------


def is_derivation(d: Matrix, case_id: int) -> bool:
    """Infinitesimal symmetry test: D k = 0 and D^ f = tr(D) f exactly."""
    d = as_rational_matrix(d)
    pair = standard_pair(case_id)
    if any(d.apply(pair.k)):
        return False
    f = pair.potential()
    return apply_matrix_derivation(d, f) == f * d.trace()


@functools.lru_cache(maxsize=10, typed=True)
def der0_space(case_id: int) -> SolutionSpace:
    """Traceless derivations of a standard structure, as a solution space.

    Matrices are flattened row-major into R^9; the space solves tr D = 0,
    D k = 0 and D^ f = 0 (the potential of the case, modulus one).  The
    rows are ints on the forms: the trace row, the rows of D k on k's
    numerators n, where E_ij gives n_j in row i, and the rows of
    D^ f = 0 on the Gram matrix's numerators a, where E_ij, the field
    x_j d/dx_i, gives 2 a_ir at x_j x_r; they span the rows of the
    system over Q, so ``solve_linear``'s canonical space is the same.
    The ten spaces are kept once solved; ``typed`` keeps True and 8.0,
    which equal a case id, from reading its entry, so they raise as any
    other value off the catalog does.
    """
    pair = standard_pair(case_id)
    (_, a), (_, n) = pair.gram._form, _scaled_row(pair.k)
    rows = [[1, 0, 0, 0, 1, 0, 0, 0, 1]]
    rows += [[n[c % 3] if c // 3 == i else 0 for c in range(9)]
             for i in range(3)]
    derived = {}
    for i in range(3):
        for r in range(3):
            if a[3 * i + r]:
                for j in range(3):
                    row = derived.setdefault((min(j, r), max(j, r)), [0] * 9)
                    row[3 * i + j] += 2 * a[3 * i + r]
    rows += derived.values()
    return solve_linear(rows, [0] * len(rows))
