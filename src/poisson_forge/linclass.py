"""Linear Poisson structures on R^3: pairs, normal forms, symmetries.

A linear bivector field pi on R^3 is encoded by a pair (k, A): a constant
vector k (the value of the modular field of pi) and a symmetric Gram matrix
A with quadratic potential f = (Ax, x), so that

    pi = pi_f + (1/2) I^ ^ k^,

where pi_f is the bivector whose components are the partials of f (see
multivec.bivector_from_potential) and I^ is the Euler field.  Compatibility
of the pair is the single linear condition A k = 0.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

from .exactnum import (
    Matrix,
    Polynomial,
    SolutionSpace,
    apply_matrix_derivation,
    congruent_diagonalize,
    gram_of_quadratic,
    quadratic_form_poly,
    scalar_from_json,
    scalar_to_json,
    solve_linear,
    vec,
)
from .multivec import (
    MultiVectorField,
    bivector_from_potential,
    const_vf,
    constant_vector,
    curl,
    euler_vf,
    is_poisson,
    modular_field,
    schouten,
    wedge,
)


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError("expected a rational value, got %s" % (value,))


def _rational_matrix(m: Matrix) -> Matrix:
    """``m`` itself, once every entry is checked to be rational."""
    if m.integer_form() is None:
        # off the integer form, a matrix has an ExtScalar entry
        _as_fraction(next(v for v in m._form[1] if type(v) is not Fraction))
    return m


# ---------------------------------------------------------------------------
# pairs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearPair:
    """A compatible pair (k, A) encoding a linear bivector on R^3."""

    k: tuple
    gram: Matrix

    def __post_init__(self):
        object.__setattr__(self, "k", tuple(_as_fraction(v) for v in self.k))
        object.__setattr__(self, "gram", _rational_matrix(self.gram))
        if len(self.k) != 3 or self.gram.n != 3:
            raise ValueError("pairs live on R^3")
        if not self.gram.is_symmetric():
            raise ValueError("Gram matrix must be symmetric")
        if any(self.gram.apply(self.k)):
            raise ValueError("incompatible pair: A k != 0")

    @classmethod
    def _trusted(cls, k: tuple, gram: Matrix) -> "LinearPair":
        """Wrap a Fraction k and a rational Gram matrix forming a pair."""
        self = object.__new__(cls)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "gram", gram)
        return self

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
        return cls(tuple(scalar_from_json(v) for v in data["k"]),
                   Matrix.from_json(data["A"]))


# diagonal of each standard Gram matrix at modulus 1, i.e. its sign pattern
SIGN_PATTERNS = {
    1: (0, 0, 0), 2: (1, 1, 1), 3: (1, 1, -1), 4: (1, 1, 0), 5: (1, -1, 0),
    6: (1, 0, 0), 7: (0, 0, 0), 8: (1, 1, 0), 9: (1, -1, 0), 10: (1, 0, 0),
}


def standard_pair(case_id: int, scale=1) -> LinearPair:
    """The standard pair for one of the ten cases.

    ``scale`` is the positive rational modulus a for cases 8 and 9 (the
    catalog value is a = 1); other cases admit no modulus.
    """
    scale = _as_fraction(scale)
    if case_id not in range(1, 11):
        raise ValueError("case_id must be 1..10")
    if case_id not in (8, 9) and scale != 1:
        raise ValueError("only cases 8 and 9 carry a modulus")
    if scale <= 0:
        raise ValueError("modulus must be positive")
    k = (0, 0, 1) if case_id >= 7 else (0, 0, 0)
    return LinearPair(k, Matrix.diagonal([scale * s
                                          for s in SIGN_PATTERNS[case_id]]))


STANDARD_PAIRS = {case: standard_pair(case) for case in range(1, 11)}


# ---------------------------------------------------------------------------
# pairs <-> bivectors
# ---------------------------------------------------------------------------


def bivector_of(pair: LinearPair) -> MultiVectorField:
    """The linear bivector pi_f + (1/2) I^ ^ k^ of a pair."""
    twist = wedge(euler_vf(3), const_vf(pair.k)).scale(Fraction(1, 2))
    return bivector_from_potential(pair.potential()) + twist


def _require_linear(pi: MultiVectorField):
    if pi.nvars < 2 or pi.grade != 2:
        raise ValueError("expected a bivector field on R^n, n >= 2")
    for exps, poly in sorted(pi.components.items()):
        if not poly.is_homogeneous(1):
            raise ValueError(
                "component %s is not homogeneous linear: %s" % (exps, poly)
            )


def pair_of(pi: MultiVectorField) -> LinearPair:
    """Recover the pair (k, A) of a linear Poisson bivector on R^3."""
    _require_linear(pi)
    if pi.nvars != 3:
        raise ValueError("pairs are defined on R^3 only")
    if not is_poisson(pi):
        jac = schouten(pi, pi)
        exps, poly = next(iter(sorted(jac.components.items())))
        label = ",".join(str(i + 1) for i in exps)
        raise ValueError(
            "not a Poisson bivector: Jacobiator component (%s) is %s" % (label, poly)
        )
    k = constant_vector(modular_field(pi))
    twist = wedge(euler_vf(3), const_vf(k)).scale(Fraction(1, 2))
    rest = pi - twist
    # rest carries the partials of f in its components; recover f by Euler
    x, y, z = (Polynomial.variable(3, i) for i in range(3))
    f = (x * rest.component((1, 2)) - y * rest.component((0, 2))
         + z * rest.component((0, 1))) * Fraction(1, 2)
    pair = LinearPair(k, gram_of_quadratic(f))
    if bivector_of(pair) != pi:
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


def decompose(pi: MultiVectorField) -> Decomposition:
    """Split a linear bivector as pi = (1/(n-1)) I^ ^ k^ + L with curl(L) = 0.

    Works on R^n for any n >= 2; k is the constant value of the modular
    field.  The two reported booleans are automatic when pi is Poisson.
    """
    _require_linear(pi)
    n = pi.nvars
    k = constant_vector(modular_field(pi))
    lam = pi - wedge(euler_vf(n), const_vf(k)).scale(Fraction(1, n - 1))
    if not curl(lam).is_zero():  # pragma: no cover - identity of the splitting
        raise AssertionError("curl-free part has nonzero curl")
    return Decomposition(
        k=k,
        curl_free=lam,
        square_closed=curl(wedge(lam, lam)).is_zero(),
        twist_commutes=schouten(const_vf(k), lam).is_zero(),
    )


# ---------------------------------------------------------------------------
# isomorphisms
# ---------------------------------------------------------------------------


def transform_pair(t: Matrix, pair: LinearPair) -> LinearPair:
    """Image of a pair under an invertible linear map, valid by construction:
    with S = T^-1, S' A S is symmetric as A is, and S' A S T k = S' A k = 0.
    """
    t = _rational_matrix(t)
    det = t.det()
    if not det:
        raise ValueError("transformation must be invertible")
    tinv = t.inverse()
    gram = (tinv.transpose() * pair.gram * tinv).scaled(det)
    return LinearPair._trusted(t.apply(pair.k), gram)


def is_isomorphism(t: Matrix, p1: LinearPair, p2: LinearPair) -> bool:
    """Exact test of k2 = T k1 and T' A2 T = det(T) A1.

    The matrix may have entries in the quadratic extension field; both
    identities are checked without rounding.
    """
    det = t.det()
    if not det:
        raise ValueError("transformation must be invertible")
    if vec(t.apply(p1.k)) != vec(p2.k):
        return False
    return t.transpose() * p2.gram * t == p1.gram.scaled(det)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StdFormLabel:
    """Which of the ten standard forms, with the exact modulus a^2 for 8/9."""

    case_id: int
    a_squared: Optional[Fraction] = None

    def __post_init__(self):
        if self.case_id not in range(1, 11):
            raise ValueError("case_id must be 1..10")
        if (self.a_squared is not None) != (self.case_id in (8, 9)):
            raise ValueError("modulus present exactly for cases 8 and 9")
        if self.a_squared is not None:
            object.__setattr__(self, "a_squared", _as_fraction(self.a_squared))
            if self.a_squared <= 0:
                raise ValueError("modulus a^2 must be positive")

    def to_json(self):
        out = {"case": self.case_id}
        if self.a_squared is not None:
            out["a_squared"] = scalar_to_json(self.a_squared)
        return out


@dataclass(frozen=True)
class Witness:
    """Invertible change of coordinates in factored form R * diag(1/sqrt(d)).

    ``base`` is rational and invertible; ``scales`` holds three non-negative
    rationals, a zero meaning no scaling of that column.  The assembled map
    sends the standard pair of the classified case to the classified pair.
    """

    base: Matrix
    scales: tuple

    def __post_init__(self):
        object.__setattr__(self, "base", _rational_matrix(self.base))
        object.__setattr__(
            self, "scales", tuple(_as_fraction(v) for v in self.scales))
        if self.base.n != 3 or len(self.scales) != 3:
            raise ValueError("witness lives on R^3")
        if any(v < 0 for v in self.scales):
            raise ValueError("scales must be non-negative")
        if not self.base.det():
            raise ValueError("witness base must be invertible")

    def to_json(self):
        return {
            "R": self.base.to_json(),
            "d": [scalar_to_json(v) for v in self.scales],
        }

    @classmethod
    def from_json(cls, data) -> "Witness":
        return cls(Matrix.from_json(data["R"]),
                   tuple(scalar_from_json(v) for v in data["d"]))


def classification_to_json(label: StdFormLabel, witness: Witness):
    out = label.to_json()
    out["witness"] = witness.to_json()
    return out


def _complete_basis(k) -> Matrix:
    """Rational basis with third column k: pivot on the largest coordinate."""
    pivot = max(range(3), key=lambda i: (abs(k[i]), -i))
    cols = [[Fraction(1) if i == j else Fraction(0) for i in range(3)]
            for j in range(3) if j != pivot]
    cols.append(list(k))
    return Matrix(list(zip(*cols)))


def _negate_column(m: Matrix, j: int) -> Matrix:
    """Negate column j of a rational matrix, on its integer form."""
    (den, ints), n = m.integer_form(), m.n
    return Matrix._of_form(n, den, [-v if k % n == j else v
                                    for k, v in enumerate(ints)])


def _permute_columns(m: Matrix, perm) -> Matrix:
    """Put column perm[i] of a rational matrix in slot i, on its integer form."""
    (den, ints), n = m.integer_form(), m.n
    return Matrix._of_form(n, den, [ints[k + p] for k in range(0, n * n, n)
                                    for p in perm])


def _arrange(diag, cases):
    """Case id, column order and global sign matching a diagonal form.

    The first of ``cases`` whose sign pattern sigma, times +1 or else -1,
    holds the signs of ``diag`` wins; the order then puts column perm[i]
    in slot i so that sign(diag_perm[i]) = sign * sigma_i.  Columns of one
    sign keep their order, so the construction is deterministic.
    """
    signs = [(v > 0) - (v < 0) for v in diag]
    for case in cases:
        for sign in (1, -1):
            want = [sign * s for s in SIGN_PATTERNS[case]]
            if sorted(want) == sorted(signs):
                pools = {s: iter([i for i, t in enumerate(signs) if t == s])
                         for s in (1, -1, 0)}
                return case, tuple(next(pools[s]) for s in want), sign
    raise AssertionError("no sign pattern fits %r" % (diag,))  # pragma: no cover


def classify(pair: LinearPair):
    """Standard-form label and an exactly checkable witness for a pair.

    The witness maps the standard pair of the found case (modulus a for
    cases 8/9) to ``pair`` in the sense of is_isomorphism; see
    verify_witness for the rational identities certifying that.

    The free block is diagonalized by congruence: all of A when k = 0,
    else the 2x2 block of A in a basis completed by k, where the diagonal
    of R' A R is det of that basis times the block's diagonal.
    """
    if not any(pair.k):
        free, cases, flip = 3, range(1, 7), 2
        base, diag = congruent_diagonalize(pair.gram)
    else:
        free, cases, flip = 2, range(7, 11), 0
        base = _complete_basis(pair.k)
        det = base.det()
        # pull the form back to coordinates where k becomes e3
        block = (base.transpose() * pair.gram * base).scaled(1 / det)
        two = Matrix([row[:2] for row in block.rows[:2]])
        inner, diag2 = congruent_diagonalize(two)
        base = base * Matrix([
            [inner.rows[0][0], inner.rows[0][1], 0],
            [inner.rows[1][0], inner.rows[1][1], 0],
            [0, 0, 1],
        ])
        diag = (det * diag2[0], det * diag2[1], Fraction(0))
    case, perm, sign = _arrange(diag, cases)
    base = _permute_columns(base, perm)
    scales = [abs(diag[p]) for p in perm]
    rank = sum(1 for v in scales if v)
    if rank:
        if (base.det() > 0) != (sign > 0):
            base = _negate_column(base, flip)
        det_sq = base.det() ** 2
        if rank == 3:
            # det(T) is forced here, so rescale to keep it consistent
            prod = scales[0] * scales[1] * scales[2]
            scales = [det_sq * v / prod for v in scales]
        elif rank < free:
            # one spare column soaks up the determinant so det(T) = sign
            spare = Fraction(1)
            for v in scales[:rank]:
                spare = spare * v
            scales[rank] = det_sq / spare
    a_squared = abs(two.det()) if case in (8, 9) else None
    label = StdFormLabel(case, a_squared)
    witness = Witness(base, tuple(scales))
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
    the same sign as det(R).  Every square root appears squared.
    """
    sigma = SIGN_PATTERNS[label.case_id]
    r, d = witness.base, witness.scales
    u = r.transpose() * pair.gram * r
    if not u.is_diagonal():
        return False
    diag = [u.rows[i][i] for i in range(3)]
    if label.case_id >= 7:
        if d[2] != 0 or r.column(2) != tuple(pair.k):
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
    eps = diag[live[0]] / (sigma[live[0]] * d[live[0]])
    if any(diag[i] != eps * sigma[i] * d[i] for i in live):
        return False
    target = label.a_squared if label.a_squared is not None else Fraction(1)
    det = r.det()
    prod = Fraction(1)
    for v in d:
        if v > 0:
            prod = prod * v
    if eps ** 2 * prod != target * det ** 2:
        return False
    return (eps > 0) == (det > 0)


# ---------------------------------------------------------------------------
# automorphisms
# ---------------------------------------------------------------------------


def _block2(m: Matrix) -> Matrix:
    return Matrix([[m.rows[0][0], m.rows[0][1]], [m.rows[1][0], m.rows[1][1]]])


def _fixes_e3(m: Matrix) -> bool:
    return (m.rows[0][2] == 0 and m.rows[1][2] == 0 and m.rows[2][2] == 1)


def _aut_closed_form(t: Matrix, case_id: int) -> bool:
    """Membership in the automorphism group via its explicit description."""
    m = t.rows
    if case_id == 1:
        return True
    if case_id == 2:
        return t.transpose() * t == Matrix.identity(3) and t.det() == 1
    if case_id == 3:
        j = Matrix.diagonal([1, 1, -1])
        return t.transpose() * j * t == j and t.det() == 1
    if case_id == 4:
        if m[0][2] != 0 or m[1][2] != 0:
            return False
        b = _block2(t)
        bb = b.transpose() * b
        c = bb.rows[0][0]
        return (bb == Matrix.diagonal([c, c]) and c > 0
                and m[2][2] == b.det() / c)
    if case_id == 5:
        lam = m[2][2]
        return (m[0][2] == 0 and m[1][2] == 0 and lam * lam == 1
                and m[0][0] == lam * m[1][1] and m[1][0] == lam * m[0][1]
                and m[1][1] ** 2 != m[0][1] ** 2)
    if case_id == 6:
        if m[0][1] != 0 or m[0][2] != 0:
            return False
        lower = m[1][1] * m[2][2] - m[1][2] * m[2][1]
        return lower == m[0][0] and m[0][0] != 0
    if case_id == 7:
        return _fixes_e3(t)
    if case_id == 8:
        if not _fixes_e3(t):
            return False
        b = _block2(t)
        bb = b.transpose() * b
        c = bb.rows[0][0]
        return bb == Matrix.diagonal([c, c]) and b.det() == c and c > 0
    if case_id == 9:
        return (_fixes_e3(t) and m[0][0] == m[1][1] and m[1][0] == m[0][1]
                and m[1][1] ** 2 != m[0][1] ** 2)
    if case_id == 10:
        return (_fixes_e3(t) and m[0][1] == 0
                and m[0][0] == m[1][1] and m[0][0] != 0)
    raise ValueError("case_id must be 1..10")


def aut_member(t: Matrix, case_id: int) -> bool:
    """Does t preserve the standard structure of the given case?

    Computed twice: from the defining equations (fixed k, potential
    equivariant up to det) and from the closed-form group description.
    A disagreement would mean a bug, so it raises.
    """
    t = _rational_matrix(t)
    if not t.det():
        raise ValueError("transformation must be invertible")
    pair = STANDARD_PAIRS[case_id] if case_id in STANDARD_PAIRS else None
    if pair is None:
        raise ValueError("case_id must be 1..10")
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
    d = _rational_matrix(d)
    pair = STANDARD_PAIRS[case_id]
    if any(d.apply(pair.k)):
        return False
    f = pair.potential()
    return apply_matrix_derivation(d, f) == f * d.trace()


def der0_space(case_id: int) -> SolutionSpace:
    """Traceless derivations of a standard structure, as a solution space.

    Matrices are flattened row-major into R^9; the space solves tr D = 0,
    D k = 0 and D^ f = 0 (the potential of the case, modulus one).
    """
    pair = STANDARD_PAIRS[case_id]
    f = pair.potential()
    units = []
    for i in range(3):
        for j in range(3):
            units.append(Matrix([
                [1 if (r, c) == (i, j) else 0 for c in range(3)]
                for r in range(3)
            ]))
    rows = [[u.trace() for u in units]]
    for i in range(3):
        rows.append([u.apply(pair.k)[i] for u in units])
    quad_monomials = [
        (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2),
    ]
    derived = [apply_matrix_derivation(u, f) for u in units]
    for mono in quad_monomials:
        rows.append([p.coeff(mono) for p in derived])
    return solve_linear(rows, [0] * len(rows))
