"""Quadratic deformations of the linear structures on R^3.

A quadratic bivector is encoded, like the linear ones, by a pair: a
traceless ``twist`` matrix (its modular part is the linear field x -> Kx)
plus a homogeneous ``cubic`` potential annihilated by that field,

    pi = pi_cubic + (1/3) * euler ^ twist_field.

Whether such a bivector is a deformation of a given linear structure --
their bracket vanishes -- is decided twice, by independent routes: once
with the Schouten bracket, once through an equivalent identity between
two quadratic polynomials.  The solver inverts that identity exactly,
giving the affine set of admissible cubics for a twist matrix.

The second half of the module hosts the orbit machinery: projective
points, their strata under the symmetry group of a normal-form twist
matrix, and the special-orthogonal maps that carry each stratum
representative to the vertical axis.
"""

import cmath
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .exactnum import (
    ExactSqrtError,
    ExtScalar,
    Matrix,
    Polynomial,
    SolutionSpace,
    _rational_sqrt,
    _scaled_row,
    apply_matrix_derivation,
    as_scalar,
    cross3,
    quadratic_form_poly,
    scalar_div,
    scalar_to_json,
    scalar_from_json,
    solve_linear,
    sqrt_exact,
    term_sort_key,
    vec,
)
from .multivec import (
    MultiVectorField,
    bivector_from_potential,
    euler_vf,
    linear_vf,
    schouten,
    wedge,
)
from .linclass import LinearPair, bivector_of, standard_pair


def _graded_monomials(degree: int) -> tuple:
    exps = [e for e in itertools.product(range(degree + 1), repeat=3)
            if sum(e) == degree]
    return tuple(sorted(exps, key=term_sort_key))


#: coefficient slots for cubics/quadratics, in the canonical term order
CUBIC_MONOMIALS = _graded_monomials(3)
QUAD_MONOMIALS = _graded_monomials(2)
_CUBIC_INDEX = {e: s for s, e in enumerate(CUBIC_MONOMIALS)}
_QUAD_INDEX = {e: s for s, e in enumerate(QUAD_MONOMIALS)}


def cubic_coords(p: Polynomial) -> tuple:
    """Coefficient 10-vector of a homogeneous cubic on R^3."""
    if p.nvars != 3 or not p.is_homogeneous(3):
        raise ValueError("not a homogeneous cubic on three variables: %s" % p)
    return tuple(p.coeff(m) for m in CUBIC_MONOMIALS)


def cubic_from_coords(coords: Sequence) -> Polynomial:
    if len(coords) != len(CUBIC_MONOMIALS):
        raise ValueError("expected %d cubic coefficients" % len(CUBIC_MONOMIALS))
    return Polynomial(3, dict(zip(CUBIC_MONOMIALS, coords)))


def ktilde(k: Sequence) -> Matrix:
    """Cross-product matrix of a vector: ktilde(k) v = k x v."""
    a, b, c = vec(k)
    return Matrix([[0, -c, b], [c, 0, -a], [-b, a, 0]])


def _check_twist(k_matrix: Matrix):
    """Raise ValueError unless the twist matrix is 3x3 and traceless."""
    if k_matrix.n != 3:
        raise ValueError("twist matrix must be 3x3")
    if k_matrix.trace():
        raise ValueError("twist matrix must be traceless")


# ---------------------------------------------------------------------------
# compatible pairs and the deformation criterion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadraticPair:
    """Traceless twist matrix plus the cubic potential it annihilates."""

    twist: Matrix
    cubic: Polynomial

    def __post_init__(self):
        _check_twist(self.twist)
        if self.cubic.nvars != 3 or not self.cubic.is_homogeneous(3):
            raise ValueError("potential must be a homogeneous cubic on R^3")
        residual = apply_matrix_derivation(self.twist, self.cubic)
        if not residual.is_zero():
            raise ValueError(
                "cubic is not invariant under the twist flow "
                "(derivation residual %s)" % residual
            )

    def to_json(self) -> dict:
        return {"K": self.twist.to_json(), "F": self.cubic.to_json()}

    @classmethod
    def from_json(cls, data: dict) -> "QuadraticPair":
        return cls(Matrix.from_json(data["K"]), Polynomial.from_json(data["F"]))


def pi_quad(qp: QuadraticPair) -> MultiVectorField:
    """The quadratic bivector of a pair: potential part plus scaled twist."""
    twist = wedge(euler_vf(3), linear_vf(qp.twist)).scale(Fraction(1, 3))
    return bivector_from_potential(qp.cubic) + twist


def deform_rhs(lp: LinearPair, k_matrix: Matrix) -> Polynomial:
    """Quadratic source term of the deformation identity.

    The constant-direction derivative of an admissible cubic must equal
    -(1/6) x^T (12 A + ktilde(k)) K x for the linear pair (k, A).
    """
    m = (lp.gram.scaled(12) + ktilde(lp.k)) * k_matrix
    return quadratic_form_poly(m) * Fraction(-1, 6)


def deform_check(lp: LinearPair, qp: QuadraticPair) -> bool:
    """Does the quadratic pair deform the linear one?  Decided twice.

    Route one brackets the two bivectors and tests exact vanishing;
    route two tests the equivalent polynomial identity.  The routes must
    agree on every valid input -- a mismatch raises instead of guessing.
    """
    bracket = schouten(bivector_of(lp), pi_quad(qp))
    route_bracket = bracket.is_zero()
    lhs = qp.cubic.directional_diff(lp.k)
    route_identity = lhs == deform_rhs(lp, qp.twist)
    if route_bracket != route_identity:
        raise AssertionError(
            "deformation criterion routes disagree (bracket: %s, identity: %s)"
            % (route_bracket, route_identity)
        )
    return route_bracket


def _twist_rows(k_matrix: Matrix):
    """The rows of D K for K on its form (D, M): ints for a rational K,
    and the scalars of K (D = 1) otherwise.

    The kernel equations are homogeneous, so the factor D changes no
    solution.
    """
    flat = k_matrix._form[1]
    return flat[0:3], flat[3:6], flat[6:9]


def _derivation_rows(k: Sequence) -> list:
    """The 10x10 matrix of F -> (Kx).grad F on cubic coefficients, for
    the rows ``k`` of K.

    Column s is the image of the monomial x^e, e = CUBIC_MONOMIALS[s]:
    the sum over i, j of K[i][j] e_i x^(e - u_i + u_j).  Off the diagonal
    each entry has the single term i -> j; the diagonal entry sums
    K[i][i] e_i over i.  Entries equal apply_matrix_derivation's
    coefficients in value and type, missing ones being Fraction(0);
    integer rows give integer rows.
    """
    zero = 0 if all(type(v) is int for row in k for v in row) else Fraction(0)
    rows = [[zero] * 10 for _ in range(10)]
    for s, e in enumerate(CUBIC_MONOMIALS):
        diagonal = None
        for i in range(3):
            if not e[i]:
                continue
            for j in range(3):
                if not k[i][j]:
                    continue
                term = k[i][j] * e[i]
                if i != j:
                    target = list(e)
                    target[i] -= 1
                    target[j] += 1
                    rows[_CUBIC_INDEX[tuple(target)]][s] = term
                elif diagonal is None:
                    diagonal = term
                else:
                    # a partial sum that cancels is dropped, as a
                    # Polynomial drops a zero coefficient
                    diagonal = (diagonal + term) or None
        if diagonal is not None:
            rows[s][s] = diagonal
    return rows


def _drift_rows(k: Sequence) -> list:
    """The 6x10 matrix of F -> k.grad F from cubic to quadratic coefficients.

    Column s is the image of x^e, e = CUBIC_MONOMIALS[s]: the sum over i
    of k_i e_i x^(e - u_i), one term per quadratic monomial.  Entries
    equal directional_diff's coefficients in value and type; an integer
    k gives integer rows.
    """
    if all(type(c) is int for c in k):
        zero = 0
    else:
        k, zero = vec(k), Fraction(0)
    rows = [[zero] * 10 for _ in QUAD_MONOMIALS]
    for s, e in enumerate(CUBIC_MONOMIALS):
        for i in range(3):
            if e[i] and k[i]:
                target = list(e)
                target[i] -= 1
                rows[_QUAD_INDEX[tuple(target)]][s] = k[i] * e[i]
    return rows


def cubic_kernel(k_matrix: Matrix) -> SolutionSpace:
    """All cubics annihilated by the derivation of a traceless matrix."""
    _check_twist(k_matrix)
    return solve_linear(_derivation_rows(_twist_rows(k_matrix)), [0] * 10, 10)


def solve_F(lp: LinearPair, k_matrix: Matrix) -> SolutionSpace:
    """Exact affine set of cubics making (K, F) a deformation of lp.

    Stacks the ten kernel equations on top of the six coefficient
    equations of the quadratic identity and solves over the coefficient
    field.  Every member of the result is re-checked through the bracket
    route before being returned.
    """
    _check_twist(k_matrix)
    # k.grad F = T / D times D s, s the lcm of k's denominators: integer
    # rows, and a right-hand side of ints on a rational source (D = 1 and
    # the scalars T otherwise)
    (den, vals), (s, k) = deform_rhs(lp, k_matrix)._form, _scaled_row(lp.k)
    drift = _drift_rows([den * c for c in k])
    rhs = [vals.get(m, 0) for m in QUAD_MONOMIALS]
    if s != 1:
        rhs = [s * v for v in rhs]
    rows = _derivation_rows(_twist_rows(k_matrix)) + drift
    space = solve_linear(rows, [0] * 10 + rhs, 10)
    if not space.is_empty:
        members = [space.particular]
        members.extend(tuple(p + c for p, c in zip(space.particular, b))
                       for b in space.basis)
        for coords in members:
            if not deform_check(lp, QuadraticPair(k_matrix, cubic_from_coords(coords))):
                raise AssertionError(
                    "solver produced a cubic the bracket route rejects")
    return space


def transform_pair(t: Matrix, qp: QuadraticPair) -> QuadraticPair:
    """Push a pair along an invertible map: (TKT^-1, det(T) F o T^-1)."""
    if not t.det():
        raise ValueError("transform must be invertible")
    tinv = t.inverse()
    twist = t * qp.twist * tinv
    cubic = qp.cubic.compose_linear(tinv) * t.det()
    return QuadraticPair(twist, cubic)


def solution_polys(space: SolutionSpace):
    """Render a cubic-coefficient solution space as polynomials."""
    if space.is_empty:
        return None, ()
    particular = cubic_from_coords(space.particular)
    return particular, tuple(cubic_from_coords(b) for b in space.basis)


def span_of_cubics(polys: Sequence[Polynomial]) -> SolutionSpace:
    """Homogeneous span of given cubics, as a coefficient-vector space."""
    zero = tuple(Fraction(0) for _ in CUBIC_MONOMIALS)
    return SolutionSpace(10, zero, tuple(cubic_coords(p) for p in polys))


# ---------------------------------------------------------------------------
# normal-form families of twist matrices
# ---------------------------------------------------------------------------

DIAG_DISTINCT = "DIAG_DISTINCT"
DIAG_REPEATED = "DIAG_REPEATED"
NILPOTENT_FULL = "NILPOTENT_FULL"
OTHER = "OTHER"


@dataclass(frozen=True)
class JordanFamily:
    """Normal form of a traceless matrix, as far as the orbit machinery cares.

    ``DIAG_DISTINCT`` carries three pairwise-distinct nonzero rational
    eigenvalues summing to zero; ``DIAG_REPEATED`` carries the single
    parameter of diag(l, l, -2l); ``NILPOTENT_FULL`` is the full
    3x3 nilpotent shift; everything else is ``OTHER``, with a floating
    eigenvalue report.
    """

    tag: str
    lambdas: tuple = ()
    eigen_report: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "lambdas",
                           tuple(Fraction(v) for v in self.lambdas))
        if self.tag == DIAG_DISTINCT:
            l1, l2, l3 = self.lambdas
            if l1 + l2 + l3 != 0:
                raise ValueError("eigenvalues must sum to zero")
            if len({l1, l2, l3}) != 3 or 0 in (l1, l2, l3):
                raise ValueError("eigenvalues must be pairwise distinct and nonzero")
        elif self.tag == DIAG_REPEATED:
            (lam,) = self.lambdas
            if lam == 0:
                raise ValueError("repeated eigenvalue must be nonzero")
        elif self.tag == NILPOTENT_FULL:
            if self.lambdas:
                raise ValueError("nilpotent family takes no parameters")
        elif self.tag != OTHER:
            raise ValueError("unknown family tag %r" % self.tag)

    @classmethod
    def diag_distinct(cls, l1, l2, l3) -> "JordanFamily":
        return cls(DIAG_DISTINCT, (l1, l2, l3))

    @classmethod
    def diag_repeated(cls, lam) -> "JordanFamily":
        return cls(DIAG_REPEATED, (lam,))

    @classmethod
    def nilpotent_full(cls) -> "JordanFamily":
        return cls(NILPOTENT_FULL)

    def matrix(self) -> Matrix:
        if self.tag == DIAG_DISTINCT:
            return Matrix.diagonal(self.lambdas)
        if self.tag == DIAG_REPEATED:
            lam = self.lambdas[0]
            return Matrix.diagonal([lam, lam, -2 * lam])
        if self.tag == NILPOTENT_FULL:
            return Matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        raise ValueError("no normal-form matrix for tag %r" % self.tag)


def _rational_roots_monic_cubic(c2: Fraction, c0: Fraction):
    """Roots of t^3 + c2 t + c0 over Q, or None if it does not split.

    With d the lcm of the two denominators, s = d t turns the cubic into
    the monic integer cubic s^3 + p s + q, whose rational roots are
    integers.  One of them is found by bisection (see
    ``_integer_root_monic_cubic``) and the other two by deflation, so the
    cost grows with the bit size of the coefficients, not with their
    magnitude.
    """
    d = math.lcm(c2.denominator, c0.denominator)
    p = c2.numerator * (d * d // c2.denominator)
    q = c0.numerator * (d ** 3 // c0.denominator)
    s = _integer_root_monic_cubic(p, q)
    if s is None:
        return None
    root = Fraction(s, d)
    # deflate: t^3 + c2 t + c0 = (t - r)(t^2 + r t + (r^2 + c2))
    b, c = root, root * root + c2
    sq = _rational_sqrt(b * b - 4 * c)
    if sq is None:
        return None
    return (root, (-b + sq) / 2, (-b - sq) / 2)


def _integer_root_monic_cubic(p: int, q: int) -> Optional[int]:
    """An integer root of f(s) = s^3 + p s + q, or None.

    Only the largest root of a split cubic is looked for, which suffices:
    None means that f does not split over Q.  That root lies on the run
    of integers where f rises towards +inf, below the Cauchy bound
    1 + max(|p|, |q|): the whole line when p >= 0, as f' = 3 s^2 + p,
    and from the least m with 3 m^2 >= -p on otherwise.  On that run the
    least s with f(s) >= 0 is found by bisection; it is a root exactly
    when f(s) = 0.
    """
    def f(s):
        return s * (s * s + p) + q

    hi = 1 + max(abs(p), abs(q))
    if p >= 0:
        lo = -hi
    else:
        lo = math.isqrt(-p // 3)
        while 3 * lo * lo < -p:
            lo += 1
    while lo < hi:
        mid = (lo + hi) // 2
        if f(mid) >= 0:
            hi = mid
        else:
            lo = mid + 1
    return lo if f(lo) == 0 else None


def jordan_family_of(k_matrix: Matrix) -> JordanFamily:
    """Classify a traceless matrix into the families the orbits know about.

    The exact route needs a rational matrix whose characteristic
    polynomial splits over Q; anything else lands in OTHER carrying a
    floating-point eigenvalue report.
    """
    _check_twist(k_matrix)
    if not any(isinstance(v, ExtScalar) and not v.is_rational
               for row in k_matrix.rows for v in row):
        q = Matrix([[v.rational_value() if isinstance(v, ExtScalar) else v
                     for v in row] for row in k_matrix.rows])
        c2, det = _char_coeffs(q)
        roots = _rational_roots_monic_cubic(c2, -det)
        distinct = sorted(set(roots or ()), reverse=True)
        if len(distinct) == 3 and 0 not in distinct:
            if q.is_diagonal():
                distinct = [q.rows[i][i] for i in range(3)]
            return JordanFamily.diag_distinct(*distinct)
        if len(distinct) == 2:
            lam = next(r for r in distinct if roots.count(r) == 2)
            eye = Matrix.identity(3)
            if lam and ((q - eye.scaled(lam))
                        * (q + eye.scaled(2 * lam))).is_zero():
                return JordanFamily.diag_repeated(lam)
        if distinct == [0] and not (q * q).is_zero():
            return JordanFamily.nilpotent_full()
    return JordanFamily(OTHER, (), _float_eigen_report(k_matrix))


def _char_coeffs(m: Matrix) -> tuple:
    """(c2, det), Fractions when rational: m's char. poly t^3 + c2 t - det."""
    r = m.rows
    c2 = sum(r[i][i] * r[j][j] - r[i][j] * r[j][i]
             for i, j in ((0, 1), (0, 2), (1, 2)))
    return tuple(c.rational_value() if isinstance(c, ExtScalar)
                 and c.is_rational else c for c in (c2, m.det()))


def _binary_exponent(v) -> int:
    """e with |c| < 2^(e+1) for every rational part c of a nonzero scalar."""
    parts = v.coords if isinstance(v, ExtScalar) else (v,)
    return max(c.numerator.bit_length() - c.denominator.bit_length()
               for c in parts if c)


def _float_eigen_report(k_matrix: Matrix) -> tuple:
    """Roots of the characteristic cubic as sorted (real, imag) floats:
    exact when it splits over Q or has a repeated root (discriminant
    -4 c2^3 - 27 det^2 = 0), else by bisection and deflation."""
    c2, det = _char_coeffs(k_matrix)
    roots = (None if isinstance(c2, ExtScalar) or isinstance(det, ExtScalar)
             else _rational_roots_monic_cubic(c2, -det))
    if roots is None and c2 and not 4 * c2 * c2 * c2 + 27 * det * det:
        roots = (3 * det / (2 * c2),) * 2 + (-3 * det / c2,)
    try:
        if roots is not None:
            eigs = [complex(r) for r in roots]
        else:
            # t = 2^k s gives s^3 + p s + q with |p|, |q| below 14
            k = max(-(-_binary_exponent(c) // n)
                    for c, n in ((c2, 2), (det, 3)) if c)
            p = float(c2 * Fraction(4) ** -k)
            q = float(-det * Fraction(8) ** -k)
            hi = 1 + max(abs(p), abs(q))  # f(-hi) < 0 < f(hi)
            lo, mid = -hi, 0.0
            while lo < mid < hi and (value := mid * (mid * mid + p) + q):
                lo, hi = (mid, hi) if value < 0 else (lo, mid)
                mid = (lo + hi) / 2
            # t^3 + p t + q = (t - mid)(t^2 + mid t + mid^2 + p)
            root = cmath.sqrt(-3 * mid * mid - 4 * p)
            eigs = [complex(math.ldexp(z.real, k), math.ldexp(z.imag, k))
                    for z in (mid, (-mid + root) / 2, (-mid - root) / 2)]
    except OverflowError:
        raise ValueError("an eigenvalue is beyond the float range") from None
    eigs.sort(key=lambda z: (round(z.real, 9), round(z.imag, 9)))
    return tuple((z.real + 0.0, z.imag + 0.0) for z in eigs)  # no -0.0


# ---------------------------------------------------------------------------
# projective points and their strata
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class P2Point:
    """A projective point on R^3, canonicalized by its last nonzero slot."""

    coords: tuple

    def __post_init__(self):
        coords = tuple(as_scalar(v) for v in self.coords)
        if len(coords) != 3:
            raise ValueError("projective points live on three coordinates")
        last = next((i for i in (2, 1, 0) if coords[i]), None)
        if last is None:
            raise ValueError("projective point needs a nonzero coordinate")
        pivot = coords[last]
        object.__setattr__(
            self, "coords", tuple(scalar_div(v, pivot) for v in coords)
        )

    @property
    def support(self) -> tuple:
        return tuple(i for i, v in enumerate(self.coords) if v)

    def unit_vector(self) -> tuple:
        """Exact unit realization with nonnegative vertical component.

        Raises :class:`ExactSqrtError` when the normalization leaves the
        supported extension field.
        """
        norm_sq = sum((v * v for v in self.coords), Fraction(0))
        norm = sqrt_exact(norm_sq)
        return tuple(scalar_div(v, norm) for v in self.coords)

    def to_json(self):
        return [scalar_to_json(v) for v in self.coords]

    @classmethod
    def from_json(cls, data) -> "P2Point":
        return cls(tuple(scalar_from_json(v) for v in data))


class OrbitRep(NamedTuple):
    """Stratum representative: index, point, unit realization, rotation."""

    orbit_index: int
    point: P2Point
    unit: tuple
    rotation: Matrix

    def to_json(self):
        return {
            "orbit": self.orbit_index,
            "rep": [scalar_to_json(v) for v in self.unit],
            "T": self.rotation.to_json(),
        }


def t_of_v(v, tolerance: float = 1e-12):
    """Special-orthogonal map with last row v, sending e3-data onto v-data.

    Exact inputs (a :class:`P2Point` or a unit vector over the rationals
    or the supported extension field) produce an exact :class:`Matrix`
    with T^T T = I and det T = 1, both checked (a failure raises even
    under ``python -O``).  Anything else -- float coordinates, or an
    exact point whose normalization needs a square root outside the
    field -- takes the floating route, which returns a tuple of three
    float rows after checking the orthogonality residual against
    ``tolerance``.
    """
    raw = v.coords if isinstance(v, P2Point) else tuple(v)
    try:
        if isinstance(v, P2Point):
            coords = v.unit_vector()
        else:
            coords = vec(v)
            norm_sq = sum((c * c for c in coords), Fraction(0))
            if norm_sq != 1:
                raise ValueError("exact input must be a unit vector")
        if len(coords) != 3:
            raise ValueError("expected three coordinates")
        vert = coords[2]
        if float(vert) < 0:
            raise ValueError("unit vector must have nonnegative vertical component")
        if vert == 1:
            return Matrix.identity(3)
        sine = sqrt_exact(1 - vert * vert)
    except (ExactSqrtError, TypeError):
        return _t_of_v_float(raw, tolerance)
    w = tuple(
        scalar_div((1 if i == 2 else 0) - vert * coords[i], sine)
        for i in range(3)
    )
    t = Matrix([w, cross3(coords, w), coords])
    if t.transpose() * t != Matrix.identity(3):
        raise AssertionError("rotation is not orthogonal: %r" % (t,))
    if t.det() != 1:
        raise AssertionError("rotation does not have determinant 1: %r" % (t,))
    return t


def _t_of_v_float(raw, tolerance: float) -> tuple:
    exact = [c if isinstance(c, ExtScalar) else Fraction(c) for c in raw]
    # scaled by a power of two: no product overflows, no rounding changes
    k = max((_binary_exponent(c) for c in exact if c), default=0)
    x, y, z = (float(c * Fraction(2) ** -k) for c in exact)
    norm = math.sqrt(x * x + y * y + z * z)
    if norm == 0.0:
        raise ValueError("zero vector has no direction")
    u = (x / norm, y / norm, z / norm)
    if u[2] < 0:
        u = (-u[0], -u[1], -u[2])
    s = math.hypot(u[0], u[1])
    if s == 0:
        return ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    w = (-u[0] * u[2] / s, -u[1] * u[2] / s, s)
    t = (w, cross3(u, w), u)
    residual = max(abs(sum(a * b for a, b in zip(t[i], t[j])) - (i == j))
                   for i in range(3) for j in range(3))
    if residual > tolerance:
        raise ValueError("orthogonality residual %g exceeds tolerance" % residual)
    return t


#: stratum index of each coordinate support pattern, keyed by family tag:
#: distinct eigenvalues keep the support, the repeated-eigenvalue block
#: acts transitively on its invariant plane, and the nilpotent shift
#: filters by the first nonzero coordinate
_STRATA = {
    DIAG_DISTINCT: {(2,): 1, (1,): 2, (0,): 3, (0, 1): 4, (1, 2): 5,
                    (0, 2): 6, (0, 1, 2): 7},
    DIAG_REPEATED: {(2,): 1, (0,): 2, (1,): 2, (0, 1): 2, (0, 2): 3,
                    (1, 2): 3, (0, 1, 2): 3},
    NILPOTENT_FULL: {(2,): 1, (1,): 2, (1, 2): 2, (0,): 3, (0, 1): 3,
                     (0, 2): 3, (0, 1, 2): 3},
}

#: canonical representative point of each stratum, keyed by family tag
_REP_POINTS = {
    DIAG_DISTINCT: {1: (0, 0, 1), 2: (0, 1, 0), 3: (1, 0, 0), 4: (1, 1, 0),
                    5: (0, 1, 1), 6: (1, 0, 1), 7: (1, 1, 1)},
    DIAG_REPEATED: {1: (0, 0, 1), 2: (0, 1, 0), 3: (0, 1, 1)},
    NILPOTENT_FULL: {1: (0, 0, 1), 2: (0, 1, 0), 3: (1, 0, 0)},
}


def orbit_count(family: JordanFamily) -> int:
    return len(_REP_POINTS[family.tag])


def p2_orbit_rep(family: JordanFamily, v) -> OrbitRep:
    """Canonical representative of the stratum of v under the family's group.

    The stratum is read off the support of the coordinates in ``_STRATA``.
    """
    point = v if isinstance(v, P2Point) else P2Point(tuple(v))
    if family.tag not in _STRATA:
        raise ValueError("no orbit machinery for family %r" % family.tag)
    index = _STRATA[family.tag][point.support]
    return OrbitRep(index, *_rep_rotation(_REP_POINTS[family.tag][index]))


@functools.lru_cache(maxsize=None)
def _rep_rotation(rep: tuple) -> tuple:
    """(P2Point, unit, rotation) of a stratum representative point.

    The rotation depends on the point only, not on the family's
    eigenvalues, and the keys are the few points of ``_REP_POINTS``.
    """
    point = P2Point(rep)
    unit = point.unit_vector()
    return point, unit, t_of_v(unit)


class OrbitFamily(NamedTuple):
    """One stratum's transported normal-form data."""

    rep: OrbitRep
    twist: Matrix
    cubics: tuple  # transported basis of admissible cubics

    def to_json(self):
        data = self.rep.to_json()
        data["K"] = self.twist.to_json()
        data["cubics"] = [str(c) for c in self.cubics]
        return data


def enumerate_orbit_pairs(family: JordanFamily) -> tuple:
    """Transported (twist, admissible-cubics) data for every stratum."""
    k_matrix = family.matrix()
    kernel = cubic_kernel(k_matrix)
    basis_polys = [cubic_from_coords(b) for b in kernel.basis]
    out = []
    for index in sorted(_REP_POINTS[family.tag]):
        rep = p2_orbit_rep(family, _REP_POINTS[family.tag][index])
        t = rep.rotation
        tinv = t.inverse()
        det = t.det()
        twist = t * k_matrix * tinv
        cubics = tuple(b.compose_linear(tinv) * det for b in basis_polys)
        out.append(OrbitFamily(rep, twist, cubics))
    return tuple(out)


def coset_rep_g10(cos_sin, s) -> Matrix:
    """Planar rotation times diag(1, s, 1): the extra freedom case (10) has
    inside the vertical-axis-fixing group."""
    c, sn = (as_scalar(v) for v in cos_sin)
    if c * c + sn * sn != 1:
        raise ValueError("not a point on the rational circle")
    s = as_scalar(s)
    if not s:
        raise ValueError("scale must be nonzero")
    rotation = Matrix([[c, sn, 0], [-sn, c, 0], [0, 0, 1]])
    return rotation * Matrix.diagonal([1, s, 1])


class CatalogEntry(NamedTuple):
    """Solved deformation data on one stratum."""

    orbit_index: Optional[int]
    rep: Optional[OrbitRep]
    twist: Matrix
    solution: SolutionSpace


def catalog(case_id: int, family_or_matrix) -> tuple:
    """Deformation catalog of a standard linear structure.

    Drives the solver either over every stratum of a normal-form family
    or over a single explicit twist matrix, returning one entry per
    stratum in a deterministic order.
    """
    lp = standard_pair(case_id)
    if isinstance(family_or_matrix, Matrix):
        space = solve_F(lp, family_or_matrix)
        return (CatalogEntry(None, None, family_or_matrix, space),)
    entries = []
    for orbit in enumerate_orbit_pairs(family_or_matrix):
        space = solve_F(lp, orbit.twist)
        entries.append(CatalogEntry(orbit.rep.orbit_index, orbit.rep,
                                    orbit.twist, space))
    return tuple(entries)
