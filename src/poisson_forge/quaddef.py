"""Quadratic deformations of the linear structures on R^3.

A quadratic bivector is encoded, like the linear ones, by a pair: a
traceless ``twist`` matrix (its modular part is the linear field x -> Kx)
plus a homogeneous ``cubic`` potential annihilated by that field,

    pi = pi_cubic + (1/3) * euler ^ twist_field.

Whether such a bivector is a deformation of a given linear structure --
their bracket vanishes -- is decided twice, on coefficient forms: once
from the rows of the two bivectors' builders, whose bracket on R^3 is
-(X.curl Y + Y.curl X) d1^d2^d3 for their vector fields X and Y, and
once through an equivalent identity between two quadratic polynomials.
The solver inverts that identity exactly, giving the affine set of
admissible cubics for a twist matrix, on the kernel of the twist's
derivation, a closed form for each Jordan type of the twist: for a
regular twist (three distinct nonzero eigenvalues) the line of the
invariant cubic det(x, Kx, K^2 x), for any other the span of products of
K's left eigenforms (``_kernel_cubics``), of dimension 1 to 4, or all
ten cubics for K = 0.  Both are summed on K's flat values, int
numerators for a rational K, since a matrix whose values are all
rational is held on ints, and neither eliminates.  Its answer is the
span of the solutions on that kernel, which ``SolutionSpace.spanned_by``
puts on the canonical shape by reducing them, with no second solve.  The
bracket route alone shares nothing with the solver, so it is the one
that makes the solver's re-check of its answers independent.

The second half of the module hosts the orbit machinery: projective
points, their strata under the symmetry group of a normal-form twist
matrix, and the special-orthogonal maps that carry each stratum
representative to the vertical axis.
"""

import cmath
import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .exactnum import (
    ExactSqrtError,
    ExtScalar,
    Matrix,
    Polynomial,
    SolutionSpace,
    _adjugate3,
    _det3,
    _last_nonzero,
    _over,
    _product3,
    _rational_sqrt,
    _scaled_row,
    apply_matrix_derivation,
    array_from_json,
    as_rational,
    as_scalar,
    cross3,
    demote,
    scalar_div,
    scalar_to_json,
    scalar_from_json,
    solve_linear,
    sqrt_exact,
    term_sort_key,
    vec,
)
from .multivec import MultiVectorField
from .linclass import _COMPLEMENTS, LinearPair, _linear_rows, standard_pair


def _graded_monomials(degree: int) -> tuple:
    exps = [e for e in itertools.product(range(degree + 1), repeat=3)
            if sum(e) == degree]
    return tuple(sorted(exps, key=term_sort_key))


#: coefficient slots for cubics/quadratics, in the canonical term order
CUBIC_MONOMIALS = _graded_monomials(3)
QUAD_MONOMIALS = _graded_monomials(2)
_CUBIC_INDEX = {e: s for s, e in enumerate(CUBIC_MONOMIALS)}
_QUAD_INDEX = {e: s for s, e in enumerate(QUAD_MONOMIALS)}
#: _QUAD_SLOTS[i][m] is the slot of x_i x_m in QUAD_MONOMIALS
_QUAD_SLOTS = tuple(tuple(
    _QUAD_INDEX[tuple(int(r == i) + int(r == m) for r in range(3))]
    for m in range(3)) for i in range(3))
#: _PARTIALS[e] lists (i, e_i, slot) for each x_i in the cubic x^e:
#: d/dx_i x^e = e_i x^q for q = QUAD_MONOMIALS[slot]
_PARTIALS = {e: tuple((i, e[i], s) for s, q in enumerate(QUAD_MONOMIALS)
                      for i in range(3) if q[:i] + (q[i] + 1,) + q[i + 1:] == e)
             for e in CUBIC_MONOMIALS}
#: _DERIVATION_SLOTS[e] lists (e_i, 3 i, slots) for each x_i in the cubic
#: x^e: D_K sends x^e to sum_j e_i K_ij x^(e - u_i + u_j), the cubic of
#: CUBIC_MONOMIALS[slots[j]]
_DERIVATION_SLOTS = {e: tuple((e[i], 3 * i, tuple(
    _CUBIC_INDEX[tuple(e[r] - (r == i) + (r == j) for r in range(3))]
    for j in range(3))) for i in range(3) if e[i]) for e in CUBIC_MONOMIALS}


def _derivation_sums(k: Sequence, terms) -> list:
    """The coefficients of D_K F on CUBIC_MONOMIALS, for K's flat values
    ``k`` and the terms (e, c) of F: c x^e adds e_i k_ij c at
    x^(e - u_i + u_j) (``_DERIVATION_SLOTS``).  Zero entries of k are
    skipped and a sum that cancels counts as absent, as in
    ``apply_matrix_derivation``; an absent coefficient is int 0."""
    out = [0] * 10
    for e, c in terms:
        for ei, row, slots in _DERIVATION_SLOTS[e]:
            w = ei * c
            for v, slot in zip(k[row:row + 3], slots):
                if v:
                    cur = out[slot]
                    out[slot] = cur + v * w if cur else v * w
    return out


def cubic_coords(p: Polynomial) -> tuple:
    """Coefficient 10-vector of a homogeneous cubic on R^3."""
    if p.nvars != 3 or not p.is_homogeneous(3):
        raise ValueError("not a homogeneous cubic on three variables: %s" % p)
    return tuple(p.coeff(m) for m in CUBIC_MONOMIALS)


def cubic_from_coords(coords: Sequence) -> Polynomial:
    """The homogeneous cubic on R^3 with coefficients ``coords`` on
    CUBIC_MONOMIALS: ``Polynomial(3, dict(zip(CUBIC_MONOMIALS, coords)))``
    in value, form and errors, with no second pass over the monomials.
    Each entry that is not an int or a Fraction goes through ``as_scalar``,
    as the constructor sends it, so a bad value raises its TypeError; zero
    entries are dropped by ``Polynomial._of_form``."""
    if len(coords) != len(CUBIC_MONOMIALS):
        raise ValueError("expected %d cubic coefficients" % len(CUBIC_MONOMIALS))
    return Polynomial._of_form(3, 1, dict(zip(CUBIC_MONOMIALS, [
        c if type(c) is int or type(c) is Fraction else as_scalar(c)
        for c in coords])), False)


def ktilde(k: Sequence) -> Matrix:
    """Cross-product matrix of a vector: ktilde(k) v = k x v."""
    a, b, c = vec(k)
    return Matrix._of_form(3, 1, [0, -c, b, c, 0, -a, -b, a, 0], False)


def _check_twist(k_matrix: Matrix):
    """Raise ValueError unless the twist matrix is 3x3 and traceless."""
    if k_matrix.n != 3:
        raise ValueError("twist matrix must be 3x3")
    if k_matrix.trace():
        raise ValueError("twist matrix must be traceless")


# ---------------------------------------------------------------------------
# compatible pairs and the deformation criterion
# ---------------------------------------------------------------------------


class QuadraticPair(NamedTuple("QuadraticPair", [
        ("twist", Matrix), ("cubic", Polynomial)])):
    """Traceless twist matrix plus the cubic potential it annihilates.

    D_K F = 0 is tested on the numerators of the forms, K = m / D_K and
    F = f / D_F: each term c x^e of f adds e_i m_ij c at x^(e - u_i + u_j)
    (``_derivation_sums``), ints for a rational pair and scalars that
    just add otherwise, and D_K F is zero exactly when all ten sums are.
    Only a refused cubic builds ``apply_matrix_derivation(twist, cubic)``,
    to word the error.
    """

    __slots__ = ()

    def __new__(cls, twist: Matrix, cubic: Polynomial):
        _check_twist(twist)
        if cubic.nvars != 3 or not cubic.is_homogeneous(3):
            raise ValueError("potential must be a homogeneous cubic on R^3")
        if any(_derivation_sums(twist._form[1], cubic._form[1].items())):
            raise ValueError(
                "cubic is not invariant under the twist flow "
                "(derivation residual %s)"
                % apply_matrix_derivation(twist, cubic)
            )
        return tuple.__new__(cls, (twist, cubic))

    def to_json(self) -> dict:
        return {"K": self.twist.to_json(), "F": self.cubic.to_json()}

    @classmethod
    def from_json(cls, data: dict) -> "QuadraticPair":
        return cls(Matrix.from_json(data["K"]), Polynomial.from_json(data["F"]))


def _quad_sums(qp: QuadraticPair) -> tuple:
    """(3 D_F D_K, M): the signed rows M = diag(1, -1, 1) C of ``pi_quad``
    on QUAD_MONOMIALS, for F = f / D_F and K = m / D_K.  Row l is
    Y_l = dF/dx_l + (1/3) (x_a (Kx)_b - x_b (Kx)_a), (l, a, b) cyclic:
    x_a x_t takes D_F m_bt and x_b x_t takes -D_F m_at (zeros skipped),
    and a term c x^e of f adds 3 D_K e_l c at x^(e - u_l), a cancelled
    twist sum counting as absent.  So each entry has the value and type
    of s_l times the sum of the two bivectors; an absent one is int 0."""
    (dk, m), (df, f) = qp.twist._form, qp.cubic._form
    rows = [[0] * 6 for _ in range(3)]
    for l, row in enumerate(rows):
        a, b = (l + 1) % 3, (l + 2) % 3
        for r, x, s in ((b, a, df), (a, b, -df)):
            for slot, v in zip(_QUAD_SLOTS[x], m[3 * r:3 * r + 3]):
                if v:
                    cur = row[slot]
                    row[slot] = cur + v * s if cur else v * s
    scale = 3 * dk
    for e, c in f.items():
        for l, el, slot in _PARTIALS[e]:
            row, v = rows[l], c * (scale * el)
            cur = row[slot]
            row[slot] = cur + v if cur else v
    return 3 * df * dk, rows


def pi_quad(qp: QuadraticPair) -> MultiVectorField:
    """The quadratic bivector pi_F + (1/3) I^ ^ Kx of a pair: on the
    complement of l, s_l times the row l of ``_quad_sums`` (s = (1, -1, 1),
    as in ``bivector_from_potential``), which ``_of_form`` normalises."""
    den, rows = _quad_sums(qp)
    rows[1] = [-v for v in rows[1]]
    rational = qp.twist._rational and qp.cubic._rational
    return MultiVectorField._trusted(3, 2, {
        c: Polynomial._of_form(3, den, dict(zip(QUAD_MONOMIALS, row)), rational)
        for c, row in zip(_COMPLEMENTS, rows)})


def _rhs_numerators(lp: LinearPair, k_matrix: Matrix, kform: tuple) -> tuple:
    """(den, q): the source term -(1/6) x^T (12 A + ktilde(k)) K x as its
    coordinates q on QUAD_MONOMIALS over den, for kform = _scaled_row(k).

    On the forms A = a / D_A, k = n / s and K = m / D_K, 12 A + ktilde(k)
    is P / (D_A s) for the int matrix P = 12 s a + D_A ktilde(n), so
    den = 6 D_A s D_K and q is minus the quadratic coordinates of
    x^T (P m) x: ints for a rational K, and the scalars of K otherwise,
    each of the type the matrix product P m gives it, with zero entries
    of P m skipped and zero coordinates as int 0.
    """
    (da, a), (s, n), (dk, m) = lp.gram._form, kform, k_matrix._form
    cross = (0, -n[2], n[1], n[2], 0, -n[0], -n[1], n[0], 0)
    p = [12 * s * v + da * c for v, c in zip(a, cross)]
    q = [None] * 6
    for i in range(3):
        row = p[3 * i:3 * i + 3]
        for j in range(3):
            v = sum(map(operator.mul, row, m[j::3]))
            if v:
                slot = _QUAD_SLOTS[i][j]
                q[slot] = v if q[slot] is None else q[slot] + v
    return 6 * da * s * dk, [-v if v else 0 for v in q]


def deform_rhs(lp: LinearPair, k_matrix: Matrix) -> Polynomial:
    """Quadratic source term of the deformation identity.

    The constant-direction derivative of an admissible cubic must equal
    -(1/6) x^T (12 A + ktilde(k)) K x for the linear pair (k, A).
    """
    den, q = _rhs_numerators(lp, k_matrix, _scaled_row(lp.k))
    return Polynomial._of_form(3, den, dict(zip(QUAD_MONOMIALS, q)),
                               k_matrix._rational)


def _brackets_to_zero(x: Sequence, y: Sequence) -> bool:
    """Does a linear bivector on R^3 commute with a quadratic one, given
    the coefficients x[l] of X_l and y[l] of Y_l (on QUAD_MONOMIALS)?

    Written pi_X, with pi^{23} = X_1, pi^{13} = -X_2 and pi^{12} = X_3, a
    bivector on R^3 is a vector field X, and [pi_X, pi_Y] =
    -(X.curl Y + Y.curl X) d1^d2^d3 (Dufour and Zung, Poisson Structures
    and Their Normal Forms, 2005).  For a linear X, curl X is constant
    and, for a quadratic Y, curl Y is linear, so the bracket is six
    quadratic coefficients.  The test leaves out any nonzero scale of x
    and of y, so the builders' numerators serve: ints for rational pairs.
    """
    out = [0] * 6
    for l in range(3):
        a, b = (l + 1) % 3, (l + 2) % 3
        # (curl X)_l = d_a X_b - d_b X_a, and (curl Y)_l likewise, linear
        curl_x = x[b][a] - x[a][b]
        curl_y = [y[b][_QUAD_SLOTS[a][m]] * (1 + (a == m))
                  - y[a][_QUAD_SLOTS[b][m]] * (1 + (b == m)) for m in range(3)]
        for m, v in enumerate(x[l]):
            if v:
                for n, w in enumerate(curl_y):
                    out[_QUAD_SLOTS[m][n]] += v * w
        if curl_x:
            for t, w in enumerate(y[l]):
                out[t] += curl_x * w
    return not any(out)


def deform_check(lp: LinearPair, qp: QuadraticPair) -> bool:
    """Does the quadratic pair deform the linear one?  Decided twice, on
    coefficient forms: ints for rational pairs.

    Route one brackets the rows of ``bivector_of``'s and ``pi_quad``'s
    builders, with no bivector built (``_brackets_to_zero``); route two
    tests k.grad F = -(1/6) x^T (12 A + ktilde(k)) K x against
    ``_rhs_numerators``, summing s D_F k.grad F as n_i e_i c at x^(e - u_i)
    over the terms c x^e of F = f / D_F, k = n / s.  Route one shares
    nothing with ``solve_F``, so it keeps the solver's re-check of its
    members independent; that re-check runs both routes through
    ``_deforms``, as this function does.  The routes must agree on every
    valid input -- a mismatch raises, also under -O.
    """
    # lp.gram is read before lp.k, as bivector_of reads them
    gram, kform = lp.gram, _scaled_row(lp.k)
    return _deforms(gram, qp, kform, _rhs_numerators(lp, qp.twist, kform))


def _deforms(gram: Matrix, qp: QuadraticPair, kform: tuple, rhs: tuple) -> bool:
    """``deform_check``'s two routes for the pair (k, gram), given
    kform = _scaled_row(k) and rhs = _rhs_numerators(pair, qp.twist, kform).
    ``solve_F`` hands over the right-hand side it has just solved against,
    which the identity route shares with it by design; the bracket route
    computes all it reads itself."""
    route_bracket = _brackets_to_zero(_linear_rows(gram, kform)[1],
                                      _quad_sums(qp)[1])
    (den, q), (s, k) = rhs, kform
    df, f = qp.cubic._form
    drift = [0] * 6
    for e, c in f.items():
        for i, ei, slot in _PARTIALS[e]:
            if k[i]:
                drift[slot] += k[i] * ei * c
    route_identity = all(a * den == v * s * df for a, v in zip(drift, q))
    if route_bracket != route_identity:
        raise AssertionError(
            "deformation criterion routes disagree (bracket: %s, identity: %s)"
            % (route_bracket, route_identity)
        )
    return route_bracket


def _drift_rows(k: Sequence) -> list:
    """The 6x10 matrix of F -> k.grad F from cubic to quadratic coefficients,
    for an integer k, as ``solve_F`` scales it: integer rows.

    Column s is the image of x^e, e = CUBIC_MONOMIALS[s]: the sum over i
    of k_i e_i x^(e - u_i), one term per quadratic monomial.  Entries
    equal the coefficients of sum_i k_i dF/dx_i.
    """
    rows = [[0] * 10 for _ in QUAD_MONOMIALS]
    for s, e in enumerate(CUBIC_MONOMIALS):
        for i, ei, slot in _PARTIALS[e]:
            if k[i]:
                rows[slot][s] = k[i] * ei
    return rows


#: _TRIPLE_SLOTS[i][j][l] is the slot of x_i x_j x_l in CUBIC_MONOMIALS
_TRIPLE_SLOTS = tuple(tuple(tuple(
    _CUBIC_INDEX[tuple(int(r == i) + int(r == j) + int(r == l)
                       for r in range(3))]
    for l in range(3)) for j in range(3)) for i in range(3))


def _minor_sum3(k: Sequence):
    """The sum p of the principal 2x2 minors of K, for its flat row-major
    values: K's characteristic polynomial is t^3 - tr(K) t^2 + p t - det K."""
    a, b, c, d, e, g, h, i, j = k
    return a * e - b * d + a * j - c * h + e * j - g * i


def _invariant_cubic(k: Sequence) -> Optional[list]:
    """The coefficients of f(x) = det(x, Kx, K^2 x) for K's flat
    row-major values ``k``, when K is regular; None otherwise.

    K is regular when q = -det K and the discriminant -4 p^3 - 27 q^2 of
    its characteristic polynomial t^3 + p t + q are nonzero: three
    distinct nonzero eigenvalues.  In an eigenbasis the cubic monomial of
    exponent e then has weight e.lambda, zero only for e = (1, 1, 1), so
    ker D_K is one line; f spans it, as f(e^{tK} x) = det(e^{tK}) f(x) =
    f(x) for tr K = 0, and f is not 0 since K has a cyclic vector
    (Olver, Classical Invariant Theory, 1999).  Scaling K by D scales f
    by D^3, so the numerators of K serve as well.  f = sum_i x_i
    (Kx x K^2x)_i is summed term by term, ints for int values and
    scalars otherwise.
    """
    p, det = _minor_sum3(k), _det3(k)
    if not det or not 4 * p * p * p + 27 * det * det:
        return None
    sq = _product3(k, k)
    f = [0] * 10
    for t, slots in enumerate(_TRIPLE_SLOTS):
        u, v = 3 * ((t + 1) % 3), 3 * ((t + 2) % 3)
        for r, row in enumerate(slots):
            for s, slot in enumerate(row):
                f[slot] += k[u + r] * sq[v + s] - k[v + r] * sq[u + s]
    return f


_UNITS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _cubic_sum(*products) -> list:
    """The coefficients on CUBIC_MONOMIALS of the sum of the products
    (a.x)(b.x)(c.x) of linear forms, each given by its three values:
    ints for int values, scalars otherwise."""
    f = [0] * 10
    for a, b, c in products:
        for ai, plane in zip(a, _TRIPLE_SLOTS):
            if ai:
                for bj, row in zip(b, plane):
                    if bj:
                        w = ai * bj
                        for cl, slot in zip(c, row):
                            if cl:
                                f[slot] += w * cl
    return f


def _nonzero_row(m: Sequence) -> Sequence:
    return next(m[i:i + 3] for i in (0, 3, 6) if any(m[i:i + 3]))


def _nonzero_column(m: Sequence) -> Sequence:
    return next(m[j::3] for j in range(3) if any(m[j::3]))


def _shifted(m: Sequence, t) -> list:
    """M + t I for a 3x3 matrix given as a flat row-major list."""
    return [v + t if i in (0, 4, 8) else v for i, v in enumerate(m)]


def _perp_pair(c: Sequence) -> tuple:
    """Two independent linear forms vanishing on c != 0: c_i e_j - c_j e_i
    for the first nonzero c_i and the two j != i."""
    i = next(i for i, v in enumerate(c) if v)
    forms = []
    for j in range(3):
        if j != i:
            u = [0, 0, 0]
            u[i], u[j] = -c[j], c[i]
            forms.append(u)
    return tuple(forms)


def _kernel_cubics(k: Sequence) -> list:
    """Cubics spanning ker D_K for K's flat row-major values ``k``, K
    traceless and not regular: the closed form of its Jordan type that
    ``cubic_kernel`` lists.

    D_K sends a linear form a.x to (a K).x, so a product of left
    eigenforms whose eigenvalues sum to 0 is invariant.  The forms are
    read off with no division.  For det K = 0 != p, p the sum of K's
    principal 2x2 minors, w and n are a row and a column of the rank-one
    adjugate n w^T.  For det K != 0 the eigenvalues are mu, mu, -2 mu, so
    p = -3 mu^2 and det K = -2 mu^3; K is taken as 2p K, whose mu is
    3 det K, and w and a are rows of the adjugates of K + 2 mu and
    K - mu, the second zero exactly when K - mu has rank 1.  For a
    nilpotent K with K^2 != 0, y = (e_i, e_i K, e_i K^2).x has
    D y1 = y2, D y2 = y3 and D y3 = 0.  Every product is summed by
    ``_cubic_sum``: ints for int values, scalars otherwise.
    """
    p, det = _minor_sum3(k), _det3(k)
    if det:
        m, mu = [2 * p * v for v in k], 3 * det
        w = _nonzero_row(_adjugate3(_shifted(m, 2 * mu)))
        shifted = _shifted(m, -mu)
        adj = _adjugate3(shifted)
        if any(adj):
            a = _nonzero_row(adj)
            return [_cubic_sum((w, a, a))]
        u, v = _perp_pair(_nonzero_column(shifted))
        return [_cubic_sum((w, u, u)), _cubic_sum((w, u, v)),
                _cubic_sum((w, v, v))]
    if p:
        adj = _adjugate3(k)
        w, n = _nonzero_row(adj), _nonzero_column(adj)
        # det(x, Kx, n) = x.(Kx x n) = x^T M x for M = -[n]_x K, where
        # [n]_x v = n x v
        m = _product3([0, n[2], -n[1], -n[2], 0, n[0], n[1], -n[0], 0], k)
        return [_cubic_sum((w, w, w)), _cubic_sum(
            *((w, e, m[i:i + 3]) for e, i in zip(_UNITS, (0, 3, 6))))]
    sq = _product3(k, k)
    if any(sq):
        i = next(i for i in (0, 3, 6) if any(sq[i:i + 3]))
        y1, y2, y3 = _UNITS[i // 3], k[i:i + 3], sq[i:i + 3]
        return [_cubic_sum((y3, y3, y3)),
                _cubic_sum((y3, y2, y2), ([-2 * v for v in y3], y1, y3))]
    if any(k):
        u, v = _perp_pair(_nonzero_column(k))
        return [_cubic_sum((u, u, u)), _cubic_sum((u, u, v)),
                _cubic_sum((u, v, v)), _cubic_sum((v, v, v))]
    return [[int(s == t) for s in range(10)] for t in range(10)]


def _line_space(f: list, field: bool) -> SolutionSpace:
    """The line spanned by f on ``solve_linear``'s canonical form, with its
    entry types: f / f_last, Fraction(1) on the free column (f's last
    nonzero slot) and Fraction(0) there in the zero particular; the other
    coordinates are ExtScalars when ``field``, Fractions otherwise.

    ``SolutionSpace.spanned_by((0,) * 10, [f])`` gives the same space
    through its general reduction, which took about twice as long per
    line over the invariant cubics of 200 random rational twists (23-30
    us against 12-16 us, on a 2-core x86_64 VM with Python 3.11); a
    regular twist is the common case."""
    free = _last_nonzero(f)
    last = f[free]
    if field:
        inv = ExtScalar.of(last).inverse()
        basis = [ExtScalar.of(v) * inv for v in f]
        particular = [ExtScalar.of(0)] * 10
    else:
        basis = [Fraction(v, last) for v in f]
        particular = [Fraction(0)] * 10
    basis[free], particular[free] = Fraction(1), Fraction(0)
    return SolutionSpace(10, tuple(particular), (tuple(basis),))


def _kernel(k_matrix: Matrix):
    """(whether ker D_K is on ExtScalars, ker D_K, its basis numerators)
    for a checked twist, from ``_kernel_of`` on K's flat values: the int
    numerators of a rational K, whose kernel equations are homogeneous,
    so that the factor D changes nothing, and the scalars of a K of the
    field kind."""
    field = not k_matrix._rational
    return (field,) + _kernel_of(field, k_matrix._form[1])


@functools.lru_cache(maxsize=8)
def _kernel_of(field: bool, k: tuple):
    """(ker D_K, its basis numerators) for K's flat values ``k``, kept for
    the last eight twists: ``solve_F`` and then ``cubic_kernel`` on one
    twist compute its kernel once.

    A regular K takes the line of ``_invariant_cubic``, dimension 1; any
    other K the span of its Jordan type's cubics (``_kernel_cubics``):
    dimension 2 for eigenvalues 0, +-lambda, 3 for diag(mu, mu, -2 mu)
    and 1 for a Jordan block on mu, 2 for a nilpotent K with K^2 != 0
    and 4 for one with K^2 = 0, and 10 for K = 0.  The span is put on the
    canonical shape by ``SolutionSpace.spanned_by`` from a zero point of
    K's kind, so that its entries are ExtScalars exactly when K is of
    the field kind, as ``_line_space`` types the line.  Neither
    eliminates.  The numerators
    are one (e, m) per basis vector b = m / e, e > 0: ints for a rational
    kernel, f over |f_last| for the line of f, and the vector itself over
    1 on ExtScalars.
    """
    f = _invariant_cubic(k)
    if f is None:
        zero = ExtScalar.of(0) if field else 0
        space = SolutionSpace.spanned_by((zero,) * 10, _kernel_cubics(k))
        return space, tuple((1, b) if field else _scaled_row(b)
                            for b in space.basis)
    space, last = _line_space(f, field), f[_last_nonzero(f)]
    return space, (((1, space.basis[0]) if field else
                    (abs(last), f if last > 0 else [-v for v in f])),)


def cubic_kernel(k_matrix: Matrix) -> SolutionSpace:
    """All cubics annihilated by the derivation of a traceless matrix.

    Each Jordan type of K has a closed form, and none eliminates:

    - three distinct nonzero eigenvalues: the line of
      f(x) = det(x, Kx, K^2 x) (``_invariant_cubic``), dimension 1;
    - eigenvalues 0, +-lambda (lambda real or imaginary), with
      w K = 0 = K n: (w.x)^3 and (w.x) det(x, Kx, n), dimension 2;
    - eigenvalues mu, mu, -2 mu, w.(K + 2 mu) = 0: (w.x) q for the
      quadratics q in the forms vanishing on the columns of K - mu when
      K - mu has rank 1, dimension 3, and (w.x)(a.x)^2 for
      a.(K - mu) = 0 when it has rank 2, dimension 1;
    - nilpotent with K^2 != 0, y = (e_i, e_i K, e_i K^2).x:
      y3^3 and y3 (y2^2 - 2 y1 y3), dimension 2;
    - K = c d^T != 0 with K^2 = 0: the cubics in the forms vanishing on
      c, dimension 4;
    - K = 0: all ten monomials.

    The space is ``solve_linear``'s canonical form of the ten kernel
    equations, in values and entry types.  It is shared with ``solve_F``,
    which solves on its basis, through the cache of ``_kernel_of``."""
    _check_twist(k_matrix)
    return _kernel(k_matrix)[1]


def solve_F(lp: LinearPair, k_matrix: Matrix) -> SolutionSpace:
    """Exact affine set of cubics making (K, F) a deformation of lp.

    The set is {sum_j y_j m_j : (drift M) y = rhs} for the numerators
    m_j = e_j b_j of the basis b_j of K's cubic kernel that
    ``cubic_kernel`` returns: the six coefficient equations of the
    quadratic identity in r = dim ker unknowns.  The kernel is the
    closed form of K's Jordan type (``cubic_kernel``), with no
    elimination: r = 1 for a regular K and for eigenvalues mu, mu, -2 mu
    on one Jordan block, 2 for eigenvalues 0, +-lambda and for a
    nilpotent K with K^2 != 0, 3 for diag(mu, mu, -2 mu) in an
    eigenbasis, 4 for K != 0 with K^2 = 0, and 10 for K = 0; so the
    system is 6 x r and the one ``solve_linear`` of this function.
    ``SolutionSpace.spanned_by`` reduces the images of the reduced point
    and directions to the canonical form, with no second solve; that
    form is the one ``solve_linear`` gives on the whole system, kernel
    and coefficient equations together, in values and entry types: the
    images are on ExtScalars when K is of the field kind, as that
    system is.  Every member of the result is re-checked by
    ``deform_check``'s two routes (``_deforms``) before being returned,
    the identity route on the right-hand side solved against; the
    bracket route, which shares no step with this solver, carries the
    independence of the re-check.
    """
    _check_twist(k_matrix)
    field, _, nums = _kernel(k_matrix)
    # k.grad F = q / den times den s, s the lcm of k's denominators:
    # integer rows, and a right-hand side of ints on a rational K (the
    # scalars of K otherwise)
    kform = _scaled_row(lp.k)
    source = _rhs_numerators(lp, k_matrix, kform)
    (den, rhs), (s, k) = source, kform
    drift = _drift_rows([den * c for c in k])
    if s != 1:
        rhs = [s * v for v in rhs]
    reduced = solve_linear(
        [[sum(a * m[t] for t, a in enumerate(row) if a and m[t])
          for _, m in nums] for row in drift], rhs, len(nums))
    if reduced.is_empty:
        return SolutionSpace(10, None, ())
    # the images are on ExtScalars exactly when the stacked system is
    zero = ExtScalar.of(0) if field else 0

    def image(y):
        return tuple(sum((a * m[t] for a, (_, m) in zip(y, nums)
                          if a and m[t]), zero) for t in range(10))

    space = SolutionSpace.spanned_by(image(reduced.particular),
                                     [image(y) for y in reduced.basis])
    members = [space.particular]
    members.extend(tuple(p + c for p, c in zip(space.particular, b))
                   for b in space.basis)
    for coords in members:
        qp = QuadraticPair(k_matrix, cubic_from_coords(coords))
        if not _deforms(lp.gram, qp, kform, source):
            raise AssertionError(
                "solver produced a cubic the bracket route rejects")
    return space


def transform_pair(t: Matrix, qp: QuadraticPair) -> QuadraticPair:
    """Push a pair along an invertible map: (TKT^-1, det(T) F o T^-1).

    T must be a rational 3x3 matrix, as ``Matrix.inverse`` reads it: an
    irrational entry raises TypeError.
    """
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
    """Homogeneous span of given cubics, as a coefficient-vector space on
    the canonical shape; its ``dim`` is the rank of the cubics."""
    zero = tuple(Fraction(0) for _ in CUBIC_MONOMIALS)
    return SolutionSpace.spanned_by(zero, [cubic_coords(p) for p in polys])


# ---------------------------------------------------------------------------
# normal-form families of twist matrices
# ---------------------------------------------------------------------------

DIAG_DISTINCT = "DIAG_DISTINCT"
DIAG_REPEATED = "DIAG_REPEATED"
NILPOTENT_FULL = "NILPOTENT_FULL"
OTHER = "OTHER"


class JordanFamily(NamedTuple("JordanFamily", [
        ("tag", str), ("lambdas", tuple), ("eigen_report", tuple)])):
    """Normal form of a traceless matrix, as far as the orbit machinery cares.

    ``DIAG_DISTINCT`` carries three pairwise-distinct nonzero rational
    eigenvalues summing to zero; ``DIAG_REPEATED`` carries the single
    parameter of diag(l, l, -2l); ``NILPOTENT_FULL`` is the full
    3x3 nilpotent shift; everything else is ``OTHER``, with a floating
    eigenvalue report, kept as a tuple of (real, imag) tuples so that
    every family is hashable.
    """

    __slots__ = ()

    def __new__(cls, tag: str, lambdas: tuple = (), eigen_report: tuple = ()):
        lambdas = tuple(as_rational(v) for v in lambdas)
        eigen_report = tuple(tuple(z) for z in eigen_report)
        if tag == DIAG_DISTINCT:
            l1, l2, l3 = lambdas
            if l1 + l2 + l3 != 0:
                raise ValueError("eigenvalues must sum to zero")
            if len({l1, l2, l3}) != 3 or 0 in (l1, l2, l3):
                raise ValueError("eigenvalues must be pairwise distinct and nonzero")
        elif tag == DIAG_REPEATED:
            (lam,) = lambdas
            if lam == 0:
                raise ValueError("repeated eigenvalue must be nonzero")
        elif tag == NILPOTENT_FULL:
            if lambdas:
                raise ValueError("nilpotent family takes no parameters")
        elif tag != OTHER:
            raise ValueError("unknown family tag %r" % tag)
        return tuple.__new__(cls, (tag, lambdas, eigen_report))

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
    integers.  The largest is found by Newton's method (see
    ``_integer_root_monic_cubic``) and the other two by deflation, so the
    number of steps grows with the log of the coefficients' digit count.
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
    """The largest root of f(s) = s^3 + p s + q when f splits over Q;
    otherwise None, or an integer root that deflation then rejects.

    A repeated root (discriminant 4 p^3 + 27 q^2 = 0) is d = -3q / (2p),
    the third root -2d.  Otherwise a split f has roots a > b >= c summing
    to 0, so p = -(a^2 + ab + b^2) < 0 and f'(a) = (a - b)(a - c) > 0:
    a lies above m = sqrt(-p/3), where f' vanishes, and on s > m f rises
    and is convex.  So a is x1, the least integer above m, when
    f(x1) >= 0; otherwise Newton's method from above, rounded up, stays
    at or above a and ends at the least integer s >= a, a root exactly
    when f(s) = 0.  It starts from the lesser of two bounds of a:
    2^(k+1), as |p| < 4^k and |q| < 8^k, and x1 + sqrt(E / (3 x1)), as
    E = -f(x1) = f'(x1) v + 3 x1 v^2 + v^3 for v = a - x1.  That start is
    within a constant factor of a - x1, itself at most 2 f'(a) / f''(a),
    so a bounded number of steps, each leaving at most 2/3 of the
    distance, precedes the steps that double the correct digits: the
    number of steps grows with the log of the digit count, also for two
    close roots.
    """
    def f(s):
        return s * (s * s + p) + q

    if not 4 * p * p * p + 27 * q * q:
        d = -3 * q // (2 * p) if p else 0
        return max(d, -2 * d)
    if p >= 0:
        return None
    x1 = math.isqrt(-p // 3) + 1
    e = -f(x1)
    if e <= 0:
        return x1 if not e else None
    k = max(-(-p.bit_length() // 2), -(-q.bit_length() // 3))
    x = min(x1 + math.isqrt(e // (3 * x1)) + 1, 1 << (k + 1))
    while (step := f(x) // (3 * x * x + p)) or (x > x1 and f(x - 1) >= 0):
        x -= step or 1
    return x if not f(x) else None


def jordan_family_of(k_matrix: Matrix) -> JordanFamily:
    """Classify a traceless matrix into the families the orbits know about.

    The exact route needs a rational matrix whose characteristic
    polynomial splits over Q; anything else lands in OTHER carrying a
    floating-point eigenvalue report.
    """
    _check_twist(k_matrix)
    if not k_matrix._rational:  # an irrational entry: no exact route
        return JordanFamily(OTHER, (), _float_eigen_report(k_matrix))
    c2, det, roots = char = _char_coeffs(k_matrix)
    distinct = sorted(set(roots or ()), reverse=True)
    if len(distinct) == 3 and 0 not in distinct:
        if k_matrix.is_diagonal():
            distinct = [k_matrix.rows[i][i] for i in range(3)]
        return JordanFamily.diag_distinct(*distinct)
    if len(distinct) == 2:
        lam = next(r for r in distinct if roots.count(r) == 2)
        eye = Matrix.identity(3)
        if lam and ((k_matrix - eye.scaled(lam))
                    * (k_matrix + eye.scaled(2 * lam))).is_zero():
            return JordanFamily.diag_repeated(lam)
    if distinct == [0] and not (k_matrix * k_matrix).is_zero():
        return JordanFamily.nilpotent_full()
    return JordanFamily(OTHER, (), _float_eigen_report(k_matrix, char))


def _char_coeffs(m: Matrix) -> tuple:
    """(c2, det, roots) of m's char. poly t^3 + c2 t - det: Fractions when
    rational, and the roots None unless it splits over Q."""
    den, vals = m._form
    c2 = demote(_over(_minor_sum3(vals), den * den))
    det = demote(_over(_det3(vals), den ** 3))
    if isinstance(c2, ExtScalar) or isinstance(det, ExtScalar):
        return c2, det, None
    return c2, det, _rational_roots_monic_cubic(c2, -det)


def _binary_exponent(v) -> int:
    """e with |c| < 2^(e+1) for every rational part c of a nonzero scalar."""
    parts = v.coords if isinstance(v, ExtScalar) else (v,)
    return max(c.numerator.bit_length() - c.denominator.bit_length()
               for c in parts if c)


def _float_eigen_report(k_matrix: Matrix, char=None) -> tuple:
    """Roots of the characteristic cubic as sorted (real, imag) floats:
    exact when it splits over Q or has a repeated root (discriminant
    -4 c2^3 - 27 det^2 = 0), else by bisection and deflation.  ``char``
    is ``_char_coeffs(k_matrix)`` when the caller has it already."""
    c2, det, roots = char or _char_coeffs(k_matrix)
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


class P2Point(NamedTuple("P2Point", [("coords", tuple)])):
    """A projective point on R^3, canonicalized by its last nonzero slot.

    Three ints divide as one Fraction each; any other coordinates are
    read with ``as_scalar`` and divided with ``scalar_div``.
    """

    __slots__ = ()

    def __new__(cls, coords: tuple):
        coords = tuple(coords)
        ints = len(coords) == 3 and all(type(v) is int for v in coords)
        if not ints:
            coords = tuple(as_scalar(v) for v in coords)
            if len(coords) != 3:
                raise ValueError("projective points live on three coordinates")
        last = next((i for i in (2, 1, 0) if coords[i]), None)
        if last is None:
            raise ValueError("projective point needs a nonzero coordinate")
        pivot = coords[last]
        divide = Fraction if ints else scalar_div
        return tuple.__new__(cls, (tuple(divide(v, pivot) for v in coords),))

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
        return cls(tuple(scalar_from_json(v)
                         for v in array_from_json(data, "a point")))


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


def _scaled_bounds(x, bits: int) -> tuple:
    """Ints lo <= x 2^bits <= hi; the floor and ceiling for a Fraction x."""
    num, den = ((x._num, x._den) if type(x) is ExtScalar
                else ((x.numerator,), x.denominator))
    lo = hi = num[0] << bits
    for n, r in zip(num[1:], (2, 3, 6)):
        t = math.isqrt(r * n * n << 2 * bits)   # |n| sqrt(r) 2^bits, floored
        lo, hi = (lo + t, hi + t + 1) if n > 0 else (lo - t - 1, hi - t)
    return lo // den, -(-hi // den)


def _nearest_root(c, w, bits: int = 64) -> float:
    """The float nearest sign(c) sqrt(w), for exact c != 0 and w > 0, off
    ``math.isqrt`` of the bounds of w 4^bits and those of c 2^bits.  For a
    rational w, once the exact floor m of 2^bits sqrt(w) has 55 bits, m
    plus a sticky half rounds as the root does; else both bounds must
    round alike.  bits doubles until then: an irrational root is no tie."""
    (lo, hi), (c_lo, c_hi) = (_scaled_bounds(w, 2 * bits),
                              _scaled_bounds(c, bits))
    m = math.isqrt(max(lo, 0))
    if type(w) is Fraction and m >> 54:
        ends = (2 * m + (m * m != hi),) * 2
    else:
        ends = (2 * m, 2 * math.isqrt(hi) + 2)
    u, high = (float(Fraction(v, 2 << bits)) for v in ends)
    if u != high or c_lo <= 0 <= c_hi:
        return _nearest_root(c, w, 2 * bits)
    return u if c_hi > 0 else -u


def _t_of_v_float(raw, tolerance: float) -> tuple:
    exact = [c if isinstance(c, ExtScalar) else Fraction(c) for c in raw]
    norm_sq = sum((c * c for c in exact), Fraction(0))
    if not norm_sq:
        raise ValueError("zero vector has no direction")
    # the unit vector, each entry the float nearest to its exact value
    u = tuple(_nearest_root(c, demote(c * c / norm_sq)) if c else 0.0
              for c in exact)
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


@functools.lru_cache(maxsize=8, typed=True)
def enumerate_orbit_pairs(family: JordanFamily) -> tuple:
    """Transported (twist, admissible-cubics) data for every stratum.

    Kept for the last eight families, so that one ``verify-paper`` pass
    transports each of its five families once; the result is immutable.
    ``typed`` keeps a plain tuple equal to a family from reading its
    entry, and an error is never kept.
    """
    k_matrix = family.matrix()
    kernel = cubic_kernel(k_matrix)
    basis_polys = [cubic_from_coords(b) for b in kernel.basis]
    out = []
    for index in sorted(_REP_POINTS[family.tag]):
        rep = p2_orbit_rep(family, _REP_POINTS[family.tag][index])
        t = rep.rotation
        # t_of_v checks T' T = I and det T = 1, so T^-1 = T'
        tinv = t.transpose()
        twist = t * k_matrix * tinv
        cubics = tuple(b.compose_linear(tinv) for b in basis_polys)
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
