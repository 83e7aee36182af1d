"""Reference normal-form deciders: the hand-written sign and strata rules.

``linclass.classify`` reads the sign patterns of the ten standard forms
from ``SIGN_PATTERNS`` through one rule for both values of k, on the int
numerators of its matrices, and ``quaddef.p2_orbit_rep`` reads the
stratum of a point from one table of support patterns.  This module
keeps the deciders those replaced, as they were, so that the tests can
compare the two on seeded inputs.  Each is the one test-side oracle of
its ``src`` routine, and none imports that routine or a helper of it:
determinants and inverses come from ``linalg_reference`` (``det``,
``inverse``), not from ``Matrix.det`` and ``Matrix.inverse``.

- ``classify_on_fractions``: ``linclass.classify`` as it was before its
  tail after the congruence ran on ints: the signs by Fraction
  comparisons in ``_arrange_sorted`` (sorted sign lists and a pool of
  columns per sign), |d|, det(base)^2, the rescaling and a^2 as
  Fractions.  It runs on this module's ``_complete_basis``, on the column
  loop of ``linalg_reference``, which gives the package congruence's R
  and d, and on ``verify_witness_by_products``,
- ``classify``: two branches, k = 0 through ``_arrange_definite_part``
  and k != 0 through ``_sort_by_sign`` and the sign of a 2x2 determinant,
  on Lagrange's column loop (``linalg_reference.congruent_diagonalize``),
  with the column helpers it used: ``_complete_basis`` (built through
  ``Matrix(rows)``), ``_permute_columns`` and ``_negate_column``; its
  witness is checked by ``verify_witness_by_products``,
- ``verify_witness_by_products`` and ``is_isomorphism_by_products``: the
  witness check and the isomorphism test on ``Matrix`` products (R' A R
  and T' A2 T), before they ran on the int numerators of the forms,
- ``p2_orbit_rep``: a support table for distinct eigenvalues and an
  if-chain for each of the other two families,
- ``jordan_family_of``: the exact route with an OTHER exit per failed test,
- ``aut_closed_form``: the explicit description of each automorphism
  group on ``Matrix`` rows and products, with its helpers ``_block2`` and
  ``_fixes_e3``, before it was cross-multiplied on the numerators (D, M),
- ``transform_pair``: the image of a pair as det(T) S' A S with
  S = T^-1 by Gauss-Jordan elimination, before it became one congruence
  by the adjugate,
- ``column``: a column read off the rows, as ``Matrix.column`` did.
"""

import math
from fractions import Fraction

from linalg_reference import congruent_diagonalize, det, inverse
from poisson_forge.exactnum import (
    ExtScalar,
    Matrix,
    _congruence3,
    _det3,
    _product3,
    as_rational_matrix,
    vec,
)
from poisson_forge.linclass import SIGN_PATTERNS, LinearPair, StdFormLabel, Witness
from poisson_forge.quaddef import (
    DIAG_DISTINCT,
    DIAG_REPEATED,
    NILPOTENT_FULL,
    OTHER,
    JordanFamily,
    OrbitRep,
    P2Point,
    _check_twist,
    _float_eigen_report,
    _rational_roots_monic_cubic,
    _rep_rotation,
)


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


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


def _diag_of_congruence(r, a):
    u = r.transpose() * a * r
    if not u.is_diagonal():
        raise AssertionError("congruence did not diagonalize")
    return tuple(u.rows[i][i] for i in range(3))


def _sort_by_sign(values):
    pos = [i for i, v in enumerate(values) if v > 0]
    neg = [i for i, v in enumerate(values) if v < 0]
    zer = [i for i, v in enumerate(values) if v == 0]
    return tuple(pos + neg + zer)


def _arrange_definite_part(diag):
    pos = [i for i, v in enumerate(diag) if v > 0]
    neg = [i for i, v in enumerate(diag) if v < 0]
    zer = [i for i, v in enumerate(diag) if v == 0]
    npos, nneg = len(pos), len(neg)
    rank = npos + nneg
    if rank == 0:
        return 1, (0, 1, 2), 1
    if rank == 3:
        if npos in (0, 3):
            return 2, tuple(pos + neg), 1 if npos else -1
        if npos == 2:
            return 3, tuple(pos + neg), 1
        return 3, tuple(neg + pos), -1
    if rank == 2:
        if npos == 2:
            return 4, tuple(pos + zer), 1
        if nneg == 2:
            return 4, tuple(neg + zer), -1
        return 5, tuple(pos + neg + zer), 1
    if npos:
        return 6, tuple(pos + zer), 1
    return 6, tuple(neg + zer), -1


def classify(pair):
    a_squared = None
    if not any(pair.k):
        base, diag = congruent_diagonalize(pair.gram)
        case, perm, sign = _arrange_definite_part(diag)
        base = _permute_columns(base, perm)
        diag = tuple(diag[p] for p in perm)
        rank = sum(1 for v in diag if v != 0)
        if case == 1:
            base, scales = Matrix.identity(3), [Fraction(0)] * 3
        else:
            if (det(base) > 0) != (sign > 0):
                base = _negate_column(base, 2)
            scales = [abs(v) for v in diag]
            if rank == 3:
                prod = scales[0] * scales[1] * scales[2]
                det_sq = det(base) ** 2
                scales = [det_sq * v / prod for v in scales]
            else:
                spare = Fraction(1)
                for v in scales[:rank]:
                    spare = spare * v
                scales[rank] = det(base) ** 2 / spare
    else:
        base = _complete_basis(pair.k)
        block = (base.transpose() * pair.gram * base).scaled(1 / det(base))
        if any(block.rows[i][2] for i in range(3)):
            raise AssertionError("compatible pair with nonzero k-block")
        two = Matrix([row[:2] for row in block.rows[:2]])
        if two.is_zero():
            case, scales = 7, [Fraction(0)] * 3
        else:
            inner, _ = congruent_diagonalize(two)
            embed = Matrix([
                [inner.rows[0][0], inner.rows[0][1], 0],
                [inner.rows[1][0], inner.rows[1][1], 0],
                [0, 0, 1],
            ])
            base = base * embed
            diag = list(_diag_of_congruence(base, pair.gram))
            det2 = det(two)
            if det2 > 0:
                case, a_squared = 8, det2
            elif det2 < 0:
                case, a_squared = 9, -det2
            else:
                case = 10
            perm = _sort_by_sign(diag[:2])
            base = _permute_columns(base, perm + (2,))
            diag = [diag[p] for p in perm] + [diag[2]]
            sigma = SIGN_PATTERNS[case]
            sign = 1 if (diag[0] > 0) == (sigma[0] > 0) else -1
            if (det(base) > 0) != (sign > 0):
                base = _negate_column(base, 0)
            scales = [abs(diag[0]), abs(diag[1]), Fraction(0)]
            if case == 10:
                scales[1] = det(base) ** 2 / scales[0]
    label = StdFormLabel(case, a_squared)
    witness = Witness(base, tuple(scales))
    if not verify_witness_by_products(pair, label, witness):
        raise AssertionError("constructed witness failed verification")
    return label, witness


def _arrange_sorted(diag, cases):
    """Case id, column order and global sign: the first of ``cases`` whose
    sign pattern, times +1 or else -1, sorts like the signs of ``diag``."""
    signs = [(v > 0) - (v < 0) for v in diag]
    for case in cases:
        for sign in (1, -1):
            want = [sign * s for s in SIGN_PATTERNS[case]]
            if sorted(want) == sorted(signs):
                pools = {s: iter([i for i, t in enumerate(signs) if t == s])
                         for s in (1, -1, 0)}
                return case, tuple(next(pools[s]) for s in want), sign
    raise AssertionError("no sign pattern fits %r" % (diag,))


def classify_on_fractions(pair):
    if not any(pair.k):
        free, cases, flip = 3, range(1, 7), 2
        inner, diag = congruent_diagonalize(pair.gram)
        den, base = inner._form
    else:
        free, cases, flip = 2, range(7, 11), 0
        (e, b), (s, a) = _complete_basis(pair.k)._form, pair.gram._form
        inner, diag = congruent_diagonalize(
            Matrix._of_form(3, e * e * s, _congruence3(b, a)))
        t, r = inner._form
        den, base = e * t, _product3(b, r)
    case, perm, sign = _arrange_sorted(diag, cases)
    base = [base[i + p] for i in (0, 3, 6) for p in perm]
    scales = [abs(diag[p]) for p in perm]
    rank = sum(1 for v in scales if v)
    if rank:
        det = _det3(base)
        if (det > 0) != (sign > 0):
            base[flip::3] = [-v for v in base[flip::3]]
            det = -det
        det_sq = Fraction(det * det, den ** 6)
        if rank == 3:
            prod = scales[0] * scales[1] * scales[2]
            scales = [det_sq * v / prod for v in scales]
        elif rank < free:
            scales[rank] = det_sq / math.prod(scales[:rank])
    a_squared = scales[0] * scales[1] / det_sq if case in (8, 9) else None
    label = StdFormLabel(case, a_squared)
    witness = Witness(Matrix._of_form(3, den, base), tuple(scales))
    if not verify_witness_by_products(pair, label, witness):
        raise AssertionError("constructed witness failed verification")
    return label, witness


def verify_witness_by_products(pair, label, witness) -> bool:
    sigma = SIGN_PATTERNS[label.case_id]
    r, d = witness.base, witness.scales
    u = r.transpose() * pair.gram * r
    if not u.is_diagonal():
        return False
    diag = [u.rows[i][i] for i in range(3)]
    if label.case_id >= 7:
        if d[2] != 0 or column(r, 2) != tuple(pair.k):
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
    target = label.a_squared if label.a_squared is not None else 1
    det_r = det(r)
    return (eps ** 2 * math.prod(v for v in d if v > 0) == target * det_r ** 2
            and (eps > 0) == (det_r > 0))


def is_isomorphism_by_products(t, p1, p2) -> bool:
    if t.n != 3:
        raise ValueError("size mismatch")
    det_t = det(t)
    if not det_t:
        raise ValueError("transformation must be invertible")
    if vec(t.apply(p1.k)) != vec(p2.k):
        return False
    return t.transpose() * p2.gram * t == p1.gram.scaled(det_t)


def column(m: Matrix, j: int) -> tuple:
    return tuple(row[j] for row in m.rows)


def transform_pair(t: Matrix, pair: LinearPair) -> LinearPair:
    t = as_rational_matrix(t)
    if t.n != 3:
        raise ValueError("det is implemented for 3x3, not %dx%d" % (t.n, t.n))
    det_t = det(t)
    if not det_t:
        raise ValueError("transformation must be invertible")
    tinv = inverse(t)
    gram = (tinv.transpose() * pair.gram * tinv).scaled(det_t)
    return LinearPair._trusted(t.apply(pair.k), gram)


# ---------------------------------------------------------------------------
# automorphism groups
# ---------------------------------------------------------------------------


def _block2(m: Matrix) -> Matrix:
    den, vals = m._form
    return Matrix._of_form(2, den, vals[:2] + vals[3:5], m._rational)


def _fixes_e3(m: Matrix) -> bool:
    return (m.rows[0][2] == 0 and m.rows[1][2] == 0 and m.rows[2][2] == 1)


def aut_closed_form(t: Matrix, case_id: int) -> bool:
    """Membership in the automorphism group via its explicit description."""
    m = t.rows
    if case_id == 1:
        return True
    if case_id == 2:
        return t.transpose() * t == Matrix.identity(3) and det(t) == 1
    if case_id == 3:
        j = Matrix.diagonal([1, 1, -1])
        return t.transpose() * j * t == j and det(t) == 1
    if case_id == 4:
        if m[0][2] != 0 or m[1][2] != 0:
            return False
        b = _block2(t)
        bb = b.transpose() * b
        c = bb.rows[0][0]
        return (bb == Matrix.diagonal([c, c]) and c > 0
                and m[2][2] == det(b) / c)
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
        return bb == Matrix.diagonal([c, c]) and det(b) == c and c > 0
    if case_id == 9:
        return (_fixes_e3(t) and m[0][0] == m[1][1] and m[1][0] == m[0][1]
                and m[1][1] ** 2 != m[0][1] ** 2)
    if case_id == 10:
        return (_fixes_e3(t) and m[0][1] == 0
                and m[0][0] == m[1][1] and m[0][0] != 0)
    raise ValueError("case_id must be 1..10")


# ---------------------------------------------------------------------------
# families and strata
# ---------------------------------------------------------------------------


def jordan_family_of(k_matrix):
    _check_twist(k_matrix)
    entries = [v for row in k_matrix.rows for v in row]
    for v in entries:
        if isinstance(v, ExtScalar) and not v.is_rational:
            return JordanFamily(OTHER, (), _float_eigen_report(k_matrix))
    rows = k_matrix.rows
    c2 = Fraction(0)
    for i in range(3):
        for j in range(i + 1, 3):
            c2 += rows[i][i] * rows[j][j] - rows[i][j] * rows[j][i]
    c2 = Fraction(c2) if not isinstance(c2, ExtScalar) else c2.rational_value()
    det_k = det(k_matrix)
    if isinstance(det_k, ExtScalar):
        det_k = det_k.rational_value()
    roots = _rational_roots_monic_cubic(c2, Fraction(-det_k))
    if roots is None:
        return JordanFamily(OTHER, (), _float_eigen_report(k_matrix))

    distinct = sorted(set(roots), reverse=True)
    if len(distinct) == 3 and 0 not in distinct:
        if k_matrix.is_diagonal():
            ordered = tuple(rows[i][i] for i in range(3))
        else:
            ordered = tuple(distinct)
        return JordanFamily.diag_distinct(*ordered)
    if len(distinct) == 2:
        lam = next(r for r in distinct if roots.count(r) == 2)
        if lam != 0:
            eye = Matrix.identity(3)
            diagonalizable = ((k_matrix - eye.scaled(lam))
                              * (k_matrix + eye.scaled(2 * lam))).is_zero()
            if diagonalizable:
                return JordanFamily.diag_repeated(lam)
        return JordanFamily(OTHER, (), _float_eigen_report(k_matrix))
    if distinct == [Fraction(0)]:
        if not (k_matrix * k_matrix).is_zero() and not k_matrix.is_zero():
            return JordanFamily(NILPOTENT_FULL)
        return JordanFamily(OTHER, (), _float_eigen_report(k_matrix))
    return JordanFamily(OTHER, (), _float_eigen_report(k_matrix))


_STRATA_REPS = {
    DIAG_DISTINCT: {
        (2,): (1, (0, 0, 1)),
        (1,): (2, (0, 1, 0)),
        (0,): (3, (1, 0, 0)),
        (0, 1): (4, (1, 1, 0)),
        (1, 2): (5, (0, 1, 1)),
        (0, 2): (6, (1, 0, 1)),
        (0, 1, 2): (7, (1, 1, 1)),
    },
}

_REP_POINTS = {
    DIAG_REPEATED: {1: (0, 0, 1), 2: (0, 1, 0), 3: (0, 1, 1)},
    NILPOTENT_FULL: {1: (0, 0, 1), 2: (0, 1, 0), 3: (1, 0, 0)},
}


def p2_orbit_rep(family, v):
    point = v if isinstance(v, P2Point) else P2Point(tuple(v))
    if family.tag == DIAG_DISTINCT:
        index, rep = _STRATA_REPS[DIAG_DISTINCT][point.support]
    elif family.tag == DIAG_REPEATED:
        a, b, _ = point.coords
        if not a and not b:
            index = 1
        elif 2 not in point.support:
            index = 2
        else:
            index = 3
        rep = _REP_POINTS[DIAG_REPEATED][index]
    elif family.tag == NILPOTENT_FULL:
        a, b, _ = point.coords
        if a:
            index = 3
        elif b:
            index = 2
        else:
            index = 1
        rep = _REP_POINTS[NILPOTENT_FULL][index]
    else:
        raise ValueError("no orbit machinery for family %r" % family.tag)
    return OrbitRep(index, *_rep_rotation(rep))
