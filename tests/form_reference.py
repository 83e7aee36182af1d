"""Reference route to ``curl``: differential forms and volume duality.

``multivec.curl`` computes Koszul's divergence operator directly from the
components of a field.  It used to be built from differential forms:

    curl(u) = (-1)^(p+1) vol_dual_inv(ext_deriv(vol_dual(u)))   on grade p,
    bivector_from_potential(f) = vol_dual_inv(ext_deriv(f)),

where ``vol_dual`` sends the basis p-vector e_I to sign(I) dx_{complement(I)}
with sign(I) = (-1)^{sum_t (I[t] - t)}.  This module keeps that route, as
it was, so that the tests can compare the direct formulas with it on
seeded fields and still pin the duality and the exterior derivative.

It also keeps the generic constructions of the two R^3 bivectors that
``linclass.bivector_of`` and ``quaddef.pi_quad`` now read off the integer
forms in one step: the twist as a wedge product with the Euler field,
scaled and added to the potential bivector.  And it keeps the generic
routes of ``linclass.pair_of`` and ``linclass.decompose``, which now read
the pair (k, A) off the coefficients of a linear bivector: ``pair_of``
tested the Schouten self-bracket, took k from the curl, subtracted the
twist as a wedge product and rebuilt f by Euler's identity, and
``decompose`` took k from the curl, built its twist as a wedge product,
decided ``square_closed`` by the curl of L ^ L and ``twist_commutes`` by
a Schouten bracket with the constant field k.

It keeps ``quaddef.deform_check`` as it was before both of its routes
ran on coefficient forms: the Schouten bracket of the two bivectors
(the quadratic one by the wedge route above), and the identity compared
as two polynomials, with the source term ``deform_rhs`` built by matrix
products.  And it keeps the last bodies of ``quaddef.pi_quad`` and
``quaddef.deform_check`` before each read F's terms in one pass:
``pi_quad_by_parts`` adds a twist polynomial to each normalised
component of the potential bivector, and ``deform_check_on_drift_rows``
applies the 6x10 drift matrix of k (``drift_rows``, the body
``quaddef._drift_rows`` had then) to F's coefficient vector, with route
one on ``pi_quad_by_parts``.

The Euler field ``euler_vf`` that these routes wedge with lives here, and
so do the Lie-Poisson bivector of a structure-constant array and the
triple-loop Jacobi test of the constants, ``is_poisson``'s independent
oracle in the tests.
"""

from fractions import Fraction
from typing import Dict

from conftest import along, function_field
from linalg_reference import gram_of_quadratic
from poisson_forge import quaddef
from poisson_forge.exactnum import (
    Polynomial,
    _check_nvars,
    _scaled_row,
    _unit_exponents,
    as_scalar,
    quadratic_form_poly,
)
from poisson_forge.linclass import (Decomposition, LinearPair, _require_linear,
                                    _signed_rows)
from poisson_forge.linclass import bivector_of as direct_bivector_of
from poisson_forge.multivec import (
    IndexTuple,
    MultiVectorField,
    _merge_sign,
    bivector_from_potential as direct_bivector_from_potential,
    const_vf,
    constant_vector,
    curl as direct_curl,
    is_poisson,
    linear_vf,
    modular_field,
    schouten,
    wedge,
)


def euler_vf(nvars: int) -> MultiVectorField:
    """The radial field sum_i x_i d/dx_i, built on the unit exponents."""
    _check_nvars(nvars)
    return MultiVectorField._trusted(nvars, 1, {
        (i,): Polynomial._of_form(nvars, 1, {unit: 1})
        for i, unit in enumerate(_unit_exponents(nvars))
    })


def _structure_size(c) -> int:
    """n for an n*n*n nested sequence; ValueError on a ragged one."""
    n = len(c)
    if any(len(row) != n or any(len(col) != n for col in row) for row in c):
        raise ValueError("structure constants must be a %dx%dx%d array"
                         % (n, n, n))
    return n


def lie_poisson_bivector(c) -> MultiVectorField:
    """Bivector with components pi^{ij} = sum_k c[i][j][k] x_k.

    ``c`` is an n*n*n nested sequence of structure constants,
    antisymmetric in the first two slots ([e_i, e_j] = sum_k c[i][j][k] e_k).
    """
    n = _structure_size(c)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if as_scalar(c[i][j][k]) != -as_scalar(c[j][i][k]):
                    raise ValueError(
                        "structure constants not antisymmetric at (%d,%d,%d)"
                        % (i, j, k)
                    )
    return MultiVectorField(n, 2, {
        (i, j): Polynomial(n, {
            tuple(1 if m == k else 0 for m in range(n)): c[i][j][k]
            for k in range(n)})
        for i in range(n) for j in range(i + 1, n)
    })


def jacobi_holds(c) -> bool:
    """Independent triple-loop Jacobi test for structure constants."""
    n = _structure_size(c)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    total = Fraction(0)
                    for m in range(n):
                        total = total + (
                            as_scalar(c[i][j][m]) * as_scalar(c[m][k][l])
                            + as_scalar(c[j][k][m]) * as_scalar(c[m][i][l])
                            + as_scalar(c[k][i][m]) * as_scalar(c[m][j][l])
                        )
                    if total:
                        return False
    return True


class DifferentialForm(MultiVectorField):
    """Covariant: polynomial coefficients on dx_{i_1}^...^dx_{i_q}.

    It reuses the sparse storage of multivector fields; arithmetic and
    equality never mix the two types.
    """

    __slots__ = ()


def volume_form(nvars: int) -> DifferentialForm:
    return DifferentialForm(nvars, nvars, {tuple(range(nvars)): 1})


def dual_sign(indices: IndexTuple) -> int:
    """Sign of the volume-duality image of the basis element e_I."""
    return -1 if sum(i - t for t, i in enumerate(indices)) % 2 else 1


def complement(indices: IndexTuple, nvars: int) -> IndexTuple:
    chosen = set(indices)
    return tuple(i for i in range(nvars) if i not in chosen)


def vol_dual(u: MultiVectorField) -> DifferentialForm:
    """Duality against the volume form: grade p field -> degree n-p form."""
    n = u.nvars
    if not 0 <= u.grade <= n:
        raise ValueError("grade %d out of range for duality on R^%d" % (u.grade, n))
    comps: Dict[IndexTuple, Polynomial] = {}
    for exps, poly in u.components.items():
        sign = dual_sign(exps)
        comps[complement(exps, n)] = poly if sign > 0 else -poly
    return DifferentialForm._trusted(n, n - u.grade, comps)


def vol_dual_inv(w: DifferentialForm) -> MultiVectorField:
    """Inverse duality: degree q form -> grade n-q field."""
    n = w.nvars
    if not 0 <= w.grade <= n:
        raise ValueError("degree %d out of range for duality on R^%d" % (w.grade, n))
    comps: Dict[IndexTuple, Polynomial] = {}
    for exps, poly in w.components.items():
        field_idx = complement(exps, n)
        sign = dual_sign(field_idx)
        comps[field_idx] = poly if sign > 0 else -poly
    return MultiVectorField._trusted(n, n - w.grade, comps)


def ext_deriv(w: DifferentialForm) -> DifferentialForm:
    n = w.nvars
    if w.grade >= n:
        return DifferentialForm.zero(n, w.grade + 1)
    comps: Dict[IndexTuple, Polynomial] = {}
    for exps, poly in w.components.items():
        for i in range(n):
            dpoly = poly.diff(i)
            if dpoly.is_zero():
                continue
            sign = _merge_sign((i,), exps)
            if sign is None:
                continue
            key = tuple(sorted((i,) + exps))
            term = dpoly if sign > 0 else -dpoly
            cur = comps.get(key)
            comps[key] = term if cur is None else cur + term
    return DifferentialForm._trusted(n, w.grade + 1, comps)


def curl(u: MultiVectorField) -> MultiVectorField:
    """Volume duality conjugated with the exterior derivative, with the
    sign (-1)^(p+1) on grade p; 0 on grade 0."""
    n = u.nvars
    if u.grade == 0:
        return MultiVectorField.zero(n, 0)
    if u.is_zero():
        return MultiVectorField.zero(n, u.grade - 1)
    result = vol_dual_inv(ext_deriv(vol_dual(u)))
    if u.grade % 2 == 0:  # (-1)^(p+1) = -1 for even p
        result = -result
    return result


def bivector_from_potential(f: Polynomial) -> MultiVectorField:
    """Inverse volume dual of df."""
    df = ext_deriv(function_field(f, DifferentialForm))
    return vol_dual_inv(df)


def bivector_of(pair) -> MultiVectorField:
    """pi_f + (1/2) I^ ^ k^ of a linear pair, by the wedge product."""
    twist = wedge(euler_vf(3), const_vf(pair.k)).scale(Fraction(1, 2))
    return direct_bivector_from_potential(pair.potential()) + twist


def pi_quad(qp) -> MultiVectorField:
    """pi_F + (1/3) I^ ^ Kx of a quadratic pair, by the wedge product."""
    twist = wedge(euler_vf(3), linear_vf(qp.twist)).scale(Fraction(1, 3))
    return direct_bivector_from_potential(qp.cubic) + twist


def pair_of(pi: MultiVectorField) -> LinearPair:
    """The pair (k, A) of a linear Poisson bivector on R^3, by the Schouten
    self-bracket, the modular field and Euler's identity for f."""
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
    if direct_bivector_of(pair) != pi:
        raise ValueError("bivector is not of potential type")
    return pair


def decompose(pi: MultiVectorField) -> Decomposition:
    """pi = (1/(n-1)) I^ ^ k^ + L, the twist by the wedge product and
    ``twist_commutes`` by the Schouten bracket [k^, L]."""
    _require_linear(pi)
    n = pi.nvars
    k = constant_vector(modular_field(pi))
    lam = pi - wedge(euler_vf(n), const_vf(k)).scale(Fraction(1, n - 1))
    if not direct_curl(lam).is_zero():
        raise AssertionError("curl-free part has nonzero curl")
    return Decomposition(
        k=k,
        curl_free=lam,
        square_closed=direct_curl(wedge(lam, lam)).is_zero(),
        twist_commutes=schouten(const_vf(k), lam).is_zero(),
    )


def deform_rhs(lp, k_matrix) -> Polynomial:
    """-(1/6) x^T (12 A + ktilde(k)) K x by matrix products."""
    m = (lp.gram.scaled(12) + quaddef.ktilde(lp.k)) * k_matrix
    return quadratic_form_poly(m) * Fraction(-1, 6)


def deform_check(lp, qp) -> bool:
    """The deformation criterion by the Schouten bracket of the two
    bivectors and by the identity between two polynomials."""
    bracket = schouten(direct_bivector_of(lp), pi_quad(qp))
    route_bracket = bracket.is_zero()
    lhs = along(qp.cubic, lp.k)
    route_identity = lhs == deform_rhs(lp, qp.twist)
    if route_bracket != route_identity:
        raise AssertionError(
            "deformation criterion routes disagree (bracket: %s, identity: %s)"
            % (route_bracket, route_identity)
        )
    return route_bracket


def pi_quad_by_parts(qp) -> MultiVectorField:
    """pi_F + (1/3) I^ ^ Kx: the components of the potential bivector, each
    normalised, plus a twist polynomial over 3 D_K read off K's form."""
    den, m = qp.twist._form
    comps = dict(direct_bivector_from_potential(qp.cubic).components)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        vals = {}
        for row, x, negate in ((j, i, False), (i, j, True)):
            for t, v in enumerate(m[3 * row:3 * row + 3]):
                if v:
                    key = quaddef.QUAD_MONOMIALS[quaddef._QUAD_SLOTS[x][t]]
                    v = -v if negate else v
                    cur = vals.get(key)
                    vals[key] = v if cur is None else cur + v
        twist = Polynomial._of_form(3, 3 * den, vals, qp.twist._rational)
        cur = comps.get((i, j))
        comps[(i, j)] = twist if cur is None else cur + twist
    return MultiVectorField._trusted(3, 2, comps)


def drift_rows(k) -> list:
    """The 6x10 matrix of F -> k.grad F for int k, column s the image
    sum_i k_i e_i x^(e - u_i) of x^e, e = CUBIC_MONOMIALS[s]."""
    rows = [[0] * 10 for _ in quaddef.QUAD_MONOMIALS]
    for s, e in enumerate(quaddef.CUBIC_MONOMIALS):
        for i in range(3):
            if e[i] and k[i]:
                target = list(e)
                target[i] -= 1
                rows[quaddef._QUAD_INDEX[tuple(target)]][s] = k[i] * e[i]
    return rows


def deform_check_on_drift_rows(lp, qp) -> bool:
    """Route one on ``pi_quad_by_parts``; route two the drift rows of k's
    numerators applied to F's coefficient vector, which gives
    s D_F k.grad F, against the numerators of the source term."""
    route_bracket = quaddef._brackets_to_zero(
        _signed_rows(direct_bivector_of(lp))[1],
        _signed_rows(pi_quad_by_parts(qp), quaddef.QUAD_MONOMIALS)[1])
    kform = _scaled_row(lp.k)
    (den, q), (s, k) = quaddef._rhs_numerators(lp, qp.twist, kform), kform
    df, f = qp.cubic._form
    coords = [f.get(e, 0) for e in quaddef.CUBIC_MONOMIALS]
    route_identity = all(
        sum(a * c for a, c in zip(row, coords) if a and c) * den
        == v * s * df for row, v in zip(drift_rows(k), q))
    if route_bracket != route_identity:
        raise AssertionError(
            "deformation criterion routes disagree (bracket: %s, identity: %s)"
            % (route_bracket, route_identity)
        )
    return route_bracket
