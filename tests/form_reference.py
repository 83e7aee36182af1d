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
scaled and added to the potential bivector.
"""

from fractions import Fraction
from typing import Dict

from poisson_forge.exactnum import Polynomial
from poisson_forge.multivec import (
    IndexTuple,
    MultiVectorField,
    _merge_sign,
    bivector_from_potential as direct_bivector_from_potential,
    const_vf,
    euler_vf,
    linear_vf,
    wedge,
)


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
    df = ext_deriv(DifferentialForm.function(f))
    return vol_dual_inv(df)


def bivector_of(pair) -> MultiVectorField:
    """pi_f + (1/2) I^ ^ k^ of a linear pair, by the wedge product."""
    twist = wedge(euler_vf(3), const_vf(pair.k)).scale(Fraction(1, 2))
    return direct_bivector_from_potential(pair.potential()) + twist


def pi_quad(qp) -> MultiVectorField:
    """pi_F + (1/3) I^ ^ Kx of a quadratic pair, by the wedge product."""
    twist = wedge(euler_vf(3), linear_vf(qp.twist)).scale(Fraction(1, 3))
    return direct_bivector_from_potential(qp.cubic) + twist
