"""Multivector fields and differential forms with polynomial coefficients.

A grade-p multivector field on R^n is stored as a sparse map from strictly
increasing index tuples (i_1 < ... < i_p, zero-based) to exact polynomials;
differential forms mirror the layout on the covariant side.  The module
implements:

- the exterior (wedge) product,
- duality against the standard volume form dx_1^...^dx_n, in both
  directions (``vol_dual`` / ``vol_dual_inv``),
- the exterior derivative,
- the divergence-type ``curl`` operator (volume duality conjugated with the
  exterior derivative, with a grade-dependent sign), which lowers grade by
  one and squares to zero,
- the Schouten bracket, computed from the curl operator by the
  Koszul-type identity
  [U, V] = (-1)^(p+1) (curl(U^V) - curl(U)^V - (-1)^p U^curl(V)),
  p = grade of U, which extends the Lie bracket of vector fields to all
  grades with the standard graded antisymmetry,
- modular fields and Poisson checks for bivectors, plus constructors for
  the standard players: linear/constant vector fields, the Euler field,
  the bivector of a quadratic/cubic potential, and the Lie-Poisson
  bivector of a structure-constant array.

Sign convention: the duality sends the basis p-vector e_I to
sign(I) * dx_{complement(I)} with sign(I) = (-1)^{sum_t (I[t]-t)}.  This is
the unique choice under which the bivector of a potential f on R^3 comes
out as f_x d/dy^d/dz + f_y d/dz^d/dx + f_z d/dx^d/dy, the normal form all
the classification code relies on.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

from .exactnum import (
    Matrix,
    Polynomial,
    as_scalar,
    int_from_json,
    var_names,
)

IndexTuple = Tuple[int, ...]


def _check_index_tuple(exps: IndexTuple, nvars: int, grade: int):
    if len(exps) != grade:
        raise ValueError("index tuple %r has wrong length for grade %d" % (exps, grade))
    if any(not (0 <= i < nvars) for i in exps):
        raise ValueError("index out of range in %r" % (exps,))
    if any(exps[t] >= exps[t + 1] for t in range(len(exps) - 1)):
        raise ValueError("index tuple %r is not strictly increasing" % (exps,))


def _dual_sign(indices: IndexTuple) -> int:
    """Sign of the volume-duality image of the basis element e_I."""
    return -1 if sum(i - t for t, i in enumerate(indices)) % 2 else 1


def _complement(indices: IndexTuple, nvars: int) -> IndexTuple:
    chosen = set(indices)
    return tuple(i for i in range(nvars) if i not in chosen)


def _merge_sign(left: IndexTuple, right: IndexTuple) -> Optional[int]:
    """Sign of sorting the concatenation left+right; None if they overlap."""
    if set(left) & set(right):
        return None
    inversions = sum(1 for a in left for b in right if a > b)
    return -1 if inversions % 2 else 1


class _GradedObject:
    """Shared sparse-component machinery for fields and forms."""

    __slots__ = ("nvars", "grade", "components")

    def __init__(self, nvars: int, grade: int,
                 components: Optional[Dict[IndexTuple, Polynomial]] = None):
        if grade < 0:
            raise ValueError("negative grade")
        self.nvars = nvars
        self.grade = grade
        clean: Dict[IndexTuple, Polynomial] = {}
        for exps, poly in (components or {}).items():
            exps = tuple(int(i) for i in exps)
            _check_index_tuple(exps, nvars, grade)
            if not isinstance(poly, Polynomial):
                poly = Polynomial.constant(nvars, poly)
            if poly.nvars != nvars:
                raise ValueError("component arity mismatch")
            if not poly.is_zero():
                clean[exps] = poly
        self.components = clean

    @classmethod
    def _trusted(cls, nvars: int, grade: int,
                 components: Dict[IndexTuple, Polynomial]):
        """Wrap components built from validated objects, dropping zeros.

        The keys must already be valid index tuples for (nvars, grade) and
        the values polynomials in ``nvars`` variables.
        """
        self = object.__new__(cls)
        self.nvars = nvars
        self.grade = grade
        self.components = {e: p for e, p in components.items() if p.terms}
        return self

    @classmethod
    def zero(cls, nvars: int, grade: int):
        return cls(nvars, grade, {})

    @classmethod
    def function(cls, poly: Polynomial):
        """Wrap a polynomial as a grade-0 object."""
        return cls(poly.nvars, 0, {(): poly})

    def is_zero(self) -> bool:
        return not self.components

    def component(self, exps: Sequence[int]) -> Polynomial:
        return self.components.get(tuple(exps), Polynomial.zero(self.nvars))

    def _require_compatible(self, other):
        if type(self) is not type(other):
            raise TypeError("mixed field/form arithmetic")
        if self.nvars != other.nvars or self.grade != other.grade:
            raise ValueError("nvars/grade mismatch")

    def _combined(self, other, negate: bool):
        self._require_compatible(other)
        comps = dict(self.components)
        for exps, poly in other.components.items():
            cur = comps.get(exps)
            add = -poly if negate else poly
            comps[exps] = add if cur is None else cur + add
        return self._trusted(self.nvars, self.grade, comps)

    def __add__(self, other):
        return self._combined(other, negate=False)

    def __sub__(self, other):
        return self._combined(other, negate=True)

    def __neg__(self):
        return self._trusted(self.nvars, self.grade,
                             {e: -p for e, p in self.components.items()})

    def scale(self, c):
        c = as_scalar(c)
        return self._trusted(self.nvars, self.grade,
                             {e: p * c for e, p in self.components.items()})

    def __eq__(self, other):
        if type(self) is not type(other):
            return NotImplemented
        return (self.nvars == other.nvars and self.grade == other.grade
                and self.components == other.components)

    __hash__ = None

    def __repr__(self):
        return "%s(n=%d, grade=%d, %s)" % (
            type(self).__name__, self.nvars, self.grade,
            {e: str(p) for e, p in sorted(self.components.items())},
        )

    def _render(self, basis_symbol: str, joiner: str) -> str:
        if not self.components:
            return "0"
        names = var_names(self.nvars)
        pieces = []
        for exps in sorted(self.components):
            poly = self.components[exps]
            base = joiner.join(basis_symbol % names[i] for i in exps)
            if not base:
                pieces.append(str(poly))
            elif poly == Polynomial.constant(self.nvars, 1):
                pieces.append(base)
            else:
                pieces.append("(%s)·%s" % (poly, base))
        return " + ".join(pieces)


class MultiVectorField(_GradedObject):
    """Contravariant: polynomial coefficients on d/dx_{i_1}^...^d/dx_{i_p}."""

    def as_polynomial(self) -> Polynomial:
        if self.grade != 0:
            raise ValueError("grade %d field is not a function" % self.grade)
        return self.component(())

    def __str__(self):
        return self._render("∂%s", "∧")

    def to_json(self) -> dict:
        return {
            "n": self.nvars,
            "grade": self.grade,
            "components": {
                ",".join(str(i + 1) for i in exps): self.components[exps].to_json()
                for exps in sorted(self.components)
            },
        }

    @classmethod
    def from_json(cls, data: dict) -> "MultiVectorField":
        nvars = int_from_json(data["n"])
        grade = int_from_json(data["grade"])
        comps = {}
        for key, poly_data in data.get("components", {}).items():
            exps = (tuple(int_from_json(s) - 1 for s in str(key).split(","))
                    if str(key) else ())
            comps[exps] = Polynomial.from_json(poly_data)
        return cls(nvars, grade, comps)


class DifferentialForm(_GradedObject):
    """Covariant: polynomial coefficients on dx_{i_1}^...^dx_{i_q}."""

    def __str__(self):
        return self._render("d%s", "∧")


def volume_form(nvars: int) -> DifferentialForm:
    return DifferentialForm(nvars, nvars, {tuple(range(nvars)): 1})


# ---------------------------------------------------------------------------
# wedge product
# ---------------------------------------------------------------------------


def wedge(u: MultiVectorField, v: MultiVectorField) -> MultiVectorField:
    """Exterior product; graded-commutative, zero above the top grade."""
    if u.nvars != v.nvars:
        raise ValueError("nvars mismatch")
    n = u.nvars
    grade = u.grade + v.grade
    comps: Dict[IndexTuple, Polynomial] = {}
    for iu, pu in u.components.items():
        for iv, pv in v.components.items():
            sign = _merge_sign(iu, iv)
            if sign is None:
                continue
            key = tuple(sorted(iu + iv))
            term = pu * pv
            if sign < 0:
                term = -term
            cur = comps.get(key)
            comps[key] = term if cur is None else cur + term
    return MultiVectorField._trusted(n, grade, comps)


# ---------------------------------------------------------------------------
# volume duality
# ---------------------------------------------------------------------------


def vol_dual(u: MultiVectorField) -> DifferentialForm:
    """Duality against the volume form: grade p field -> degree n-p form."""
    n = u.nvars
    if not 0 <= u.grade <= n:
        raise ValueError("grade %d out of range for duality on R^%d" % (u.grade, n))
    comps: Dict[IndexTuple, Polynomial] = {}
    for exps, poly in u.components.items():
        sign = _dual_sign(exps)
        comps[_complement(exps, n)] = poly if sign > 0 else -poly
    return DifferentialForm._trusted(n, n - u.grade, comps)


def vol_dual_inv(w: DifferentialForm) -> MultiVectorField:
    """Inverse duality: degree q form -> grade n-q field."""
    n = w.nvars
    if not 0 <= w.grade <= n:
        raise ValueError("degree %d out of range for duality on R^%d" % (w.grade, n))
    comps: Dict[IndexTuple, Polynomial] = {}
    for exps, poly in w.components.items():
        field_idx = _complement(exps, n)
        sign = _dual_sign(field_idx)
        comps[field_idx] = poly if sign > 0 else -poly
    return MultiVectorField._trusted(n, n - w.grade, comps)


# ---------------------------------------------------------------------------
# exterior derivative and the curl operator
# ---------------------------------------------------------------------------


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
    """Divergence-type operator: lowers grade by one; curl∘curl = 0.

    Defined as volume duality conjugated with the exterior derivative and
    the sign (-1)^(p+1) on grade p.  On a vector field it is the ordinary
    divergence (a grade-0 field); on grade 0 it returns 0.
    """
    n = u.nvars
    if u.grade == 0:
        return MultiVectorField.zero(n, 0)
    if u.is_zero():
        return MultiVectorField.zero(n, u.grade - 1)
    result = vol_dual_inv(ext_deriv(vol_dual(u)))
    if u.grade % 2 == 0:  # (-1)^(p+1) = -1 for even p
        result = -result
    return result


# ---------------------------------------------------------------------------
# Schouten bracket
# ---------------------------------------------------------------------------


def schouten(u: MultiVectorField, v: MultiVectorField) -> MultiVectorField:
    """Schouten bracket of multivector fields; grade p+q-1.

    Computed from the curl operator via the Koszul-type identity

        [U, V] = (-1)^(p+1) (curl(U^V) - curl(U)^V - (-1)^p U^curl(V)),

    p = grade of U.  The grade prefactor is forced: without it the
    combination in parentheses is symmetric on (grade 1, grade 2) pairs,
    where the Schouten bracket must be antisymmetric.  With it the bracket
    reduces to the Lie bracket on vector fields and satisfies

        [U, V] = -(-1)^((p-1)(q-1)) [V, U],

    both of which the test suite pins exactly.  One consequence worth
    noting: for a divergence-free bivector L, [L, L] = -curl(L^L).
    """
    if u.nvars != v.nvars:
        raise ValueError("nvars mismatch")
    p = u.grade
    total = curl(wedge(u, v))
    if p >= 1:
        total = total - wedge(curl(u), v)
    if v.grade >= 1:
        # the U^curl(V) term exists only when curl(V) has a grade to live in
        term = wedge(u, curl(v))
        total = total + term if p % 2 else total - term
    return total if p % 2 else -total


def modular_field(pi: MultiVectorField) -> MultiVectorField:
    """curl of a bivector: the obstruction to volume preservation."""
    if pi.grade != 2:
        raise ValueError("modular field is defined for bivectors")
    return curl(pi)


def constant_vector(vf: MultiVectorField) -> tuple:
    """Extract the coefficient vector of a constant vector field."""
    if vf.grade != 1:
        raise ValueError("not a vector field")
    out = []
    for i in range(vf.nvars):
        poly = vf.component((i,))
        if poly.degree() > 0:
            raise ValueError("vector field is not constant: %s" % vf)
        out.append(poly.coeff((0,) * vf.nvars))
    return tuple(out)


def is_poisson(pi: MultiVectorField) -> bool:
    """True iff the self-bracket of the bivector vanishes identically."""
    if pi.grade != 2:
        raise ValueError("Poisson check is defined for bivectors")
    return schouten(pi, pi).is_zero()


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def linear_vf(a: Matrix) -> MultiVectorField:
    """The linear vector field x -> Ax, i.e. sum_i (Ax)_i d/dx_i."""
    return MultiVectorField(a.n, 1, {
        (i,): Polynomial.linear(row) for i, row in enumerate(a.rows)
    })


def const_vf(k: Sequence) -> MultiVectorField:
    n = len(k)
    return MultiVectorField(n, 1, {
        (i,): Polynomial.constant(n, k[i]) for i in range(n)
    })


def euler_vf(nvars: int) -> MultiVectorField:
    """The radial field sum_i x_i d/dx_i."""
    return MultiVectorField(nvars, 1, {
        (i,): Polynomial.variable(nvars, i) for i in range(nvars)
    })


def bivector_from_potential(f: Polynomial) -> MultiVectorField:
    """Inverse volume dual of df; on R^3 the classical potential bivector."""
    df = ext_deriv(DifferentialForm.function(f))
    return vol_dual_inv(df)


def lie_poisson_bivector(c) -> MultiVectorField:
    """Bivector with components pi^{ij} = sum_k c[i][j][k] x_k.

    ``c`` is an n*n*n nested sequence of structure constants,
    antisymmetric in the first two slots ([e_i, e_j] = sum_k c[i][j][k] e_k).
    """
    n = len(c)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if as_scalar(c[i][j][k]) != -as_scalar(c[j][i][k]):
                    raise ValueError(
                        "structure constants not antisymmetric at (%d,%d,%d)"
                        % (i, j, k)
                    )
    return MultiVectorField(n, 2, {
        (i, j): Polynomial.linear(c[i][j])
        for i in range(n) for j in range(i + 1, n)
    })


def jacobi_holds(c) -> bool:
    """Independent triple-loop Jacobi test for structure constants."""
    n = len(c)
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
