"""Multivector fields with polynomial coefficients.

A grade-p multivector field on R^n is stored as a sparse map from strictly
increasing index tuples (i_1 < ... < i_p, zero-based) to exact polynomials.
The module implements:

- the exterior (wedge) product,
- the divergence operator ``curl`` (Koszul's D), which lowers grade by one
  and squares to zero.  On the basis p-vector e_I, I = (i_0 < ... < i_{p-1}),
  with coefficient u_I it reads

      D(u_I e_I) = sum_t (-1)^t (du_I/dx_{i_t}) e_{I without i_t},

  the ordinary divergence on vector fields and 0 on functions (Koszul,
  "Crochet de Schouten-Nijenhuis et cohomologie", Asterisque 1985),
- the Schouten bracket, computed from the curl operator by the
  Koszul-type identity
  [U, V] = (-1)^(p+1) (curl(U^V) - curl(U)^V - (-1)^p U^curl(V)),
  p = grade of U, which extends the Lie bracket of vector fields to all
  grades with the standard graded antisymmetry,
- modular fields and Poisson checks for bivectors, plus constructors for
  the standard players: linear and constant vector fields and the
  bivector of a quadratic/cubic potential.  The linear and constant
  fields build their components on the polynomial form (D, T) of
  ``exactnum`` and wrap them with ``MultiVectorField._trusted``, with no
  second validation.

Sign convention for potentials: the bivector of f on R^n has the component
(-1)^(n-1-i) df/dx_i on the complement of the index i.  On R^3 this is
f_x d/dy^d/dz + f_y d/dz^d/dx + f_z d/dx^d/dy, the normal form all the
classification code relies on, and its curl vanishes.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from .exactnum import (
    Matrix,
    ParseError,
    Polynomial,
    _check_nvars,
    _linear_forms,
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


def _merge_sign(left: IndexTuple, right: IndexTuple) -> Optional[int]:
    """Sign of sorting the concatenation left+right; None if they overlap."""
    if set(left) & set(right):
        return None
    inversions = sum(1 for a in left for b in right if a > b)
    return -1 if inversions % 2 else 1


class MultiVectorField:
    """Polynomial coefficients on d/dx_{i_1}^...^d/dx_{i_p}."""

    __slots__ = ("nvars", "grade", "components")

    def __init__(self, nvars: int, grade: int,
                 components: Optional[Dict[IndexTuple, Polynomial]] = None):
        _check_nvars(nvars)
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
        self.components = {e: p for e, p in components.items()
                           if not p.is_zero()}
        return self

    @classmethod
    def zero(cls, nvars: int, grade: int):
        return cls(nvars, grade, {})

    def is_zero(self) -> bool:
        return not self.components

    def component(self, exps: Sequence[int]) -> Polynomial:
        exps = tuple(exps)
        poly = self.components.get(exps)
        if poly is None:
            # a stored key is valid already
            _check_index_tuple(exps, self.nvars, self.grade)
            poly = Polynomial.zero(self.nvars)
        return poly

    def _require_compatible(self, other):
        if type(self) is not type(other):
            raise TypeError("cannot combine %s with %s"
                            % (type(self).__name__, type(other).__name__))
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

    def __str__(self):
        if not self.components:
            return "0"
        names = var_names(self.nvars)
        pieces = []
        for exps in sorted(self.components):
            poly = self.components[exps]
            base = "∧".join("∂%s" % names[i] for i in exps)
            if not base:
                pieces.append(str(poly))
            elif poly == Polynomial.constant(self.nvars, 1):
                pieces.append(base)
            else:
                pieces.append("(%s)·%s" % (poly, base))
        return " + ".join(pieces)

    def as_polynomial(self) -> Polynomial:
        if self.grade != 0:
            raise ValueError("grade %d field is not a function" % self.grade)
        return self.component(())

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
        _check_nvars(nvars)
        if grade > nvars:
            raise ValueError("grade %d exceeds n = %d" % (grade, nvars))
        comps = {}
        components = data.get("components", {})
        if not isinstance(components, dict):
            raise ParseError('"components" must be an object')
        for key, poly_data in components.items():
            exps = (tuple(int_from_json(s) - 1 for s in str(key).split(","))
                    if str(key) else ())
            comps[exps] = Polynomial.from_json(poly_data)
        return cls(nvars, grade, comps)


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
# the curl operator
# ---------------------------------------------------------------------------


def curl(u: MultiVectorField) -> MultiVectorField:
    """Koszul's divergence operator: lowers grade by one; curl∘curl = 0.

    Each component u_I e_I contributes (-1)^t du_I/dx_{i_t} to the index
    tuple I without its t-th entry.  On a vector field this is the ordinary
    divergence (a grade-0 field); on grade 0 it returns 0.
    """
    n = u.nvars
    if u.grade == 0:
        return MultiVectorField.zero(n, 0)
    comps: Dict[IndexTuple, Polynomial] = {}
    for idx, poly in u.components.items():
        for t, i in enumerate(idx):
            term = poly.diff(i)
            if term.is_zero():
                continue
            if t % 2:
                term = -term
            key = idx[:t] + idx[t + 1:]
            cur = comps.get(key)
            comps[key] = term if cur is None else cur + term
    return MultiVectorField._trusted(n, u.grade - 1, comps)


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
    """The linear vector field x -> Ax, i.e. sum_i (Ax)_i d/dx_i.

    Built on the form: row i of A's form (D, M) over D is the component
    on d/dx_i, and a zero row gives none.
    """
    return MultiVectorField._trusted(a.n, 1, {
        (i,): form for i, form in enumerate(_linear_forms(a))
    })


def const_vf(k: Sequence) -> MultiVectorField:
    """The constant vector field sum_i k_i d/dx_i; a zero k_i gives no
    component.  Each entry goes through ``Polynomial.constant``, which
    refuses a value that is not an exact scalar."""
    n = len(k)
    return MultiVectorField._trusted(n, 1, {
        (i,): Polynomial.constant(n, k[i]) for i in range(n)
    })


def bivector_from_potential(f: Polynomial) -> MultiVectorField:
    """Grade n-1 field with (-1)^(n-1-i) df/dx_i on the complement of i.

    On R^3 this is the classical potential bivector
    f_x d/dy^d/dz + f_y d/dz^d/dx + f_z d/dx^d/dy.
    """
    n = f.nvars
    if n < 1:
        raise ValueError("a potential needs at least one variable")
    comps = {}
    for i in range(n):
        term = f.diff(i)
        comps[tuple(range(i)) + tuple(range(i + 1, n))] = (
            -term if (n - 1 - i) % 2 else term)
    return MultiVectorField._trusted(n, n - 1, comps)
