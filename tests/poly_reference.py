"""Reference kernel: the dict-of-scalars ``Polynomial``.

``exactnum.Polynomial`` keeps a polynomial whose coefficients are all
Fractions on one integer denominator, as (D, {exponents: int}), and runs
its arithmetic, ``diff``, ``compose_linear``, ``apply_matrix_derivation``
and ``quadratic_form_poly`` on the ints.  This module keeps the class
and the two functions as they were before, one scalar per coefficient in
a dict, so that the tests can compare the two on seeded inputs: equal
values, and equal coefficient types (Fraction against ExtScalar).
"""

from fractions import Fraction
from typing import Optional, Sequence

from poisson_forge.exactnum import (
    ExtScalar,
    ParseError,
    _join_signed,
    as_scalar,
    int_from_json,
    scalar_from_json,
    scalar_to_json,
    term_sort_key,
    var_names,
)


class Polynomial:
    """Sparse exact polynomial in ``nvars`` variables.

    Terms map exponent tuples to nonzero scalars.  Instances are treated
    as immutable; all operations return fresh polynomials.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Optional[dict] = None):
        self.nvars = nvars
        clean = {}
        for exps, coef in (terms or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise ValueError("bad exponent tuple %r" % (exps,))
            coef = as_scalar(coef)
            if coef:
                clean[exps] = coef
        self.terms = clean

    @classmethod
    def _trusted(cls, nvars: int, terms: dict) -> "Polynomial":
        """Wrap terms built from validated polynomials, dropping zeros.

        The keys must already be exponent tuples of length ``nvars`` and
        the values package scalars; only zero coefficients are removed.
        """
        self = object.__new__(cls)
        self.nvars = nvars
        self.terms = {e: c for e, c in terms.items() if c}
        return self

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, value) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Polynomial":
        exps = [0] * nvars
        exps[index] = 1
        return cls(nvars, {tuple(exps): 1})

    @classmethod
    def monomial(cls, nvars: int, exps: Sequence[int], coef=1) -> "Polynomial":
        return cls(nvars, {tuple(exps): coef})

    @classmethod
    def linear(cls, coeffs: Sequence) -> "Polynomial":
        """The linear form sum_j coeffs[j] x_j in len(coeffs) variables."""
        n = len(coeffs)
        return cls(n, {tuple(1 if k == j else 0 for k in range(n)): c
                       for j, c in enumerate(coeffs)})

    # -- queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, exps: Sequence[int]):
        return self.terms.get(tuple(exps), Fraction(0))

    def degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self, d: int) -> bool:
        return all(sum(e) == d for e in self.terms)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: term_sort_key(kv[0]))

    # -- arithmetic ---------------------------------------------------

    def _require_same_arity(self, other: "Polynomial"):
        if self.nvars != other.nvars:
            raise ValueError("arity mismatch: %d vs %d" % (self.nvars, other.nvars))

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._require_same_arity(other)
        terms = dict(self.terms)
        for exps, coef in other.terms.items():
            cur = terms.get(exps)
            terms[exps] = coef if cur is None else cur + coef
        return Polynomial._trusted(self.nvars, terms)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Polynomial._trusted(self.nvars,
                                   {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._require_same_arity(other)
            terms: dict = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    key = tuple(a + b for a, b in zip(e1, e2))
                    cur = terms.get(key)
                    terms[key] = c1 * c2 if cur is None else cur + c1 * c2
            return Polynomial._trusted(self.nvars, terms)
        try:
            c = as_scalar(other)
        except TypeError:
            return NotImplemented
        return Polynomial._trusted(self.nvars,
                                   {e: v * c for e, v in self.terms.items()})

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        out = Polynomial.constant(self.nvars, 1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- calculus -----------------------------------------------------

    def diff(self, index: int) -> "Polynomial":
        terms = {}
        for exps, coef in self.terms.items():
            e = exps[index]
            if e == 0:
                continue
            key = exps[:index] + (e - 1,) + exps[index + 1:]
            cur = terms.get(key)
            terms[key] = coef * e if cur is None else cur + coef * e
        return Polynomial._trusted(self.nvars, terms)

    def directional_diff(self, vector: Sequence) -> "Polynomial":
        """Derivative along a constant vector: sum_i v_i d/dx_i."""
        out = Polynomial.zero(self.nvars)
        for i, v in enumerate(vector):
            v = as_scalar(v)
            if v:
                out = out + self.diff(i) * v
        return out

    def eval(self, point: Sequence):
        total = Fraction(0)
        for exps, coef in self.terms.items():
            value = coef
            for p, e in zip(point, exps):
                for _ in range(e):
                    value = value * p
            total = total + value
        return total

    def compose_linear(self, m: "Matrix") -> "Polynomial":
        """Pullback p(M x): substitute x_i -> sum_j M[i][j] x_j."""
        if m.n != self.nvars:
            raise ValueError("matrix size %d does not match arity %d" % (m.n, self.nvars))
        subs = [Polynomial.linear(row) for row in m.rows]
        # cache powers of the substituted linear forms
        powers = [{0: Polynomial.constant(self.nvars, 1)} for _ in range(self.nvars)]

        def power(i, e):
            cache = powers[i]
            while e not in cache:
                top = max(cache)
                cache[top + 1] = cache[top] * subs[i]
            return cache[e]

        out = Polynomial.zero(self.nvars)
        for exps, coef in self.terms.items():
            term = Polynomial.constant(self.nvars, coef)
            for i, e in enumerate(exps):
                if e:
                    term = term * power(i, e)
            out = out + term
        return out

    # -- presentation -------------------------------------------------

    def __str__(self):
        names = var_names(self.nvars)
        pieces = []
        for exps, coef in self.sorted_terms():
            mono = "".join(
                n if e == 1 else "%s^%d" % (n, e)
                for n, e in zip(names, exps) if e
            )
            if isinstance(coef, ExtScalar) and not coef.is_rational:
                cs = "(%s)" % coef
                body = cs if not mono else "%s·%s" % (cs, mono)
                pieces.append(("+", body))
                continue
            c = coef.rational_value() if isinstance(coef, ExtScalar) else coef
            mag = abs(c)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = "%s·%s" % (mag, mono)
            pieces.append(("-" if c < 0 else "+", body))
        return _join_signed(pieces)

    def __repr__(self):
        return "Polynomial(%d, %s)" % (self.nvars, dict(self.sorted_terms()))

    # -- JSON ---------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "vars": list(var_names(self.nvars)),
            "terms": [
                {"exp": list(exps), "coef": scalar_to_json(coef)}
                for exps, coef in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Polynomial":
        nvars = len(data["vars"])
        terms = {}
        for item in data["terms"]:
            exps = tuple(int_from_json(e) for e in item["exp"])
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise ParseError("bad exponent tuple %r for %d variables"
                                 % (exps, nvars))
            coef = scalar_from_json(item["coef"])
            terms[exps] = terms.get(exps, Fraction(0)) + coef
        return cls(nvars, terms)


def apply_matrix_derivation(m: "Matrix", p: Polynomial) -> Polynomial:
    """Derivative of p along the linear vector field x -> M x."""
    if m.n != p.nvars:
        raise ValueError("matrix size %d does not match arity %d" % (m.n, p.nvars))
    out = Polynomial.zero(p.nvars)
    for i in range(m.n):
        pi = p.diff(i)
        if not pi.terms:
            continue
        out = out + Polynomial.linear(m.rows[i]) * pi
    return out


def quadratic_form_poly(m: "Matrix") -> Polynomial:
    """The quadratic polynomial x^T M x = sum_ij M_ij x_i x_j."""
    n = m.n
    out = Polynomial.zero(n)
    for i in range(n):
        for j in range(n):
            if not m.rows[i][j]:
                continue
            exps = [0] * n
            exps[i] += 1
            exps[j] += 1
            out = out + Polynomial.monomial(n, exps, m.rows[i][j])
    return out
