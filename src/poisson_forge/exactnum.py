"""Exact scalar arithmetic and small exact linear algebra.

Every computation in this package is exact.  Scalars are either
``fractions.Fraction`` (arbitrary-precision rationals) or :class:`ExtScalar`,
an element of the degree-4 extension field Q(sqrt2, sqrt3) stored on the
basis (1, sqrt2, sqrt3, sqrt6) as four integer numerators over one
positive common denominator, reduced by their gcd, so that its arithmetic
runs on Python ints alone.  The two kinds mix freely: arithmetic promotes
rationals into the extension field when needed.

On top of the scalars the module provides:

- :class:`Polynomial` -- sparse multivariate polynomials with exact
  coefficients, supporting differentiation, evaluation and pullback along
  a linear change of coordinates,
- :class:`Matrix` -- dense square matrices with exact inverse/determinant,
- :func:`solve_linear` -- exact solver for rectangular linear systems,
  returning the full affine solution set as a :class:`SolutionSpace`,
- :func:`congruent_diagonalize` -- Lagrange congruence diagonalization of
  a symmetric matrix (R^T A R diagonal), used to read off rank and
  signature exactly.

Every polynomial is stored on one form (D, T), the layout FLINT uses
for ``fmpq_poly``: T maps exponent tuples to nonzero values over one
denominator D > 0.  A rational polynomial holds int numerators over a
canonical D (gcd(D, T) = 1), so two rational polynomials are equal
exactly when their forms are; a polynomial with an ExtScalar
coefficient holds its scalars (Fractions and ExtScalars) over D = 1.
Products, sums (over lcm(D, E), or directly when the denominators
agree), negation, scaling, ``diff`` and ``compose_linear`` have one body
for both kinds: plain ``+`` and ``*`` on the values, and a flag, carried
from the operands, that says whether they were all ints, so that the
rational path makes no extra pass over its values.  ``_of_form`` alone
normalises a result: it drops zero entries, divides int numerators and
D by their gcd (none when D = 1), divides scalars by D, and puts the
result back on ints once no ExtScalar is left.  A rational polynomial
builds no Fraction until ``terms`` is read; that Fraction dict is a view
built on first read and cached, and is T itself for the other kind.
``==`` and ``hash`` agree across the two kinds, so a rational ExtScalar
coefficient equals its Fraction twin.

Every matrix is stored on one form (D, M) in the same way, the layout
FLINT uses for ``fmpq_mat``: M is a flat tuple of its n^2 values, row by
row, over one denominator D.  A rational matrix holds int numerators
over a canonical D (D > 0, gcd(D, M) = 1), so two rational matrices are
equal exactly when their forms are; a matrix with an ExtScalar entry
holds its scalars over D = 1.  ``==``, sums, products, negation,
``scaled``, ``transpose``, ``trace``, ``is_symmetric`` and ``det`` up to
3x3 have one body for both kinds, plain ``+`` and ``*`` on the values
with the flag carried from the operands; ``Matrix._of_form`` alone
normalises a result, as for polynomials.  ``rows`` is a view built on
first read (Fractions for a rational matrix), or the rows the
constructor was given.  ``apply`` keeps an int path for a vector of
Fractions, and the 3x3 rational inverse is D adj(M) / det(M).  Two loops
stay on the scalars: Gauss-Jordan ``inverse``, for a matrix with an
ExtScalar entry and for sizes other than 3x3, and the Laplace ``det``
above 3x3.  They stay because the tests compare the values and the entry
types of ``det`` and ``inverse`` with reference loops: an adjugate
inverse of an ExtScalar matrix gives the same values, but rational
ExtScalar entries where Gauss-Jordan gives Fractions.

``solve_linear`` eliminates fraction-free (Bareiss, Math. Comp. 22, 1968)
after scaling each row by the lcm of its denominators, which leaves the
solution set unchanged (a row given as ints is taken as it is): a
rational system on ints, a system with an ExtScalar entry on integer
coordinate 4-tuples in the ring Z[sqrt2, sqrt3] = Z + Z sqrt2 + Z sqrt3
+ Z sqrt6.  Every Bareiss cell is
pivot*a - factor*b divided by the previous pivot, and the quotient is a
minor of the scaled input, so it lies in Z or in that ring; the
division is therefore exact.  In the ring it multiplies by the divisor's
cofactor (the product of its three nontrivial Galois conjugates) and
divides each coordinate by the integer norm.  A nonzero remainder
raises ``ArithmeticError``, under ``python -O`` too.  Back substitution
alone runs on Fractions and ExtScalars.

JSON decoding of scalars and polynomials raises :class:`ParseError` on
malformed input.  The public constructors validate their arguments;
arithmetic results built from already validated polynomials and matrices
are not validated again, only normalised (``Polynomial._of_form``,
``Matrix._of_form``).

All operations are deterministic: ties in pivot selection are broken by
index order, and polynomial terms carry a fixed canonical ordering.
"""

from __future__ import annotations

import math
import operator
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union


class ExactSqrtError(ValueError):
    """Raised when an exact square root is not representable in the field."""


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------

_EXT_LABELS = ("", "sqrt2", "sqrt3", "sqrt6")


class ExtScalar:
    """Element c0 + c1*sqrt2 + c2*sqrt3 + c3*sqrt6 of Q(sqrt2, sqrt3).

    Stored in integral-basis form: four ``int`` numerators over one
    positive ``int`` denominator on the fixed basis (1, sqrt2, sqrt3,
    sqrt6), reduced so that the five integers share no common factor.
    The representation is therefore canonical, and field arithmetic is
    integer arithmetic followed by one gcd.  ``coords`` presents the
    coordinates as a tuple of Fractions.  Division uses the product of
    the three nontrivial Galois conjugates, whose product with self is
    the (rational) field norm.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, coords):
        if len(coords) != 4:
            raise ValueError("ExtScalar needs 4 coordinates")
        fracs = [Fraction(c) for c in coords]
        # the lcm of reduced denominators leaves no common factor behind
        den = math.lcm(*(f.denominator for f in fracs))
        self._num = tuple(f.numerator * (den // f.denominator) for f in fracs)
        self._den = den

    # -- constructors -------------------------------------------------

    @classmethod
    def of(cls, value) -> "ExtScalar":
        if isinstance(value, ExtScalar):
            return value
        if isinstance(value, int):
            return _ext((int(value), 0, 0, 0), 1)
        if not isinstance(value, Fraction):
            value = Fraction(value)
        return _ext((value.numerator, 0, 0, 0), value.denominator)

    @classmethod
    def parts(cls, c0=0, c1=0, c2=0, c3=0) -> "ExtScalar":
        return cls((c0, c1, c2, c3))

    # -- structure ----------------------------------------------------

    @property
    def coords(self) -> tuple:
        den = self._den
        return tuple(Fraction(n, den) for n in self._num)

    @property
    def is_rational(self) -> bool:
        _, n1, n2, n3 = self._num
        return not (n1 or n2 or n3)

    def rational_value(self) -> Fraction:
        if not self.is_rational:
            raise ValueError("%s is irrational" % (self,))
        return Fraction(self._num[0], self._den)

    def conjugate(self, flip2: bool, flip3: bool) -> "ExtScalar":
        n0, n1, n2, n3 = self._num
        if flip2:
            n1, n3 = -n1, -n3
        if flip3:
            n2, n3 = -n2, -n3
        return _ext((n0, n1, n2, n3), self._den)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        other = _coerce_ext(other)
        if other is None:
            return NotImplemented
        return _ext_sum(self, other, 1)

    __radd__ = __add__

    def __neg__(self):
        n0, n1, n2, n3 = self._num
        return _ext((-n0, -n1, -n2, -n3), self._den)

    def __sub__(self, other):
        other = _coerce_ext(other)
        if other is None:
            return NotImplemented
        return _ext_sum(self, other, -1)

    def __rsub__(self, other):
        other = _coerce_ext(other)
        if other is None:
            return NotImplemented
        return _ext_sum(other, self, -1)

    def __mul__(self, other):
        other = _coerce_ext(other)
        if other is None:
            return NotImplemented
        return _reduced(_int_mul(self._num, other._num), self._den * other._den)

    __rmul__ = __mul__

    def inverse(self) -> "ExtScalar":
        cofactor, n = _norm_cofactor(self._num)
        # self = num/den, so 1/self = den * cofactor / N(num)
        den = self._den
        if n < 0:
            den, n = -den, -n
        return _reduced(tuple(c * den for c in cofactor), n)

    def __truediv__(self, other):
        other = _coerce_ext(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce_ext(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __eq__(self, other):
        if isinstance(other, ExtScalar):
            return self._num == other._num and self._den == other._den
        if isinstance(other, int):
            num, den = other, 1
        elif isinstance(other, Fraction):
            num, den = other.numerator, other.denominator
        else:
            return NotImplemented
        n0, n1, n2, n3 = self._num
        return not (n1 or n2 or n3) and n0 == num and self._den == den

    def __bool__(self):
        return any(self._num)

    def __hash__(self):
        if self.is_rational:
            return hash(Fraction(self._num[0], self._den))
        return hash(self.coords)

    def __float__(self):
        c0, c1, c2, c3 = self.coords
        return (
            float(c0)
            + float(c1) * math.sqrt(2)
            + float(c2) * math.sqrt(3)
            + float(c3) * math.sqrt(6)
        )

    def __repr__(self):
        return "ExtScalar(%s)" % (self.coords,)

    def __str__(self):
        pieces = []
        for c, label in zip(self.coords, _EXT_LABELS):
            if c == 0:
                continue
            if label:
                body = label if abs(c) == 1 else "%s*%s" % (abs(c), label)
            else:
                body = str(abs(c))
            pieces.append(("-" if c < 0 else "+", body))
        return _join_signed(pieces)


def _join_signed(pieces) -> str:
    """Render (sign, body) pairs as "a + b - c"; "0" when there are none."""
    if not pieces:
        return "0"
    first_sign, first_body = pieces[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in pieces[1:]:
        out += " %s %s" % (sign, body)
    return out


def _ext(num: tuple, den: int) -> ExtScalar:
    """ExtScalar from integer numerators over a positive denominator that
    already share no common factor."""
    out = object.__new__(ExtScalar)
    out._num = num
    out._den = den
    return out


def _reduced(num: tuple, den: int) -> ExtScalar:
    """ExtScalar from integer numerators over a positive denominator."""
    g = math.gcd(den, *num)
    if g != 1:
        num = tuple(n // g for n in num)
        den //= g
    return _ext(num, den)


def _int_mul(a: tuple, b: tuple) -> tuple:
    """Product of two integer coordinate vectors on (1, sqrt2, sqrt3, sqrt6)."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    # basis products: sqrt2*sqrt3 = sqrt6, sqrt2*sqrt6 = 2*sqrt3,
    # sqrt3*sqrt6 = 3*sqrt2
    return (
        a0 * b0 + 2 * a1 * b1 + 3 * a2 * b2 + 6 * a3 * b3,
        a0 * b1 + a1 * b0 + 3 * (a2 * b3 + a3 * b2),
        a0 * b2 + a2 * b0 + 2 * (a1 * b3 + a3 * b1),
        a0 * b3 + a3 * b0 + a1 * b2 + a2 * b1,
    )


def _norm_cofactor(num: tuple):
    """(cofactor, N) for nonzero integer coordinates ``num``: the product of
    the three nontrivial Galois conjugates of ``num`` and the integer field
    norm N = num * cofactor."""
    if not any(num):
        raise ZeroDivisionError("ExtScalar division by zero")
    n0, n1, n2, n3 = num
    cofactor = _int_mul(_int_mul((n0, -n1, n2, -n3), (n0, n1, -n2, -n3)),
                        (n0, -n1, -n2, n3))
    norm = _int_mul(num, cofactor)
    # the field norm is rational by Galois invariance
    if norm[1] or norm[2] or norm[3]:
        raise ArithmeticError("field norm came out irrational")
    if norm[0] == 0:
        raise ZeroDivisionError("ExtScalar division by zero")
    return cofactor, norm[0]


def _ext_sum(a: ExtScalar, b: ExtScalar, sign: int) -> ExtScalar:
    """a + sign * b."""
    a0, a1, a2, a3 = a._num
    b0, b1, b2, b3 = b._num
    da, db = a._den, b._den
    if sign < 0:
        b0, b1, b2, b3 = -b0, -b1, -b2, -b3
    if da != db:
        a0, a1, a2, a3 = a0 * db, a1 * db, a2 * db, a3 * db
        b0, b1, b2, b3 = b0 * da, b1 * da, b2 * da, b3 * da
        da *= db
    return _reduced((a0 + b0, a1 + b1, a2 + b2, a3 + b3), da)


SQRT2 = ExtScalar.parts(0, 1, 0, 0)
SQRT3 = ExtScalar.parts(0, 0, 1, 0)
SQRT6 = ExtScalar.parts(0, 0, 0, 1)

Scalar = Union[Fraction, ExtScalar]


def _coerce_ext(value) -> Optional[ExtScalar]:
    if isinstance(value, ExtScalar):
        return value
    if isinstance(value, (int, Fraction)):
        return ExtScalar.of(value)
    return None


def as_scalar(value) -> Scalar:
    """Coerce ints/Fractions/ExtScalars into a package scalar."""
    if isinstance(value, ExtScalar):
        return value
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError("not an exact scalar: %r" % (value,))


def scalar_div(a, b):
    """Exact a / b for any mix of int, Fraction and ExtScalar.

    Two rationals divide as Fractions; otherwise the ExtScalar operators
    promote the rational operand, if there is one.
    """
    return as_scalar(a) / as_scalar(b)


def _rational_sqrt(q: Fraction) -> Optional[Fraction]:
    if q < 0:
        return None
    num, den = q.numerator, q.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def sqrt_exact(value) -> Scalar:
    """Exact square root of a nonnegative rational, in Q(sqrt2, sqrt3).

    Succeeds when the input is r^2 * m with r rational and m in
    {1, 2, 3, 6}; raises :class:`ExactSqrtError` otherwise.  Irrational
    ExtScalar inputs are rejected (callers fall back to floating point).
    """
    v = as_scalar(value)
    if isinstance(v, ExtScalar):
        if not v.is_rational:
            raise ExactSqrtError("no exact sqrt for irrational input %s" % v)
        v = v.rational_value()
    if v < 0:
        raise ExactSqrtError("negative input %s" % v)
    for m, unit in ((1, Fraction(1)), (2, SQRT2), (3, SQRT3), (6, SQRT6)):
        r = _rational_sqrt(v / m)
        if r is not None:
            return r if m == 1 else r * unit
    raise ExactSqrtError("sqrt of %s is outside Q(sqrt2, sqrt3)" % v)


# ---------------------------------------------------------------------------
# JSON codecs for scalars
# ---------------------------------------------------------------------------


def scalar_to_json(value):
    value = as_scalar(value)
    if isinstance(value, ExtScalar):
        if not value.is_rational:
            return [str(c) for c in value.coords]
        value = value.rational_value()
    return str(value)


class ParseError(ValueError):
    """Structurally malformed input (not a domain violation)."""


def _bad_literal(kind: str, data, reason: str = "") -> ParseError:
    """Error naming a rejected literal, and the reason when one is given.
    A long literal is cut short and its length given, with Python's limit
    on the digits of an int parsed from a string when one of its digit
    runs exceeds that limit."""
    text = repr(data)
    if len(text) <= 40:
        return ParseError("bad %s %s%s" % (kind, text, reason))
    limit = _int_digit_limit()
    over = limit and any(len(run) > limit
                         for run in re.findall(r"\d+", str(data)))
    return ParseError("bad %s %s... (%d characters%s)%s" % (
        kind, text[:40], len(str(data)),
        "; an integer may have at most %d digits" % limit if over else "",
        reason))


def _int_digit_limit() -> int:
    """Python's limit on the digits of an int parsed from a string; 0 if
    this interpreter has none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


#: the decimal exponent of a literal such as "1.5e-3", as ``Fraction`` reads it
_EXPONENT = re.compile(r"e[-+]?([\d_]+)\s*\Z", re.IGNORECASE)


def _rational_from_json(data) -> Fraction:
    if type(data) is bool:          # Fraction(True) would read it as 1
        raise _bad_literal("rational literal", data)
    # "1e5000" is a 5001-digit integer: the exponent is capped at the digit
    # limit (Python's default of 4300 where there is none) before Fraction
    # builds the number
    found = _EXPONENT.search(data) if isinstance(data, str) else None
    if found:
        cap = _int_digit_limit() or 4300
        digits = found.group(1).replace("_", "").lstrip("0")
        if len(digits) > len(str(cap)) or int(digits or 0) > cap:
            raise _bad_literal("rational literal", data,
                               ": an exponent may be at most %d" % cap)
    try:
        return Fraction(data)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise _bad_literal("rational literal", data) from exc


def int_from_json(data) -> int:
    """A JSON integer (not a boolean) or a string of decimal digits."""
    if type(data) is int:
        return data
    if isinstance(data, str) and re.fullmatch(r"[0-9]+", data):
        try:
            return int(data)
        except ValueError as exc:       # more digits than Python parses
            raise _bad_literal("integer", data) from exc
    raise _bad_literal("integer", data)


def scalar_from_json(data) -> Scalar:
    if isinstance(data, (str, int)):
        return _rational_from_json(data)
    if isinstance(data, list) and len(data) == 4:
        return ExtScalar(tuple(_rational_from_json(c) for c in data))
    raise ParseError("bad scalar encoding: %r" % (data,))


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

_VAR_NAMES = {1: ("x",), 2: ("x", "y"), 3: ("x", "y", "z"), 4: ("x", "y", "z", "w")}


def var_names(nvars: int) -> tuple:
    if nvars in _VAR_NAMES:
        return _VAR_NAMES[nvars]
    return tuple("x%d" % (i + 1) for i in range(nvars))


def term_sort_key(exps: tuple):
    """Canonical term order: by total degree, then by exponent pattern.

    Within a fixed degree the first variable dominates, so the degree-3
    monomials on (x, y, z) enumerate as x^3, x^2y, x^2z, xy^2, xyz, xz^2,
    y^3, y^2z, yz^2, z^3.
    """
    return (-sum(exps), tuple(-e for e in exps))


class Polynomial:
    """Sparse exact polynomial in ``nvars`` variables.

    Terms map exponent tuples to nonzero scalars.  Instances are treated
    as immutable; all operations return fresh polynomials.  Every
    polynomial is stored on one form (D, T) (see the module docstring),
    and ``terms`` is the Fraction view of a rational one, built on first
    read.
    """

    __slots__ = ("nvars", "_form", "_rational", "_terms")

    def __new__(cls, nvars: int, terms: Optional[dict] = None):
        clean = {}
        for exps, coef in (terms or {}).items():
            exps = tuple(map(int, exps))
            if len(exps) != nvars or min(exps, default=0) < 0:
                raise ValueError("bad exponent tuple %r" % (exps,))
            if type(coef) is not int and type(coef) is not Fraction:
                coef = as_scalar(coef)
            if coef:
                clean[exps] = coef
        return cls._of_form(nvars, 1, clean, False)

    def __getnewargs__(self):
        # copy and pickle rebuild the slots on Polynomial(nvars)
        return (self.nvars,)

    @classmethod
    def _of_form(cls, nvars: int, den: int, vals: dict,
                 rational: bool = True) -> "Polynomial":
        """vals / den for a positive den, on the canonical form: the one
        normalisation.  The values are ints when ``rational`` is true,
        and otherwise any mix of ints, Fractions and ExtScalars.  Zero
        entries are dropped; scalars are divided by den, and go back on
        ints once no ExtScalar is among them; int numerators and den are
        divided by their gcd."""
        self = object.__new__(cls)
        self.nvars, self._rational, self._terms = nvars, rational, None
        if 0 in vals.values():
            vals = {e: v for e, v in vals.items() if v}
        if not rational:
            if any(type(v) is ExtScalar for v in vals.values()):
                vals = {e: _over(v, den) for e, v in vals.items()}
                self._form, self._terms = (1, vals), vals
                return self
            # ints and Fractions: no Fraction is built for an int
            d, ints = _scaled_row(vals.values())
            den, vals, self._rational = den * d, dict(zip(vals, ints)), True
        if den != 1:
            g = math.gcd(den, *vals.values())
            if g != 1:
                den //= g
                vals = {e: v // g for e, v in vals.items()}
        self._form = (den, vals)
        return self

    @property
    def terms(self) -> dict:
        if self._terms is None:
            den, ints = self._form
            self._terms = {e: Fraction(v, den) for e, v in ints.items()}
        return self._terms

    def integer_form(self):
        """(D, {exps: int}) when every coefficient is a Fraction, else None."""
        return self._form if self._rational else None

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls._of_form(nvars, 1, {})

    @classmethod
    def constant(cls, nvars: int, value) -> "Polynomial":
        if type(value) is int or type(value) is Fraction:
            return cls._of_form(nvars, value.denominator,
                                {(0,) * nvars: value.numerator})
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Polynomial":
        exps = [0] * nvars
        exps[index] = 1
        return cls._of_form(nvars, 1, {tuple(exps): 1})

    @classmethod
    def monomial(cls, nvars: int, exps: Sequence[int], coef=1) -> "Polynomial":
        return cls(nvars, {tuple(exps): coef})

    @classmethod
    def linear(cls, coeffs: Sequence) -> "Polynomial":
        """The linear form sum_j coeffs[j] x_j in len(coeffs) variables."""
        n = len(coeffs)
        return cls(n, dict(zip(_unit_exponents(n), coeffs)))

    # -- queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._form[1]

    def coeff(self, exps: Sequence[int]):
        den, vals = self._form
        return _over(vals.get(tuple(exps), 0), den)

    def degree(self) -> int:
        return max(map(sum, self._form[1]), default=0)

    def is_homogeneous(self, d: int) -> bool:
        return all(sum(e) == d for e in self._form[1])

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
        # a / d + b / e over lcm(d, e), directly when the denominators agree
        (d, a), (e, b) = self._form, other._form
        den = d if d == e else math.lcm(d, e)
        s, t = den // d, den // e
        terms = dict(a) if s == 1 else {x: v * s for x, v in a.items()}
        for x, v in b.items():
            if t != 1:
                v = v * t
            cur = terms.get(x)
            terms[x] = v if cur is None else cur + v
        return Polynomial._of_form(self.nvars, den, terms,
                                   self._rational and other._rational)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        den, vals = self._form
        return Polynomial._of_form(self.nvars, den,
                                   {e: -v for e, v in vals.items()},
                                   self._rational)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._require_same_arity(other)
            # (P / D)(Q / E) = (P Q) / (D E)
            (d, a), (e, b) = self._form, other._form
            terms: dict = {}
            for e1, c1 in a.items():
                for e2, c2 in b.items():
                    key = tuple(map(operator.add, e1, e2))
                    c = c1 * c2
                    cur = terms.get(key)
                    terms[key] = c if cur is None else cur + c
            return Polynomial._of_form(self.nvars, d * e, terms,
                                       self._rational and other._rational)
        if type(other) is not int and type(other) is not Fraction:
            try:
                other = as_scalar(other)
            except TypeError:
                return NotImplemented
        # (P / D) (p / q) = (p P) / (D q); an ExtScalar is p over q = 1
        ext = type(other) is ExtScalar
        p, q = (other, 1) if ext else (other.numerator, other.denominator)
        den, vals = self._form
        return Polynomial._of_form(self.nvars, den * q,
                                   {e: p * v for e, v in vals.items()},
                                   self._rational and not ext)

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
        if self.nvars != other.nvars:
            return False
        if self._rational is not other._rational:
            # a rational ExtScalar coefficient equals its Fraction twin
            return self.terms == other.terms
        return self._form == other._form

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- calculus -----------------------------------------------------

    def diff(self, index: int) -> "Polynomial":
        den, vals = self._form
        # distinct exponents stay distinct once one entry drops by one
        return Polynomial._of_form(self.nvars, den, {
            exps[:index] + (exps[index] - 1,) + exps[index + 1:]:
                v * exps[index]
            for exps, v in vals.items() if exps[index]}, self._rational)

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
        n = self.nvars
        subs = _linear_forms(m)
        (den, vals), one = self._form, (0,) * n
        terms = [(exps, Polynomial._of_form(n, den, {one: v}, self._rational))
                 for exps, v in vals.items()]
        # cache powers of the substituted linear forms
        powers = [{0: Polynomial.constant(n, 1)} for _ in range(n)]

        def power(i, e):
            cache = powers[i]
            while e not in cache:
                top = max(cache)
                cache[top + 1] = cache[top] * subs[i]
            return cache[e]

        out = Polynomial.zero(n)
        for exps, term in terms:
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


def _over(v, den: int) -> Scalar:
    """v / den as a package scalar, for an int, Fraction or ExtScalar v
    and an int den > 0."""
    if type(v) is ExtScalar:
        return v if den == 1 else _reduced(v._num, v._den * den)
    return v if den == 1 and type(v) is Fraction else Fraction(v, den)


def _unit_exponents(n: int) -> tuple:
    """The exponent tuples of x_1, ..., x_n."""
    return tuple(tuple(1 if k == j else 0 for k in range(n)) for j in range(n))


def _linear_forms(m: "Matrix") -> list:
    """The linear forms sum_j M[i][j] x_j, one per row."""
    n, (den, flat), units = m.n, m._form, _unit_exponents(m.n)
    return [Polynomial._of_form(n, den, dict(zip(units, flat[k:k + n])),
                                m._rational)
            for k in range(0, n * n, n)]


def apply_matrix_derivation(m: "Matrix", p: Polynomial) -> Polynomial:
    """Derivative of p along the linear vector field x -> M x."""
    if m.n != p.nvars:
        raise ValueError("matrix size %d does not match arity %d" % (m.n, p.nvars))
    out = Polynomial.zero(p.nvars)
    for i, form in enumerate(_linear_forms(m)):
        pi = p.diff(i)
        if not pi.is_zero():
            out = out + form * pi
    return out


def quadratic_form_poly(m: "Matrix") -> Polynomial:
    """The quadratic polynomial x^T M x = sum_ij M_ij x_i x_j."""
    n, (den, flat) = m.n, m._form
    terms = {}
    for k, v in enumerate(flat):
        if v:
            exps = [0] * n
            exps[k // n] += 1
            exps[k % n] += 1
            key = tuple(exps)
            cur = terms.get(key)
            terms[key] = v if cur is None else cur + v
    return Polynomial._of_form(n, den, terms, m._rational)


def gram_of_quadratic(p: Polynomial) -> "Matrix":
    """Symmetric Gram matrix A with p = (A x, x), for homogeneous quadratics."""
    if not p.is_homogeneous(2):
        raise ValueError("not a homogeneous quadratic: %s" % p)
    n = p.nvars
    rows = [[Fraction(0)] * n for _ in range(n)]
    for exps, coef in p.terms.items():
        support = [i for i, e in enumerate(exps) if e]
        if len(support) == 1:
            i = support[0]
            rows[i][i] = coef
        else:
            i, j = support
            half = scalar_div(coef, 2)
            rows[i][j] = half
            rows[j][i] = half
    return Matrix(rows)


# ---------------------------------------------------------------------------
# matrices and vectors
# ---------------------------------------------------------------------------


def vec(values: Iterable) -> tuple:
    return tuple(as_scalar(v) for v in values)


def cross3(u: Sequence, v: Sequence) -> tuple:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


class Matrix:
    """Square matrix with exact scalar entries, stored on one form (D, M);
    ``rows`` is a view of it, built on first read."""

    __slots__ = ("n", "_form", "_rational", "_rows")

    def __init__(self, rows: Sequence[Sequence]):
        rows = tuple(tuple(as_scalar(v) for v in row) for row in rows)
        if any(len(row) != len(rows) for row in rows):
            raise ValueError("matrix must be square")
        m = Matrix._trusted(rows)
        # the rows given are the view: no Fraction is rebuilt
        self.n, self._form, self._rational, self._rows = (
            m.n, m._form, m._rational, rows)

    @classmethod
    def _trusted(cls, rows) -> "Matrix":
        """Square rows of package scalars computed from matrices."""
        flat = [v for row in rows for v in row]
        return cls._of_form(math.isqrt(len(flat)), 1, flat, False)

    @classmethod
    def _of_form(cls, n: int, den: int, vals, rational: bool = True) -> "Matrix":
        """vals / den, row by row, on the canonical form: the one
        normalisation.  The values are ints when ``rational`` is true, and
        otherwise any mix of ints, Fractions and ExtScalars."""
        self = object.__new__(cls)
        self.n, self._rows, self._rational = n, None, True
        if not rational:
            if any(type(v) is ExtScalar for v in vals):
                self._form = (1, tuple([_over(v, den) for v in vals]))
                self._rational = False
                return self
            d, vals = _scaled_row(vals)
            den *= d
        g = math.gcd(den, *vals)
        if den < 0:
            g = -g
        if g != 1:
            den //= g
            vals = [v // g for v in vals]
        self._form = (den, tuple(vals))
        return self

    @property
    def rows(self) -> tuple:
        if self._rows is None:
            n, (den, vals) = self.n, self._form
            if self._rational:
                vals = [Fraction(v, den) for v in vals]
            self._rows = tuple(tuple(vals[k:k + n]) for k in range(0, n * n, n))
        return self._rows

    def integer_form(self):
        """(D, M) when every entry is a Fraction, else None."""
        return self._form if self._rational else None

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, n: int) -> "Matrix":
        return cls([[0] * n for _ in range(n)])

    @classmethod
    def diagonal(cls, values: Sequence) -> "Matrix":
        n = len(values)
        return cls([[values[i] if i == j else 0 for j in range(n)] for i in range(n)])

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self._rational is not other._rational:
            # a rational ExtScalar entry equals its Fraction twin
            return self.rows == other.rows
        return self._form == other._form

    def __hash__(self):
        return hash(self.rows)

    def __add__(self, other):
        if not isinstance(other, Matrix) or other.n != self.n:
            return NotImplemented
        return self._form_sum(other, operator.add)

    def __sub__(self, other):
        if not isinstance(other, Matrix) or other.n != self.n:
            return NotImplemented
        return self._form_sum(other, operator.sub)

    def _form_sum(self, other: "Matrix", op) -> "Matrix":
        """A / D op B / E over lcm(D, E), directly when D = E."""
        (d, a), (e, b) = self._form, other._form
        den = d if d == e else math.lcm(d, e)
        if den != d:
            a = [den // d * x for x in a]
        if den != e:
            b = [den // e * y for y in b]
        return Matrix._of_form(self.n, den, list(map(op, a, b)),
                               self._rational and other._rational)

    def __neg__(self):
        den, vals = self._form
        return Matrix._of_form(self.n, den, [-v for v in vals], self._rational)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if other.n != self.n:
                raise ValueError("size mismatch")
            # (A/D)(B/E) = (A B) / (D E)
            (d, a), (e, b), n = self._form, other._form, self.n
            cols = [b[j::n] for j in range(n)]
            return Matrix._of_form(n, d * e, [
                sum(map(operator.mul, a[k:k + n], col))
                for k in range(0, n * n, n) for col in cols],
                self._rational and other._rational)
        return NotImplemented

    def scaled(self, c) -> "Matrix":
        c = as_scalar(c)
        # (M / D) (p / q) = (p M) / (D q); an ExtScalar is p over q = 1
        ext = type(c) is ExtScalar
        p, q = (c, 1) if ext else (c.numerator, c.denominator)
        den, vals = self._form
        return Matrix._of_form(self.n, den * q, [p * v for v in vals],
                               self._rational and not ext)

    def apply(self, v: Sequence) -> tuple:
        n, (den, vals) = self.n, self._form
        if len(v) != n:
            raise ValueError("size mismatch")
        if self._rational and all(type(x) is Fraction for x in v):
            # (M/D)(w/e) = (M w) / (D e) on integer rows M and vector w
            e, w = _scaled_row(v)
            return tuple(Fraction(sum(map(operator.mul, vals[k:k + n], w)), den * e)
                         for k in range(0, n * n, n))
        return tuple(_over(sum(map(operator.mul, vals[k:k + n], v)), den)
                     for k in range(0, n * n, n))

    def transpose(self) -> "Matrix":
        n, (den, vals) = self.n, self._form
        return Matrix._of_form(n, den, [v for j in range(n) for v in vals[j::n]],
                               self._rational)

    def column(self, j: int) -> tuple:
        return tuple(row[j] for row in self.rows)

    def trace(self):
        den, vals = self._form
        return _over(sum(vals[::self.n + 1]), den)

    def det(self):
        n, (den, vals) = self.n, self._form
        # det(M / D) = det(M) / D^n
        if n == 1:
            return _over(vals[0], den)
        if n == 2:
            a, b, c, d = vals
            return _over(a * d - b * c, den ** 2)
        if n == 3:
            a, b, c, d, e, f, g, h, i = vals
            return _over(a * (e * i - f * h) - b * (d * i - f * g)
                         + c * (d * h - e * g), den ** 3)
        # Laplace expansion along the first row (matrices here are tiny)
        total = Fraction(0)
        for j in range(self.n):
            if not self.rows[0][j]:
                continue
            minor = Matrix([
                [row[k] for k in range(self.n) if k != j]
                for row in self.rows[1:]
            ])
            term = self.rows[0][j] * minor.det()
            total = total + (term if j % 2 == 0 else -term)
        return total

    def inverse(self) -> "Matrix":
        n = self.n
        if n == 3 and self._rational:
            # (M/D)^-1 = D adj(M) / det(M)
            den, (a, b, c, d, e, f, g, h, i) = self._form
            adj = (e * i - f * h, c * h - b * i, b * f - c * e,
                   f * g - d * i, a * i - c * g, c * d - a * f,
                   d * h - e * g, b * g - a * h, a * e - b * d)
            det = a * adj[0] + b * adj[3] + c * adj[6]
            if not det:
                raise ZeroDivisionError("singular matrix")
            return Matrix._of_form(3, det, [den * x for x in adj])
        work = [list(row) + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
                for i, row in enumerate(self.rows)]
        for col in range(n):
            pivot = next(
                (r for r in range(col, n) if work[r][col]), None
            )
            if pivot is None:
                raise ZeroDivisionError("singular matrix")
            work[col], work[pivot] = work[pivot], work[col]
            pv = work[col][col]
            work[col] = [scalar_div(v, pv) for v in work[col]]
            for r in range(n):
                if r == col:
                    continue
                factor = work[r][col]
                if not factor:
                    continue
                work[r] = [a - factor * b for a, b in zip(work[r], work[col])]
        return Matrix._trusted(row[n:] for row in work)

    def is_symmetric(self) -> bool:
        n, vals = self.n, self._form[1]
        return all(vals[i::n] == vals[i * n:i * n + n] for i in range(n))

    def is_skew(self) -> bool:
        n, vals = self.n, self._form[1]
        return all(vals[i::n] == tuple(-v for v in vals[i * n:i * n + n])
                   for i in range(n))

    def is_zero(self) -> bool:
        return not any(self._form[1])

    def is_diagonal(self) -> bool:
        # the diagonal entries are those at multiples of n + 1
        return not any(v for k, v in enumerate(self._form[1]) if k % (self.n + 1))

    def __repr__(self):
        return "Matrix(%s)" % (list(list(r) for r in self.rows),)

    def to_json(self):
        return [[scalar_to_json(v) for v in row] for row in self.rows]

    @classmethod
    def from_json(cls, data) -> "Matrix":
        return cls([[scalar_from_json(v) for v in row] for row in data])


# ---------------------------------------------------------------------------
# linear systems
# ---------------------------------------------------------------------------


@dataclass
class SolutionSpace:
    """Affine solution set of a linear system.

    ``particular`` is None exactly when the system is inconsistent; the
    zero-dimensional space {v} has a particular point and empty basis.
    The solver canonicalizes: the particular solution has zeros in all
    free coordinates, and each basis vector has a single free coordinate
    set to one.
    """

    ambient_dim: int
    particular: Optional[tuple]
    basis: tuple

    @property
    def is_empty(self) -> bool:
        return self.particular is None

    @property
    def dim(self) -> int:
        if self.is_empty:
            raise ValueError("empty solution space has no dimension")
        return len(self.basis)

    def is_zero_space(self) -> bool:
        return (not self.is_empty) and not self.basis and not any(self.particular)

    def direction_in_span(self, v: Sequence) -> bool:
        if self.is_empty:
            return False
        if not self.basis:
            return not any(v)
        rows = [[b[i] for b in self.basis] for i in range(self.ambient_dim)]
        return not solve_linear(rows, list(v)).is_empty

    def contains(self, v: Sequence) -> bool:
        if self.is_empty:
            return False
        return self.direction_in_span(
            tuple(a - b for a, b in zip(v, self.particular)))

    def same_space(self, other: "SolutionSpace") -> bool:
        """Exact equality of the two affine sets."""
        if self.is_empty or other.is_empty:
            return self.is_empty and other.is_empty
        if self.ambient_dim != other.ambient_dim or self.dim != other.dim:
            return False
        if not self.contains(other.particular):
            return False
        return all(self.direction_in_span(b) for b in other.basis)


def solve_linear(rows: Sequence[Sequence], rhs: Sequence,
                 ncols: Optional[int] = None) -> SolutionSpace:
    """Solve M x = b exactly, returning the full affine solution set.

    Forward elimination is fraction-free in the Bareiss style, on ints for
    a rational system and on integer coordinates in Z[sqrt2, sqrt3] for a
    system with an :class:`ExtScalar` entry (see the module docstring);
    one loop serves both, with a per-row update and a per-pivot divisor
    for each.  Back substitution returns Fractions for a rational system.
    """
    m = len(rows)
    if ncols is None:
        if m == 0:
            raise ValueError("cannot infer column count from an empty system")
        ncols = len(rows[0])
    aug, on_ints = [], []
    for i in range(m):
        row = list(rows[i])
        if len(row) != ncols:
            raise ValueError("ragged system")
        row.append(rhs[i])
        # a row that is already all ints needs no coercion and no scaling
        ints = all(type(v) is int for v in row)
        aug.append(row if ints else [as_scalar(v) for v in row])
        on_ints.append(ints)

    # ``update`` runs the Bareiss step on the tail of a row, dividing by
    # the previous pivot as ``divisor`` prepared it; ``prev`` starts as 1
    field = any(isinstance(v, ExtScalar) for row in aug for v in row)
    if field:
        aug = [_ring_row(row) for row in aug]
        zero, prev, update, divisor = (_RING_ZERO, _RING_ONE, _ring_update,
                                       _norm_cofactor)
    else:
        aug = [row if ints else _scaled_row(row)[1]
               for row, ints in zip(aug, on_ints)]
        # an int pivot is its own divisor
        zero, prev, update, divisor = 0, 1, _int_update, int

    pivots = []  # (row, col)
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, m) if aug[i][c] != zero), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        pivot_row = aug[r]
        pivot = pivot_row[c]
        for i in range(r + 1, m):
            row = aug[i]
            row[c:] = update(pivot, row[c], row[c:], pivot_row[c:], prev)
        prev = divisor(pivot)
        pivots.append((r, c))
        r += 1
    if field:
        aug = [[_ext(t, 1) for t in row] for row in aug]

    for i in range(r, m):
        if aug[i][ncols]:
            return SolutionSpace(ncols, None, ())

    pivot_cols = [c for (_, c) in pivots]
    free_cols = [c for c in range(ncols) if c not in pivot_cols]

    def back_substitute(free_values: dict, homogeneous: bool) -> tuple:
        x = [Fraction(0)] * ncols
        for c, v in free_values.items():
            x[c] = as_scalar(v)
        for (pr_i, pc) in reversed(pivots):
            acc = Fraction(0) if homogeneous else aug[pr_i][ncols]
            for j in range(pc + 1, ncols):
                if aug[pr_i][j] and x[j]:
                    acc = acc - aug[pr_i][j] * x[j]
            x[pc] = scalar_div(acc, aug[pr_i][pc])
        return tuple(x)

    particular = back_substitute({}, homogeneous=False)
    basis = tuple(
        back_substitute({fc: 1}, homogeneous=True) for fc in free_cols
    )
    return SolutionSpace(ncols, particular, basis)


def _scaled_row(row):
    """(d, ints) with ints = d * row and d the lcm of row's denominators."""
    den = math.lcm(*(v.denominator for v in row))
    return den, [v.numerator * (den // v.denominator) for v in row]


def _exact_int_div(a: int, b: int) -> int:
    """a / b for ints that Bareiss elimination guarantees to divide."""
    q, rem = divmod(a, b)
    if rem:
        raise ArithmeticError("inexact Bareiss division %d / %d" % (a, b))
    return q


def _int_update(pivot, factor, row, pivot_row, prev):
    """(pivot*a - factor*b) / prev for a in row, b in pivot_row, with
    ``_exact_int_div`` inline: this runs once per Bareiss cell."""
    out = []
    for a, b in zip(row, pivot_row):
        q, rem = divmod(pivot * a - factor * b, prev)
        if rem:
            raise ArithmeticError("inexact Bareiss division %d / %d"
                                  % (pivot * a - factor * b, prev))
        out.append(q)
    return out


_RING_ZERO = (0, 0, 0, 0)
#: 1 as ``_norm_cofactor`` prepares a divisor: (cofactor, norm)
_RING_ONE = ((1, 0, 0, 0), 1)


def _ring_row(row):
    """Integer coordinates in Z[sqrt2, sqrt3] of row times the lcm of its
    denominators, one 4-tuple on (1, sqrt2, sqrt3, sqrt6) per entry."""
    parts = [(v._num, v._den) if isinstance(v, ExtScalar)
             else ((v.numerator, 0, 0, 0), v.denominator) for v in row]
    den = math.lcm(*(d for _, d in parts))
    return [tuple([c * (den // d) for c in num]) for num, d in parts]


def _ring_update(pivot, factor, row, pivot_row, prev):
    """``_int_update`` on coordinate 4-tuples, with prev = (cofactor, N) of
    the previous pivot p: each cross product is multiplied by p's
    cofactor and every coordinate divided by the integer norm N."""
    cofactor, norm = prev
    out = []
    for a, b in zip(row, pivot_row):
        if a == _RING_ZERO and factor == _RING_ZERO:
            out.append(a)           # most cells of the sparse catalog systems
            continue
        p0, p1, p2, p3 = _int_mul(pivot, a)
        q0, q1, q2, q3 = _int_mul(factor, b)
        out.append(tuple([
            _exact_int_div(x, norm) for x in
            _int_mul((p0 - q0, p1 - q1, p2 - q2, p3 - q3), cofactor)]))
    return out


def congruent_diagonalize(a: Matrix, rng=None):
    """Lagrange congruence: returns (R, d) with R^T A R = diag(d) exactly.

    A must be symmetric.  With ``rng`` given, admissible pivots are chosen
    at random (used to check that signature counts are order-independent);
    otherwise pivot selection is deterministic by index.
    """
    if not a.is_symmetric():
        raise ValueError("matrix is not symmetric")
    n = a.n
    b = [list(row) for row in a.rows]
    r = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]

    def add_col(dst, src, factor):
        # column operation plus the mirrored row operation keeps symmetry
        for i in range(n):
            b[i][dst] = b[i][dst] + factor * b[i][src]
        for j in range(n):
            b[dst][j] = b[dst][j] + factor * b[src][j]
        for i in range(n):
            r[i][dst] = r[i][dst] + factor * r[i][src]

    def swap_cols(i, j):
        for row in b:
            row[i], row[j] = row[j], row[i]
        b[i], b[j] = b[j], b[i]
        for row in r:
            row[i], row[j] = row[j], row[i]

    for k in range(n):
        candidates = [i for i in range(k, n) if b[i][i]]
        if not candidates:
            off = [
                (i, j)
                for i in range(k, n) for j in range(i + 1, n)
                if b[i][j]
            ]
            if not off:
                break  # the rest of the form is zero
            if rng is not None:
                i, j = off[rng.randrange(len(off))]
            else:
                i, j = off[0]
            add_col(i, j, Fraction(1))
            candidates = [i]
        if rng is not None:
            p = candidates[rng.randrange(len(candidates))]
        else:
            p = candidates[0]
        if p != k:
            swap_cols(k, p)
        pivot = b[k][k]
        for j in range(k + 1, n):
            if b[k][j]:
                add_col(j, k, scalar_div(-b[k][j], pivot))

    return Matrix(r), tuple(b[i][i] for i in range(n))
