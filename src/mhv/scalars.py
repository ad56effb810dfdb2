"""Exact scalar arithmetic: the field Q(e) of rational functions in one
formal parameter e over arbitrary-precision rationals.

A Scalar is a fraction num/den of univariate polynomials over Q, kept in a
unique canonical form:

  * gcd(num, den) = 1 over Q[e],
  * den has integer coefficients with content 1 ("primitive"),
  * the leading coefficient of den is positive.

With those three constraints the representative of every value is unique,
so equality (and in particular equality to zero) is a plain structural
comparison.  The parameter e itself and its inverse 1/e are both ordinary
Scalars; no special-casing is needed anywhere downstream.

Polynomials are coefficient tuples of Fraction, lowest degree first, with
no trailing zeros; () is the zero polynomial.  Rational numbers are
fractions.Fraction throughout (exact, arbitrary precision).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd
from typing import Union

RationalLike = Union[int, Fraction]


class ScalarError(ArithmeticError):
    """Base class for scalar arithmetic failures."""


class ScalarDivisionError(ScalarError):
    """Division by the zero scalar."""


class PoleError(ScalarError):
    """Evaluation at a point where the denominator vanishes."""


class ZeroEpsilonError(ScalarError):
    """Evaluation at e = 0, which is outside the admissible parameter range."""


# ---------------------------------------------------------------------------
# polynomial helpers (coefficient tuples of Fraction, ascending degree)
# ---------------------------------------------------------------------------

PZERO: tuple = ()
PONE = (Fraction(1),)


def ptrim(coeffs) -> tuple:
    """Drop trailing zero coefficients."""
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def padd(a: tuple, b: tuple) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return ptrim(out)


def pneg(a: tuple) -> tuple:
    return tuple(-c for c in a)


def pmul(a: tuple, b: tuple) -> tuple:
    if not a or not b:
        return PZERO
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return ptrim(out)


def pscale(a: tuple, r: Fraction) -> tuple:
    if r == 0:
        return PZERO
    return tuple(c * r for c in a)


def pdivmod(a: tuple, b: tuple) -> tuple:
    """Exact polynomial division with remainder; b must be nonzero."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    db, lb = len(b) - 1, b[-1]
    quo = [Fraction(0)] * max(len(a) - db, 0)
    while len(rem) - 1 >= db and any(c != 0 for c in rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < db:
            break
        shift = len(rem) - 1 - db
        q = rem[-1] / lb
        quo[shift] = q
        for i, c in enumerate(b):
            rem[shift + i] -= q * c
        rem.pop()
    return ptrim(quo), ptrim(rem)


def pgcd(a: tuple, b: tuple) -> tuple:
    """Monic gcd over Q[e]; gcd of two zero polynomials is zero."""
    while b:
        a, b = b, pdivmod(a, b)[1]
    if not a:
        return PZERO
    lead = a[-1]
    if lead == 1:
        return a
    return tuple(c / lead for c in a)


def peval(a: tuple, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def prender(a: tuple) -> str:
    """Deterministic rendering, ascending degree, e.g. "1+3*e" or "-1+e^2"."""
    if not a:
        return "0"
    parts = []
    for deg, c in enumerate(a):
        if c == 0:
            continue
        mag = -c if c < 0 else c
        if deg == 0:
            body = str(mag)
        else:
            power = "e" if deg == 1 else f"e^{deg}"
            body = power if mag == 1 else f"{mag}*{power}"
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+" if c > 0 else "-") + body)
    return "".join(parts)


def _primitive_factor(den: tuple) -> Fraction:
    """Rational t such that t*den is primitive over Z with positive lead."""
    lcm = 1
    for c in den:
        if c != 0:
            lcm = lcm * c.denominator // _int_gcd(lcm, c.denominator)
    content = 0
    for c in den:
        content = _int_gcd(content, abs(c.numerator * (lcm // c.denominator)))
    t = Fraction(lcm, content)
    if den[-1] < 0:
        t = -t
    return t


# ---------------------------------------------------------------------------
# the Scalar field
# ---------------------------------------------------------------------------

class Scalar:
    """An element of Q(e) in canonical form.  Immutable and hashable."""

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: tuple, den: tuple, _canonical: bool = False):
        if not _canonical:
            num, den = _canonicalize(num, den)
        self.num = num
        self.den = den
        self._hash = hash((num, den))

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_rational(r: RationalLike) -> "Scalar":
        r = Fraction(r)
        if r == 0:
            return ZERO
        return Scalar((r,), PONE, _canonical=True)

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_rational(self) -> bool:
        return len(self.num) <= 1 and self.den == PONE

    def as_rational(self) -> Fraction:
        """The value as a plain rational; only valid when is_rational()."""
        if not self.is_rational():
            raise ValueError(f"scalar {self} is not a plain rational")
        return self.num[0] if self.num else Fraction(0)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Scalar") -> "Scalar":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.den == PONE and other.den == PONE and len(self.num) == 1 \
                and len(other.num) == 1:
            return Scalar.from_rational(self.num[0] + other.num[0])
        if self.den == other.den:
            return Scalar(padd(self.num, other.num), self.den)
        num = padd(pmul(self.num, other.den), pmul(other.num, self.den))
        return Scalar(num, pmul(self.den, other.den))

    def __neg__(self) -> "Scalar":
        if self.is_zero():
            return self
        return Scalar(pneg(self.num), self.den, _canonical=True)

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + (-other)

    def __mul__(self, other: "Scalar") -> "Scalar":
        if self.is_zero() or other.is_zero():
            return ZERO
        if self.den == PONE and other.den == PONE and len(self.num) == 1 \
                and len(other.num) == 1:
            return Scalar.from_rational(self.num[0] * other.num[0])
        return Scalar(pmul(self.num, other.num), pmul(self.den, other.den))

    def __truediv__(self, other: "Scalar") -> "Scalar":
        if other.is_zero():
            raise ScalarDivisionError("division by the zero scalar")
        if self.is_zero():
            return ZERO
        return Scalar(pmul(self.num, other.den), pmul(self.den, other.num))

    # -- evaluation ---------------------------------------------------------

    def eval_at(self, eps_value: RationalLike) -> Fraction:
        """Exact value at e = eps_value; eps_value must be a nonzero rational
        that is not a root of the denominator."""
        x = Fraction(eps_value)
        if x == 0:
            raise ZeroEpsilonError("evaluation at e = 0 is not admissible")
        d = peval(self.den, x)
        if d == 0:
            raise PoleError(f"pole of {self} at e = {x}")
        return peval(self.num, x) / d

    # -- comparison / rendering ---------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Scalar) and self.num == other.num \
            and self.den == other.den

    def __hash__(self) -> int:
        return self._hash

    def render(self) -> str:
        if self.den == PONE:
            return prender(self.num)
        return f"({prender(self.num)})/({prender(self.den)})"

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"Scalar({self.render()})"


def _canonicalize(num: tuple, den: tuple) -> tuple:
    num, den = ptrim(num), ptrim(den)
    if not den:
        raise ScalarDivisionError("zero denominator")
    if not num:
        return PZERO, PONE
    if len(num) == 1 and len(den) == 1:
        return (num[0] / den[0],), PONE
    g = pgcd(num, den)
    if len(g) > 1:
        num = pdivmod(num, g)[0]
        den = pdivmod(den, g)[0]
    if len(den) == 1:
        return pscale(num, 1 / den[0]), PONE
    t = _primitive_factor(den)
    if t != 1:
        num, den = pscale(num, t), pscale(den, t)
    return num, den


ZERO = Scalar(PZERO, PONE, _canonical=True)
ONE = Scalar(PONE, PONE, _canonical=True)
EPS = Scalar((Fraction(0), Fraction(1)), PONE, _canonical=True)
EPS_INV = ONE / EPS


def sc(value: RationalLike) -> Scalar:
    """Shorthand: lift an int or Fraction into the scalar field."""
    return Scalar.from_rational(value)
