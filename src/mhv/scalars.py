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

Two operations with a nonzero rational r keep the form without
recomputing it, which is most of the arithmetic of a verification sweep:

  * r * a/b = (r*a)/b: gcd(r*a, b) = gcd(a, b) = 1 because r is a unit,
    and b is unchanged;
  * a/b + r = (a + r*b)/b: gcd(a + r*b, b) = gcd(a, b) = 1 because any
    common divisor of a + r*b and b divides a, and b is unchanged.

Every other result is canonicalised with pgcd, which runs the primitive
pseudo-remainder sequence over Z[e] (Brown, J. ACM 18(4), 1971) and
returns the monic gcd over Q.  A Scalar's hash is computed on first use.

Polynomials are coefficient tuples of Fraction, lowest degree first, with
no trailing zeros; () is the zero polynomial.  Rational numbers are
fractions.Fraction throughout (exact, arbitrary precision).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd, lcm as _int_lcm
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


def _content_free(q: list) -> tuple:
    """(g, q/g) for a nonzero list q of integers: g is the content of q,
    signed so that q/g has a positive leading coefficient."""
    g = _int_gcd(*q)
    if q[-1] < 0:
        g = -g
    return g, q if g == 1 else [c // g for c in q]


def _primitive_part(p: tuple) -> tuple:
    """(t, q) for a nonzero polynomial p: t is rational and q = t*p is a
    list of integers with content 1 and a positive leading coefficient."""
    lcm = _int_lcm(*(c.denominator for c in p))
    g, q = _content_free([c.numerator * (lcm // c.denominator) for c in p])
    return Fraction(lcm, g), q


def _pseudo_remainder(a: list, b: list) -> list:
    """A nonzero integer multiple of (a mod b) for integer lists a and b
    with len(a) >= len(b), trailing zeros trimmed."""
    r = a
    db, lb = len(b) - 1, b[-1]
    while len(r) > db:
        lr = r[-1]
        g = _int_gcd(lb, lr)
        sb, sr = lb // g, lr // g
        shift = len(r) - 1 - db
        r = [c * sb for c in r]
        for i, c in enumerate(b):
            r[shift + i] -= sr * c
        while r and r[-1] == 0:
            r.pop()
    return r


def pgcd(a: tuple, b: tuple) -> tuple:
    """Monic gcd over Q[e]; gcd of two zero polynomials is zero.

    The work runs over Z[e]: both inputs are scaled to primitive integer
    polynomials, and the pseudo-remainder sequence divides every
    remainder by its content, so coefficients stay as small as the gcd
    allows.  The monic gcd over Q is unique, so this is the same value
    that Euclid over Q gives."""
    if not a or not b:
        a = a or b
        if not a or a[-1] == 1:
            return a
        return tuple(c / a[-1] for c in a)
    a, b = _primitive_part(a)[1], _primitive_part(b)[1]
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        a, b = b, _pseudo_remainder(a, b)
        if not b:
            return tuple(Fraction(c, a[-1]) for c in a)
        b = _content_free(b)[1]
    return PONE


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
        self._hash = None

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_rational(r: RationalLike) -> "Scalar":
        if not isinstance(r, Fraction):
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
        # a nonzero rational first; PONE is the only canonical den of
        # length 1
        if len(other.num) == 1 and len(other.den) == 1:
            self, other = other, self
        if len(self.num) == 1 and len(self.den) == 1:
            r = self.num[0]
            if len(other.num) == 1 and len(other.den) == 1:
                return Scalar.from_rational(r + other.num[0])
            # r + a/b = (a + r*b)/b, canonical as it stands
            return Scalar(padd(other.num, pscale(other.den, r)), other.den,
                          _canonical=True)
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
        if len(other.num) == 1 and len(other.den) == 1:
            self, other = other, self
        if len(self.num) == 1 and len(self.den) == 1:
            r = self.num[0]
            if len(other.num) == 1 and len(other.den) == 1:
                return Scalar((r * other.num[0],), PONE, _canonical=True)
            # r * a/b = (r*a)/b, canonical as it stands
            return Scalar(pscale(other.num, r), other.den, _canonical=True)
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
        # computed on first use: most scalars are never hashed
        if self._hash is None:
            self._hash = hash((self.num, self.den))
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
    t = _primitive_part(den)[0]
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
