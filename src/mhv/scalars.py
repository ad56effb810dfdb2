"""Exact scalar arithmetic: the field Q(e) of rational functions in one
formal parameter e over arbitrary-precision rationals.

A Scalar is a fraction num/den of univariate polynomials with integer
coefficients, kept in a unique canonical form:

  * num and den have no common factor in Z[e]: no common factor of
    positive degree, and no integer > 1 divides every coefficient of both,
  * the leading coefficient of den is positive.

With those constraints the representative of every value is unique, so
equality (and in particular equality to zero) is a plain structural
comparison.  The parameter e itself and its inverse 1/e are both ordinary
Scalars; no special-casing is needed anywhere downstream.

Arithmetic cancels factors before it multiplies them (Henrici, J. ACM
3(1), 1956; Knuth, TAOCP vol. 2, 4.5.1).  For canonical a/b and c/d, with
gcd = pgcd, exact quotients and division by the integer content last:

  * (a/b)*(c/d) is (a/g1)(c/g2) over (b/g2)(d/g1) for g1 = gcd(a, d) and
    g2 = gcd(c, b), each skipped as 1 when its den is constant.  A factor
    of positive degree of both would divide one of a/g1, c/g2 and one of
    b/g2, d/g1, but each such pair is coprime;
  * a/b +- c/d, with g = gcd(b, d) (b if b == d), b = g*b', d = g*d', is
    (a*d' +- c*b') over g*b'*d'.  A factor of positive degree of that
    numerator and b' divides a*d' but not a, so d', prime to b'; likewise
    for d'.  So the common factor is gcd(numerator, g), skipped if g = 1;
  * +, - and * of two rationals are ints over an int > 0, reduced inline
    by one integer gcd and built by _make, which skips __init__.

pgcd is the primitive pseudo-remainder sequence over Z[e] (Brown, J. ACM
18(4), 1971).  A linear remainder b0 + b1*e, b1 > 0, ends it: it divides
a of degree n exactly when b1^n a(-b0/b1), the integer sum of
a_i (-b0)^i b1^(n-i), is 0.  A Scalar is false exactly when it is zero,
so `not c` tests an int or a Scalar.

Polynomials are coefficient tuples of int, lowest degree first, with no
trailing zeros; () is the zero polynomial.  Fractions (exact, arbitrary
precision) enter and leave only at the boundary: Scalar(num, den) also
accepts Fraction coefficients, clears their denominators and divides the
two polynomials with the field's own division, from_rational and
as_rational convert single rationals, and eval_at returns one Fraction
(num and den times q^degree at e = p/q, by integer Horner).  render
writes num over Q above the primitive den from ints.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd, lcm as _int_lcm
from typing import Union

RationalLike = Union[int, Fraction]
_new = object.__new__


class ScalarError(ArithmeticError):
    """Base class for scalar arithmetic failures."""


class ScalarDivisionError(ScalarError):
    """Division by the zero scalar."""


class PoleError(ScalarError):
    """Evaluation at a point where the denominator vanishes."""


class AdmissibilityError(ValueError):
    """A numeric value of e is not admissible for the requested window."""


class ZeroEpsilonError(ScalarError, AdmissibilityError):
    """e = 0, which is outside the admissible parameter range."""


def pole_error(s: int, eps, pairs) -> PoleError:
    """The PoleError of the product pairs d(m)*d(n), (m, n) in pairs, whose
    denominator 1+e*(s), s = m + n, vanishes at e = eps."""
    return PoleError(f"1+e*({s}) = 0 at e = {eps}; offending pairs: "
                     + ", ".join(f"d({m})*d({n})" for m, n in pairs))


# ---------------------------------------------------------------------------
# polynomial helpers (coefficient tuples of int, ascending degree)
# ---------------------------------------------------------------------------

PZERO: tuple = ()
PONE = (1,)


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
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return ptrim(out)


def _primitive(p) -> tuple:
    """p divided by its content, signed so that the leading coefficient is
    positive; p is a nonzero integer polynomial."""
    g = _int_gcd(*p)
    if p[-1] < 0:
        g = -g
    return tuple(p) if g == 1 else tuple(c // g for c in p)


def _pseudo_remainder(a, b) -> list:
    """A nonzero integer multiple of (a mod b) for integer polynomials a
    and b with len(a) >= len(b), trailing zeros trimmed."""
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
    """The primitive gcd of integer polynomials: their gcd over Q[e],
    scaled to content 1 and a positive leading coefficient.  The gcd of
    two zero polynomials is zero.

    The pseudo-remainder sequence divides every remainder by its
    content, so coefficients stay as small as the gcd allows."""
    if not a or not b:
        a = a or b
        return _primitive(a) if a else a
    if len(a) == 1 or len(b) == 1:
        return PONE
    if len(a) < len(b):
        a, b = b, a
    b = _primitive(b)
    while len(b) > 2:
        a, b = b, _pseudo_remainder(a, b)
        if len(b) < 2:
            return PONE if b else a
        b = _primitive(b)
    return PONE if _scaled_value(a, -b[0], b[1], len(a) - 1) else b


def _exact_quotient(a: tuple, b: tuple) -> tuple:
    """a / b for integer polynomials where b is primitive and divides a
    over Q[e].  By Gauss's lemma the quotient has integer coefficients,
    so every step of the long division divides exactly."""
    rem = list(a)
    db, lb = len(b) - 1, b[-1]
    quo = [0] * (len(a) - db)
    for shift in range(len(quo) - 1, -1, -1):
        q = quo[shift] = rem[shift + db] // lb
        for i, c in enumerate(b):
            rem[shift + i] -= q * c
    return tuple(quo)


def _scaled_value(a: tuple, p: int, q: int, degree: int) -> int:
    """q^degree * a(p/q) for an integer polynomial a of at most that
    degree, by Horner's rule over the integers."""
    value, power = 0, q ** (degree + 1 - len(a))
    for c in reversed(a):
        value, power = value * p + c * power, power * q
    return value


def prender(a: tuple, content: int = 1) -> str:
    """a / content in ascending degree, e.g. "1+3*e" or "-1/2+e^2"."""
    if not a:
        return "0"
    parts = []
    for deg, c in enumerate(a):
        if c == 0:
            continue
        mag = -c if c < 0 else c
        if content != 1:
            g = _int_gcd(mag, content)
            mag = mag // g if g == content else f"{mag // g}/{content // g}"
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
    """An element of Q(e) in canonical form.  Immutable and hashable.

    Scalar(num, den) takes coefficient sequences of int or Fraction, den
    nonzero, and stores num/den, the quotient of two polynomial Scalars."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        num, den = _integral(num, den)
        value = _make(ptrim(num), PONE) / _make(ptrim(den), PONE)
        self.num, self.den = value.num, value.den

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_rational(r: RationalLike) -> "Scalar":
        if type(r) is not int and not isinstance(r, Fraction):
            r = exact(r)  # refuses a float or a bool
        return ratio(r.numerator, r.denominator)

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        return bool(self.num)

    def is_rational(self) -> bool:
        return len(self.num) <= 1 and len(self.den) == 1

    def as_rational(self) -> Fraction:
        """The value as a plain rational; only valid when is_rational()."""
        if not self.is_rational():
            raise ValueError(f"scalar {self} is not a plain rational")
        return Fraction(self.num[0], self.den[0]) if self.num else Fraction(0)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Scalar") -> "Scalar":
        a, b, c, d = self.num, self.den, other.num, other.den
        if len(a) == len(b) == len(c) == len(d) == 1:
            n, q = a[0] * d[0] + c[0] * b[0], b[0] * d[0]
            g = _int_gcd(n, q)
            return _make((n // g,), (q // g,)) if n else ZERO
        if not a:
            return other
        if not c:
            return self
        return _sum(a, b, c, d)

    def __neg__(self) -> "Scalar":
        num = self.num
        if len(num) == 1:
            return _make((-num[0],), self.den)
        return _make(pneg(num), self.den) if num else self

    def __sub__(self, other: "Scalar") -> "Scalar":
        a, b, c, d = self.num, self.den, other.num, other.den
        if len(a) == len(b) == len(c) == len(d) == 1:
            n, q = a[0] * d[0] - c[0] * b[0], b[0] * d[0]
            g = _int_gcd(n, q)
            return _make((n // g,), (q // g,)) if n else ZERO
        if not a or not c:
            return self + (-other)
        return _sum(a, b, pneg(c), d)

    def __mul__(self, other: "Scalar") -> "Scalar":
        a, b, c, d = self.num, self.den, other.num, other.den
        if len(a) == len(b) == len(c) == len(d) == 1:
            n, q = a[0] * c[0], b[0] * d[0]
            g = _int_gcd(n, q)
            return _make((n // g,), (q // g,))
        if not a or not c:
            return ZERO
        if len(d) > 1:
            a, d = _quotients(a, d, pgcd(a, d))
        if len(b) > 1:
            c, b = _quotients(c, b, pgcd(c, b))
        return _make(*_reduced(pmul(a, c), pmul(b, d)))

    def __truediv__(self, other: "Scalar") -> "Scalar":
        if other.is_zero():
            raise ScalarDivisionError("division by the zero scalar")
        num, den = other.den, other.num
        if den[-1] < 0:
            num, den = pneg(num), pneg(den)
        return self * _make(num, den)

    # -- evaluation ---------------------------------------------------------

    def eval_at(self, eps_value: RationalLike) -> Fraction:
        """Exact value at e = eps_value; eps_value must be a nonzero rational,
        not a float or a bool, that is not a root of the denominator."""
        x = nonzero_eps(eps_value)
        p, q = x.numerator, x.denominator
        degree = max(len(self.num), len(self.den)) - 1
        den = _scaled_value(self.den, p, q, degree)
        if den == 0:
            raise PoleError(f"pole of {self} at e = {x}")
        return Fraction(_scaled_value(self.num, p, q, degree), den)

    # -- comparison / rendering ---------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Scalar) and self.num == other.num \
            and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def render(self) -> str:
        """num over Q above the primitive den: both are divided by the
        content of den, and a constant den is left out."""
        content = _int_gcd(*self.den)
        num = prender(self.num, content)
        if len(self.den) == 1:
            return num
        return f"({num})/({prender(tuple(c // content for c in self.den))})"

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"Scalar({self.render()})"


def _make(num: tuple, den: tuple) -> Scalar:
    """The Scalar of a canonical (num, den), built without __init__."""
    self = _new(Scalar)
    self.num = num
    self.den = den
    return self


def ratio(n: int, d: int) -> Scalar:
    """The Scalar n/d for ints n and d > 0; the shared ONE when n == d."""
    g = _int_gcd(n, d)
    return ONE if n == d else _make((n // g,), (d // g,)) if n else ZERO


def _integral(num, den) -> tuple:
    """num and den, of int or Fraction coefficients (a float or a bool
    raises TypeError), times the lcm of their coefficients' denominators."""
    num, den = [exact(c) for c in num], [exact(c) for c in den]
    m = _int_lcm(*(c.denominator for c in num + den))
    return (tuple(c.numerator * (m // c.denominator) for c in num),
            tuple(c.numerator * (m // c.denominator) for c in den))


def _reduced(num: tuple, den: tuple) -> tuple:
    """num and den divided by the common content of their coefficients and
    signed so that den has a positive leading coefficient; num is nonzero
    and has no common factor of positive degree with den."""
    g = _int_gcd(*num, *den)
    if den[-1] < 0:
        g = -g
    if g == 1:
        return num, den
    return tuple(c // g for c in num), tuple(c // g for c in den)


def _quotients(a: tuple, b: tuple, g: tuple) -> tuple:
    """a / g and b / g for a primitive g that divides both over Q[e]."""
    if len(g) == 1:
        return a, b
    return _exact_quotient(a, g), _exact_quotient(b, g)


def _sum(a: tuple, b: tuple, c: tuple, d: tuple) -> Scalar:
    """The Scalar a/b + c/d for canonical a/b and c/d, not both rational."""
    if b == d:
        g, num, den = b, padd(a, c), b
    else:
        g = pgcd(b, d) if len(b) > 1 and len(d) > 1 else PONE
        bq, dq = _quotients(b, d, g)
        num, den = padd(pmul(a, dq), pmul(c, bq)), pmul(b, dq)
    if len(g) > 1 and num:
        num, den = _quotients(num, den, pgcd(num, g))
    return _make(*_reduced(num, den)) if num else ZERO


ZERO = _make(PZERO, PONE)
ONE = _make(PONE, PONE)
MINUS_ONE = -ONE
EPS = _make((0, 1), PONE)
EPS_INV = ONE / EPS


def exact(r) -> Fraction:
    """r as a Fraction; a float raises TypeError, since its binary value is
    not the decimal it was written as, and so does a bool."""
    if isinstance(r, (float, bool)):
        raise TypeError(
            f"a rational must be exact, not the {type(r).__name__} {r!r}")
    return Fraction(r)


def nonzero_eps(eps) -> Fraction:
    """eps as a Fraction; a float or a bool raises TypeError, and 0, outside
    the admissible range of e, ZeroEpsilonError."""
    eps = exact(eps)
    if eps == 0:
        raise ZeroEpsilonError("e = 0 is not admissible")
    return eps


def sc(value: RationalLike) -> Scalar:
    """Shorthand: lift an int or Fraction into the scalar field."""
    return Scalar.from_rational(value)
