"""The compatible graded left-symmetric product on the mirror
Heisenberg-Virasoro algebra, in symbolic-e and numeric-e modes.

The product table (stored h-indices, so h(n) stands for h_{n+1/2}):

    d_m d_n  = -n(1+e*n)/(1+e*(m+n)) d_{m+n}
               + 1/24 (m^3 - m + (e - 1/e) m^2) delta_{m+n,0} C
    d_m h(n) = -(n+1/2) h(m+n)
    h(m) h(n) = 1/2 (m+1/2) delta_{m+n+1,0} L

All other products of basis vectors are zero: h(m) d_n, and any product
with a central factor.  The h(m) h(n) coefficient uses the *left* index;
that is forced by compatibility with the bracket (the commutator must give
(m+1/2) delta_{m+n+1,0} L, which fails for the right-index variant).

The symbolic table is closed_form_fns().product: the closed-form
coefficient functions of the coeffs module are its one declaration, so
the symbolic lsa-identity and compatibility sweeps, star, ast and
cross-check all read the same functions.  _basis_product_numeric writes
the table out a second time with plain Fractions, as an independent
oracle: a numeric verification run sweeps it where it computes over Q
(see the suite module).

Symbolic mode is total: 1+e*(m+n) is never the zero rational function.
Numeric mode fixes e to a nonzero rational; a product pre-scans every
denominator index sum reachable from its inputs and raises PoleError
before computing anything if 1+e*s would vanish.  A whole verification
run at window N additionally refuses e outright when 1/e is an integer
whose negative lies inside [-N, N] (the product on the window's own
degrees would be undefined).

The basis sweeps take the product as a table on basis pairs from
product_table; under a numeric e that is _basis_product_numeric, memoized
in a new table on each call, which raises at a pole as the scan does for
that one pair.  A plan takes one table and sweeps it at every case.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial

from .algebra import C, Element, L, bilinear, d, h
from .coeffs import closed_form_fns
from .scalars import AdmissibilityError, nonzero_eps, pole_error


class EpsMode:
    """Symbolic e, or a fixed nonzero rational e (not a float or a bool)."""

    __slots__ = ("eps",)

    def __init__(self, eps: Fraction | None):
        self.eps = None if eps is None else nonzero_eps(eps)

    @staticmethod
    def numeric(eps) -> "EpsMode":
        if eps is None:
            raise TypeError("a numeric e must be a rational, not None")
        return EpsMode(eps)

    @property
    def is_symbolic(self) -> bool:
        return self.eps is None

    def pole_sum(self) -> int | None:
        """The integer s with 1 + e*s = 0, if one exists."""
        if self.eps is None:
            return None
        inv = 1 / self.eps
        if inv.denominator != 1:
            return None
        return -int(inv)

    def computed_in(self, window: int) -> "EpsMode":
        """The mode a run at window computes in: AdmissibilityError if the
        pole degree s, 1 + e*s = 0, lies in the window; SYMBOLIC, the
        reports then evaluated at e, if |s| <= 3*window, the deepest a
        triple product of window basis vectors reaches; else this mode."""
        s = self.pole_sum()
        if s is None or abs(s) > 3 * window:
            return self
        if abs(s) <= window:
            raise AdmissibilityError(
                f"e = {self.eps} is not admissible at window {window}: "
                f"1+e*({s}) = 0 and {s} lies in [-{window}, {window}]")
        return SYMBOLIC

    def describe(self) -> str:
        return "symbolic" if self.eps is None else f"eps={self.eps}"

    def __repr__(self) -> str:
        return f"EpsMode({self.describe()})"


SYMBOLIC = EpsMode(None)


# ---------------------------------------------------------------------------
# the product table
# ---------------------------------------------------------------------------

_basis_product_symbolic = closed_form_fns().product


def _basis_product_numeric(u, v, eps: Fraction) -> Element:
    """Independent numeric route: the table evaluated with plain Fractions."""
    if u.is_central() or v.is_central():
        return Element.zero()
    if u.tag == "d" and v.tag == "d":
        m, n = u.index, v.index
        pairs = []
        if n == 0:
            f_value = Fraction(0)
        elif m == 0:
            # -n(1+e*n)/(1+e*n) cancels exactly, no pole even at 1+e*n = 0
            f_value = Fraction(-n)
        else:
            den = 1 + eps * (m + n)
            if den == 0:
                raise pole_error(m + n, eps, [(m, n)])
            f_value = Fraction(-n) * (1 + eps * n) / den
        if f_value != 0:
            pairs.append((f_value, d(m + n)))
        if m + n == 0:
            omega = Fraction(m**3 - m + 0, 24) + (eps - 1 / eps) * m * m / 24
            if omega != 0:
                pairs.append((omega, C))
        return Element.of(*pairs)
    if u.tag == "d" and v.tag == "h":
        m, n = u.index, v.index
        return Element.of((Fraction(-(2 * n + 1), 2), h(m + n)))
    if u.tag == "h" and v.tag == "d":
        return Element.zero()
    m, n = u.index, v.index
    if m + n + 1 == 0:
        return Element.of((Fraction(2 * m + 1, 4), L))
    return Element.zero()


def _scan_poles(x: Element, y: Element, eps: EpsMode) -> None:
    """Fail fast if any produced d*d pair hits the denominator's zero."""
    pole_sum = eps.pole_sum()
    if pole_sum is None:
        return
    left = [u.index for u in x.support() if u.tag == "d"]
    right = [v.index for v in y.support() if v.tag == "d"]
    offenders = sorted((m, n) for m in left for n in right
                       if m + n == pole_sum and m != 0 and n != 0)
    if offenders:
        raise pole_error(pole_sum, eps.eps, offenders)


def product_table(eps: EpsMode):
    """The product as a table on basis pairs, for the sweeps: the shared
    symbolic table, or under a numeric e a new table of
    _basis_product_numeric, memoized for the table's own life, so a caller
    that sweeps many cases takes one table for all of them.  A pair at the
    pole raises the PoleError lsa_product raises for it, and a raise is
    never cached."""
    if eps.is_symbolic:
        return _basis_product_symbolic
    return lru_cache(maxsize=None)(partial(_basis_product_numeric,
                                           eps=eps.eps))


def lsa_product(x: Element, y: Element, eps: EpsMode = SYMBOLIC) -> Element:
    """Bilinear extension of the product table, after a scan that lists
    every pair of x and y at the pole in one PoleError."""
    _scan_poles(x, y, eps)
    return bilinear(product_table(eps), x, y)


def lsa_commutator(x: Element, y: Element, eps: EpsMode = SYMBOLIC) -> Element:
    """x*y - y*x; equals the full bracket for the compatible product."""
    return lsa_product(x, y, eps) - lsa_product(y, x, eps)


def lsa_associator_defect(x: Element, y: Element, z: Element,
                          eps: EpsMode = SYMBOLIC) -> Element:
    """((x*y)*z - x*(y*z)) - ((y*x)*z - y*(x*z)); zero iff the triple
    satisfies the left-symmetric identity."""

    def assoc(a: Element, b: Element, c: Element) -> Element:
        return lsa_product(lsa_product(a, b, eps), c, eps) \
            - lsa_product(a, lsa_product(b, c, eps), eps)

    return assoc(x, y, z) - assoc(y, x, z)
