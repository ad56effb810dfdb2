"""The mirror Heisenberg-Virasoro Lie algebra: basis, sparse elements,
bracket and Z-grading.

Basis vectors are d(m) for m in Z, h(n) denoting h_{n+1/2} for n in Z, and
the two central vectors C and L.  Storing the integer n for h_{n+1/2}
keeps every index integral; the implicit +1/2 only ever shows up in
coefficients and in the rendered form "h((2n+1)/2)".

The bracket table:

    [d_m, d_n]       = (m-n) d_{m+n} + (m^3-m)/12 * delta_{m+n,0} C
    [d_m, h_{n+1/2}] = -(n+1/2) h_{m+n+1/2}
    [h_{m+1/2}, h_{n+1/2}] = (m+1/2) delta_{m+n+1,0} L
    C, L central.

Centerless mode works on the quotient by the center: C and L are rejected
in inputs and the central output terms are dropped.  The bracket is
declared once, as the int table _int_bracket = 2[., .]; its Scalar table
_basis_bracket is that halved by scalar_table, and the centerless tables
are their values under project_centerless, the quotient map.  Elements
produced by the bracket are never truncated to any index window; windows
only bound the loops of verification sweeps.

tag_table is the one way a table on basis pairs is given: one function
of the two indices per tag pair, and zero on every other pair, so every
table vanishes on C and L by construction.

bilinear(table, x, y) is the one bilinear extension of a table on basis
pairs to arbitrary elements: the element-level bracket, lsa_product,
bider_eval and BilinearTable go through it.  linear does the same for
maps given on basis vectors, and combine builds a table as a linear
combination of tables.

basis_sweep drives the sweeps other than biderivations' derivation
kernel: it evaluates a residual function on every pair or triple of
window basis vectors, or, given the residual's twins, on one member of
each orbit and emits that value for every member, yielding only the
nonzero ones and returning the number of zero cases (see
reports.collect).  The function receives the BasisVectors themselves,
each standing for itself with coefficient one, so a pair value such as
[x, y] is a direct call to a table.  A residual built from such values
adds each second-level term, such as f([x, y], z), times its factor into
one term dict through accumulate_left or accumulate_right (never
bilinear), and stays that dict, here and in the derivation kernel, until
a report needs a nonzero one as an Element.  A term dict is written only
while it is filled, so a table's cached Elements are only ever read, and
may lend a residual their _terms.  The kernels use
coefficients only through +, -, *, unary - and `not c` (ONE, MINUS_ONE
are identity fast paths), so an int table sums ints and a Scalar table
Scalars.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from itertools import product
from typing import Callable, Generator, Iterator

from .scalars import MINUS_ONE, ONE, ZERO, Scalar, ratio, sc


class AlgebraError(ValueError):
    """Base class for algebra usage errors."""


class CentralTermError(AlgebraError):
    """A central basis vector appeared in a centerless-mode input."""


class ZeroElementError(AlgebraError):
    """The zero element has no grading degree."""


class AlgebraMode(Enum):
    FULL = "full"
    CENTERLESS = "centerless"

    # members are singletons and compare by identity, so object's C-level
    # hash is consistent with equality; Enum's own hashes the name in Python
    __hash__ = object.__hash__


FULL = AlgebraMode.FULL
CENTERLESS = AlgebraMode.CENTERLESS


_TAG_ORDER = {"d": 0, "h": 1, "c": 2, "l": 3}


class BasisVector:
    """One of d(m), h(n) (meaning h_{n+1/2}), C or L.  Interned: there is
    one instance per (tag, index), so equality and hashing are by
    identity, object's own __eq__ and __hash__.

    The tags d and h take an int index, c and l the index None; anything
    else raises AlgebraError.  The check runs only when a new vector is
    made, so a lookup costs nothing more, and an argument that equals a
    valid key (d(1.0) once d(1) exists) finds that valid vector."""

    __slots__ = ("tag", "index", "_key")

    _cache: dict = {}

    def __new__(cls, tag: str, index: int | None):
        key = (tag, index)
        cached = cls._cache.get(key)
        if cached is not None:
            return cached
        order = _TAG_ORDER.get(tag)
        if order is None:
            raise AlgebraError(f"unknown basis tag {tag!r}")
        if order < 2 and type(index) is not int:
            raise AlgebraError(
                f"basis vector {tag} needs an int index, not {index!r}")
        if order >= 2 and index is not None:
            raise AlgebraError(
                f"central basis vector {tag} takes no index, not {index!r}")
        self = object.__new__(cls)
        self.tag = tag
        self.index = index
        self._key = (order, index if index is not None else 0)
        cls._cache[key] = self
        return self

    def __reduce__(self) -> tuple:
        # unpickle through __new__ with its arguments, which keeps interning
        return BasisVector, (self.tag, self.index)

    def sort_key(self) -> tuple:
        return self._key

    def is_central(self) -> bool:
        return self.tag in ("c", "l")

    def degree(self) -> int:
        """Z-grading degree: d_m and h_{m+1/2} sit in degree m; C in 0, L in -1."""
        if self.tag == "c":
            return 0
        if self.tag == "l":
            return -1
        return self.index

    def render(self) -> str:
        if self.tag == "d":
            return f"d({self.index})"
        if self.tag == "h":
            return f"h({2 * self.index + 1}/2)"
        return self.tag

    def __lt__(self, other: "BasisVector") -> bool:
        return self._key < other._key

    def __repr__(self) -> str:
        return self.render()


def d(m: int) -> BasisVector:
    return BasisVector("d", m)


def h(n: int) -> BasisVector:
    """h(n) is the basis vector h_{n+1/2}."""
    return BasisVector("h", n)


C = BasisVector("c", None)
L = BasisVector("l", None)


class Element:
    """A finite linear combination of basis vectors with Scalar coefficients.

    Immutable; zero coefficients are never stored, so the zero element is
    the element with no terms and equality is structural.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict | None = None, _clean: bool = False):
        if terms is None:
            terms = {}
        elif not _clean:
            terms = {bv: coeff for bv, coeff in terms.items() if coeff}
        self._terms = terms

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero() -> "Element":
        return _ZERO_ELEMENT

    @staticmethod
    def basis(bv: BasisVector) -> "Element":
        return Element({bv: ONE}, _clean=True)

    @staticmethod
    def of(*pairs) -> "Element":
        """Element from (coefficient, basis vector) pairs; coefficients may
        be ints, Fractions or Scalars."""
        acc: dict = {}
        for coeff, bv in pairs:
            if not isinstance(coeff, Scalar):
                coeff = sc(coeff)
            prev = acc.get(bv)
            coeff = coeff if prev is None else prev + coeff
            if coeff.is_zero():
                acc.pop(bv, None)
            else:
                acc[bv] = coeff
        return Element(acc, _clean=True)

    # -- access --------------------------------------------------------------

    def coeff(self, bv: BasisVector) -> Scalar:
        return self._terms.get(bv, ZERO)

    def terms(self) -> list:
        """Terms as (basis vector, coefficient), in canonical order."""
        return sorted(self._terms.items(), key=lambda kv: kv[0].sort_key())

    def support(self) -> Iterator[BasisVector]:
        return iter(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    # -- vector-space operations ----------------------------------------------

    def __add__(self, other: "Element") -> "Element":
        if not self._terms:
            return other
        if not other._terms:
            return self
        acc = dict(self._terms)
        _add_scaled(acc, other, ONE)
        return Element(acc, _clean=True)

    def __neg__(self) -> "Element":
        return Element({bv: -coeff for bv, coeff in self._terms.items()},
                       _clean=True)

    def __sub__(self, other: "Element") -> "Element":
        if not other._terms:
            return self
        acc = dict(self._terms)
        _add_scaled(acc, other, MINUS_ONE)
        return Element(acc, _clean=True)

    def scale(self, factor: Scalar) -> "Element":
        if factor.is_zero() or not self._terms:
            return _ZERO_ELEMENT
        return Element({bv: coeff * factor
                        for bv, coeff in self._terms.items()}, _clean=True)

    def eval_at(self, eps_value) -> "Element":
        """Element with every coefficient evaluated at e = eps_value."""
        return Element({bv: sc(coeff.eval_at(eps_value))
                        for bv, coeff in self._terms.items()})

    # -- comparison / rendering -----------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Element) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def render(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for bv, coeff in self.terms():
            if coeff == ONE:
                body = bv.render()
            elif coeff.is_rational():
                n, q = coeff.num[0], coeff.den[0]
                r = str(n) if q == 1 else f"{n}/{q}"
                body = f"-{bv.render()}" if r == "-1" else f"{r}*{bv.render()}"
            else:
                body = f"({coeff.render()})*{bv.render()}"
            parts.append(body)
        out = parts[0]
        for part in parts[1:]:
            if part.startswith("-"):
                out += " - " + part[1:]
            else:
                out += " + " + part
        return out

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"Element({self.render()})"


_ZERO_ELEMENT = Element({}, _clean=True)


class Mixed:
    """Sentinel result of grading_degree for inhomogeneous elements."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = object.__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "Mixed"


MIXED = Mixed()


# ---------------------------------------------------------------------------
# the bracket
# ---------------------------------------------------------------------------

def tag_table(dd=None, dh=None, hd=None,
              hh=None) -> Callable[[BasisVector, BasisVector], Element]:
    """The table on basis pairs that sends (u, v) to the part named
    u.tag + v.tag, applied to (u.index, v.index).  A pair whose tags name
    no part goes to zero, and so does every pair with C or L."""
    parts = {"dd": dd, "dh": dh, "hd": hd, "hh": hh}

    def table(u: BasisVector, v: BasisVector) -> Element:
        part = parts.get(u.tag + v.tag)
        return _ZERO_ELEMENT if part is None else part(u.index, v.index)

    return table


def scalar_element(x: Element, scale: int) -> Element:
    """x / scale with Scalar coefficients, for an x with int ones; the
    zero element is itself."""
    if not x._terms:
        return x
    return Element({bv: ratio(c, scale) for bv, c in x._terms.items()},
                   _clean=True)


def scalar_table(ints: Callable, scale: int) -> Callable:
    """ints / scale, for a table ints with int coefficients; its int_form
    is (ints, scale)."""
    def table(u: BasisVector, v: BasisVector) -> Element:
        return scalar_element(ints(u, v), scale)
    table.int_form = (ints, scale)
    return table


# 2[., .], the int table that declares the bracket; Element drops zeros
_int_bracket = lru_cache(maxsize=None)(tag_table(
    dd=lambda m, n: Element({d(m + n): 2 * (m - n),
                             C: 0 if m + n else (m**3 - m) // 6}),
    dh=lambda m, n: Element({h(m + n): -(2 * n + 1)}),
    hd=lambda m, n: Element({h(m + n): 2 * m + 1}),
    hh=lambda m, n: Element({L: 0 if m + n + 1 else 2 * m + 1})))
_basis_bracket = lru_cache(maxsize=None)(scalar_table(_int_bracket, 2))


def project_centerless(x: Element) -> Element:
    """Drop the central components (the quotient map onto the centerless
    algebra); x itself when it has none."""
    terms = x._terms
    if C not in terms and L not in terms:
        return x
    return Element({bv: c for bv, c in terms.items() if not bv.is_central()},
                   _clean=True)


def _check_centerless(x: Element, what: str) -> None:
    for bv in x.support():
        if bv.is_central():
            raise CentralTermError(
                f"centerless mode forbids central term {bv.render()} in {what}")


def _add_scaled(acc: dict, x: Element, factor: Scalar) -> None:
    """acc += factor * x on a term dict; x itself is only read.  The
    factors ONE and MINUS_ONE cost no multiplication: MINUS_ONE subtracts
    in place from a coefficient already in acc and negates only a term
    that acc does not have."""
    for bv, coeff in x._terms.items():
        prev = acc.get(bv)
        if factor is MINUS_ONE:
            coeff = -coeff if prev is None else prev - coeff
        else:
            if factor is not ONE:
                coeff = coeff * factor
            if prev is not None:
                coeff = prev + coeff
        if prev is not None and not coeff:
            del acc[bv]
        else:
            acc[bv] = coeff


def bilinear(table: Callable[[BasisVector, BasisVector], Element],
             x: Element, y: Element) -> Element:
    """The bilinear extension of table, a map on basis pairs, to x and y:
    the sum of cu*cv*table(u, v) over the term pairs, added into one fresh
    dict term by term of x, and for each term of x term by term of y."""
    acc: dict = {}
    for u, cu in x._terms.items():
        accumulate_right(acc, cu, table, u, y)
    return Element(acc, _clean=True)


def accumulate_left(acc: dict, factor: Scalar, table, x: Element,
                    w: BasisVector) -> None:
    """acc += factor * bilinear(table, x, w) on a fresh term dict: the sum
    of factor * c * table(t, w) over the terms c*t of x.  A factor or c of
    ONE costs no multiplication and a factor of MINUS_ONE only a negation;
    table's Elements are only read."""
    for t, c in x._terms.items():
        value = table(t, w)
        if value._terms:
            _add_scaled(acc, value,
                        factor if c is ONE else c if factor is ONE
                        else -c if factor is MINUS_ONE else factor * c)


def accumulate_right(acc: dict, factor: Scalar, table, u: BasisVector,
                     x: Element) -> None:
    """acc += factor * bilinear(table, u, x), the mirror of
    accumulate_left: the sum of factor * c * table(u, t) over the terms
    c*t of x."""
    for t, c in x._terms.items():
        value = table(u, t)
        if value._terms:
            _add_scaled(acc, value,
                        factor if c is ONE else c if factor is ONE
                        else -c if factor is MINUS_ONE else factor * c)


def linear(table: Callable[[BasisVector], Element], x: Element) -> Element:
    """The linear extension of table, a map on basis vectors, to x."""
    acc: dict = {}
    for u, cu in x._terms.items():
        _add_scaled(acc, table(u), cu)
    return Element(acc, _clean=True)


def combine(parts: list) -> Callable[[BasisVector, BasisVector], Element]:
    """The table on basis pairs that sums w * table(u, v) over the
    (w, table) parts, memoized per pair for the life of the table."""

    @lru_cache(maxsize=None)
    def table(u: BasisVector, v: BasisVector) -> Element:
        acc: dict = {}
        for w, part in parts:
            _add_scaled(acc, part(u, v), w)
        return Element(acc, _clean=True)

    return table


# the bracket's table on basis pairs, per mode, with the int_form
# (2[., .], 2): the centerless tables are the full ones then the quotient
BRACKET_TABLES = {
    FULL: _basis_bracket,
    CENTERLESS: lru_cache(maxsize=None)(scalar_table(lru_cache(maxsize=None)(
        lambda u, v: project_centerless(_int_bracket(u, v))), 2)),
}


def bracket(x: Element, y: Element, mode: AlgebraMode = FULL) -> Element:
    """Bilinear extension of the bracket table."""
    if mode is CENTERLESS:
        _check_centerless(x, "left argument")
        _check_centerless(y, "right argument")
    return bilinear(BRACKET_TABLES[mode], x, y)


def grading_degree(x: Element):
    """Common degree of the terms of x, or MIXED; the zero element is an error."""
    if x.is_zero():
        raise ZeroElementError("the zero element has no grading degree")
    degrees = {bv.degree() for bv in x.support()}
    if len(degrees) == 1:
        return degrees.pop()
    return MIXED


def window_indices(window: int) -> range:
    """-window..window; a non-int (bool included) or one below 1 raises."""
    if type(window) is not int or window < 1:
        raise ValueError(f"window must be at least 1 (an int), not {window!r}")
    return range(-window, window + 1)


def basis_vectors(window: int, mode: AlgebraMode = FULL) -> list:
    """All basis vectors with indices in [-window, window], canonical order."""
    indices = window_indices(window)
    out = [d(m) for m in indices] + [h(n) for n in indices]
    if mode is FULL:
        out += [C, L]
    return out


def basis_sweep(window: int, arity: int, residuals, rows=None,
                twins=None) -> Generator[tuple, None, int]:
    """Yield (inputs, equation_id, residual) for every nonzero residual at
    the arity-tuples of the full-mode window basis whose first entry is
    basis[i], i in rows (all by default), and return the number of zero
    ones.  residuals(*inputs) returns [(equation_id, terms)], terms a term
    dict; the residual is Element(terms), made only if terms.  twins(*t) lists
    [(twin, sign)] for an index tuple t, the residuals at twin being sign
    times those at t; only the least tuple of an orbit is evaluated."""
    basis = basis_vectors(window)
    every = range(len(basis))
    rows = every if rows is None else rows
    zeros = 0
    for t, xs in zip(product(rows, *[every] * (arity - 1)),
                     product([basis[i] for i in rows],
                             *[basis] * (arity - 1))):
        members = twins(*t) if twins else ()
        if members and min(members)[0] < t:
            continue
        orbit = [(t, 1)] + [m for m in dict(members).items() if m[0] != t]
        values = residuals(*xs)
        nonzero = [(eq_id, Element(terms, _clean=True))
                   for eq_id, terms in values if terms]
        zeros += (len(values) - len(nonzero)) * len(orbit)
        for twin, sign in orbit if nonzero else ():
            twin_xs = tuple(map(basis.__getitem__, twin))
            for eq_id, value in nonzero:
                yield twin_xs, eq_id, value if sign > 0 else -value
    return zeros
