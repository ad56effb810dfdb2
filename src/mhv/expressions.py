"""Parsing and rendering of element and scalar expressions.

Element grammar (whitespace-insensitive):

    element := [sign] term (sign term)*
    term    := (factor "*")* basis
    basis   := "d(" int ")" | "h(" odd "/2" ")" | "c" | "l"
    factor  := rational | "e" ["^" int] | "(" scalar-expression ")"

Coefficients are rational literals like "-3/4", or parenthesized scalar
expressions in the parameter e, e.g. "((1+e)/(1+3*e))*d(3)".  The h
argument must be an odd integer over 2: "h(3/2)", "h(-1/2)".  Scalar
expressions support +, -, *, /, integer powers "e^2" and parentheses.
An exponent is a non-negative integer of at most MAX_EXPONENT (64); a
larger one is a ParseError, not an unbounded computation.

Element.render / Scalar.render emit exactly this grammar, so parsing a
rendered element reproduces it term for term.  Syntax errors carry the
byte offset of the offending token.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import BasisVector, C, Element, L, d, h
from .scalars import EPS, ONE, Scalar, sc


MAX_EXPONENT = 64


class ParseError(ValueError):
    """Syntax error with the byte offset where it occurred."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


_PUNCT = "+-*/^()"


def _tokenize(text: str) -> list:
    """Tokens as (kind, value, offset); kinds: int, name, punct, end."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
        elif ch.isalpha():
            j = i
            while j < n and text[j].isalpha():
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
        elif ch in _PUNCT:
            tokens.append(("punct", ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    # -- token plumbing -------------------------------------------------------

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_punct(self, ch: str):
        kind, value, offset = self.next()
        if kind != "punct" or value != ch:
            raise ParseError(f"expected {ch!r}", offset)

    def fail(self, message: str):
        raise ParseError(message, self.peek()[2])

    # -- scalar expressions ----------------------------------------------------

    def scalar_expr(self) -> Scalar:
        acc = self.scalar_term()
        while True:
            kind, value, _ = self.peek()
            if kind == "punct" and value in "+-":
                self.next()
                term = self.scalar_term()
                acc = acc + term if value == "+" else acc - term
            else:
                return acc

    def scalar_term(self) -> Scalar:
        acc = self.scalar_unary()
        while True:
            kind, value, _ = self.peek()
            if kind == "punct" and value in "*/":
                self.next()
                rhs = self.scalar_unary()
                acc = acc * rhs if value == "*" else acc / rhs
            else:
                return acc

    def scalar_unary(self) -> Scalar:
        kind, value, _ = self.peek()
        if kind == "punct" and value == "-":
            self.next()
            return -self.scalar_unary()
        return self.scalar_atom()

    def scalar_atom(self) -> Scalar:
        kind, value, offset = self.peek()
        if kind == "int":
            self.next()
            return sc(value)
        if kind == "name" and value == "e":
            self.next()
            return self._maybe_power(EPS)
        if kind == "punct" and value == "(":
            self.next()
            inner = self.scalar_expr()
            self.expect_punct(")")
            return self._maybe_power(inner)
        raise ParseError("expected a number, 'e' or '('", offset)

    def _maybe_power(self, base: Scalar) -> Scalar:
        kind, value, _ = self.peek()
        if kind == "punct" and value == "^":
            self.next()
            kind, exponent, offset = self.next()
            if kind != "int":
                raise ParseError("expected an integer exponent", offset)
            if exponent > MAX_EXPONENT:
                raise ParseError(f"exponent {exponent} exceeds the limit "
                                 f"{MAX_EXPONENT}", offset)
            acc = ONE
            for _ in range(exponent):
                acc = acc * base
            return acc
        return base

    # -- elements ---------------------------------------------------------------

    def signed_int(self) -> int:
        kind, value, offset = self.next()
        sign = 1
        if kind == "punct" and value in "+-":
            sign = -1 if value == "-" else 1
            kind, value, offset = self.next()
        if kind != "int":
            raise ParseError("expected an integer", offset)
        return sign * value

    def basis_atom(self) -> BasisVector | None:
        kind, value, offset = self.peek()
        if kind != "name":
            return None
        if value == "c":
            self.next()
            return C
        if value == "l":
            self.next()
            return L
        if value == "d":
            self.next()
            self.expect_punct("(")
            index = self.signed_int()
            self.expect_punct(")")
            return d(index)
        if value == "h":
            self.next()
            self.expect_punct("(")
            numerator = self.signed_int()
            self.expect_punct("/")
            kind, two, off2 = self.next()
            if kind != "int" or two != 2:
                raise ParseError("h argument must be written over 2", off2)
            self.expect_punct(")")
            if numerator % 2 == 0:
                raise ParseError(
                    f"h argument {numerator}/2 is not an odd half", offset)
            return h((numerator - 1) // 2)
        return None

    def term(self) -> Element:
        coeff = ONE
        basis = None
        while True:
            bv = self.basis_atom()
            if bv is not None:
                if basis is not None:
                    self.fail("more than one basis vector in a term")
                basis = bv
            else:
                coeff = coeff * self.scalar_atom()
            kind, value, _ = self.peek()
            if kind == "punct" and value == "*":
                self.next()
                continue
            if kind == "punct" and value == "/" and basis is None:
                # rational literal written as p/q
                self.next()
                coeff = coeff / self.scalar_atom()
                kind, value, _ = self.peek()
                if kind == "punct" and value == "*":
                    self.next()
                    continue
            break
        if basis is None:
            self.fail("expected a basis vector (d(m), h(n/2), c or l)")
        return Element.basis(basis).scale(coeff)

    def element(self) -> Element:
        acc = Element.zero()
        sign = 1
        kind, value, _ = self.peek()
        if kind == "punct" and value in "+-":
            self.next()
            sign = -1 if value == "-" else 1
        while True:
            term = self.term()
            acc = acc + (term if sign > 0 else -term)
            kind, value, offset = self.peek()
            if kind == "end":
                return acc
            if kind == "punct" and value in "+-":
                self.next()
                sign = -1 if value == "-" else 1
                continue
            raise ParseError("expected '+', '-' or end of input", offset)


def parse_element(text: str) -> Element:
    """Parse an element expression; raises ParseError with a byte offset."""
    parser = _Parser(text)
    if parser.peek()[0] == "end":
        raise ParseError("empty element expression", 0)
    if parser.peek() == ("int", 0, 0) and parser.tokens[1][0] == "end":
        return Element.zero()
    return parser.element()


def parse_scalar(text: str) -> Scalar:
    """Parse a scalar expression such as "-3/4" or "(1+e)/(1+3*e)"."""
    parser = _Parser(text)
    value = parser.scalar_expr()
    kind, _, offset = parser.peek()
    if kind != "end":
        raise ParseError("trailing input after scalar expression", offset)
    return value


def parse_rational(text: str) -> Fraction:
    """Parse a plain rational literal like "2/5" or "-3"."""
    value = parse_scalar(text)
    if not value.is_rational():
        raise ParseError("expected a plain rational (no 'e')", 0)
    return value.as_rational()
