"""Parsing of element and scalar expressions.

One typed grammar reads both kinds (whitespace-insensitive):

    sum     := product (("+" | "-") product)*
    product := unary (("*" | "/") unary)*
    unary   := ("+" | "-") unary | atom ["^" int]
    atom    := int | "e" | "(" sum ")" | "d(" [sign] int ")"
             | "h(" [sign] odd "/2)" | "c" | "l"

A value is a Scalar of Q(e) or an Element, and every operator checks the
kinds of its operands: "+" and "-" join two values of the same kind, "*"
takes at most one element, "/" and "^" take a scalar on the right and "^"
a scalar base.  An exponent is a non-negative integer of at most
MAX_EXPONENT (64).  So "-3/4*d(3)", "((1+e)/(1+3*e))*d(3)", "d(1)/2" and
"2*-d(1)" are elements, "(1+e)/(1+3*e)" is a scalar, and "d(1)*d(2)",
"2/d(1)", "(d(1))^2" and "d(1) + 3" are errors.  The h argument is an odd
integer over 2: "h(3/2)", "h(-1/2)".  parse returns either kind;
parse_element, parse_scalar and parse_rational ask for one, and
parse_element also reads the literal 0 as the zero element.

Two bounds limit what a parse may build.  Parentheses and signs nest at
most MAX_NESTING (100) deep.  Every value the parser builds (each
literal, the result of each operator and each step of a power) has
polynomial degree at most MAX_DEGREE (64) in e, and the integer
coefficients of its canonical numerator and denominator (Scalar.num and
Scalar.den) have at most MAX_COEFF_BITS (1024) bits.  Past either bound
the parse stops with a ParseError at the offending token.

The parser reads the CLI's input.  Element.render / Scalar.render emit
this grammar, so parsing a rendered value reproduces it term for term, as
tests/test_expressions.py checks on the corpus that tools/parse_corpus.py
writes.  Errors carry the byte offset of the offending token.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .algebra import C, Element, L, d, h
from .scalars import EPS, ONE, Scalar, sc


MAX_EXPONENT = 64
MAX_NESTING = 100
MAX_DEGREE = 64
MAX_COEFF_BITS = 1024

Value = Scalar | Element

_CONSTANTS = {"e": EPS, "c": Element.basis(C), "l": Element.basis(L)}


class ParseError(ValueError):
    """Syntax error with the byte offset where it occurred."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


_TOKEN = re.compile(r"(?P<int>[0-9]+)|(?P<name>[^\W\d_]+)"
                    r"|(?P<punct>[-+*/^()])|(?P<space>\s+)")


def _tokenize(text: str) -> list:
    """Tokens as (kind, value, offset); kinds: int, name, punct, end."""
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind, value = match.lastgroup, match.group()
        if kind == "int":
            # a literal of this many digits has more than MAX_COEFF_BITS bits
            if len(value.lstrip("0")) > MAX_COEFF_BITS // 3:
                raise ParseError("integer literal exceeds the size bound", pos)
            value = int(value)
        if kind != "space":
            tokens.append((kind, value, pos))
        pos = match.end()
    tokens.append(("end", None, len(text)))
    return tokens


def _bounded(value: Value, offset: int, changed: Value | None = None
             ) -> Value:
    """value, if it is within MAX_DEGREE and MAX_COEFF_BITS.  Of an element
    sum only the coefficients on the support of the added element changed,
    so only those are checked."""
    if isinstance(value, Scalar):
        coeffs = [value]
    else:
        coeffs = map(value.coeff, (value if changed is None else changed)
                     .support())
    for s in coeffs:
        if max(len(s.num), len(s.den)) - 1 > MAX_DEGREE or any(
                c.bit_length() > MAX_COEFF_BITS for c in s.num + s.den):
            raise ParseError(f"value exceeds the size bound (degree "
                             f"{MAX_DEGREE}, {MAX_COEFF_BITS}-bit "
                             f"coefficients)", offset)
    return value


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def operator(self, chars: str):
        """(operator, offset) if the next token is one of chars, consumed."""
        kind, value, offset = self.peek()
        if kind == "punct" and value in chars:
            self.pos += 1
            return value, offset
        return None

    def expect(self, ch: str):
        kind, value, offset = self.next()
        if kind != "punct" or value != ch:
            raise ParseError(f"expected {ch!r}", offset)

    def nest(self, offset: int):
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"parentheses and signs nest deeper than "
                             f"{MAX_NESTING}", offset)

    def sum(self) -> Value:
        acc = self.product()
        while (op := self.operator("+-")) is not None:
            rhs = self.product()
            if isinstance(acc, Scalar) is not isinstance(rhs, Scalar):
                raise ParseError(f"{op[0]!r} joins a scalar and an element",
                                 op[1])
            acc = _bounded(acc + rhs if op[0] == "+" else acc - rhs, op[1],
                           rhs)
        return acc

    def product(self) -> Value:
        acc = self.unary()
        while (op := self.operator("*/")) is not None:
            rhs = self.unary()
            if not isinstance(rhs, Scalar):
                if op[0] == "/":
                    raise ParseError("the divisor is an element", op[1])
                if not isinstance(acc, Scalar):
                    raise ParseError("the product of two elements", op[1])
                acc = rhs.scale(acc)
            elif isinstance(acc, Element):
                acc = acc.scale(rhs if op[0] == "*" else ONE / rhs)
            else:
                acc = acc * rhs if op[0] == "*" else acc / rhs
            acc = _bounded(acc, op[1])
        return acc

    def unary(self) -> Value:
        op = self.operator("+-")
        if op is not None:
            self.nest(op[1])
            value = self.unary()
            self.depth -= 1
            return -value if op[0] == "-" else value
        base = self.atom()
        op = self.operator("^")
        if op is None:
            return base
        if not isinstance(base, Scalar):
            raise ParseError("the base of a power is an element", op[1])
        kind, exponent, offset = self.next()
        if kind != "int":
            raise ParseError("expected an integer exponent", offset)
        if exponent > MAX_EXPONENT:
            raise ParseError(f"exponent {exponent} exceeds the limit "
                             f"{MAX_EXPONENT}", offset)
        acc = ONE
        for _ in range(exponent):
            acc = _bounded(acc * base, offset)
        return acc

    def signed_int(self) -> int:
        sign = self.operator("+-")
        kind, value, offset = self.next()
        if kind != "int":
            raise ParseError("expected an integer", offset)
        return -value if sign is not None and sign[0] == "-" else value

    def atom(self) -> Value:
        kind, value, offset = self.next()
        if kind == "int":
            return _bounded(sc(value), offset)
        if kind == "punct" and value == "(":
            self.nest(offset)
            inner = self.sum()
            self.expect(")")
            self.depth -= 1
            return inner
        if kind != "name":
            raise ParseError("expected a number, 'e', '(' or a basis vector",
                             offset)
        if value in _CONSTANTS:
            return _CONSTANTS[value]
        if value not in ("d", "h"):
            raise ParseError(f"unknown name {value!r}", offset)
        self.expect("(")
        index = self.signed_int()
        if value == "h":
            self.expect("/")
            kind, two, off2 = self.next()
            if kind != "int" or two != 2:
                raise ParseError("h argument must be written over 2", off2)
        self.expect(")")
        if value == "d":
            return Element.basis(d(index))
        if index % 2 == 0:
            raise ParseError(f"h argument {index}/2 is not an odd half",
                             offset)
        return Element.basis(h((index - 1) // 2))


def parse(text: str) -> Value:
    """Parse a scalar or an element expression; raises ParseError with a
    byte offset."""
    parser = _Parser(text)
    if parser.peek()[0] == "end":
        raise ParseError("empty expression", 0)
    value = parser.sum()
    kind, _, offset = parser.peek()
    if kind != "end":
        raise ParseError("expected an operator or the end of input", offset)
    return value


def parse_element(text: str) -> Element:
    """Parse an element expression such as "d(2) + 3*h(1/2) - c" or "0"."""
    value = parse(text)
    if isinstance(value, Element):
        return value
    if value.is_zero() and text.strip().isdigit():
        return Element.zero()
    raise ParseError("expected an element, got a scalar", 0)


def parse_scalar(text: str) -> Scalar:
    """Parse a scalar expression such as "-3/4" or "(1+e)/(1+3*e)"."""
    value = parse(text)
    if isinstance(value, Scalar):
        return value
    raise ParseError("expected a scalar, got an element", 0)


def parse_rational(text: str) -> Fraction:
    """Parse a plain rational literal like "2/5" or "-3"."""
    value = parse_scalar(text)
    if not value.is_rational():
        raise ParseError("expected a plain rational (no 'e')", 0)
    return value.as_rational()
