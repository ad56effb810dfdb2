"""Expression parsing: the typed grammar, its bounds, the parse corpus and
the render round trip."""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mhv.algebra import C, Element, L, basis_vectors, d, h, FULL
from mhv.expressions import (MAX_COEFF_BITS, MAX_NESTING, ParseError, parse,
                             parse_element, parse_rational, parse_scalar)
from mhv.lsa import lsa_product
from mhv.scalars import EPS, ONE, PONE, Scalar, sc


class TestParseExamples:
    def test_basic(self):
        x = parse_element("d(2) + 3*h(1/2) - c")
        assert x == Element.of((1, d(2)), (3, h(0)), (-1, C))

    def test_even_half_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_element("h(2/2)")
        assert "odd half" in str(err.value)
        assert err.value.offset == 0

    def test_cancellation(self):
        assert parse_element("1/2*l - 1/2*l").is_zero()

    def test_negative_indices_and_coeffs(self):
        x = parse_element("-3/4*d(-3) + h(-1/2)")
        assert x.coeff(d(-3)) == sc(Fraction(-3, 4))
        assert x.coeff(h(-1)) == ONE

    def test_symbolic_coefficient(self):
        x = parse_element("((1+e)/(1+3*e))*d(3)")
        assert x.coeff(d(3)) == (ONE + EPS) / (ONE + sc(3) * EPS)

    def test_zero(self):
        assert parse_element("0").is_zero()

    def test_syntax_error_offset(self):
        with pytest.raises(ParseError) as err:
            parse_element("d(2) + $")
        assert err.value.offset == 7

    def test_missing_basis(self):
        with pytest.raises(ParseError):
            parse_element("3/4")

    def test_two_bases_in_one_term(self):
        with pytest.raises(ParseError):
            parse_element("d(1)*d(2)")

    def test_empty(self):
        with pytest.raises(ParseError):
            parse_element("   ")


class TestParseScalar:
    def test_rational(self):
        assert parse_rational("-3/4") == Fraction(-3, 4)
        assert parse_rational("7") == 7

    def test_symbolic(self):
        assert parse_scalar("(1+e)/(1+3*e)") == (ONE + EPS) / (ONE + sc(3) * EPS)
        assert parse_scalar("e^2-1") == EPS * EPS - ONE

    def test_rational_rejects_eps(self):
        with pytest.raises(ParseError):
            parse_rational("1+e")

    def test_exponent_limit(self):
        assert parse_scalar("e^64") == parse_scalar("(e^32)*(e^32)")
        with pytest.raises(ParseError) as err:
            parse_scalar("(1+e)^65")
        assert err.value.offset == 6

    def test_huge_exponent_fails_at_once(self):
        proc = subprocess.run(
            [sys.executable, "-m", "mhv.cli", "lsa-mul", "(e^99999999)*d(1)",
             "d(1)"], capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert "(at byte 3)" in proc.stderr


coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=4)
rational_elements = st.lists(
    st.tuples(coeffs, st.sampled_from(basis_vectors(4, FULL))),
    min_size=0, max_size=5).map(lambda pairs: Element.of(*pairs))


class TestRoundTrip:
    @given(rational_elements)
    @settings(max_examples=80, deadline=None)
    def test_rational_round_trip(self, x):
        assert parse_element(x.render()) == x

    def test_symbolic_round_trip(self):
        # products carry rational-function coefficients
        x = lsa_product(Element.basis(d(2)), Element.basis(d(1)))
        assert parse_element(x.render()) == x
        y = lsa_product(Element.basis(d(1)), Element.basis(d(-1)))
        assert parse_element(y.render()) == y


polynomials = st.lists(st.fractions(min_value=-5, max_value=5,
                                    max_denominator=3),
                       min_size=1, max_size=4).map(
    lambda coeffs: Scalar(tuple(coeffs), PONE))
qe_scalars = st.tuples(
    polynomials, polynomials.filter(lambda p: not p.is_zero())).map(
    lambda pq: pq[0] / pq[1])
qe_elements = st.lists(
    st.tuples(qe_scalars, st.sampled_from(basis_vectors(3, FULL))),
    max_size=4).map(lambda pairs: Element.of(*pairs))


class TestSymbolicRoundTrip:
    """Coefficients in Q(e): ratios of small random polynomials."""

    @given(qe_elements)
    @settings(max_examples=80, deadline=None)
    def test_element_round_trip(self, x):
        assert parse_element(x.render()) == x

    @given(qe_scalars)
    @settings(max_examples=80, deadline=None)
    def test_scalar_round_trip(self, s):
        assert parse_scalar(s.render()) == s


class TestTypedGrammar:
    @pytest.mark.parametrize("text, offset", [
        ("d(1) + 3", 5),        # a scalar added to an element
        ("2/d(1)", 1),          # an element as a divisor
        ("(d(1))^2", 6),        # an element as the base of a power
    ])
    def test_kind_errors(self, text, offset):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.offset == offset

    def test_scalar_wanted_element_given(self):
        with pytest.raises(ParseError) as err:
            parse_scalar("d(1)")
        assert err.value.offset == 0

    @pytest.mark.parametrize("text, value", [
        ("d(1)/2", Element.of((Fraction(1, 2), d(1)))),
        ("--c", Element.basis(C)),
        ("2*-d(1)", Element.of((-2, d(1)))),
        ("3*(d(1) + c)", Element.of((3, d(1)), (3, C))),
        ("(e + 1)*l/e", Element.of(((ONE + EPS) / EPS, L))),
    ])
    def test_well_typed_elements(self, text, value):
        assert parse_element(text) == value

    def test_parse_returns_either_kind(self):
        assert parse("(1+e)^2") == (ONE + EPS) * (ONE + EPS)
        assert parse("e*d(1)") == Element.of((EPS, d(1)))


CORPUS = os.path.join(os.path.dirname(__file__), "golden",
                      "parse-corpus.json")


def _rendered(parse_kind, text):
    try:
        return parse_kind(text).render()
    except (ArithmeticError, ValueError):
        return "rejected"


class TestParseCorpus:
    """tests/golden/parse-corpus.json, written by tools/parse_corpus.py
    with the two-grammar parser that came before the typed one."""

    def test_accepted_inputs_render_the_same(self):
        with open(CORPUS) as fh:
            corpus = json.load(fh)
        changed = [(entry["input"], kind)
                   for entry in corpus
                   for kind, parse_kind in (("element", parse_element),
                                            ("scalar", parse_scalar))
                   if entry[kind] != "rejected"
                   and _rendered(parse_kind, entry["input"]) != entry[kind]]
        assert changed == []

    @pytest.mark.parametrize("parse_kind, text", [
        (parse, ""), (parse, "   "),                           # empty
        (parse, "d(1)*d(2)"), (parse, "(c + l)*h(1/2)"),      # product
        (parse, "2/d(1)"), (parse, "e/(c)"),                  # divisor
        (parse, "(d(1))^2"), (parse, "c^0"),                  # base
        (parse, "d(1) + 3"), (parse, "e - c"), (parse, "1 + l"),  # sum
        (parse_element, "3/4"), (parse_element, "1+e"),       # kind
        (parse_element, "0+0"), (parse_scalar, "d(1)"),
        (parse_scalar, "3*c"), (parse_rational, "1+e"),
        (parse, "h(2/2)"), (parse, "h(1/3)"), (parse, "h(1)"),  # h
        (parse, "e^e"), (parse, "e^(2)"), (parse, "e^-1"),    # exponent
        (parse, "(1+e)^65"),
        (parse, "d(1) d(2)"), (parse, "1 2"), (parse, "d(1))"),  # trailing
        (parse, "d(2) + $"), (parse, "1 % 2"), (parse, "d(1)#"),  # character
    ])
    def test_rejection_classes_still_rejected(self, parse_kind, text):
        with pytest.raises(ParseError):
            parse_kind(text)


def _cli(*args):
    """Exit code and stderr of the CLI in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-m", "mhv.cli", *args],
                          capture_output=True, text=True, timeout=30)
    return proc.returncode, proc.stderr


class TestBounds:
    def test_nesting_limit(self):
        deep = "(" * MAX_NESTING + "1" + ")" * MAX_NESTING
        assert parse_scalar(deep) == ONE
        with pytest.raises(ParseError) as err:
            parse_scalar("(" + deep + ")")
        assert err.value.offset == MAX_NESTING
        with pytest.raises(ParseError) as err:
            parse_scalar("-" * (MAX_NESTING + 1) + "1")
        assert err.value.offset == MAX_NESTING

    @pytest.mark.parametrize("args", [
        ("bracket", "(" * 3000 + "1" + ")" * 3000 + "*d(1)", "d(1)"),
        ("bider-check", "--lambda=" + "-" * 3000 + "1", "--window", "1"),
    ])
    def test_deep_nesting_fails_at_once(self, args):
        code, err = _cli(*args)
        assert code == 2
        assert f"(at byte {MAX_NESTING})" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("text, offset", [
        ("((e^64)^64)^64*d(1)", 8),
        ("*".join(["e^64"] * 100) + "*d(1)", 4),
        ("(((2)^64)^64)^64*d(1)", 10),
    ])
    def test_huge_values_fail_at_once(self, text, offset):
        code, err = _cli("lsa-mul", text, "d(1)")
        assert code == 2
        assert err.startswith("mhv: error: value exceeds the size bound")
        assert f"(at byte {offset})" in err
        assert "Traceback" not in err

    def test_size_bound(self):
        with pytest.raises(ParseError) as err:
            parse_scalar("e^64*e")
        assert err.value.offset == 4
        with pytest.raises(ParseError) as err:
            parse_element("d(1)/e^64 + d(2) + d(1)/(1+e)")
        assert err.value.offset == 17
        top = 2 ** MAX_COEFF_BITS - 1
        assert parse_scalar(f"{top}/{top - 1}") == sc(Fraction(top, top - 1))
        with pytest.raises(ParseError) as err:
            parse_scalar(f"{top}*2")
        assert err.value.offset == len(str(top))
        with pytest.raises(ParseError) as err:
            parse_scalar("1 + " + "9" * 5000)
        assert err.value.offset == 4

    def test_bound_counts_the_common_denominator(self):
        # each term is within the bound, but the sum's integer denominator
        # 2^576 * 3^384 has 1186 bits
        for term in ("1/((2)^64)^9", "e/((3)^64)^6"):
            parse_scalar(term)
        with pytest.raises(ParseError) as err:
            parse_scalar("1/((2)^64)^9 + e/((3)^64)^6")
        assert err.value.offset == 13
