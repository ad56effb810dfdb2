"""Element/scalar expression parsing and the render round trip."""

import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mhv.algebra import C, Element, L, basis_vectors, d, h, FULL
from mhv.expressions import (ParseError, parse_element, parse_rational,
                             parse_scalar)
from mhv.lsa import lsa_product
from mhv.scalars import EPS, ONE, sc


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
