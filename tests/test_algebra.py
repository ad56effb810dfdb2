"""Basis, elements, bracket and grading of the algebra."""

import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mhv.algebra import (CENTERLESS, FULL, C, CentralTermError, Element, L,
                         MIXED, ZeroElementError, basis_vectors, bracket, d,
                         grading_degree, h)
from mhv.scalars import EPS, ONE, sc

E = Element.basis


def el(*pairs):
    return Element.of(*pairs)


class TestBracketTable:
    def test_dd(self):
        assert bracket(E(d(2)), E(d(1))) == E(d(3))

    def test_dd_central_vanishes_at_one(self):
        assert bracket(E(d(1)), E(d(-1))) == el((2, d(0)))

    def test_dd_central(self):
        assert bracket(E(d(2)), E(d(-2))) == el((4, d(0)), (Fraction(1, 2), C))

    def test_hh_central(self):
        assert bracket(E(h(0)), E(h(-1))) == el((Fraction(1, 2), L))

    def test_dh(self):
        # [d_2, h_{3/2}] = -(3/2) h_{7/2}
        assert bracket(E(d(2)), E(h(1))) == el((Fraction(-3, 2), h(3)))

    def test_central_annihilates(self):
        for central in (C, L):
            assert bracket(E(central), E(d(5))).is_zero()
            assert bracket(E(d(5)), E(central)).is_zero()
            assert bracket(E(central), E(h(2))).is_zero()

    def test_centerless_drops_central_output(self):
        full = bracket(E(d(2)), E(d(-2)), FULL)
        cl = bracket(E(d(2)), E(d(-2)), CENTERLESS)
        assert cl == el((4, d(0)))
        assert full.coeff(C) == sc(Fraction(1, 2))

    def test_centerless_hh_is_zero(self):
        assert bracket(E(h(0)), E(h(-1)), CENTERLESS).is_zero()

    def test_centerless_rejects_central_input(self):
        with pytest.raises(CentralTermError):
            bracket(E(C), E(d(1)), CENTERLESS)
        with pytest.raises(CentralTermError):
            bracket(E(d(1)), el((1, d(0)), (1, L)), CENTERLESS)


class TestGrading:
    def test_homogeneous(self):
        assert grading_degree(el((1, d(3)), (7, h(3)))) == 3

    def test_central_degrees(self):
        assert grading_degree(E(C)) == 0
        assert grading_degree(E(L)) == -1

    def test_mixed(self):
        assert grading_degree(el((1, d(1)), (1, d(2)))) is MIXED

    def test_zero_element_error(self):
        with pytest.raises(ZeroElementError):
            grading_degree(Element.zero())

    def test_bracket_adds_degrees(self):
        for x in basis_vectors(3, FULL):
            for y in basis_vectors(3, FULL):
                value = bracket(E(x), E(y))
                if not value.is_zero():
                    assert grading_degree(value) == x.degree() + y.degree()


class TestElementOps:
    def test_cancellation(self):
        assert (E(d(1)) - E(d(1))).is_zero()

    def test_scale_by_eps(self):
        scaled = E(h(0)).scale(EPS)
        assert scaled.coeff(h(0)) == EPS
        assert len(scaled) == 1

    def test_add_merges(self):
        assert E(d(1)) + E(d(1)) == el((2, d(1)))

    def test_term_order(self):
        x = el((1, L), (1, C), (1, h(-2)), (1, d(5)), (1, d(-1)))
        keys = [bv for bv, _ in x.terms()]
        assert keys == [d(-1), d(5), h(-2), C, L]

    def test_render(self):
        x = el((1, d(2)), (3, h(0)), (-1, C))
        assert x.render() == "d(2) + 3*h(1/2) - c"
        assert Element.zero().render() == "0"


class TestPickle:
    @pytest.mark.parametrize("bv", [d(3), h(-2), C, L])
    def test_basis_vector_round_trip_keeps_interning(self, bv):
        assert pickle.loads(pickle.dumps(bv)) is bv

    def test_element_with_symbolic_coefficients_round_trips(self):
        x = el((EPS / (ONE + sc(3) * EPS), d(2)), (Fraction(-1, 2), h(0)),
               (EPS, C))
        y = pickle.loads(pickle.dumps(x))
        assert y == x and y.render() == x.render()


window_elements = st.lists(
    st.tuples(st.fractions(min_value=-9, max_value=9, max_denominator=4),
              st.sampled_from(basis_vectors(3, FULL))),
    min_size=0, max_size=4).map(lambda pairs: Element.of(*pairs))


class TestBracketProperties:
    @given(window_elements)
    @settings(max_examples=50, deadline=None)
    def test_alternating(self, x):
        assert bracket(x, x).is_zero()

    @given(window_elements, window_elements)
    @settings(max_examples=50, deadline=None)
    def test_antisymmetry(self, x, y):
        assert bracket(x, y) == -bracket(y, x)

    @given(window_elements, window_elements, window_elements)
    @settings(max_examples=40, deadline=None)
    def test_jacobi_random_elements(self, x, y, z):
        total = bracket(x, bracket(y, z)) + bracket(y, bracket(z, x)) \
            + bracket(z, bracket(x, y))
        assert total.is_zero()

    def test_jacobi_exhaustive_small_window(self):
        for mode in (FULL, CENTERLESS):
            basis = basis_vectors(2, mode)
            for x in basis:
                for y in basis:
                    for z in basis:
                        ex, ey, ez = E(x), E(y), E(z)
                        total = bracket(ex, bracket(ey, ez, mode), mode) \
                            + bracket(ey, bracket(ez, ex, mode), mode) \
                            + bracket(ez, bracket(ex, ey, mode), mode)
                        assert total.is_zero(), (mode, x, y, z)

    def test_centerless_is_full_without_center(self):
        basis = basis_vectors(3, CENTERLESS)
        for x in basis:
            for y in basis:
                full = bracket(E(x), E(y), FULL)
                stripped = Element(
                    {bv: cf for bv, cf in full.terms() if not bv.is_central()})
                assert bracket(E(x), E(y), CENTERLESS) == stripped


class TestSubtraction:
    @given(window_elements, window_elements, st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_matches_adding_the_negative(self, x, y, symbolic):
        if symbolic:
            y = y.scale(ONE + EPS)
        x_terms, y_terms = x.terms(), y.terms()
        assert x - y == x + (-y)
        assert (x - x).is_zero()
        assert (x.terms(), y.terms()) == (x_terms, y_terms)
