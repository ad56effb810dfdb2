"""Basis, elements, bracket and grading of the algebra."""

import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mhv.algebra import (BRACKET_TABLES, CENTERLESS, FULL, AlgebraError,
                         AlgebraMode, BasisVector, C, CentralTermError,
                         Element, L, MIXED, ZeroElementError, _basis_bracket,
                         _int_bracket, basis_vectors, bracket, d,
                         grading_degree, h)
from mhv.scalars import EPS, ONE, sc
from mhv.suite import run_chunks

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


class TestIntBracket:
    """The bracket is declared once, as the int table 2[., .]; the Scalar
    tables of both modes are that table halved."""

    @pytest.mark.parametrize("mode", list(AlgebraMode))
    def test_int_form_is_twice_the_scalar_table(self, mode):
        ints, scale = BRACKET_TABLES[mode].int_form
        assert scale == 2
        central = set()
        for u in basis_vectors(6, mode):
            for v in basis_vectors(6, mode):
                twice, value = ints(u, v), BRACKET_TABLES[mode](u, v)
                assert all(type(c) is int for c in twice._terms.values())
                assert Element({bv: sc(c) for bv, c in twice._terms.items()}) \
                    == value.scale(sc(2)), (u, v)
                central.update(bv for bv in twice.support()
                               if bv.is_central())
        assert central == ({C, L} if mode is FULL else set())

    def test_full_int_form_is_the_declaration(self):
        assert _basis_bracket.int_form == (_int_bracket, 2)


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


class TestBasisVectorIdentity:
    def test_equality(self):
        assert d(3) == d(3) and hash(d(3)) == hash(d(3))
        assert d(3) != h(3) and C != L
        assert d(3) != ("d", 3) and ("d", 3) != d(3)

    def test_vector_from_a_worker_finds_its_term(self):
        x = el((5, d(97)), (-1, h(-97)))
        # each result is pickled in a forked worker and unpickled here
        found = run_chunks([lambda: d(97), lambda: h(-97)], 2)
        assert [x.coeff(bv) for bv in found] == [sc(5), sc(-1)]


class TestBasisVectorValidation:
    @pytest.mark.parametrize("tag, index", [
        ("c", 3), ("l", 0), ("d", None), ("h", None), ("d", 1.5),
        ("h", Fraction(1, 2)), ("d", "1"), ("x", 1), ("D", 1)],
        ids=["c3", "l0", "dNone", "hNone", "d1.5", "hFraction", "dstr",
             "x1", "D1"])
    def test_malformed_vector_rejected(self, tag, index):
        with pytest.raises(AlgebraError):
            BasisVector(tag, index)

    @pytest.mark.parametrize("tag", ["d", "h"])
    def test_bool_index_rejected(self, tag, monkeypatch):
        # True == 1 finds an interned d(1); an empty cache makes it a miss
        monkeypatch.setattr(BasisVector, "_cache", {})
        with pytest.raises(AlgebraError):
            BasisVector(tag, True)

    def test_valid_vectors_still_interned(self):
        assert BasisVector("c", None) is C and BasisVector("l", None) is L
        assert BasisVector("d", -7) is d(-7) and BasisVector("h", 7) is h(7)


class TestAlgebraMode:
    @pytest.mark.parametrize("mode", list(AlgebraMode))
    def test_pickle_round_trip_finds_the_member(self, mode):
        table = {FULL: "full", CENTERLESS: "centerless"}
        back = pickle.loads(pickle.dumps(mode))
        assert back is mode and table[back] == mode.value

    def test_forked_workers_find_the_bracket_table(self):
        def chunk():
            return bracket(E(d(1)), E(d(-1)), FULL).render()
        assert run_chunks([chunk, chunk], 2) == ["2*d(0)", "2*d(0)"]

    def test_basis_bracket_memo_still_hits(self):
        pairs = [(x, y, mode) for mode in AlgebraMode
                 for x in basis_vectors(1, mode)
                 for y in basis_vectors(1, mode)]
        assert BRACKET_TABLES[FULL] is _basis_bracket
        for _ in range(2):
            hits = {mode: table.cache_info().hits
                    for mode, table in BRACKET_TABLES.items()}
            for x, y, mode in pairs:
                bracket(E(x), E(y), mode)
        # every pair of the second sweep is a hit in its mode's table
        for mode, table in BRACKET_TABLES.items():
            assert table.cache_info().hits - hits[mode] \
                >= sum(m is mode for *_, m in pairs)


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
# elements whose coefficients are plain rationals or depend on e
mixed_elements = st.lists(
    st.tuples(st.builds(lambda r, f: sc(r) * f,
                        st.fractions(min_value=-9, max_value=9,
                                     max_denominator=4),
                        st.sampled_from([ONE, EPS, ONE / (ONE + EPS)])),
              st.sampled_from(basis_vectors(2, FULL))),
    max_size=5).map(lambda pairs: Element.of(*pairs))
elements = st.one_of(window_elements, mixed_elements)


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
    @given(elements, elements)
    @settings(max_examples=200, deadline=None)
    def test_matches_adding_the_negative(self, x, y):
        x_terms, y_terms = x.terms(), y.terms()
        difference = x - y
        assert difference == x + (-y)
        assert (x - x).is_zero()
        for bv in set(y.support()) - set(x.support()):
            assert difference.coeff(bv) == -y.coeff(bv)
        assert (x.terms(), y.terms()) == (x_terms, y_terms)

    def test_term_only_in_the_subtrahend_is_negated(self):
        x = el((2, d(1)), (EPS, h(0)))
        y = el((EPS, h(0)), (Fraction(3, 2), d(-2)), (ONE + EPS, C))
        assert x - y == el((2, d(1)), (Fraction(-3, 2), d(-2)),
                           (-(ONE + EPS), C))
