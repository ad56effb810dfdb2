"""The graded left-symmetric product: table values, the left-symmetric
identity, compatibility with the bracket, and the two e-modes."""

from fractions import Fraction

import pytest

from mhv.algebra import (FULL, C, Element, L, basis_vectors, bracket, d,
                         grading_degree, h)
from mhv.coeffs import closed_form_fns
from mhv import lsa
from mhv.lsa import (SYMBOLIC, AdmissibilityError, EpsMode,
                     lsa_associator_defect, lsa_commutator, lsa_product)
from mhv.scalars import EPS, ONE, PoleError, ZeroEpsilonError, sc

E = Element.basis


class TestProductTable:
    def test_d2_d1(self):
        expected = -(ONE + EPS) / (ONE + sc(3) * EPS)
        assert lsa_product(E(d(2)), E(d(1))) == E(d(3)).scale(expected)

    def test_right_index_zero(self):
        assert lsa_product(E(d(5)), E(d(0))).is_zero()

    def test_left_index_zero_cancels(self):
        assert lsa_product(E(d(0)), E(d(4))) == Element.of((-4, d(4)))

    def test_central_term(self):
        value = lsa_product(E(d(1)), E(d(-1)))
        assert value.coeff(d(0)) == ONE - EPS
        assert value.coeff(C) == (EPS * EPS - ONE) / (sc(24) * EPS)

    def test_hh_left_index(self):
        # h_{1/2} h_{-1/2} = (1/2)(1/2) l; the left factor's index rules
        assert lsa_product(E(h(0)), E(h(-1))) == Element.of((Fraction(1, 4), L))
        assert lsa_product(E(h(-1)), E(h(0))) \
            == Element.of((Fraction(-1, 4), L))

    def test_hd_zero(self):
        assert lsa_product(E(h(0)), E(d(3))).is_zero()

    def test_central_factors_zero(self):
        for central in (C, L):
            assert lsa_product(E(central), E(d(2))).is_zero()
            assert lsa_product(E(d(2)), E(central)).is_zero()

    def test_dh(self):
        # d_2 h_{3/2} = -(3/2) h_{7/2}
        assert lsa_product(E(d(2)), E(h(1))) \
            == Element.of((Fraction(-3, 2), h(3)))

    def test_symbolic_table_is_the_closed_form_product(self):
        # one declaration: the coefficient functions' table is the product
        assert lsa._basis_product_symbolic is closed_form_fns().product


class TestIdentityAndCompatibility:
    def test_defect_examples(self):
        assert lsa_associator_defect(E(d(2)), E(d(1)), E(d(3))).is_zero()
        assert lsa_associator_defect(E(d(1)), E(h(0)), E(h(-2))).is_zero()

    def test_defect_antisymmetrized_slots(self):
        x = Element.of((2, d(1)), (1, h(0)))
        z = Element.of((1, d(-2)), (3, h(1)))
        assert lsa_associator_defect(x, x, z).is_zero()

    def test_commutator_d2_d1(self):
        assert lsa_commutator(E(d(2)), E(d(1))) == E(d(3))

    def test_commutator_central(self):
        value = lsa_commutator(E(d(2)), E(d(-2)))
        assert value == Element.of((4, d(0)), (Fraction(1, 2), C))

    def test_commutator_hh(self):
        assert lsa_commutator(E(h(0)), E(h(-1))) \
            == Element.of((Fraction(1, 2), L))

    def test_compatibility_window(self):
        for x in basis_vectors(3, FULL):
            for y in basis_vectors(3, FULL):
                assert lsa_commutator(E(x), E(y)) == bracket(E(x), E(y)), (x, y)

    def test_identity_window(self):
        basis = basis_vectors(2, FULL)
        for x in basis:
            for y in basis:
                for z in basis:
                    assert lsa_associator_defect(E(x), E(y), E(z)).is_zero()

    def test_grading(self):
        for x in basis_vectors(3, FULL):
            for y in basis_vectors(3, FULL):
                value = lsa_product(E(x), E(y))
                if not value.is_zero():
                    assert grading_degree(value) == x.degree() + y.degree()


class TestNumericMode:
    def test_rejects_zero(self):
        with pytest.raises(AdmissibilityError):
            EpsMode.numeric(0)

    @pytest.mark.parametrize("make", [EpsMode, EpsMode.numeric],
                             ids=["EpsMode", "numeric"])
    def test_zero_is_refused_by_the_one_rule(self, make):
        # scalars.nonzero_eps's refusal, an AdmissibilityError too
        with pytest.raises(ZeroEpsilonError):
            make(0)

    def test_numeric_none_is_a_type_error(self):
        with pytest.raises(TypeError):
            EpsMode.numeric(None)

    def test_coherence_with_symbolic(self):
        # the symbolic table against the independent plain-Fraction route
        for eps in (Fraction(2, 5), Fraction(-3, 4), Fraction(1, 7)):
            mode = EpsMode.numeric(eps)
            for x in basis_vectors(3, FULL):
                for y in basis_vectors(3, FULL):
                    sym = lsa_product(E(x), E(y))
                    num = lsa_product(E(x), E(y), mode)
                    assert sym.eval_at(eps) == num, (x, y, eps)

    def test_pole_error_with_diagnostic(self):
        mode = EpsMode.numeric(Fraction(1, 7))
        with pytest.raises(PoleError) as err:
            lsa_product(E(d(-3)), E(d(-4)), mode)
        assert "d(-3)*d(-4)" in str(err.value)

    def test_zero_numerator_pairs_are_not_poles(self):
        mode = EpsMode.numeric(Fraction(1, 7))
        # right index 0 and left index 0 cancel the offending denominator
        assert lsa_product(E(d(-7)), E(d(0)), mode).is_zero()
        assert lsa_product(E(d(0)), E(d(-7)), mode) \
            == Element.of((7, d(-7)))

    def test_window_admissibility(self):
        with pytest.raises(AdmissibilityError):
            EpsMode.numeric(Fraction(-1, 2)).computed_in(3)
        EpsMode.numeric(Fraction(1, 7)).computed_in(4)
        EpsMode.numeric(Fraction(2, 5)).computed_in(12)

    def test_computed_in_routes_by_the_pole_degree(self):
        # 1+e*(-7) = 0 at e = 1/7: inside window 7 it is refused, in
        # (w, 3w] a triple product reaches it, beyond 3w none does
        mode = EpsMode.numeric(Fraction(1, 7))
        for window in (7, 10):
            with pytest.raises(AdmissibilityError, match=r"1\+e\*\(-7\)"):
                mode.computed_in(window)
        for window in (3, 4, 6):
            assert mode.computed_in(window) is SYMBOLIC
        assert mode.computed_in(2) is mode
        assert SYMBOLIC.computed_in(5) is SYMBOLIC

    def test_identity_residuals_evaluate_cleanly(self):
        # residuals are identically zero, so numeric verification via
        # evaluation is total even when intermediate products would pole
        eps = Fraction(1, 7)
        basis = basis_vectors(3, FULL)
        res = lsa_associator_defect(E(d(-3)), E(d(-3)), E(d(-1)))
        assert res.is_zero()
        assert res.eval_at(eps).is_zero()
