"""mhv's trusted tables against their second declaration.

perfbench/reference.py writes the bracket, the left-symmetric product at
a rational e and the biderivation family lambda [., .] + Upsilon_Omega
once more in plain Fractions, importing nothing from mhv.  It is
imported here by path, and every table is compared with it on every
basis pair of the window-5 basis:

* the int bracket 2[., .], the one declaration of the bracket;
* family_table on four members, one of them with several shifts;
* the symbolic product evaluated at e, and the numeric oracle, at four
  values of e.

Each coefficient of the product is, in e, a quotient of a numerator of
degree at most 2 by 1 + e*(m + n), or, for C, a polynomial of degree 2
over e.  Two declarations of that shape whose difference is a quotient
with numerator degree at most 3 agree over Q(e) once they agree at four
admissible values of e, so the four points below compare the symbolic
table with the reference over Q(e), not only at those points.
"""

import importlib.util
import os
from fractions import Fraction

import pytest

from mhv.algebra import FULL, _int_bracket, basis_vectors
from mhv.biderivations import BiderParams, family_table
from mhv.coeffs import closed_form_fns
from mhv.lsa import _basis_product_numeric

WINDOW = 5
E_VALUES = (Fraction(2, 5), Fraction(-3, 7), Fraction(5, 13), Fraction(7, 2))
MEMBERS = ((1, {}), (0, {0: 1}), (2, {-3: 1, 1: -2}),
           (Fraction(-1, 3), {2: 5, 3: 1}))


def _load_reference():
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench", "reference.py")
    spec = importlib.util.spec_from_file_location("mhv_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ref = _load_reference()


def _value(x, scale=1) -> dict:
    """An mhv Element as a reference element, its coefficients over
    scale; an int coefficient (of the int bracket) is taken as it is."""
    return {(bv.tag, bv.index): Fraction(c if isinstance(c, int)
                                         else c.as_rational()) / scale
            for bv, c in x.terms()}


def pairs() -> list:
    """(mhv basis vector, reference basis vector) pairs, pairwise."""
    basis = list(zip(basis_vectors(WINDOW, FULL), ref.basis(WINDOW)))
    return [(u, v) for u in basis for v in basis]


def test_the_bases_are_in_one_order():
    for bv, key in zip(basis_vectors(WINDOW, FULL), ref.basis(WINDOW)):
        assert (bv.tag, bv.index) == key


def test_int_bracket():
    for (x, u), (y, v) in pairs():
        assert _value(_int_bracket(x, y), 2) == ref.basis_bracket(u, v)


@pytest.mark.parametrize("lam, omega", MEMBERS)
def test_family_table(lam, omega):
    table = family_table(BiderParams(lam, omega), FULL)
    reference = ref.family(Fraction(lam), omega)
    for (x, u), (y, v) in pairs():
        assert _value(table(x, y)) == reference({u: 1}, {v: 1}), (u, v)


@pytest.mark.parametrize("e", E_VALUES)
def test_product_symbolic_and_numeric(e):
    symbolic = closed_form_fns().product
    for (x, u), (y, v) in pairs():
        expected = ref.basis_product(u, v, e)
        assert _value(symbolic(x, y).eval_at(e)) == expected, (u, v)
        assert _value(_basis_product_numeric(x, y, e)) == expected, (u, v)
