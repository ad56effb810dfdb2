"""The one bilinear extension: algebra.bilinear against the plain sum of
Element.of over all term pairs, on dense random elements, the zero
element and one-term elements, and the one family table against the
bracket and Upsilon it is built from.  Every table built by
algebra.tag_table vanishes off the tag pairs it lists."""

from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from mhv.algebra import (BRACKET_TABLES, CENTERLESS, FULL, C, Element, L,
                         _basis_bracket, basis_vectors, bilinear, bracket, d,
                         h)
from mhv.biderivations import (BiderParams, BilinearTable,
                               _candidate_generators, bider_eval,
                               family_table, upsilon)
from mhv.coeffs import random_fns
from mhv.lsa import (EpsMode, _basis_product_numeric, _basis_product_symbolic,
                     lsa_product)
from mhv.scalars import EPS, MINUS_ONE, ONE, Scalar, sc

E_VALUE = Fraction(2, 5)

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def qe_scalars(draw):
    """Nonzero (a + b e) / (1 + c e) with small rational a, b and integer c."""
    a, b = draw(rationals), draw(rationals)
    if a == 0 and b == 0:
        a = Fraction(1)
    c = draw(st.integers(-3, 3))
    return Scalar((a, b), (Fraction(1), Fraction(c)))


@st.composite
def dense_elements(draw, central=False):
    vectors = draw(st.lists(
        st.builds(lambda tag, i: d(i) if tag == "d" else h(i),
                  st.sampled_from("dh"), st.integers(-4, 4)),
        min_size=4, max_size=8, unique=True))
    if central:
        vectors += draw(st.lists(st.sampled_from((C, L)), unique=True))
    return Element.of(*((draw(qe_scalars()), bv) for bv in vectors))


@st.composite
def sparse_elements(draw, central=False):
    """The zero element or one term, with coefficient ONE, MINUS_ONE, a
    rational or a Q(e) scalar."""
    vectors = [d(i) for i in range(-4, 5)] + [h(i) for i in range(-4, 5)]
    if central:
        vectors += [C, L]
    if draw(st.integers(0, 3)) == 0:
        return Element.zero()
    coeff = draw(st.one_of(st.sampled_from((ONE, MINUS_ONE)),
                           rationals.filter(bool).map(sc), qe_scalars()))
    return Element.of((coeff, draw(st.sampled_from(vectors))))


@st.composite
def members(draw):
    """A family member: lambda zero, rational or in Q(e), and Omega on
    shifts in -3..3."""
    lam = draw(st.one_of(st.just(Fraction(0)), rationals, qe_scalars()))
    omega = draw(st.dictionaries(st.integers(-3, 3), qe_scalars(),
                                 max_size=3))
    return BiderParams(lam, omega)


def term_pair_sum(table, x: Element, y: Element) -> Element:
    return Element.of(*((cu * cv * c, w)
                        for u, cu in x.terms() for v, cv in y.terms()
                        for w, c in table(u, v).terms()))


def upsilon_table(params):
    def table(u, v):
        if u.tag != "d" or v.tag != "d":
            return Element.zero()
        return Element.of(*((sc(Fraction(2 * k + 1, 2)) * mu,
                             h(u.index + v.index + k))
                            for k, mu in params.omega.items()))
    return table


def operands(central=False):
    """A dense element, the zero element or a one-term element."""
    return st.one_of(dense_elements(central), sparse_elements(central))


@settings(max_examples=30, deadline=None)
@given(operands(central=True), operands(central=True))
def test_bracket_is_the_term_pair_sum(x, y):
    table = _basis_bracket
    assert bracket(x, y) == term_pair_sum(table, x, y)


@settings(max_examples=30, deadline=None)
@given(operands(central=True), operands(central=True))
def test_symbolic_product_is_the_term_pair_sum(x, y):
    assert lsa_product(x, y) \
        == term_pair_sum(_basis_product_symbolic, x, y)


@settings(max_examples=30, deadline=None)
@given(operands(central=True), operands(central=True))
def test_numeric_product_is_the_term_pair_sum(x, y):
    table = lambda u, v: _basis_product_numeric(u, v, E_VALUE)
    assert lsa_product(x, y, EpsMode.numeric(E_VALUE)) \
        == term_pair_sum(table, x, y)


@settings(max_examples=30, deadline=None)
@given(operands(), operands(),
       st.dictionaries(st.integers(-2, 2), rationals.filter(bool),
                       min_size=1, max_size=3))
def test_upsilon_is_the_term_pair_sum(x, y, omega):
    params = BiderParams(0, omega)
    assert upsilon(params, x, y) == term_pair_sum(upsilon_table(params), x, y)


@settings(max_examples=30, deadline=None)
@given(members(), dense_elements(central=True), dense_elements(central=True))
def test_family_is_scaled_bracket_plus_upsilon(params, x, y):
    assert bider_eval(params, x, y) \
        == bracket(x, y).scale(params.lam) + upsilon(params, x, y)


@settings(max_examples=30, deadline=None)
@given(members(), dense_elements(), dense_elements())
def test_centerless_family_is_scaled_bracket_plus_upsilon(params, x, y):
    table = BilinearTable.from_params(params, CENTERLESS)
    assert table(x, y) == bracket(x, y, CENTERLESS).scale(params.lam) \
        + upsilon(params, x, y)


# (table from a drawn family member, whether it takes central arguments)
# for every table the sweeps extend; only the family tables use the member
SPARSE_TABLES = {
    "bracket[full]": (lambda params: BRACKET_TABLES[FULL], True),
    "bracket[centerless]": (lambda params: BRACKET_TABLES[CENTERLESS], False),
    "product[symbolic]": (lambda params: _basis_product_symbolic, True),
    "product[numeric]": (lambda params: partial(_basis_product_numeric,
                                                eps=E_VALUE), True),
    "family[full]": (lambda params: family_table(params, FULL), True),
    "family[centerless]": (lambda params: family_table(params, CENTERLESS),
                           False),
}


@pytest.mark.parametrize("name", SPARSE_TABLES)
@settings(max_examples=60, deadline=None)
@given(params=members(), data=st.data())
def test_sparse_operands_give_the_term_pair_sum(name, params, data):
    make, central = SPARSE_TABLES[name]
    table = make(params)
    x = data.draw(operands(central), "x")
    y = data.draw(sparse_elements(central), "y")
    assert bilinear(table, x, y) == term_pair_sum(table, x, y)
    assert bilinear(table, y, x) == term_pair_sum(table, y, x)


@settings(max_examples=30, deadline=None)
@given(operands(central=True), operands(central=True))
def test_bilinear_leaves_table_values_unchanged(x, y):
    table = _basis_bracket
    before = {(u, v): dict(table(u, v)._terms)
              for u in x.support() for v in y.support()}
    # every operation on the results builds new Elements
    for value in (bilinear(table, x, y), bilinear(table, y, x)):
        assert (value - value).is_zero()
        assert value + value == value.scale(sc(2))
        assert -value == value.scale(MINUS_ONE)
        assert value.scale(EPS) - x == -(x - value.scale(EPS))
        assert bilinear(table, value, y) == term_pair_sum(table, value, y)
        assert bilinear(table, x, value) == term_pair_sum(table, x, value)
    assert all(table(u, v)._terms == terms
               for (u, v), terms in before.items())


ALL_TAGS = ("dd", "dh", "hd", "hh")
# (table, the tag pairs it lists) for every table built by tag_table
TAG_TABLES = {
    "bracket[full]": (BRACKET_TABLES[FULL], ALL_TAGS),
    "bracket[centerless]": (BRACKET_TABLES[CENTERLESS], ("dd", "dh", "hd")),
    # also closed_form_fns().product, the same object
    "product": (_basis_product_symbolic, ("dd", "dh", "hh")),
    "product[random]": (random_fns(1).product, ALL_TAGS),
}
# the converse's upsilon[s] generators and its decoys, named by tag pair
TAG_TABLES.update(
    (name, (table, ("dd",) if name.startswith("upsilon") else (name[:2],)))
    for name, table in _candidate_generators() if name != "bracket")


@pytest.mark.parametrize("name", TAG_TABLES)
def test_tag_tables_vanish_on_central_and_unlisted_pairs(name):
    table, tags = TAG_TABLES[name]
    basis = basis_vectors(2, FULL)
    off = [(u, v) for u in basis for v in basis
           if u.is_central() or v.is_central() or u.tag + v.tag not in tags]
    assert len(off) >= 2 * len(basis)
    assert all(table(u, v) == Element.zero() for u, v in off)
