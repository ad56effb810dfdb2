"""The exact scalar field Q(e): canonical forms, arithmetic, evaluation."""

import subprocess
import sys
from fractions import Fraction
from functools import reduce
from math import gcd, lcm

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from mhv.algebra import C, Element, L, d, h
from mhv.reports import residual_failure
from mhv.scalars import (EPS, EPS_INV, ONE, ZERO, PoleError, Scalar,
                         ScalarDivisionError, ZeroEpsilonError, _make, padd,
                         pgcd, pmul, pneg, prender, ptrim, ratio, sc)
from mhv.suite import run_chunks

rationals = st.fractions(min_value=-40, max_value=40, max_denominator=12)


def poly_scalar(coeffs):
    acc = ZERO
    power = ONE
    for c in coeffs:
        acc = acc + sc(c) * power
        power = power * EPS
    return acc


small_polys = st.lists(rationals, min_size=1, max_size=4).map(poly_scalar)
scalars = st.builds(
    lambda num, den: num / den if not den.is_zero() else num,
    small_polys, small_polys)
nonzero_rationals = rationals.filter(lambda r: r != 0)
# small rationals, and ones with numerator and denominator above 2**64
lane_rationals = st.one_of(rationals, st.builds(
    Fraction, st.integers(-2**80, 2**80), st.integers(1, 2**80)))
# coefficient tuples, zero and constants included
polys = st.lists(rationals, max_size=5).map(ptrim)
# scalars built only through the general route, Scalar(num, den)
general_scalars = st.builds(
    lambda num, den: Scalar(num, den if den else (Fraction(1),)),
    polys, polys)

# k*num/den for products num and den of a small pool of factors, so that
# numerators and denominators share factors, are equal, are non-primitive
# (2+2*e) or cancel; k = 0 draws the zero scalar
FACTORS = ((1, 1), (2, 2), (3, 2), (-3, 2), (0, 1), (1, 0, 1), (1, 3, 2),
           (5, -2, 3))
factor_products = st.lists(st.sampled_from(FACTORS), max_size=3).map(
    lambda factors: reduce(pmul, factors, (1,)))
shared_scalars = st.builds(
    lambda k, num, den: Scalar(pmul((k,), num), den),
    st.integers(-6, 6), factor_products, factor_products)


class TestExamples:
    def test_inverse_pair(self):
        one_plus = ONE + EPS
        assert (ONE / one_plus) * one_plus == ONE

    def test_additive_inverse(self):
        assert EPS + (-EPS) == ZERO

    def test_common_denominator(self):
        # e - 1/e collected over the common denominator e
        value = EPS - ONE / EPS
        assert value == (EPS * EPS - ONE) / EPS
        assert value.render() == "(-1+e^2)/(e)"

    def test_eps_inverse_is_a_scalar(self):
        assert EPS_INV * EPS == ONE


class TestEvaluation:
    def test_substitution(self):
        a = (ONE + EPS) / (ONE + sc(3) * EPS)
        assert a.eval_at(Fraction(1, 5)) == Fraction(3, 4)

    def test_constant(self):
        assert sc(7).eval_at(Fraction(1, 3)) == 7

    def test_pole(self):
        a = ONE / (ONE + sc(2) * EPS)
        with pytest.raises(PoleError):
            a.eval_at(Fraction(-1, 2))

    def test_zero_epsilon(self):
        with pytest.raises(ZeroEpsilonError):
            sc(7).eval_at(0)

    def test_division_by_zero(self):
        with pytest.raises(ScalarDivisionError):
            ONE / ZERO


class TestCanonicalForm:
    def test_shared_factor_cancels(self):
        p = ONE + EPS
        q = ONE + sc(3) * EPS
        r = sc(Fraction(2, 3)) + EPS  # arbitrary common factor
        assert (p * r) / (q * r) == p / q

    def test_denominator_is_primitive_with_positive_lead(self):
        # stored over Z[e]; render divides both by the content 24 of den
        value = (EPS * EPS - ONE) / (sc(24) * EPS)
        assert value.num == (-1, 0, 1)
        assert value.den == (0, 24)
        assert value.render() == "(-1/24+1/24*e^2)/(e)"

    def test_negative_lead_normalized(self):
        value = ONE / (sc(-1) - EPS)
        assert value.den[-1] > 0

    def test_rational_collapse(self):
        assert sc(Fraction(6, 4)) == sc(Fraction(3, 2))
        assert sc(Fraction(3, 2)).is_rational()
        assert sc(Fraction(3, 2)).as_rational() == Fraction(3, 2)

    def test_rendering(self):
        assert ((ONE + EPS) / (ONE + sc(3) * EPS)).render() == "(1+e)/(1+3*e)"
        assert sc(7).render() == "7"
        assert ZERO.render() == "0"
        assert (-EPS).render() == "-e"
        assert prender((Fraction(-3, 4), Fraction(0), Fraction(1))) \
            == "-3/4+e^2"


class TestFieldAxioms:
    @given(scalars, scalars, scalars)
    @settings(max_examples=60, deadline=None)
    def test_associativity_and_distributivity(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)

    @given(scalars)
    @settings(max_examples=60, deadline=None)
    def test_multiplicative_inverse(self, a):
        if not a.is_zero():
            assert a * (ONE / a) == ONE

    @given(scalars, scalars)
    @settings(max_examples=60, deadline=None)
    def test_commutativity(self, a, b):
        assert a + b == b + a
        assert a * b == b * a

    @given(scalars)
    @settings(max_examples=40, deadline=None)
    def test_canonicalization_idempotent(self, a):
        again = Scalar(a.num, a.den)
        assert again == a
        assert (again.num, again.den) == (a.num, a.den)

    @given(scalars, scalars, rationals)
    @settings(max_examples=60, deadline=None)
    def test_eval_is_a_homomorphism(self, a, b, x):
        if x == 0:
            return
        try:
            va, vb = a.eval_at(x), b.eval_at(x)
        except PoleError:
            return
        assert (a * b).eval_at(x) == va * vb
        assert (a + b).eval_at(x) == va + vb


def test_poly_gcd_monic():
    # (1+e)(1+2e) against (1+e)(1+3e): gcd is the monic 1+e
    p = ((ONE + EPS) * (ONE + sc(2) * EPS))
    q = ((ONE + EPS) * (ONE + sc(3) * EPS))
    g = pgcd(p.num, q.num)
    assert g == (Fraction(1), Fraction(1))


def euclid_pgcd(a: tuple, b: tuple) -> tuple:
    """Reference: the monic gcd by Euclid over Q, as pgcd computed it
    before it ran over Z[e]."""
    def remainder(a, b):
        rem = list(a)
        db, lb = len(b) - 1, b[-1]
        while len(rem) - 1 >= db and any(c != 0 for c in rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < db:
                break
            shift = len(rem) - 1 - db
            q = rem[-1] / lb
            for i, c in enumerate(b):
                rem[shift + i] -= q * c
            rem.pop()
        return ptrim(rem)

    while b:
        a, b = b, remainder(a, b)
    if not a:
        return ()
    return tuple(c / a[-1] for c in a)


def monic_pgcd(a: tuple, b: tuple) -> tuple:
    """pgcd of a and b with denominators cleared, scaled to be monic; the
    gcd is unique up to a unit, so this is comparable with euclid_pgcd."""
    def cleared(p):
        m = lcm(*(c.denominator for c in p))
        return tuple(c.numerator * (m // c.denominator) for c in p)

    g = pgcd(cleared(a), cleared(b))
    assert all(type(c) is int for c in g)
    assert not g or (gcd(*g) == 1 and g[-1] > 0)
    return tuple(Fraction(c, g[-1]) for c in g)


class TestGcd:
    @given(polys, polys, polys)
    @settings(max_examples=200, deadline=None)
    def test_matches_euclid_over_q(self, a, b, g):
        for x, y in ((a, b), (pmul(a, g), pmul(b, g)), (a, ()), ((), b),
                     ((), ())):
            assert monic_pgcd(x, y) == euclid_pgcd(x, y)

    def test_zero_constant_and_common_factor(self):
        one_e = (Fraction(1), Fraction(1))        # 1+e
        half = (Fraction(1, 2),)
        cases = [((), ()), ((), half), (half, ()), (half, (Fraction(3),)),
                 (one_e, ()), ((), pmul(one_e, (Fraction(-2, 3),))),
                 (pmul(one_e, (Fraction(2), Fraction(-6))),
                  pmul(pmul(one_e, one_e), (Fraction(-1, 3), Fraction(5)))),
                 (pmul(one_e, (Fraction(7, 2),)),
                  pmul(one_e, (Fraction(-4),)))]
        for a, b in cases:
            assert monic_pgcd(a, b) == euclid_pgcd(a, b)
        assert pgcd((-4, -4), (1, 1)) == (1, 1)

    def test_large_common_factor(self):
        # a degree-20 common factor with large coefficients
        g = (Fraction(1),)
        for k in range(1, 21):
            g = pmul(g, (Fraction(k, 3), Fraction(2 * k + 1)))
        a = pmul(g, (Fraction(-5), Fraction(1, 7), Fraction(2)))
        b = pmul(g, (Fraction(3, 4), Fraction(9)))
        assert monic_pgcd(a, b) == euclid_pgcd(a, b) \
            == pmul(g, (1 / g[-1],))

    @pytest.mark.parametrize("a, b, expected", [
        # non-primitive and negative-leading linear divisors
        (pmul((1, 1), (3, 5)), (2, 2), (1, 1)),
        (pmul((1, 1), (3, 5)), (-4, -4), (1, 1)),
        (pmul((-3, 2), (1, 0, 1)), (3, -2), (-3, 2)),
        # a root at the non-integer rational -3/2, and near misses
        (pmul((3, 2), (1, 0, 1)), (3, 2), (3, 2)),
        (pmul((3, 1), (1, 0, 1)), (3, 2), (1,)),
        (pmul((2, 3), (1, 2)), (3, 2), (1,)),
        # a constant a
        ((6,), (3, 2), (1,)),
        ((-4,), (2, 2), (1,)),
        # repeated factors
        (pmul((3, 2), (3, 2)), (3, 2), (3, 2)),
        (pmul(pmul((3, 2), (3, 2)), (1, 1)), pmul((3, 2), (3, 2)),
         pmul((3, 2), (3, 2))),
        (pmul(pmul((3, 2), (3, 2)), (1, 1)), pmul((3, 2), (1, 2)), (3, 2)),
    ])
    def test_linear_divisors(self, a, b, expected):
        assert pgcd(a, b) == pgcd(b, a) == expected
        for x, y in ((a, b), (b, a)):
            x, y = (tuple(map(Fraction, p)) for p in (x, y))
            assert monic_pgcd(x, y) == euclid_pgcd(x, y)


class TestCrossCancellation:
    """+, -, * and / cancel common factors of the operands' numerators and
    denominators before they multiply; the result must be the canonical
    form the general route Scalar(num, den) computes."""

    @given(shared_scalars, shared_scalars)
    @settings(max_examples=300, deadline=None)
    def test_matches_the_general_route(self, x, y):
        a, b = x.num, x.den
        for z in (y, x, -x):
            c, d = z.num, z.den
            routes = [(x + z, padd(pmul(a, d), pmul(c, b)), pmul(b, d)),
                      (x - z, padd(pmul(a, d), pneg(pmul(c, b))), pmul(b, d)),
                      (x * z, pmul(a, c), pmul(b, d))]
            if not z.is_zero():
                routes.append((x / z, pmul(a, d), pmul(b, c)))
            for value, num, den in routes:
                expected = Scalar(num, den)
                assert (value.num, value.den) == (expected.num, expected.den)


class TestRationalShortcuts:
    """r * a, a + r and a - r for a rational r skip canonicalisation, and
    so does the rational lane when a is rational too; the result must be
    the canonical form the general route computes."""

    @given(general_scalars, lane_rationals)
    @settings(max_examples=200, deadline=None)
    def test_product(self, a, r):
        expected = Scalar(pmul(a.num, (r,)), a.den)
        for value in (a * sc(r), sc(r) * a):
            assert (value.num, value.den) == (expected.num, expected.den)

    @given(general_scalars, lane_rationals)
    @settings(max_examples=200, deadline=None)
    def test_sum(self, a, r):
        expected = Scalar(padd(a.num, pmul(a.den, (r,))), a.den)
        for value in (a + sc(r), sc(r) + a):
            assert (value.num, value.den) == (expected.num, expected.den)

    @given(general_scalars, lane_rationals)
    @settings(max_examples=200, deadline=None)
    def test_difference(self, a, r):
        expected = Scalar(padd(a.num, pmul(a.den, (-r,))), a.den)
        negated = Scalar(pneg(expected.num), expected.den)
        for value, want in ((a - sc(r), expected), (sc(r) - a, negated)):
            assert (value.num, value.den) == (want.num, want.den)

    def test_rational_times_polynomial(self):
        value = sc(Fraction(-2, 3)) * (ONE + EPS)
        assert value.num == (-2, -2)
        assert value.den == (3,)


class TestRationalLane:
    """+, - and * of two nonzero rationals compute with ints and one gcd,
    and unary - negates the numerator; the result must be the canonical
    form of the Fraction result, as Scalar(num, den) computes it."""

    @staticmethod
    def check(value, expected):
        assert value == Scalar.from_rational(expected)
        oracle = Scalar((expected.numerator,), (expected.denominator,))
        assert (value.num, value.den) == (oracle.num, oracle.den)
        if expected == 0:
            assert (value.num, value.den) == ((), (1,))
        else:
            (n,), (m,) = value.num, value.den
            assert type(n) is type(m) is int
            assert m > 0 and gcd(n, m) == 1

    @given(lane_rationals, lane_rationals)
    @settings(max_examples=300, deadline=None)
    def test_matches_fractions(self, x, y):
        a, b = sc(x), sc(y)
        self.check(a + b, x + y)
        self.check(a - b, x - y)
        self.check(a * b, x * y)
        self.check(-a, -x)

    @given(lane_rationals)
    @settings(max_examples=100, deadline=None)
    def test_cancellation(self, x):
        self.check(sc(x) - sc(x), 0)
        self.check(sc(x) + sc(-x), 0)

    def test_a_unit_ratio_is_the_shared_one(self):
        # so that a table entry of weight 1, such as upsilon[s]'s, takes
        # the kernels' `is ONE` fast paths
        from mhv.biderivations import _upsilon_generator
        for n in (1, 2, 7, 2**70):
            assert ratio(n, n) is ONE
        assert ratio(2, 4) == sc(Fraction(1, 2))
        value = _upsilon_generator(0)(d(1), d(2))
        assert value.coeff(h(3)) is ONE


class TestIntegerForm:
    """Every stored coefficient is an int and num/den is reduced over
    Z[e].  A Fraction in storage compares and hashes equal to an int, so
    only a type check catches one."""

    @staticmethod
    def check(value):
        assert all(type(c) is int for c in value.num + value.den)
        assert value.den[-1] > 0
        assert gcd(*value.num, *value.den) == 1
        assert pgcd(value.num, value.den) == (1,)

    @given(polys, polys, general_scalars, general_scalars, rationals)
    @settings(max_examples=200, deadline=None)
    def test_results_are_integer_and_reduced(self, num, den, x, y, r):
        self.check(Scalar(num, den or (Fraction(1),)))
        self.check(sc(r))
        for z in (y, sc(r)):
            self.check(x + z)
            self.check(x - z)
            self.check(x * z)
            if not z.is_zero():
                self.check(x / z)


class TestHash:
    @given(general_scalars, general_scalars, nonzero_rationals)
    @settings(max_examples=100, deadline=None)
    def test_equal_values_hash_equal(self, x, y, r):
        assume(not y.is_zero())
        for other in ((x * y) / y, (x + y) - y, (x * sc(r)) / sc(r),
                      Scalar(pmul(x.num, y.num), pmul(x.den, y.num))):
            assert other == x
            assert hash(other) == hash(x)
            assert {x: 1}[other] == 1

    def test_hash_is_stable(self):
        value = (ONE + EPS) / (ONE + sc(3) * EPS)
        assert hash(value) == hash(value) == hash((value.num, value.den))


class TestMake:
    """Arithmetic builds its results with _make, which skips __init__."""

    def test_a_scalar_is_false_exactly_when_zero(self):
        assert not ZERO and not sc(0) and not EPS - EPS
        assert EPS and EPS_INV and sc(Fraction(-1, 3))

    @given(general_scalars, general_scalars)
    @settings(max_examples=60, deadline=None)
    def test_hash_and_equality_agree_with_init(self, x, y):
        for made in (_make(x.num, x.den), x + y, x * y):
            built = Scalar(made.num, made.den)
            assert made == built and built == made
            assert hash(made) == hash(built)
            assert {built: 1}[made] == 1

    def test_pickles_through_a_forked_worker(self):
        def chunk():
            fresh = (ONE + EPS) / sc(3)
            hashed = sc(Fraction(2, 7)) * EPS
            hash(hashed)
            residual = Element.of((fresh, d(0)), (Fraction(1, 2), h(1)))
            return fresh, hashed, residual_failure("(x)", "probe", residual)

        here = chunk()
        for fresh, hashed, failure in run_chunks([chunk, chunk], 2):
            assert (fresh.num, fresh.den) == (here[0].num, here[0].den)
            assert hash(fresh) == hash(here[0])
            assert hashed == here[1] and hash(hashed) == hash(here[1])
            assert failure == here[2] and failure.value == here[2].value
            assert failure.value.coeff(d(0)).eval_at(2) == 1


def fraction_horner(a: tuple, x: Fraction) -> Fraction:
    """a(x) by Horner's rule in Fractions, as eval_at once computed it."""
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def fraction_scalar_render(value: Scalar) -> str:
    """Scalar.render as it was written with a Fraction per coefficient."""
    content = gcd(*value.den)
    num = prender(tuple(Fraction(c, content) for c in value.num))
    if len(value.den) == 1:
        return num
    return f"({num})/({prender(tuple(c // content for c in value.den))})"


def fraction_element_render(x: Element) -> str:
    """Element.render as it was written with as_rational's Fraction."""
    if x.is_zero():
        return "0"
    parts = []
    for bv, coeff in x.terms():
        if coeff == ONE:
            body = bv.render()
        elif coeff.is_rational():
            r = coeff.as_rational()
            body = f"-{bv.render()}" if r == -1 else f"{r}*{bv.render()}"
        else:
            body = f"({fraction_scalar_render(coeff)})*{bv.render()}"
        parts.append(body)
    out = parts[0]
    for part in parts[1:]:
        out += " - " + part[1:] if part.startswith("-") else " + " + part
    return out


# +-1, integers, p/q, and Q(e) values whose den has content > 1 (shared)
render_scalars = st.one_of(
    st.sampled_from([ONE, -ONE]), st.integers(-30, 30).map(sc),
    rationals.map(sc), general_scalars, shared_scalars).filter(
        lambda v: not v.is_zero())
render_vectors = st.sampled_from([d(m) for m in range(-2, 3)]
                                 + [h(n) for n in range(-2, 3)] + [C, L])


class TestReportKernels:
    """eval_at by integer Horner steps and the renderings from canonical
    ints, against the Fraction-based code they replaced."""

    @given(general_scalars, nonzero_rationals)
    @example(Scalar((1, 2, 3, 4), (1, 1)), Fraction(-3, 2))
    @example(Scalar((5,), (1, 0, 2)), Fraction(2, 7))
    @example(Scalar((), (1,)), Fraction(-4))
    @settings(max_examples=100, deadline=None)
    def test_eval_at_matches_fraction_horner(self, a, x):
        den = fraction_horner(a.den, x)
        if den == 0:
            with pytest.raises(PoleError, match=r"^pole of .* at e = "):
                a.eval_at(x)
        else:
            value = a.eval_at(x)
            assert type(value) is Fraction
            assert value == fraction_horner(a.num, x) / den

    @given(polys, polys, st.integers(-6, 6).filter(bool), st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_pole_message_at_a_root_of_den(self, num, den, p, q):
        # den * (q*e - p) vanishes at p/q unless num cancels the factor
        a = Scalar(num, pmul(den or (1,), (-p, q)))
        x = Fraction(p, q)
        assume(fraction_horner(a.den, x) == 0)
        with pytest.raises(PoleError) as info:
            a.eval_at(x)
        assert str(info.value) == f"pole of {fraction_scalar_render(a)} " \
            f"at e = {x}"

    @given(general_scalars)
    @settings(max_examples=50, deadline=None)
    def test_zero_is_refused(self, a):
        for zero in (0, Fraction(0)):
            with pytest.raises(ZeroEpsilonError):
                a.eval_at(zero)

    @given(render_scalars)
    @example(Scalar((1,), (2, 4)))
    @settings(max_examples=100, deadline=None)
    def test_scalar_render(self, a):
        assert a.render() == fraction_scalar_render(a)

    @given(st.dictionaries(render_vectors, render_scalars, max_size=6))
    @example({d(1): ONE, h(0): -ONE, C: sc(-3), L: sc(Fraction(-2, 7))})
    @settings(max_examples=50, deadline=None)
    def test_element_render(self, terms):
        x = Element(terms)
        assert x.render() == fraction_element_render(x)


# sums of rational functions of degree 64 whose canonicalisation ran for
# minutes when the gcd was Euclid over Q
@pytest.mark.parametrize("left", [
    "(((1+2*e)^32+e)/((1+3*e)^32+1)+((1+5*e)^32+e)/((1+7*e)^32+1))*d(1)",
    "((1+2*e)^64/((1+3*e)^64+1))*d(1)",
])
def test_large_canonicalisation_finishes(left):
    proc = subprocess.run([sys.executable, "-m", "mhv.cli", "bracket", left,
                           "d(2)"], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
