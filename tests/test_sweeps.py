"""The swept residuals against their element-level formulas.

The sweeps hand their residual functions basis vectors and sum each
residual term by term from the tables on basis pairs.  Here, at window 2
and on every basis tuple, each swept residual is compared with the same
formula written with bilinear, bracket, lsa_product and the family's
BilinearTable on Element.basis operands, which the sweeps no longer use.
Every sweep yields only its nonzero residuals and returns the number of
its zero cases: a case it does not yield must be zero by the formula,
and the cases it yields and counts must be every case.  The derivation
kernel, which takes every table and every first vector in one call, is
compared table by table with that formula, axiom_oracle.  A residual
function of a basis sweep, and the kernel, return term dicts and build
no Element: a basis sweep builds one only for a nonzero residual.
The two product residuals, associator_defect and commutator_defect, are
also compared at window 1 on the oracle's seeded random tables, whose
h, a and b parts the closed form sets to zero.  A whole window-2 suite
run calls bilinear not once.
The orbit sweeps of lsa-identity and jacobi evaluate one member of each
orbit of their residual's twins; their reports are compared with plain
sweeps of the same residual, passing and failing, at 1, 2 and 3 workers.
"""

from fractions import Fraction
from functools import partial
from itertools import product

import pytest

from mhv import algebra, biderivations, lsa, suite
from mhv.algebra import (BRACKET_TABLES, CENTERLESS, FULL, C, Element, L,
                         accumulate_left, accumulate_right, basis_vectors,
                         bilinear, bracket, d, h, project_centerless,
                         tag_table)
from mhv.biderivations import (FAMILY_SAMPLES, UPSILON_SHIFTS, BiderParams,
                               BilinearTable, LinearMap, _axiom_cases,
                               _candidate_generators, _joined,
                               _upsilon_generator, check_biderivation,
                               check_commuting, check_lsa_biderivation,
                               check_post_lie, commuting_residuals,
                               derivation_residuals, family_table,
                               lsa_bider_residuals, post_lie_residuals)
from mhv.coeffs import (SAMPLE_SEEDS, associator_defect, closed_form_fns,
                        commutator_defect, random_fns)
from mhv.lsa import (SYMBOLIC, EpsMode, lsa_associator_defect, lsa_commutator,
                     lsa_product, product_table)
from mhv.scalars import EPS, ONE, PoleError
from mhv.reports import Swept, render_inputs
from mhv.suite import (CHECK_ORDER, CHECKS, RunConfig, _antisym,
                       _commuting_specs, _grading, _jacobi, _sweep,
                       run_chunks, run_suite)

WINDOW = 2
E = Element.basis

MEMBERS = FAMILY_SAMPLES + (BiderParams(EPS, {-1: 1, 0: Fraction(2, 3)}),)


def tuples(arity: int, mode=FULL) -> list:
    return list(product(basis_vectors(WINDOW, mode), repeat=arity))


class SweptByTuple(dict):
    """(inputs, equation_id) -> residual of a sweep's yielded cases, each
    key once and none zero; zeros is the count the sweep returned, and a
    case it did not yield reads as zero."""

    def __init__(self, sweep):
        super().__init__()
        swept = Swept(sweep)
        for inputs, eq_id, residual in swept:
            assert (inputs, eq_id) not in self
            assert not residual.is_zero(), (inputs, eq_id)
            self[inputs, eq_id] = residual
        self.zeros = swept.zeros

    def __missing__(self, key):
        return Element.zero()

    def assert_cases(self, *key_sets: tuple) -> None:
        """Every yielded key is an (inputs, equation_id) of one of the
        (inputs, eq_ids) key_sets, and the yielded and counted cases are
        as many as those keys."""
        keys = {key for inputs, eq_ids in key_sets
                for key in product(inputs, eq_ids)}
        assert set(self) <= keys
        assert len(self) + self.zeros == len(keys)


# the e-modes a sweep of the product runs in: symbolic, and over Q
SWEPT_MODES = (SYMBOLIC, EpsMode.numeric(Fraction(2, 5)))


class TestSuiteSweeps:
    def test_jacobi(self):
        for x, y, z in tuples(3):
            ex, ey, ez = E(x), E(y), E(z)
            assert Element(_jacobi(x, y, z)) \
                == bracket(ex, bracket(ey, ez)) \
                + bracket(ey, bracket(ez, ex)) + bracket(ez, bracket(ex, ey))

    def test_lsa_identity(self):
        # lsa-identity sweeps the product table of the run's e-mode
        for eps in SWEPT_MODES:
            mul = product_table(eps)
            for x, y, z in tuples(3):
                assert Element(associator_defect(mul, x, y, z)) \
                    == lsa_associator_defect(E(x), E(y), E(z), eps)

    def test_pair_sweeps(self):
        for x, y in tuples(2):
            ex, ey = E(x), E(y)
            value = bracket(ex, ey)
            assert Element(_antisym(x, y)) == value + bracket(ey, ex)
            assert Element(_grading(x, y)).is_zero()
            for eps in SWEPT_MODES:
                assert Element(commutator_defect(product_table(eps), x, y)) \
                    == lsa_commutator(ex, ey, eps) - value

    @pytest.mark.parametrize("seed", SAMPLE_SEEDS)
    def test_kernels_on_random_tables(self, seed):
        # random tables give h, a and b the shapes the closed form zeroes
        mul = random_fns(seed).product
        p = partial(bilinear, mul)
        for x, y, z in product(basis_vectors(1, FULL), repeat=3):
            ex, ey, ez = E(x), E(y), E(z)
            assert Element(associator_defect(mul, x, y, z)) \
                == p(p(ex, ey), ez) - p(ex, p(ey, ez)) \
                - (p(p(ey, ex), ez) - p(ey, p(ex, ez))), (x, y, z)
        for x, y in product(basis_vectors(1, FULL), repeat=2):
            ex, ey = E(x), E(y)
            assert Element(commutator_defect(mul, x, y)) \
                == p(ex, ey) - p(ey, ex) - bracket(ex, ey), (x, y)


# the int bracket with 2(m - n) on d_m d_n replaced by m^2 - n: its
# Jacobi sum is nonzero, and still the same sum at each rotation
_SKEWED_INTS = tag_table(
    dd=lambda m, n: Element({d(m + n): m * m - n}),
    dh=lambda m, n: Element({h(m + n): -(2 * n + 1)}),
    hd=lambda m, n: Element({h(m + n): 2 * m + 1}),
    hh=lambda m, n: Element({L: 0 if m + n + 1 else 2 * m + 1}))


def run_plan(plan: tuple, workers: int):
    chunks, finish = plan
    return finish(run_chunks(chunks, workers))


class TestTwins:
    """The symmetries the orbit sweeps rest on hold by the residuals' own
    formulas, on any table."""

    @pytest.mark.parametrize("seed", SAMPLE_SEEDS)
    def test_associator_defect_is_antisymmetric(self, seed):
        mul = random_fns(seed).product
        nonzero = 0
        for x, y, z in tuples(3):
            value = Element(associator_defect(mul, x, y, z))
            assert Element(associator_defect(mul, y, x, z)) == -value
            nonzero += not value.is_zero()
        assert nonzero

    def test_jacobi_is_the_same_at_each_rotation(self, monkeypatch):
        monkeypatch.setattr(suite, "_ints", _SKEWED_INTS)
        nonzero = 0
        for x, y, z in tuples(3):
            value = Element(_jacobi(x, y, z))
            assert Element(_jacobi(y, z, x)) == value \
                == Element(_jacobi(z, x, y))
            nonzero += not value.is_zero()
        assert nonzero


class TestOrbitSweeps:
    """lsa-identity and jacobi evaluate the least member of each orbit of
    their declared twins and emit its value for every member."""

    @pytest.mark.parametrize("window", [1, 2, 3])
    @pytest.mark.parametrize("check", ["lsa-identity", "jacobi"])
    def test_every_basis_triple_is_one_case(self, check, window,
                                            monkeypatch):
        # a residual that never vanishes makes every case a failure
        one = {d(0): ONE}
        monkeypatch.setattr(suite, "associator_defect", lambda *a: one)
        monkeypatch.setattr(suite, "_jacobi", lambda *a: one)
        report = run_plan(CHECKS[check](window, SYMBOLIC), 1)
        b = len(basis_vectors(window, FULL))
        assert report.total_cases == b ** 3
        assert sorted(f.inputs for f in report.failures) == sorted(
            render_inputs(t) for t in product(basis_vectors(window, FULL),
                                              repeat=3))

    @pytest.mark.parametrize("window", [1, 2, 3])
    def test_lsa_identity_reports_as_a_plain_sweep(self, window,
                                                   monkeypatch):
        # random_fns(1)'s defects are nonzero, so failure lists are
        # compared
        for mul in (product_table(SYMBOLIC), random_fns(1).product):
            plain = _sweep("lsa-identity", "lsa.identity", 3,
                           partial(associator_defect, mul), window)
            expected = run_plan(plain, 1).to_json()
            monkeypatch.setattr(suite, "product_table", lambda eps: mul)
            for workers in (1, 2, 3):
                assert run_plan(plain, workers).to_json() == expected
                assert run_plan(CHECKS["lsa-identity"](window, SYMBOLIC),
                                workers).to_json() == expected
        assert not run_plan(plain, 1).passed

    @pytest.mark.parametrize("window", [1, 2, 3])
    def test_jacobi_reports_as_a_plain_sweep(self, window, monkeypatch):
        for ints in (suite._ints, _SKEWED_INTS):
            monkeypatch.setattr(suite, "_ints", ints)
            plain = _sweep("jacobi", "jacobi", 3, _jacobi, window)
            expected = run_plan(plain, 1).to_json()
            for workers in (1, 2, 3):
                assert run_plan(plain, workers).to_json() == expected
                assert run_plan(CHECKS["jacobi"](window, SYMBOLIC),
                                workers).to_json() == expected
        assert not run_plan(plain, 1).passed


def axiom_oracle(cand: BilinearTable, mode, x, y, z) -> dict:
    """Both derivation axioms from the element-level API.  On the quotient
    the candidate's values are projected before they enter a bracket,
    which then refuses any central term that slipped through."""
    q = project_centerless if mode is CENTERLESS else (lambda v: v)
    f = lambda a, b: q(cand(a, b))                      # noqa: E731
    br = lambda a, b: bracket(a, b, mode)               # noqa: E731
    ex, ey, ez = E(x), E(y), E(z)
    return {"bider.left": f(br(ex, ey), ez) - br(f(ex, ez), ey)
            - br(ex, f(ey, ez)),
            "bider.right": f(ex, br(ey, ez)) - br(f(ex, ey), ez)
            - br(ey, f(ex, ez))}


def assert_axioms_match(cand: BilinearTable, mode) -> None:
    swept = SweptByTuple(_axiom_cases("bider", cand.evaluator,
                                      BRACKET_TABLES[mode], WINDOW, mode))
    triples = tuples(3, mode)
    swept.assert_cases((triples, ("bider.left", "bider.right")))
    for x, y, z in triples:
        for eq_id, value in axiom_oracle(cand, mode, x, y, z).items():
            assert swept[(x, y, z), eq_id] == value, (x, y, z, eq_id)


class TestAxiomResiduals:
    @pytest.mark.parametrize("mode", [FULL, CENTERLESS],
                             ids=lambda m: m.value)
    @pytest.mark.parametrize("params", MEMBERS, ids=repr)
    def test_family_members(self, params, mode):
        assert_axioms_match(BilinearTable.from_params(params, mode), mode)

    def test_full_valued_member_on_the_quotient(self):
        # the full bracket's values hold C, and [h, h] is a multiple of L
        cand = BilinearTable.from_params(BiderParams(2, {0: 1}), FULL)
        assert_axioms_match(cand, CENTERLESS)

    def test_candidate_with_central_values_on_the_quotient(self):
        cand = BilinearTable(tag_table(
            dd=lambda m, n: Element.of((m, d(m + n)), (n + 1, C)),
            dh=lambda m, n: Element.of((1, h(m + n)), (m, L)),
            hh=lambda m, n: Element.of((1, C), (m - n, L))), "central")
        assert_axioms_match(cand, CENTERLESS)


def assert_kernel_matches(tables: list, mode, window: int = WINDOW) -> None:
    """derivation_residuals of the tables, with respect to the bracket,
    in one call over every first vector, against axiom_oracle table by
    table: the axiom cases it yields come in basis order, each once, with
    some nonzero residual, and match the oracle; one it skips is zero for
    every table; and with the count it returns it sweeps every case.  On
    the quotient the kernel takes the projected tables, as axiom_oracle
    does."""
    basis = basis_vectors(window, mode)
    cands = [BilinearTable(table) for table in tables]
    swept = tables if mode is FULL else \
        [lambda u, v, table=table: project_centerless(table(u, v))
         for table in tables]
    cases = [(t, axiom) for t in product(basis, repeat=3)
             for axiom in ("left", "right")]
    items = Swept(derivation_residuals(swept, BRACKET_TABLES[mode], basis,
                                       basis))
    yielded = [((inputs, axiom), residuals)
               for inputs, axiom, residuals in items]
    keys = [key for key, _ in yielded]
    seen = set(keys)
    assert keys == [case for case in cases if case in seen]
    assert len(yielded) + items.zeros == len(cases)
    found = dict(yielded)
    zero = [{}] * len(tables)
    for x, y, z in product(basis, repeat=3):
        oracles = [axiom_oracle(cand, mode, x, y, z) for cand in cands]
        for axiom in ("left", "right"):
            residuals = found.get(((x, y, z), axiom), zero)
            assert ((x, y, z), axiom) not in found or any(residuals)
            for oracle, residual in zip(oracles, residuals, strict=True):
                assert Element(residual) == oracle[f"bider.{axiom}"], \
                    (x, y, z, axiom)


# values of several terms on every tag pair, central ones included
SEVERAL_TERMS = tag_table(
    dd=lambda m, n: Element.of((m, d(m + n)), (1, h(m - n)), (n + 1, C)),
    dh=lambda m, n: Element.of((1, h(m + n)), (n - m, d(m)), (m, L)),
    hd=lambda m, n: Element.of((2, d(m - n)), (Fraction(1, 3), h(n))),
    hh=lambda m, n: Element.of((1, C), (m - n, L), (m, d(m + n + 1))))


class TestDerivationKernel:
    def test_the_converse_generators(self):
        # the bracket, every upsilon[s] and every decoy
        tables = [t for _, t in _candidate_generators()]
        assert_kernel_matches(tables, CENTERLESS, window=1)

    @pytest.mark.parametrize("mode", [FULL, CENTERLESS],
                             ids=lambda m: m.value)
    def test_full_valued_and_several_term_tables(self, mode):
        # the full table holds C, and [h, h] a multiple of L; on the
        # quotient both are projected away
        full = family_table(BiderParams(2, {0: 1}), FULL)
        assert_kernel_matches([SEVERAL_TERMS, full, BRACKET_TABLES[FULL]],
                              mode)

    def test_no_empty_value_reaches_an_accumulate_kernel(self, monkeypatch):
        def nonempty(kernel):
            def checked(acc, factor, table, u, x):
                assert x._terms if kernel is accumulate_right else u._terms
                kernel(acc, factor, table, u, x)
            return checked

        for kernel in (accumulate_left, accumulate_right):
            monkeypatch.setattr(biderivations, kernel.__name__,
                                nonempty(kernel))
        assert_kernel_matches([SEVERAL_TERMS, BRACKET_TABLES[FULL]], FULL,
                              window=1)

    def test_a_vanishing_residual_is_an_empty_dict(self, monkeypatch):
        # the bracket's residuals vanish and SEVERAL_TERMS' do not: the
        # kernel yields term dicts, {} in a vanishing slot, and constructs
        # no Element
        built = []

        class Recorded(Element):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(biderivations, "Element", Recorded)
        basis = basis_vectors(WINDOW, FULL)
        items = list(derivation_residuals(
            [SEVERAL_TERMS, BRACKET_TABLES[FULL]], BRACKET_TABLES[FULL],
            basis, basis))
        assert items and not built
        for _, _, (several, bracket_residual) in items:
            assert type(several) is dict and several
            assert bracket_residual == {} and type(bracket_residual) is dict

    def test_one_call_over_several_first_vectors(self):
        # the same items and count as one call per first vector, joined
        basis = basis_vectors(WINDOW, FULL)
        tables = [SEVERAL_TERMS, BRACKET_TABLES[FULL]]
        sweep = partial(derivation_residuals, tables, BRACKET_TABLES[FULL])
        for xs in (basis[:1], basis[3:7], basis):
            whole = Swept(sweep(xs, basis))
            joined = Swept(_joined([partial(sweep, [x], basis)
                                    for x in xs]))
            assert list(whole) == list(joined)
            assert whole.zeros == joined.zeros > 0

    def test_until_ends_the_sweep_after_a_whole_triple(self):
        # d(-1)'s first triple yields its left axiom, its second both: the
        # second ask, after the second triple, ends the sweep
        basis = basis_vectors(WINDOW, FULL)
        sweep = partial(derivation_residuals,
                        [SEVERAL_TERMS, BRACKET_TABLES[FULL]],
                        BRACKET_TABLES[FULL], [d(-1)], basis)
        items = list(sweep())
        assert [(inputs[1:], axiom) for inputs, axiom, _ in items[:4]] == [
            ((d(-2), d(-2)), "left"), ((d(-2), d(-1)), "left"),
            ((d(-2), d(-1)), "right"), ((d(-2), d(0)), "left")]
        asked = []

        def until():
            asked.append(None)
            return len(asked) == 2

        stopped = Swept(sweep(until=until))
        assert list(stopped) == items[:3]
        assert len(asked) == 2 and stopped.zeros == 0


def elements_built(monkeypatch, run) -> int:
    """The number of Elements constructed while run() runs."""
    built = []
    init = Element.__init__

    def counted(self, *args, **kwargs):
        built.append(None)
        init(self, *args, **kwargs)

    with monkeypatch.context() as patched:
        patched.setattr(Element, "__init__", counted)
        run()
    return len(built)


class TestTermDicts:
    """A residual is a term dict until a report needs it: a basis sweep's
    residual functions and the derivation kernel construct no Element, so
    a passing sweep on warm tables constructs none."""

    def test_a_passing_basis_sweep_builds_no_element(self, monkeypatch):
        for eps in SWEPT_MODES:
            mul = product_table(eps)  # one table, both sweeps
            monkeypatch.setattr(suite, "product_table", lambda eps: mul)
            for check in ("lsa-identity", "jacobi"):
                sweep = partial(run_plan, CHECKS[check](WINDOW, eps), 1)
                assert sweep().passed  # fills the tables' memos
                assert elements_built(monkeypatch, sweep) == 0, (eps, check)

    def test_the_derivation_kernel_builds_no_element(self, monkeypatch):
        tables, _ = biderivations._lanes(
            [BRACKET_TABLES[CENTERLESS]]
            + [_upsilon_generator(s) for s in UPSILON_SHIFTS])
        basis = basis_vectors(WINDOW, CENTERLESS)

        def sweep():
            items = Swept(derivation_residuals(tables, biderivations._ints,
                                               basis, basis))
            assert not list(items)
            assert items.zeros == 2 * len(basis) ** 3

        sweep()  # fills the tables' memos
        assert elements_built(monkeypatch, sweep) == 0


class TestPostLie:
    @pytest.mark.parametrize("params", MEMBERS, ids=repr)
    def test_against_elements(self, params):
        dot = BilinearTable.from_params(params)
        swept = SweptByTuple(_joined(post_lie_residuals(params, WINDOW)))
        swept.assert_cases(
            (tuples(2), ("postlie.commutative",)),
            (tuples(3), ("postlie.bracket_product",
                         "postlie.product_bracket")))
        for x, y in tuples(2):
            assert swept[(x, y), "postlie.commutative"] \
                == dot(E(x), E(y)) - dot(E(y), E(x))
        for x, y, z in tuples(3):
            ex, ey, ez = E(x), E(y), E(z)
            assert swept[(x, y, z), "postlie.bracket_product"] \
                == dot(bracket(ex, ey), ez) - dot(ex, dot(ey, ez)) \
                + dot(ey, dot(ex, ez))
            assert swept[(x, y, z), "postlie.product_bracket"] \
                == dot(ex, bracket(ey, ez)) - bracket(dot(ex, ey), ez) \
                - bracket(ey, dot(ex, ez))


class TestLsaBiderivation:
    @pytest.mark.parametrize("eps", [SYMBOLIC,
                                     EpsMode.numeric(Fraction(2, 5))],
                             ids=repr)
    @pytest.mark.parametrize("params", MEMBERS[1:4], ids=repr)
    def test_against_elements(self, params, eps):
        f = BilinearTable.from_params(params)
        mul = lambda a, b: lsa_product(a, b, eps)       # noqa: E731
        swept = SweptByTuple(_joined(lsa_bider_residuals(
            params, WINDOW, product_table(eps))))
        swept.assert_cases((tuples(3), ("lsabider.left", "lsabider.right")))
        for x, y, z in tuples(3):
            ex, ey, ez = E(x), E(y), E(z)
            assert swept[(x, y, z), "lsabider.left"] \
                == f(mul(ex, ey), ez) - mul(f(ex, ez), ey) \
                - mul(ex, f(ey, ez))
            assert swept[(x, y, z), "lsabider.right"] \
                == f(ex, mul(ey, ez)) - mul(f(ex, ey), ez) \
                - mul(ey, f(ex, ez))

    def test_pole_error_at_the_first_triple(self):
        with pytest.raises(PoleError) as info:
            check_lsa_biderivation(BiderParams(1, {}), 4,
                                   EpsMode.numeric(Fraction(1, 7)))
        assert str(info.value) == \
            "1+e*(-7) = 0 at e = 1/7; offending pairs: d(-4)*d(-3)"

    def test_numeric_table_raises_as_lsa_product_on_every_call(self):
        eps = EpsMode.numeric(Fraction(1, 7))
        table = product_table(eps)
        with pytest.raises(PoleError) as expected:
            lsa_product(E(d(-4)), E(d(-3)), eps)
        for _ in range(2):
            with pytest.raises(PoleError) as info:
                table(d(-4), d(-3))
            assert str(info.value) == str(expected.value)
        # so does the closed form at e, which builds the same message
        with pytest.raises(PoleError) as info:
            closed_form_fns(eps.eps).f(-4, -3)
        assert str(info.value) == str(expected.value)
        # a pair off the pole, and one with a zero index, are values
        assert table(d(-3), d(-3)) == lsa_product(E(d(-3)), E(d(-3)), eps)
        assert table(d(0), d(-7)) == lsa_product(E(d(0)), E(d(-7)), eps)


# phi(d(m)) = m d(m), zero elsewhere, is not commuting; its run_suite
# report is the same for any worker count
# (test_reports_cli.py::TestSuite::test_commuting_chunks_pool_like_one_sweep)
NOT_COMMUTING = LinearMap.from_table(
    {d(m): Element.of((m, d(m))) for m in range(-WINDOW, WINDOW + 1)},
    "m*d(m)")


class TestCommuting:
    @pytest.mark.parametrize("phi", _commuting_specs(WINDOW) + [NOT_COMMUTING],
                             ids=lambda phi: phi.name)
    def test_against_elements(self, phi):
        swept = SweptByTuple(commuting_residuals(phi, WINDOW))
        swept.assert_cases((tuples(2), ("commuting.polarized",)))
        for x, y in tuples(2):
            ex, ey = E(x), E(y)
            assert swept[(x, y), "commuting.polarized"] \
                == bracket(phi(ex), ey) + bracket(phi(ey), ex), (x, y)


# every run_suite check's total_cases at windows 1, 2 and 3, as a sweep of
# every case, zero or not, counts them; a numeric e gives the same
SUITE_CASES = {
    "jacobi": (512, 1728, 4096),
    "antisym": (64, 144, 256),
    "grading": (64, 144, 256),
    "lsa-identity": (512, 1728, 4096),
    "compatibility": (64, 144, 256),
    "bider-family": (2320, 10240, 27760),
    "bider-grid": (391, 1095, 1165),
    "commuting": (192, 432, 768),
    "postlie-grid": (162, 162, 162),
    "lsa-bider-grid": (162, 162, 162),
    "star": (351, 1625, 4459),
    "ast": (189, 875, 2401),
    "cross-check": (5540, 7500, 11860),
    "solve-theta": (23, 23, 43),
}


class TestCaseCounts:
    """A sweep yields only its nonzero cases and counts the rest, so every
    total_cases is the number of cases, passing or failing."""

    @pytest.mark.parametrize("window", [1, 2, 3])
    def test_public_sweeps(self, window):
        b = len(basis_vectors(window, FULL))
        c = len(basis_vectors(window, CENTERLESS))
        # the inner member passes the biderivation axioms in both modes,
        # the other fails them over the full algebra; both fail the
        # post-Lie and left-symmetric biderivation axioms
        for params, full_passes in ((BiderParams(2, {}), True),
                                    (BiderParams(1, {0: 1}), False)):
            cand = BilinearTable.from_params(params, FULL)
            report = check_biderivation(cand, window)
            assert (report.total_cases, report.passed) == (2 * c ** 3, True)
            report = check_biderivation(cand, window, FULL)
            assert (report.total_cases, report.passed) \
                == (2 * b ** 3, full_passes)
            report = check_post_lie(params, window)
            assert (report.total_cases, report.passed) \
                == (b ** 2 + 2 * b ** 3, False)
            for eps in SWEPT_MODES:
                report = check_lsa_biderivation(params, window, eps)
                assert (report.total_cases, report.passed) \
                    == (2 * b ** 3, False)
        not_commuting = LinearMap.from_table(
            {d(m): Element.of((m, d(m))) for m in range(-window, window + 1)})
        for phi, passes in ((_commuting_specs(window)[0], True),
                            (not_commuting, False)):
            report = check_commuting(phi, window)
            assert (report.total_cases, report.passed) == (b ** 2, passes)

    def test_a_joined_sweep_keeps_every_pieces_count(self):
        # the pieces' zero counts pass through their join
        report = check_lsa_biderivation(BiderParams(1, {}), 3)
        assert report.total_cases == 8192
        assert 0 < len(report.failures) < 8192

    @pytest.mark.parametrize("window", [1, 2, 3])
    @pytest.mark.parametrize("eps", SWEPT_MODES, ids=repr)
    def test_suite_checks(self, window, eps, monkeypatch):
        monkeypatch.setenv("MHV_WORKERS", "1")
        reports = run_suite(RunConfig(window=window, eps=eps))
        assert {r.check: r.total_cases for r in reports} \
            == {name: cases[window - 1]
                for name, cases in SUITE_CASES.items()}
        assert all(r.passed for r in reports)


def test_a_suite_run_calls_bilinear_nowhere(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return bilinear(*args)

    # bracket looks bilinear up in algebra; lsa and biderivations import it
    for module in (algebra, lsa, biderivations):
        monkeypatch.setattr(module, "bilinear", counted)
    assert bracket(E(d(1)), E(d(2))) == bilinear(algebra._basis_bracket,
                                                 E(d(1)), E(d(2)))
    assert len(calls) == 1
    monkeypatch.setenv("MHV_WORKERS", "1")  # count in this process
    reports = run_suite(RunConfig(window=WINDOW))
    assert [r.check for r in reports] == list(CHECK_ORDER)
    assert len(calls) == 1
