"""Biderivation family, axiom checking, commuting maps, post-Lie and
left-symmetric triviality sweeps, and the converse certificate."""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from functools import partial
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from mhv import biderivations
from mhv.algebra import (BRACKET_TABLES, CENTERLESS, FULL, BasisVector, C,
                         CentralTermError, Element, L, basis_vectors, bilinear,
                         bracket, d, h, project_centerless, scalar_table,
                         tag_table)
from mhv.biderivations import (FAMILY_GENERATORS, FAMILY_SAMPLES, BiderParams,
                               BilinearTable, LinearMap, _axiom_cases,
                               _candidate_generators, _central_residuals,
                               _first_failure, _joined, bider_eval,
                               check_bider_converse, check_biderivation,
                               check_commuting, check_lsa_biderivation,
                               check_post_lie, family_parts, family_table,
                               grid_plan, grid_points, lsa_bider_residuals,
                               upsilon)
from mhv.linalg import RowReducer
from mhv.lsa import SYMBOLIC, EpsMode, lsa_product, product_table
from mhv.reports import (Failure, Report, collect, pooled, prefixed,
                         render_inputs, residual_failure)
from mhv.scalars import EPS, ONE, sc
from mhv.suite import CHECKS, RunConfig, run_chunks, run_suite
from test_sweeps import axiom_oracle

E = Element.basis


def run_check(name: str, window: int) -> Report:
    """The Report of the registry check name, as mhv verify runs it."""
    return run_suite(RunConfig(window=window, checks=(name,)))[0]


def run_probe(plan: tuple) -> Report:
    """The Report of a probe plan (chunks, finish), run in this process."""
    chunks, finish = plan
    return finish(run_chunks(chunks, 1))


class TestUpsilon:
    def test_single_mu(self):
        params = BiderParams(0, {0: 1})
        assert upsilon(params, E(d(1)), E(d(2))) \
            == Element.of((Fraction(1, 2), h(3)))

    def test_dh_zero(self):
        params = BiderParams(0, {0: 1})
        assert upsilon(params, E(d(3)), E(h(2))).is_zero()
        assert upsilon(params, E(h(2)), E(d(3))).is_zero()
        assert upsilon(params, E(C), E(d(0))).is_zero()

    def test_negative_k(self):
        params = BiderParams(0, {-1: 2})
        assert upsilon(params, E(d(0)), E(d(0))) == Element.of((-1, h(-1)))

    def test_symmetric_in_arguments(self):
        params = BiderParams(0, {-2: 1, 1: sc(Fraction(2, 3))})
        for m in range(-3, 4):
            for n in range(-3, 4):
                assert upsilon(params, E(d(m)), E(d(n))) \
                    == upsilon(params, E(d(n)), E(d(m)))


class TestBiderParams:
    @pytest.mark.parametrize("shift", [Fraction(1, 2), 0.9])
    def test_non_integer_shift_rejected(self, shift):
        # int() would truncate it and lose or merge the term
        with pytest.raises(ValueError, match="not an integer"):
            BiderParams(1, {shift: 1, 0: 2})

    def test_bool_shift_rejected(self):
        # True == 1, but a bool is no index, as in BasisVector
        with pytest.raises(ValueError, match="not an integer"):
            BiderParams(1, {True: 1})

    @pytest.mark.parametrize("shift", [float("inf"), float("-inf"),
                                       float("nan")])
    def test_non_finite_shift_rejected(self, shift):
        with pytest.raises(ValueError, match="not an integer"):
            BiderParams(1, {shift: 1})

    def test_integral_shift_of_any_type_kept(self):
        params = BiderParams(1, {Fraction(2): 1, -1.0: 3})
        assert params.describe() == "lambda=1, omega={-1: 3, 2: 1}"


class TestBiderEval:
    def test_pure_inner(self):
        params = BiderParams(3, {})
        assert bider_eval(params, E(d(2)), E(d(1))) == Element.of((3, d(3)))

    def test_central_annihilation(self):
        params = BiderParams(Fraction(5, 2), {0: 1, 2: -1})
        for central in (C, L):
            for x in basis_vectors(3, FULL):
                assert bider_eval(params, E(central), E(x)).is_zero()
                assert bider_eval(params, E(x), E(central)).is_zero()

    def test_mixed(self):
        params = BiderParams(1, {0: 1})
        assert bider_eval(params, E(d(1)), E(d(-1))) \
            == Element.of((2, d(0)), (Fraction(1, 2), h(0)))

    def test_skew_part_is_twice_upsilon(self):
        params = BiderParams(Fraction(-1, 3), {1: 2, -1: 1})
        for x in basis_vectors(2, FULL):
            for y in basis_vectors(2, FULL):
                skew = bider_eval(params, E(x), E(y)) \
                    + bider_eval(params, E(y), E(x))
                assert skew == upsilon(params, E(x), E(y)).scale(sc(2))


class TestAxiomChecker:
    def test_family_passes_centerless(self):
        params = BiderParams(2, {1: 1})
        report = check_biderivation(
            BilinearTable.from_params(params, CENTERLESS), 3)
        assert report.passed
        assert report.total_cases == 2 * len(basis_vectors(3, CENTERLESS))**3

    def test_zero_map_passes(self):
        report = check_biderivation(
            BilinearTable.from_params(BiderParams(0, {}), CENTERLESS), 2)
        assert report.passed

    @pytest.mark.parametrize("params", [BiderParams(0, {0: 1}),
                                        BiderParams(1, {}),
                                        BiderParams(0, {})])
    def test_centerless_table_rejects_central_input(self, params):
        # as the centerless bracket does, for every member
        table = BilinearTable.from_params(params, CENTERLESS)
        for x, y in ((E(C), E(d(0))), (E(d(0)), E(L))):
            with pytest.raises(CentralTermError):
                table(x, y)

    @pytest.mark.parametrize("window", [0, -1])
    def test_window_below_one_rejected(self, window):
        table = BilinearTable.from_params(BiderParams(1, {0: 1}), CENTERLESS)
        with pytest.raises(ValueError):
            check_biderivation(table, window)

    def test_raw_table_fails(self):
        table = BilinearTable(
            lambda u, v: E(d(u.index + v.index))
            if u.tag == "d" and v.tag == "d" else Element.zero(),
            "dd->d")
        report = check_biderivation(table, 2)
        assert not report.passed
        witness = {(f.inputs, f.equation_id) for f in report.failures}
        assert ("(d(1), d(1), d(2))", "bider.right") in witness

    def test_central_values_drop_out_of_the_centerless_check(self):
        # the values of f enter only brackets, which vanish on C and L, so
        # a candidate reports as its projection onto the quotient does
        projected = tag_table(dd=lambda m, n: E(d(m + n)))
        central = tag_table(dd=lambda m, n: Element.of((1, d(m + n)), (1, C)),
                            hh=lambda m, n: E(L))
        reports = [check_biderivation(BilinearTable(table, "dd->d"), 2,
                                      CENTERLESS)
                   for table in (projected, central)]
        assert not reports[0].passed
        assert reports[1] == reports[0]

    def test_upsilon_obstructed_over_the_center(self):
        # the h-valued image brackets into l: over the full algebra the
        # exceptional part is not a biderivation, and the first failing
        # residual is the central (1/4) l at the smallest indices
        params = BiderParams(0, {0: 1})
        report = check_biderivation(
            BilinearTable.from_params(params, FULL), 2, FULL)
        assert not report.passed
        assert all(f.residual.endswith("l") for f in report.failures)

    def test_inner_passes_even_full(self):
        report = check_biderivation(
            BilinearTable.from_params(BiderParams(3, {}), FULL), 2, FULL)
        assert report.passed

    def test_family_samples_window3(self):
        report = run_check("bider-family", 3)
        assert report.passed
        assert len(FAMILY_SAMPLES) == 5


class TestFamilyLabels:
    """A member's label is formatted only for its failures."""

    def test_passing_runs_render_no_basis_vector(self, monkeypatch):
        from mhv.suite import RunConfig, run_suite

        def render(bv):
            raise AssertionError(f"rendered {bv.tag}")

        monkeypatch.setattr(BasisVector, "render", render)
        assert run_check("bider-family", 1).passed
        assert run_suite(RunConfig(window=1, checks=("commuting",)))[0].passed

    def test_failing_member_label(self, monkeypatch):
        # a dd -> d part breaks the axioms of every member alike
        parts_of = biderivations.family_parts
        part = scalar_table(tag_table(dd=lambda m, n: Element({d(m + n): 1})),
                            1)
        monkeypatch.setattr(
            biderivations, "family_parts",
            lambda params, mode: parts_of(params, mode) + [(ONE, part)])
        report = run_check("bider-family", 1)
        assert len(report.failures) == 5 * 144
        assert report.failures[0] == Failure(
            "params=(lambda=-2, omega={0: 1, 2: -3}) (d(-1), d(-1), d(0))",
            "bider.right", "d(-2)")


class TestFamilyByLinearity:
    """bider-family checks every member by linearity over its generator
    tables; its report equals the one of sweeping each member's own
    table, byte for byte."""

    # an e-valued lambda, a shift outside UPSILON_SHIFTS, the zero member,
    # and upsilon[0] shared by four members
    EXTRA_MEMBERS = (
        BiderParams(EPS, {0: 1}),
        BiderParams(0, {7: Fraction(2, 3), 0: -1}),
        BiderParams(Fraction(-1, 3), {0: EPS, -2: 2}),
        BiderParams(0, {}),
        BiderParams(3, {0: Fraction(5, 2)}),
    )

    @staticmethod
    def reference(window):
        """One sweep of each member's own centerless table, plus its
        central cases, each labelled with the member."""
        basis = basis_vectors(window, FULL)
        return pooled("bider-family", window, [
            prefixed(f"params=({p.describe()})", collect(
                "bider-family", window, "symbolic", _joined([
                    partial(_axiom_cases, "bider",
                            family_table(p, CENTERLESS),
                            BRACKET_TABLES[CENTERLESS], window, CENTERLESS),
                    partial(_central_residuals, p, basis)])))
            for p in biderivations.FAMILY_SAMPLES])

    @staticmethod
    def break_upsilon_0(monkeypatch):
        """Give upsilon[0], one table shared by every member that uses
        it, an extra dd -> d part, declared in ints as upsilon[0] is."""
        original = biderivations._upsilon_generator
        broken = scalar_table(tag_table(
            dd=lambda m, n: Element({h(m + n): 1, d(m + n): 1})), 1)
        monkeypatch.setattr(biderivations, "_upsilon_generator",
                            lambda s: broken if s == 0 else original(s))

    @pytest.mark.parametrize("window", [1, 2, 3])
    @pytest.mark.parametrize("members", ["samples", "extra"])
    @pytest.mark.parametrize("broken", [False, True])
    def test_report_equals_per_member_sweeps(self, monkeypatch, window,
                                             members, broken):
        if members == "extra":
            monkeypatch.setattr(biderivations, "FAMILY_SAMPLES",
                                self.EXTRA_MEMBERS)
        if broken:
            self.break_upsilon_0(monkeypatch)
        report = run_check("bider-family", window)
        reference = self.reference(window)
        assert report.passed is not broken
        assert report.to_json() == reference.to_json()
        # the broken extra members fail with e-dependent residuals
        eps = Fraction(2, 5)
        assert report.evaluated_at(eps).to_json() \
            == reference.evaluated_at(eps).to_json()


class TestFamilyTableMemo:
    """Each member's table memoizes its values per basis pair."""

    MEMBERS = (BiderParams(1, {0: 1}), BiderParams(Fraction(-2, 3), {2: 5}))

    @staticmethod
    def expected(params, u, v):
        return bracket(E(u), E(v)).scale(params.lam) \
            + upsilon(params, E(u), E(v))

    def test_members_keep_their_own_values(self):
        tables = [family_table(p) for p in self.MEMBERS]
        pairs = [(d(1), d(2)), (d(-1), h(0)), (h(0), h(-1)), (d(1), d(-1))]
        for _ in range(2):
            for params, table in zip(self.MEMBERS, tables):
                for u, v in pairs:
                    assert table(u, v) == self.expected(params, u, v)
        assert tables[0](d(1), d(2)) != tables[1](d(1), d(2))

    def test_cached_values_unchanged_by_bilinear(self):
        table = family_table(self.MEMBERS[0])
        pairs = [(u, v) for u in (d(0), d(1), h(0)) for v in (d(2), h(1))]
        before = {pair: table(*pair) for pair in pairs}
        snapshot = {pair: dict(value._terms) for pair, value in before.items()}
        x = Element.of((3, d(0)), (EPS, d(1)), (Fraction(1, 2), h(0)))
        y = Element.of((-1, d(2)), (ONE + EPS, h(1)))
        first = bilinear(table, x, y)
        for _ in range(3):
            assert bilinear(table, x, y) == first
            assert bilinear(table, y, x) == bilinear(table, y, x)
        for pair in pairs:
            assert table(*pair) is before[pair]
            assert table(*pair)._terms == snapshot[pair]

    @pytest.mark.parametrize("params", [BiderParams(0, {0: 1}),
                                        BiderParams(1, {}),
                                        BiderParams(0, {})])
    def test_centerless_table_raises_on_every_call(self, params):
        table = family_table(params, CENTERLESS)
        for u, v in ((C, d(0)), (d(0), L), (L, C)):
            for _ in range(2):
                with pytest.raises(CentralTermError):
                    table(u, v)

    @pytest.mark.parametrize("params", [BiderParams(0, {0: 1}),
                                        BiderParams(1, {}),
                                        BiderParams(0, {})])
    def test_centerless_bilinear_table_raises_on_every_call(self, params):
        table = BilinearTable.from_params(params, CENTERLESS)
        cases = ((E(C), E(d(0))), (E(d(0)), E(L)),
                 (Element.of((1, d(1)), (2, C)), E(h(0))))
        for x, y in cases:
            for _ in range(2):
                with pytest.raises(CentralTermError):
                    table(x, y)
        # the raises left the memo intact
        assert table(E(d(1)), E(d(2))) == bracket(E(d(1)), E(d(2))).scale(
            params.lam) + upsilon(params, E(d(1)), E(d(2)))

    def test_centerless_bracket_still_checks(self):
        with pytest.raises(CentralTermError):
            bracket(E(C), E(d(1)), CENTERLESS)
        with pytest.raises(CentralTermError):
            bracket(E(d(1)), E(L), CENTERLESS)

    def test_full_mode_failures_unchanged(self):
        # the l-valued failures of a member with nonzero Omega, as the
        # golden CLI report records them
        path = os.path.join(os.path.dirname(__file__), "golden",
                            "bider-check-l1-o0-w1-full.json")
        with open(path) as fh:
            golden = json.load(fh)["reports"]
        table = BilinearTable.from_params(BiderParams(1, {0: 1}), FULL)
        report = check_biderivation(table, 1, FULL)
        assert [report.to_dict()] == golden
        assert report.failures
        assert all(f.residual.endswith("l") for f in report.failures)


class TestProjectCenterless:
    def test_element_without_center_is_returned_itself(self):
        for x in (Element.zero(), E(d(2)),
                  Element.of((EPS, h(-1)), (3, d(0)))):
            assert project_centerless(x) is x

    def test_drops_exactly_c_and_l(self):
        x = Element.of((2, d(1)), (EPS, h(0)), (-1, C), (ONE + EPS, L))
        assert project_centerless(x) == Element.of((2, d(1)), (EPS, h(0)))
        assert project_centerless(E(C)).is_zero()
        assert project_centerless(Element.of((1, L), (1, d(0)))) == E(d(0))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(-3, 3).filter(bool),
                              st.sampled_from(basis_vectors(1, FULL))),
                    max_size=6))
    def test_matches_the_term_filter(self, pairs):
        x = Element.of(*pairs)
        filtered = Element({bv: c for bv, c in x.terms()
                            if not bv.is_central()})
        assert project_centerless(x) == filtered


class TestCommuting:
    def test_spec_form_passes(self):
        phi = LinearMap.from_spec(sc(5), {d(0): E(C)})
        assert check_commuting(phi, 3).passed

    def test_zero_map_passes(self):
        assert check_commuting(LinearMap.from_spec(sc(0)), 2).passed

    def test_raw_scaling_table_fails(self):
        phi = LinearMap.from_table(
            {d(m): Element.of((m, d(m))) for m in range(-3, 4)}, "m*d(m)")
        report = check_commuting(phi, 3)
        assert not report.passed
        witness = {f.inputs for f in report.failures}
        assert "(d(1), d(2))" in witness

    def test_tau_must_be_central(self):
        with pytest.raises(ValueError):
            LinearMap.from_spec(sc(1), {d(0): E(d(1))})


class TestPostLie:
    def test_zero_passes(self):
        assert check_post_lie(BiderParams(0, {}), 2).passed

    def test_inner_fails_commutativity(self):
        report = check_post_lie(BiderParams(1, {}), 2)
        failing_ids = {f.equation_id for f in report.failures}
        assert "postlie.commutative" in failing_ids

    def test_upsilon_fails_bracket_product(self):
        report = check_post_lie(BiderParams(0, {0: 1}), 3)
        assert not report.passed
        witness = [f for f in report.failures
                   if f.equation_id == "postlie.bracket_product"
                   and f.inputs == "(d(2), d(1), d(3))"]
        assert witness, "expected a failure at (d(2), d(1), d(3))"
        # [d_2,d_1].d_3 = d_3.d_3 = (1/2) h(13/2), nested products vanish
        assert witness[0].residual == "1/2*h(13/2)"


class TestLsaBiderivation:
    def test_zero_passes(self):
        assert check_lsa_biderivation(BiderParams(0, {}), 2).passed

    def test_inner_witness_d6(self):
        report = check_lsa_biderivation(BiderParams(1, {}), 3)
        assert not report.passed
        witness = [f for f in report.failures
                   if f.inputs == "(d(2), d(1), d(3))"
                   and f.equation_id == "lsabider.left"]
        assert witness
        from mhv.expressions import parse_element
        residual = parse_element(witness[0].residual)
        # 2 d_2 d_4 coefficient is 8(1+4e)/(1+6e); adding d_5 d_1 gives the
        # d_6 coefficient of the expanded side, which the direct side lacks
        expected = -(sc(8) * (ONE + sc(4) * EPS) + (ONE + EPS)) \
            / (ONE + sc(6) * EPS)
        assert residual.coeff(d(6)) == expected

    def test_upsilon_witness_h13_2(self):
        report = check_lsa_biderivation(BiderParams(0, {0: 1}), 3)
        witness = [f for f in report.failures
                   if f.inputs == "(d(2), d(1), d(3))"
                   and f.equation_id == "lsabider.left"]
        assert witness
        from mhv.expressions import parse_element
        residual = parse_element(witness[0].residual)
        direct_side = -(ONE + EPS) / (sc(2) * (ONE + sc(3) * EPS))
        expanded_side = sc(Fraction(-9, 4))
        assert residual.coeff(h(6)) == direct_side - expanded_side
        assert direct_side != expanded_side


class TestGrids:
    def test_grid_size(self):
        assert len(grid_points()) == 6 * 27

    @pytest.mark.parametrize("window", [1, 4])
    def test_each_nonzero_point_and_commuting_sample_is_one_chunk(self,
                                                                  window):
        # the zero point is its pieces: postlie-grid's pair sweep and its
        # triples by first basis vector, lsa-bider-grid's triples by first
        # basis vector
        nonzero = len(grid_points()) - 1
        basis = len(basis_vectors(window, FULL))
        assert len(CHECKS["postlie-grid"](window, SYMBOLIC)[0]) \
            == 1 + basis + nonzero
        for eps in (SYMBOLIC, EpsMode.numeric(Fraction(2, 5))):
            assert len(CHECKS["lsa-bider-grid"](window, eps)[0]) \
                == basis + nonzero
        assert len(CHECKS["commuting"](window, SYMBOLIC)[0]) == 3

    def test_post_lie_grid(self):
        report = run_check("postlie-grid", 2)
        assert report.passed
        assert report.extra["passing_points"] == ["lambda=0, omega={}"]

    def test_lsa_bider_grid(self):
        report = run_check("lsa-bider-grid", 2)
        assert report.passed
        assert report.extra["passing_points"] == ["lambda=0, omega={}"]

    @pytest.mark.parametrize("grid", ["postlie-grid", "lsa-bider-grid"],
                             ids=["post_lie_grid", "lsa_bider_grid"])
    def test_a_passing_grid_builds_no_failure(self, monkeypatch, grid):
        # the 161 failing nonzero points need no witness; only the zero
        # point's would be reported
        built = []

        def counted(*args):
            built.append(args)
            return residual_failure(*args)

        monkeypatch.setattr(biderivations, "residual_failure", counted)
        monkeypatch.setenv("MHV_WORKERS", "1")  # count in this process
        assert run_check(grid, 2).passed
        assert built == []

    def test_a_nonzero_point_that_passes_fails_the_grid(self):
        report = run_probe(grid_plan("probe", 1, lambda params: [tuple]))
        assert len(report.failures) == len(grid_points()) - 1
        assert {f.equation_id for f in report.failures} \
            == {"grid.unexpected_pass"}

    def test_the_zero_point_witness_is_its_first_nonzero_residual(self):
        # the zero point's chunk sweeps in order and stops at its first
        # nonzero residual, the witness
        basis = basis_vectors(2, FULL)
        seen = []

        def piece(params):
            for i, bv in enumerate(basis):
                if params.is_zero():
                    seen.append(bv)
                yield (bv,), "probe", E(d(0)) if i in (3, 5) else Element()
        report = run_probe(grid_plan(
            "probe", 2, lambda params: [partial(piece, params)]))
        assert seen == basis[:4]
        assert [f for f in report.failures
                if f.equation_id != "grid.unexpected_pass"] == [Failure(
                    f"(lambda=0, omega={{}}) at ({basis[3]})",
                    "grid.trivial_failed[probe]", "d(0)")]

    @pytest.mark.parametrize("grid", ["postlie-grid", "lsa-bider-grid"])
    def test_a_broken_zero_point_reports_its_first_nonzero_residual(
            self, monkeypatch, grid):
        # the zero point swept on upsilon[0], broken as
        # TestFamilyByLinearity breaks it: its witness is the first nonzero
        # residual of the element-level formulas, in the sweep's order
        TestFamilyByLinearity.break_upsilon_0(monkeypatch)
        table_of = biderivations.family_table
        member = BiderParams(0, {0: 1})
        monkeypatch.setattr(
            biderivations, "family_table", lambda params, mode=FULL:
            table_of(member if params.is_zero() else params, mode))
        f = BilinearTable(table_of(member))
        mul = partial(lsa_product, eps=SYMBOLIC)
        basis = basis_vectors(2, FULL)

        def cases():
            # the pieces' order: post-Lie pairs, then triples by x
            if grid == "postlie-grid":
                for x, y in product(basis, repeat=2):
                    yield (x, y), "postlie.commutative", \
                        f(E(x), E(y)) - f(E(y), E(x))
            for x, y, z in product(basis, repeat=3):
                ex, ey, ez = E(x), E(y), E(z)
                if grid == "postlie-grid":
                    yield (x, y, z), "postlie.bracket_product", \
                        f(bracket(ex, ey), ez) - f(ex, f(ey, ez)) \
                        + f(ey, f(ex, ez))
                    yield (x, y, z), "postlie.product_bracket", \
                        f(ex, bracket(ey, ez)) - bracket(f(ex, ey), ez) \
                        - bracket(ey, f(ex, ez))
                else:
                    yield (x, y, z), "lsabider.left", f(mul(ex, ey), ez) \
                        - mul(f(ex, ez), ey) - mul(ex, f(ey, ez))
                    yield (x, y, z), "lsabider.right", f(ex, mul(ey, ez)) \
                        - mul(f(ex, ey), ez) - mul(ey, f(ex, ez))

        inputs, eq_id, residual = next(c for c in cases()
                                       if not c[2].is_zero())
        report = run_check(grid, 2)
        assert [failure for failure in report.failures
                if failure.equation_id.startswith("grid.trivial")] == [
            Failure(f"(lambda=0, omega={{}}) at {render_inputs(inputs)}",
                    f"grid.trivial_failed[{eq_id}]", residual.render())]

    def test_a_zero_point_that_fails_fails_the_grid(self):
        def source(params):
            return [lambda: [((d(0),), "probe", E(d(0)))]]

        report = run_probe(grid_plan("probe", 1, source))
        assert report.failures == [Failure(
            "(lambda=0, omega={}) at (d(0))", "grid.trivial_failed[probe]",
            "d(0)")]

    def test_failing_points_take_only_the_values_they_use(self,
                                                          monkeypatch):
        # every nonzero point fails at its first triple, which uses five
        # values of its table; taking all of f(x, .) up front made 3,864
        calls = []
        table_of = biderivations.family_table

        def counting(params, mode=FULL):
            table = table_of(params, mode)

            def counted(u, v):
                calls.append((u, v))
                return table(u, v)
            return counted

        monkeypatch.setattr(biderivations, "family_table", counting)
        points = grid_points()[1:]
        mul = product_table(SYMBOLIC)
        for params in points:
            assert _first_failure(lsa_bider_residuals(params, 4, mul)) \
                is not None
        assert len(points) == 161
        assert len(calls) == 805

    def test_a_zero_point_witness_keeps_its_value(self):
        def source(params):
            return [lambda: [((d(0),), "probe", E(d(0)).scale(EPS))]]

        report = run_probe(grid_plan("probe", 1, source))
        assert report.failures[0].residual == "(e)*d(0)"
        assert report.evaluated_at(Fraction(2, 5)).failures[0].residual \
            == "2/5*d(0)"

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_the_earlier_failing_piece_holds_the_witness(self, workers):
        # the zero point fails in the triple pieces of d(-1) and d(1), with
        # different values; the earlier piece's residual is the witness,
        # in any process, as in the unsplit sweep
        def source(params):
            def pair_piece():
                return [((d(0), d(0)), "probe.pair", Element())]

            def triple_piece(x):
                value = {d(-1): E(d(5)), d(1): E(h(3)).scale(EPS)}
                return [((x, d(0), d(0)), "probe.triple",
                         value.get(x, Element()) if params.is_zero()
                         else E(d(0)))]
            return [pair_piece] + [partial(triple_piece, x)
                                   for x in basis_vectors(1, FULL)]

        chunks, finish = grid_plan("probe", 1, source)
        assert len(chunks) == 1 + len(basis_vectors(1, FULL)) + 161
        report = finish(run_chunks(chunks, workers))
        assert report.failures == [Failure(
            "(lambda=0, omega={}) at (d(-1), d(0), d(0))",
            "grid.trivial_failed[probe.triple]", "d(5)")]


def sequential_converse(window: int) -> Report:
    """The converse as one sequential sweep: every row goes to one
    RowReducer, and the sweep stops after the first triple at which the
    rank is certified.  The oracle for check_bider_converse; its residuals
    come from the element-level formula, axiom_oracle."""
    gens = biderivations._candidate_generators()
    names = [name for name, _ in gens]
    tables = [fn for _, fn in gens]
    family = {names.index(name) for name in biderivations.FAMILY_GENERATORS}
    target = len(gens) - len(family)

    reducer = RowReducer()
    failures = []
    rows_used = 0
    basis = basis_vectors(window, CENTERLESS)
    for x, y, z in product(basis, repeat=3):
        oracles = [axiom_oracle(BilinearTable(t), CENTERLESS, x, y, z)
                   for t in tables]
        for eq_id in ("bider.left", "bider.right"):
            per_gen = [oracle[eq_id] for oracle in oracles]
            supports = set()
            for res in per_gen:
                supports.update(res.support())
            for w in sorted(supports, key=lambda b: b.sort_key()):
                row = {}
                for g, res in enumerate(per_gen):
                    coeff = res.coeff(w)
                    if not coeff.is_zero():
                        if g in family:
                            failures.append(Failure(
                                render_inputs((x, y, z)),
                                "converse.family_residual",
                                f"{names[g]}: {coeff.render()}"))
                            continue
                        row[g] = coeff.as_rational()
                rows_used += 1
                reducer.add_row(row)
        if reducer.rank >= target and not failures:
            break
    if reducer.rank < target:
        failures.append(Failure(
            f"window={window}", "converse.rank_deficit",
            f"rank {reducer.rank} < {target}: extra solutions beyond "
            "the family survive the window equations"))
    extra = {
        "generators": len(gens),
        "family_dimension": len(family),
        "target_rank": target,
        "rank": reducer.rank,
        "rows_used": rows_used,
    }
    return Report("bider-grid", window, "symbolic", rows_used, failures,
                  extra)


def converse_in_suite(monkeypatch, window: int, workers: int) -> Report:
    monkeypatch.setenv("MHV_WORKERS", str(workers))
    return run_check("bider-grid", window)


class TestConverse:
    @pytest.mark.parametrize("window", [1, 2, 3, 4])
    def test_waves_match_the_sequential_sweep(self, monkeypatch, window):
        # the suite's bider-grid against the element-level oracle, at every
        # worker count
        expected = sequential_converse(window).to_json()
        for workers in (1, 2, 3):
            assert converse_in_suite(monkeypatch, window, workers).to_json() \
                == expected, \
                workers

    def test_bider_grid_forks_no_process(self, monkeypatch):
        def no_fork():
            raise AssertionError("bider-grid forked")

        monkeypatch.setattr(os, "fork", no_fork)
        assert converse_in_suite(monkeypatch, 2, 3).to_json() \
            == sequential_converse(2).to_json()

    def test_rank_certificate(self):
        report = check_bider_converse(3)
        assert report.passed
        assert report.extra["rank"] == report.extra["target_rank"]
        assert report.extra["family_dimension"] == 6

    def test_window_5_stops_at_the_same_row(self):
        # the sweep skips the triples where every residual vanishes; they
        # add no row, so it stops where a sweep of every triple stops
        report = check_bider_converse(5)
        assert report.passed
        assert report.total_cases == report.extra["rows_used"] == 2925
        assert report.extra["rank"] == 40

    def test_a_family_generator_with_a_residual_fails(self, monkeypatch):
        monkeypatch.setattr(biderivations, "FAMILY_GENERATORS",
                            FAMILY_GENERATORS + ("dd->d[0]",))
        report = check_bider_converse(1)
        assert report.failures[0] == Failure(
            "(d(-1), d(-1), d(0))", "converse.family_residual",
            "dd->d[0]: 1")
        assert {f.equation_id for f in report.failures} \
            == {"converse.family_residual"}

    def test_a_dependent_candidate_leaves_a_rank_deficit(self, monkeypatch):
        gens = _candidate_generators()
        monkeypatch.setattr(biderivations, "_candidate_generators",
                            lambda: gens + gens[-1:])
        report = check_bider_converse(1)
        assert report.failures == [Failure(
            "window=1", "converse.rank_deficit",
            "rank 40 < 41: extra solutions beyond the family survive the "
            "window equations")]

    @pytest.mark.parametrize("workers", [2, 3])
    def test_a_family_residual_fails_in_any_process(self, monkeypatch,
                                                     workers):
        # the suite runs the check in this process at any worker count
        monkeypatch.setattr(biderivations, "FAMILY_GENERATORS",
                            FAMILY_GENERATORS + ("dd->d[0]",))
        report = converse_in_suite(monkeypatch, 1, workers)
        assert report.to_json() == sequential_converse(1).to_json()
        assert report.failures[0] == Failure(
            "(d(-1), d(-1), d(0))", "converse.family_residual",
            "dd->d[0]: 1")

    @pytest.mark.parametrize("workers", [2, 3])
    def test_a_rank_deficit_fails_in_any_process(self, monkeypatch, workers):
        gens = _candidate_generators()
        monkeypatch.setattr(biderivations, "_candidate_generators",
                            lambda: gens + gens[-1:])
        report = converse_in_suite(monkeypatch, 1, workers)
        assert report.to_json() == sequential_converse(1).to_json()
        assert [f.equation_id for f in report.failures] \
            == ["converse.rank_deficit"]

    def test_family_generators_solve_axioms(self):
        # upsilon columns are zero rows: each shape is itself a centerless
        # biderivation
        params = BiderParams(0, {1: 1})
        table = BilinearTable.from_params(params, CENTERLESS)
        assert check_biderivation(table, 2).passed


# the candidate shapes in Scalars, as declared before they had int forms
SHAPES = {
    "upsilon": ("dd", lambda m, n, s: E(h(m + n + s))),
    "dd->d": ("dd", lambda m, n, s: E(d(m + n + s))),
    "dd->(m-n)d": ("dd", lambda m, n, s: Element.of((m - n, d(m + n + s)))),
    "dd->(m-n)h": ("dd", lambda m, n, s: Element.of((m - n, h(m + n + s)))),
    "dh->h": ("dh", lambda m, n, s: E(h(m + n + s))),
    "dh->-(n+1/2)h": ("dh", lambda m, n, s: Element.of(
        (Fraction(-(2 * n + 1), 2), h(m + n + s)))),
    "hd->h": ("hd", lambda m, n, s: E(h(m + n + s))),
    "hh->d": ("hh", lambda m, n, s: E(d(m + n + s))),
    "hh->h": ("hh", lambda m, n, s: E(h(m + n + s))),
}

# jacobi, bider-family and compatibility at window 1, and the same
# residuals in Scalars: jacobi from the element-level bracket, each
# member's from check_biderivation of its own table
MUTANT_SCRIPT = """
import json
from itertools import product
from mhv.algebra import CENTERLESS, FULL, Element, basis_vectors, bracket
from mhv.biderivations import FAMILY_SAMPLES, BilinearTable, check_biderivation
from mhv.reports import render_inputs
from mhv.suite import RunConfig, run_suite
checks = ("jacobi", "bider-family", "compatibility")
out = {r.check: [[f.inputs, f.equation_id, f.residual] for f in r.failures]
       for r in run_suite(RunConfig(window=1, checks=checks))}
E = Element.basis
out["scalar jacobi"] = [
    [render_inputs((x, y, z)), "jacobi", res.render()]
    for x, y, z in product(basis_vectors(1, FULL), repeat=3)
    if not (res := bracket(E(x), bracket(E(y), E(z)))
            + bracket(E(y), bracket(E(z), E(x)))
            + bracket(E(z), bracket(E(x), E(y)))).is_zero()]
out["scalar members"] = [
    [f"params=({p.describe()}) {f.inputs}", f.equation_id, f.residual]
    for p in FAMILY_SAMPLES for f in check_biderivation(
        BilinearTable.from_params(p, CENTERLESS), 1).failures]
print(json.dumps(out))
"""
DH_PART = "dh=lambda m, n: Element({h(m + n): -(2 * n + 1)}),"


class TestIntLane:
    """bider-family, bider-grid and jacobi sweep int tables whose values
    are scale times the Scalar ones, and divide a residual back before it
    is rendered."""

    def test_generators_are_their_shapes_times_their_scale(self):
        basis = basis_vectors(3, CENTERLESS)
        for name, table in _candidate_generators()[1:]:
            base, s = name.rstrip("]").split("[")
            tags, shape = SHAPES[base]
            expected = tag_table(**{tags: partial(shape, s=int(s))})
            ints, scale = table.int_form
            assert scale == (2 if base == "dh->-(n+1/2)h" else 1)
            for u, v in product(basis, repeat=2):
                value = ints(u, v)
                assert all(type(c) is int for c in value._terms.values())
                assert Element({w: sc(c) for w, c in value._terms.items()}) \
                    == expected(u, v).scale(sc(scale)), (name, u, v)
                assert table(u, v) == expected(u, v), (name, u, v)

    def test_every_swept_int_table_is_centerless_valued(self):
        # the derivation kernel projects nothing, so a C or L term in an
        # int lane of bider-family or bider-grid would reach a report
        tables = {table for _, table in _candidate_generators()}
        tables.update(table for params in FAMILY_SAMPLES
                      for _, table in family_parts(params, CENTERLESS))
        assert len(tables) == 46 + 2  # upsilon[-3] and upsilon[3]
        basis = basis_vectors(3, CENTERLESS)
        for table in tables:
            ints, _ = table.int_form
            for u, v in product(basis, repeat=2):
                assert not any(w.is_central() for w in ints(u, v)._terms), \
                    (u, v)

    def test_a_dh_sign_flip_fails_every_lane_alike(self, tmp_path):
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src", "mhv")
        shutil.copytree(src, tmp_path / "mhv",
                        ignore=shutil.ignore_patterns("__pycache__"))
        algebra = tmp_path / "mhv" / "algebra.py"
        text = algebra.read_text()
        assert text.count(DH_PART) == 1
        algebra.write_text(text.replace(DH_PART, DH_PART.replace(
            "-(2 * n + 1)", "2 * n + 1")))
        proc = subprocess.run(
            [sys.executable, "-c", MUTANT_SCRIPT], capture_output=True,
            text=True, timeout=120, check=True,
            env=dict(os.environ, PYTHONPATH=str(tmp_path), MHV_WORKERS="1"))
        out = json.loads(proc.stdout)
        # compatibility runs on the Scalar table, so it sees the one
        # declaration too
        assert out["jacobi"] and out["bider-family"] and out["compatibility"]
        # each residual is the one the Scalar lane renders: divided back
        assert sorted(out["jacobi"]) == sorted(out["scalar jacobi"])
        swept = [f for f in out["bider-family"] if f[1] != "bider.central"]
        assert sorted(swept) == sorted(out["scalar members"])


MEMBER = BiderParams(1, {0: 1})
# every public check but check_biderivation, which TestAxiomChecker covers
PUBLIC_CHECKS = {
    "check_commuting": lambda window: check_commuting(
        LinearMap.from_spec(sc(1), {d(0): E(C)}), window),
    "check_post_lie": lambda window: check_post_lie(MEMBER, window),
    "check_lsa_biderivation": lambda window: check_lsa_biderivation(
        MEMBER, window),
    "check_bider_converse": check_bider_converse,
    # the checks that run only through the registry, as mhv verify runs them
    "check_family": partial(run_check, "bider-family"),
    "post_lie_grid": partial(run_check, "postlie-grid"),
    "lsa_bider_grid": partial(run_check, "lsa-bider-grid"),
    "cross_check": partial(run_check, "cross-check"),
}


@pytest.mark.parametrize("check", PUBLIC_CHECKS)
@pytest.mark.parametrize("window", [0, -1, True, 2.0])
def test_window_below_one_fails_loudly(check, window):
    # a window below 1 has no indices, so any pass there would be vacuous;
    # True would run as window 1, and 2.0 would fail inside range
    with pytest.raises(ValueError, match="window must be at least 1"):
        PUBLIC_CHECKS[check](window)
