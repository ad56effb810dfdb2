"""Coefficient functions, the two transcribed equation systems, the
identity-derived oracle and the theta linear system."""

import gc
import weakref
from fractions import Fraction

import pytest

from mhv import coeffs
from mhv.algebra import d, h
from mhv.coeffs import (ast4_swapped_form, ast_residuals,
                        derived_counterparts, random_fns,
                        residuals_from_identity, solve_theta, star_residuals,
                        closed_form_fns, theta_equations, zero_fns)
from mhv.linalg import UnderdeterminedSystemError, solve_unique
from mhv.lsa import SYMBOLIC, _basis_product_numeric
from mhv.scalars import (EPS, EPS_INV, ONE, ZERO, PoleError,
                         ZeroEpsilonError, sc)
from mhv.suite import RunConfig, run_suite

FNS = closed_form_fns()


def run_cross_check(window: int):
    """cross-check's Report, as mhv verify runs it."""
    return run_suite(RunConfig(window=window, checks=("cross-check",)))[0]


class TestClosedForms:
    def test_f21(self):
        assert FNS.f(2, 1) == -(ONE + EPS) / (ONE + sc(3) * EPS)

    def test_rho(self):
        assert FNS.rho(1, -2) == sc(Fraction(3, 4))
        assert FNS.rho(0, -1) == sc(Fraction(1, 4))
        assert FNS.rho(-1, 0) == sc(Fraction(-1, 4))
        assert FNS.rho(2, 2) == ZERO

    def test_omega(self):
        assert FNS.omega(1, -1) == (EPS - EPS_INV) * sc(Fraction(1, 24))
        assert FNS.omega(1, 0) == ZERO
        assert FNS.omega(0, 0) == ZERO

    def test_g_h_a_b(self):
        assert FNS.g(5, 2) == sc(Fraction(-5, 2))
        assert FNS.h(3, 1) == ZERO
        assert FNS.a(3, 1) == ZERO
        assert FNS.b(3, 1) == ZERO

    def test_f_antisymmetrization_identity(self):
        # (-n(1+en) + m(1+em)) / (1+e(m+n)) collapses to the constant m-n
        for m in range(-5, 6):
            for n in range(-5, 6):
                assert FNS.f(m, n) - FNS.f(n, m) == sc(m - n), (m, n)

    @pytest.mark.parametrize("eps", [Fraction(2, 5), Fraction(-3, 4)])
    def test_closed_form_at_e_is_the_closed_form_evaluated(self, eps):
        at = closed_form_fns(eps)
        assert at.name == FNS.name
        for name in ("f", "g", "h", "a", "b", "omega", "rho"):
            for m in range(-6, 7):
                for n in range(-6, 7):
                    assert getattr(at, name)(m, n) \
                        == sc(getattr(FNS, name)(m, n).eval_at(eps))

    def test_closed_form_at_a_pole_is_as_defined_as_the_oracle(self):
        # at e = 1/6, 1+e*(m+n) vanishes at m+n = -6; f cancels at m = 0
        # or n = 0, as the evaluated closed form and the plain-Fraction
        # product do, and raises the product's PoleError at every other pair
        eps = Fraction(1, 6)
        at = closed_form_fns(eps)
        poles = []
        for m in range(-6, 7):
            for n in range(-6, 7):
                try:
                    expected = FNS.f(m, n).eval_at(eps)
                except PoleError:
                    poles.append((m, n))
                    with pytest.raises(PoleError) as info:
                        at.f(m, n)
                    with pytest.raises(PoleError) as oracle:
                        _basis_product_numeric(d(m), d(n), eps)
                    assert str(info.value) == str(oracle.value)
                else:
                    assert at.f(m, n) == sc(expected), (m, n)
        assert poles == [(m, -6 - m) for m in range(-5, 0)]
        assert (at.f(0, -6), at.f(-6, 0)) == (sc(6), ZERO)

    def test_closed_form_at_zero_is_refused(self):
        with pytest.raises(ZeroEpsilonError):
            closed_form_fns(0)

    def test_one_symbolic_closed_form(self):
        # the symbolic product and every symbolic check share one instance;
        # one at e is new on each call, so its memos die with it
        assert closed_form_fns() is FNS
        assert closed_form_fns(Fraction(2, 5)) \
            is not closed_form_fns(Fraction(2, 5))


class TestTranscribedSystems:
    def test_closed_forms_solve_everything(self):
        for t in [(2, 1, 3), (0, 0, 0), (-3, 2, 5), (4, -4, 1), (1, -2, -3)]:
            for eq_id, value in star_residuals(FNS, *t) \
                    + ast_residuals(FNS, *t):
                assert value.is_zero(), (t, eq_id, value.render())

    def test_g_shift_residual(self):
        shifted = FNS.replace(g=lambda m, n: FNS.g(m, n) + ONE)
        assert dict(star_residuals(shifted, 0, 1, 0))["star.2"] == ONE

    def test_zero_fns_star1(self):
        assert dict(star_residuals(zero_fns(), 1, 0, 0))["star.1"] == sc(-1)

    def test_ast1_spot(self):
        # omega(2,-2) - omega(-2,2) = 1/2 = (8-2)/12
        assert FNS.omega(2, -2) - FNS.omega(-2, 2) == sc(Fraction(1, 2))
        assert dict(ast_residuals(FNS, 2, -2, 0))["ast.1"].is_zero()

    def test_ast2_spot(self):
        assert FNS.rho(0, -1) - FNS.rho(-1, 0) == sc(Fraction(1, 2))
        assert dict(ast_residuals(FNS, 0, -1, 0))["ast.2"].is_zero()

    def test_rho_zero_ast2(self):
        gutted = FNS.replace(rho=lambda m, n: ZERO)
        assert dict(ast_residuals(gutted, 0, -1, 0))["ast.2"] \
            == sc(Fraction(-1, 2))

    def test_counts(self):
        assert len(star_residuals(FNS, 0, 0, 0)) == 13
        assert len(ast_residuals(FNS, 0, 0, 0)) == 7


class TestIdentityOracle:
    def test_closed_forms_pass(self):
        for t in [(2, 1, 3), (0, 0, 0), (1, -1, 2), (-2, 3, -1)]:
            for eq_id, value in residuals_from_identity(FNS, *t):
                assert value.is_zero(), (t, eq_id)

    def test_constant_b_breaks_identity(self):
        # with h = 0 every (h,h,d) component carries an h factor and stays
        # zero; the break shows up in the (d,h,h) h-component instead
        noisy = FNS.replace(b=lambda m, n: ONE)
        res = dict(residuals_from_identity(noisy, 0, 0, 0))
        assert res["identity.hhd.h"].is_zero()
        assert res["identity.dhh.h"] == sc(Fraction(-1, 2))

    def test_zero_fns_identity_holds_compat_fails(self):
        res = dict(residuals_from_identity(zero_fns(), 1, 0, 0))
        assert all(v.is_zero() for k, v in res.items()
                   if k.startswith("identity."))
        assert any(not v.is_zero() for k, v in res.items()
                   if k.startswith("compat."))

    def test_product_memo_dies_with_its_fns(self):
        fns = random_fns(1)
        assert fns.product(d(1), h(0)) == fns.product(d(1), h(0))
        assert fns.product.cache_info().currsize == 1
        ref = weakref.ref(fns)
        del fns
        gc.collect()
        assert ref() is None

    def test_a_random_table_is_the_same_in_any_read_order(self):
        keys = [(fn, m, n) for fn in ("f", "g", "h", "a", "b", "omega", "rho")
                for m in range(-2, 3) for n in range(-2, 3)]
        forwards, backwards = random_fns(1), random_fns(1)
        values = {key: getattr(forwards, key[0])(*key[1:]) for key in keys}
        assert all(getattr(backwards, key[0])(*key[1:]) == values[key]
                   for key in reversed(keys))

    def test_pair_memo_dies_with_its_fns(self):
        fns = random_fns(1)
        derived_counterparts(fns, 1, 0, -1)
        assert fns.pair_relations.cache_info().currsize > 0
        ref = weakref.ref(fns)
        del fns
        gc.collect()
        assert ref() is None


class TestBridge:
    def test_memos_and_hoisted_pair_parts_change_no_value(self,
                                                          monkeypatch):
        # the pair relations expanded afresh by every call give the same
        # report as their memo
        expected = run_cross_check(2).to_json()
        derived = coeffs.derived_counterparts

        def unmemoized(fns, m, n, k, raw):
            fns.pair_relations.cache_clear()
            return derived(fns, m, n, k, raw)

        monkeypatch.setattr(coeffs, "derived_counterparts", unmemoized)
        assert run_cross_check(2).to_json() == expected

        # nor do the twin defects and the pair parts taken once per pair:
        # every defect computed afresh, and every equation at every k,
        # as the triple parts, give the same report
        def plain(fns, m, n, k, raw):
            fns.pair_relations.cache_clear()
            return derived(fns, m, n, k)

        for part in ("star", "ast"):
            pair = getattr(coeffs, f"{part}_pair_residuals")
            triple = getattr(coeffs, f"{part}_triple_residuals")
            monkeypatch.setattr(coeffs, f"{part}_pair_residuals",
                                lambda fns, m, n: [])
            monkeypatch.setattr(
                coeffs, f"{part}_triple_residuals",
                lambda fns, m, n, k, pair=pair, triple=triple:
                pair(fns, m, n) + triple(fns, m, n, k))
        monkeypatch.setattr(coeffs, "derived_counterparts", plain)
        assert run_cross_check(2).to_json() == expected

    def test_agreement_except_star12(self):
        for fns in (FNS, random_fns(1), random_fns(2)):
            mismatched = set()
            for m in range(-2, 3):
                for n in range(-2, 3):
                    for k in range(-2, 3):
                        transcribed = dict(star_residuals(fns, m, n, k))
                        transcribed.update(ast_residuals(fns, m, n, k))
                        derived = derived_counterparts(fns, m, n, k)
                        for eq_id, value in transcribed.items():
                            if value != derived[eq_id]:
                                mismatched.add(eq_id)
            if fns is FNS:
                assert mismatched == set()
            else:
                assert mismatched == {"star.12"}, mismatched

    def test_ast4_two_naming_conventions(self):
        probe = random_fns(1)
        # the two forms are different functions pointwise but the same
        # equation family under renaming (m,n) -> (n,m)
        diffs = 0
        for (m, n, k) in [(0, 1, 0), (1, 2, -1), (0, 2, 1)]:
            primary = dict(ast_residuals(probe, m, n, k))["ast.4"]
            swapped = ast4_swapped_form(probe, m, n, k)
            if primary != swapped:
                diffs += 1
            assert swapped == dict(ast_residuals(probe, n, m, k))["ast.4"]
        assert diffs > 0

    def test_pair_relations_come_from_the_oracle(self, monkeypatch):
        compat = coeffs.compat_residuals

        def perturbed(fns, m, n):
            return [(eq_id, value + ONE if eq_id == "compat.dd.d" else value)
                    for eq_id, value in compat(fns, m, n)]

        # cross-check runs on a fresh closed form, so the perturbed pair
        # relations die with it and the shared instance's memo is untouched
        shared = FNS.pair_relations.cache_info()
        monkeypatch.setattr(coeffs, "_CLOSED_FORM", coeffs._closed_form(EPS))
        monkeypatch.setattr(coeffs, "compat_residuals", perturbed)
        report = run_cross_check(1)
        assert not report.passed
        assert "cross.star.1" in {f.equation_id for f in report.failures}
        assert FNS.pair_relations.cache_info() == shared

    def test_cross_check_report(self):
        report = run_cross_check(2)
        assert report.passed
        docs = {e["id"]: e for e in report.extra["documented_discrepancies"]}
        assert set(docs) == {"star.10", "star.12", "ast.4"}
        assert docs["star.12"]["witnesses"], "star.12 must carry both values"
        first = docs["star.12"]["witnesses"][0]
        assert first["transcribed"] != first["derived"]
        assert docs["ast.4"]["witnesses"]

    def test_ast4_witnesses_come_from_the_swept_table(self):
        # read from the seed-1 table of the plan's own chunks, after they ran
        chunks, finish = coeffs.cross_check_plan(3, SYMBOLIC)
        docs = {e["id"]: e for e in finish([chunk() for chunk in chunks])
                .extra["documented_discrepancies"]}
        swept = next(chunk.args[0] for chunk in chunks
                     if chunk.args[0].name == random_fns(1).name)
        assert docs["ast.4"]["witnesses"]
        for witness in docs["ast.4"]["witnesses"]:
            m, n, k = map(int, witness["tuple"].strip("()").split(", "))
            assert witness["fns"] == swept.name
            assert witness["primary_form"] \
                == dict(ast_residuals(swept, m, n, k))["ast.4"].render()
            assert witness["swapped_form"] \
                == ast4_swapped_form(swept, m, n, k).render()

    @pytest.mark.parametrize("window", [1, 2, 4])
    def test_every_table_goes_by_unordered_pairs(self, window):
        w = coeffs.SAMPLE_WINDOW
        chunks, _ = coeffs.cross_check_plan(window, SYMBOLIC)
        assert len(chunks) == window + 1 + len(coeffs.SAMPLE_SEEDS) * (w + 1)
        chunk_of: dict = {}
        for i, chunk in enumerate(chunks):
            fns, _, groups = chunk.args
            for pair in (pair for group in groups for pair in group):
                assert (fns.name, pair) not in chunk_of
                chunk_of[fns.name, pair] = i
        tables = [(FNS.name, window)] + [
            (random_fns(seed).name, w) for seed in coeffs.SAMPLE_SEEDS]
        assert set(chunk_of) == {
            (name, (m, n)) for name, tw in tables
            for m in range(-tw, tw + 1) for n in range(-tw, tw + 1)}
        for (name, (m, n)), i in chunk_of.items():
            assert chunk_of[name, (n, m)] == i

    @pytest.mark.parametrize("seed", coeffs.SAMPLE_SEEDS)
    def test_a_chunk_keeps_only_the_witnesses_the_report_logs(self, seed):
        w = coeffs.SAMPLE_WINDOW
        pairs = [[(m, n)] for m in range(-w, w + 1) for n in range(-w, w + 1)]
        _, failures, witnesses = coeffs._compare(random_fns(seed), w, pairs)
        assert failures == []
        assert set(witnesses) == set(coeffs.RUNTIME_DISCREPANCIES)
        assert len(witnesses["star.12"]) == coeffs.LOGGED_WITNESSES

    def test_logged_star12_witnesses_are_the_first_of_every_disagreement(
            self):
        # the uncapped sweep over the random tables, in cross-check's
        # order
        w = coeffs.SAMPLE_WINDOW
        every = []
        for seed in coeffs.SAMPLE_SEEDS:
            fns = random_fns(seed)
            for m in range(-w, w + 1):
                for n in range(-w, w + 1):
                    for k in range(-w, w + 1):
                        transcribed = dict(star_residuals(fns, m, n, k))
                        transcribed.update(ast_residuals(fns, m, n, k))
                        t_value = transcribed["star.12"]
                        d_value = derived_counterparts(fns, m, n, k)["star.12"]
                        if t_value != d_value:
                            every.append({
                                "fns": fns.name,
                                "tuple": f"({m}, {n}, {k})",
                                "transcribed": t_value.render(),
                                "derived": d_value.render()})
        assert len(every) > coeffs.LOGGED_WITNESSES
        docs = {e["id"]: e for e in
                run_cross_check(3).extra["documented_discrepancies"]}
        assert docs["star.12"]["witnesses"] \
            == every[:coeffs.LOGGED_WITNESSES]

    def test_closed_form_witnesses_are_the_first_in_tuple_order(
            self, monkeypatch):
        # a closed form with nonzero a and b disagrees at star.12 where
        # b(m, k) != b(n, k) and a(m, n + k) != 0: here at (m, n, 0) for
        # five pairs (m, n), spread so that neither the chunks' order nor
        # the order within a chunk is (m, n, k) order.  The report still
        # logs the first witnesses in (m, n, k) order
        def skewed():
            pairs = {(0, -2), (-2, 1), (1, -2), (-2, 2), (-1, 0)}
            return coeffs._closed_form(EPS).replace(
                a=lambda m, n: ONE if (m, n) in pairs else ZERO,
                b=lambda m, n: ONE if n == 0 and m in (-2, -1) else ZERO)

        w = 2
        every = []
        fns = skewed()
        for m in range(-w, w + 1):
            for n in range(-w, w + 1):
                for k in range(-w, w + 1):
                    t_value = dict(star_residuals(fns, m, n, k))["star.12"]
                    d_value = derived_counterparts(fns, m, n, k)["star.12"]
                    if t_value != d_value:
                        every.append({
                            "fns": fns.name,
                            "tuple": f"({m}, {n}, {k})",
                            "transcribed": t_value.render(),
                            "derived": d_value.render()})
        assert len(every) > coeffs.LOGGED_WITNESSES
        monkeypatch.setattr(coeffs, "_CLOSED_FORM", skewed())
        docs = {e["id"]: e for e in
                run_cross_check(w).extra["documented_discrepancies"]}
        assert docs["star.12"]["witnesses"] \
            == every[:coeffs.LOGGED_WITNESSES]


class TestTheta:
    def test_values(self):
        table = solve_theta(5)
        assert table.values[1] == Fraction(3, 4)
        assert table.values[0] == Fraction(1, 4)
        assert table.values[-1] == Fraction(-1, 4)
        for n, value in table.values.items():
            assert value == Fraction(2 * n + 1, 4)

    def test_uniqueness_certificate(self):
        table = solve_theta(4)
        assert table.rank == table.unknowns == 9

    def test_rho_reproduction(self):
        # rho(n, k) is theta(n) where n + k + 1 = 0, and zero elsewhere
        table = solve_theta(5)
        for n in range(-5, 6):
            for k in range(-5, 6):
                theta = sc(table.values[n]) if n + k + 1 == 0 else ZERO
                assert theta == FNS.rho(n, k)

    def test_window_minimum(self):
        with pytest.raises(ValueError):
            solve_theta(1)

    def test_scaling_rows_alone_are_underdetermined(self):
        rows, rhs = theta_equations(3)
        homogeneous = [(r, b) for r, b in zip(rows, rhs) if b == 0]
        with pytest.raises(UnderdeterminedSystemError):
            solve_unique([r for r, _ in homogeneous],
                         [b for _, b in homogeneous], 7)
