"""Acceptance suite: one test per criterion, exact (zero-tolerance)
arithmetic throughout, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

from mhv.algebra import (CENTERLESS, FULL, C, Element, L, basis_vectors,
                         bracket, d, h)
from mhv.biderivations import (BiderParams, LinearMap, check_commuting,
                               check_lsa_biderivation, grid_points)
from mhv.coeffs import (ast_residuals, residuals_from_identity, solve_theta,
                        star_residuals, closed_form_fns)
from mhv.expressions import parse_element
from mhv.lsa import EpsMode, lsa_commutator
from mhv.reports import reports_to_json
from mhv.scalars import EPS, ONE, sc
from mhv.suite import RunConfig, run_suite

E = Element.basis


@contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE {num}] FAIL - {description}")
        raise
    print(f"[ACCEPTANCE {num}] PASS - {description}")


def test_criterion_1_jacobi_antisymmetry():
    with criterion(1, "Jacobi + antisymmetry on [-6,6], both modes, "
                      "zero residuals, < 30 s"):
        start = time.monotonic()
        for mode in (FULL, CENTERLESS):
            basis = basis_vectors(6, mode)
            for x in basis:
                ex = E(x)
                for y in basis:
                    ey = E(y)
                    assert (bracket(ex, ey, mode)
                            + bracket(ey, ex, mode)).is_zero(), (mode, x, y)
                    for z in basis:
                        ez = E(z)
                        total = bracket(ex, bracket(ey, ez, mode), mode) \
                            + bracket(ey, bracket(ez, ex, mode), mode) \
                            + bracket(ez, bracket(ex, ey, mode), mode)
                        assert total.is_zero(), (mode, x, y, z)
        elapsed = time.monotonic() - start
        assert elapsed < 30, f"runtime {elapsed:.1f}s exceeds 30s"


def test_criterion_2_left_symmetric_identity():
    with criterion(2, "left-symmetric identity on [-5,5], symbolic e, "
                      "zero residuals"):
        reports = run_suite(RunConfig(window=5, checks=("lsa-identity",)))
        assert reports[0].passed
        assert reports[0].total_cases == len(basis_vectors(5, FULL)) ** 3


def test_criterion_3_compatibility():
    with criterion(3, "commutator of the product equals the bracket on "
                      "[-6,6] including exact central terms"):
        reports = run_suite(RunConfig(window=6, checks=("compatibility",)))
        assert reports[0].passed
        assert reports[0].total_cases == len(basis_vectors(6, FULL)) ** 2
        # spot value: central coefficient of [d_2, d_-2] is (8-2)/12 = 1/2
        assert lsa_commutator(E(d(2)), E(d(-2))).coeff(C) \
            == sc(Fraction(1, 2))
        assert bracket(E(d(2)), E(d(-2))).coeff(C) == sc(Fraction(1, 2))
        # central antisymmetrizations across the window
        fns = closed_form_fns()
        for m in range(-6, 7):
            for n in range(-6, 7):
                omega_skew = fns.omega(m, n) - fns.omega(n, m)
                expected = sc(Fraction(m**3 - m, 12)) if m + n == 0 \
                    else sc(0)
                assert omega_skew == expected, (m, n)
                rho_skew = fns.rho(m, n) - fns.rho(n, m)
                expected = sc(Fraction(2 * m + 1, 2)) if m + n + 1 == 0 \
                    else sc(0)
                assert rho_skew == expected, (m, n)


def test_criterion_4_biderivation_family():
    with criterion(4, "five family members pass the axiom check at window "
                      "5 and annihilate the center on both sides"):
        report = run_suite(RunConfig(window=5, checks=("bider-family",)))[0]
        assert report.passed
        central_cases = 5 * 4 * len(basis_vectors(5, FULL))
        axiom_cases = 5 * 2 * len(basis_vectors(5, CENTERLESS)) ** 3
        assert report.total_cases == central_cases + axiom_cases


def test_criterion_5_equation_systems():
    with criterion(5, "all 20 transcribed residuals and all "
                      "identity-derived residuals vanish on [-5,5]^3; "
                      "cross-check agrees except documented items"):
        fns = closed_form_fns()
        rng = range(-5, 6)
        for m in rng:
            for n in rng:
                for k in rng:
                    residuals = star_residuals(fns, m, n, k) \
                        + ast_residuals(fns, m, n, k)
                    assert len(residuals) == 20
                    for eq_id, value in residuals:
                        assert value.is_zero(), (m, n, k, eq_id)
                    for eq_id, value in residuals_from_identity(fns, m, n, k):
                        assert value.is_zero(), (m, n, k, eq_id)
        report = run_suite(RunConfig(window=5, checks=("cross-check",)))[0]
        assert report.passed
        docs = report.extra["documented_discrepancies"]
        assert len(docs) <= 3
        by_id = {e["id"]: e for e in docs}
        assert set(by_id) == {"star.10", "star.12", "ast.4"}
        for witness in by_id["star.12"]["witnesses"]:
            assert witness["transcribed"] != witness["derived"]
        assert by_id["star.12"]["witnesses"]
        assert by_id["ast.4"]["witnesses"]


def test_criterion_6_theta_oracle():
    with criterion(6, "theta system at window 5: unique solution, "
                      "theta(1)=3/4, theta(n)=(2n+1)/4, rank certificate"):
        table = solve_theta(5)
        assert table.values[1] == Fraction(3, 4)
        for n in range(-5, 6):
            assert table.values[n] == Fraction(2 * n + 1, 4)
        assert table.rank == table.unknowns == 11
        reports = run_suite(RunConfig(window=5, checks=("solve-theta",)))
        assert reports[0].passed
        assert reports[0].extra["rank"] == reports[0].extra["unknowns"]


def test_criterion_7_post_lie_grid():
    with criterion(7, "post-Lie grid at window 4: exactly the zero point "
                      "satisfies all axioms"):
        report = run_suite(RunConfig(window=4, checks=("postlie-grid",)))[0]
        assert report.passed
        assert report.total_cases == len(grid_points()) == 162
        assert report.extra["passing_points"] == ["lambda=0, omega={}"]


def test_criterion_8_lsa_biderivation_grid():
    with criterion(8, "left-symmetric biderivation grid at window 4: "
                      "exactly the zero point passes; witness "
                      "coefficients at (d_2, d_1, d_3) as predicted"):
        report = run_suite(RunConfig(window=4, checks=("lsa-bider-grid",)))[0]
        assert report.passed
        assert report.extra["passing_points"] == ["lambda=0, omega={}"]

        # witness for lambda = 1: the expanded side acquires a d_6 term
        # with coefficient (8(1+4e) + (1+e))/(1+6e); the direct side has
        # no d_6 term at all.  (An 8(1+3e) variant would contradict the
        # product's own antisymmetry f(2,4)-f(4,2) = -2, pinning 1+4e.)
        rep = check_lsa_biderivation(BiderParams(1, {}), 3)
        witness = [f for f in rep.failures
                   if f.inputs == "(d(2), d(1), d(3))"
                   and f.equation_id == "lsabider.left"]
        assert witness
        residual = parse_element(witness[0].residual)
        expanded_d6 = (sc(8) * (ONE + sc(4) * EPS) + (ONE + EPS)) \
            / (ONE + sc(6) * EPS)
        assert residual.coeff(d(6)) == -expanded_d6
        printed_variant = (sc(8) * (ONE + sc(3) * EPS) + (ONE + EPS)) \
            / (ONE + sc(6) * EPS)
        assert expanded_d6 != printed_variant

        # witness for lambda = 0, mu_0 = 1: the two sides disagree on
        # h(13/2): -(1+e)/(1+3e) * 1/2 against -(1/2)(9/2) = -9/4
        rep = check_lsa_biderivation(BiderParams(0, {0: 1}), 3)
        witness = [f for f in rep.failures
                   if f.inputs == "(d(2), d(1), d(3))"
                   and f.equation_id == "lsabider.left"]
        assert witness
        residual = parse_element(witness[0].residual)
        direct_side = -(ONE + EPS) / (sc(2) * (ONE + sc(3) * EPS))
        expanded_side = sc(Fraction(-9, 4))
        assert direct_side != expanded_side
        assert residual.coeff(h(6)) == direct_side - expanded_side


def test_criterion_9_commuting_maps():
    with criterion(9, "three lambda*id + tau samples pass the commuting "
                      "check at window 5; the raw m*d(m) table fails "
                      "with an explicit witness"):
        reports = run_suite(RunConfig(window=5, checks=("commuting",)))
        assert reports[0].passed
        raw = LinearMap.from_table(
            {d(m): Element.of((m, d(m))) for m in range(-5, 6)}, "m*d(m)")
        report = check_commuting(raw, 5)
        assert not report.passed
        witness = {f.inputs for f in report.failures}
        assert "(d(1), d(2))" in witness


def test_criterion_10_numeric_symbolic_coherence():
    with criterion(10, "for eps in {1/7, 2/5, -3/4} (admissible at window "
                       "4) the numeric run reproduces the evaluated "
                       "symbolic run bit for bit; at 2/5 and -3/4 it "
                       "computes over Q, through the plain-Fraction "
                       "product and the closed form at e, and at 1/7, "
                       "whose pole 1+e*(-7) a triple product reaches, "
                       "symbolically"):
        symbolic = run_suite(RunConfig(window=4))
        assert all(r.passed for r in symbolic)
        for eps in (Fraction(1, 7), Fraction(2, 5), Fraction(-3, 4)):
            mode = EpsMode.numeric(eps)
            mode.computed_in(4)
            numeric = run_suite(RunConfig(window=4, eps=mode))
            evaluated = [r.evaluated_at(eps) for r in symbolic]
            assert reports_to_json(evaluated) == reports_to_json(numeric), \
                f"eps={eps}"
