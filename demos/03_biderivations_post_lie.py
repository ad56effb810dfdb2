"""Biderivations and what they decide: commuting maps, commutative
post-Lie products, and biderivations of the left-symmetric algebra.

The classified family is f(x,y) = lambda [x,y] + Upsilon(x,y), with the
exceptional part Upsilon supported on d,d pairs and valued in the h-span.
"""

from fractions import Fraction

from mhv import (BiderParams, BilinearTable, CENTERLESS, Element, FULL,
                 LinearMap, bider_eval, check_bider_converse,
                 check_biderivation, check_commuting, check_lsa_biderivation,
                 check_post_lie, d, h, upsilon)
from mhv.algebra import C
from mhv.suite import RunConfig, run_suite

E = Element.basis

print("== the family ==")
params = BiderParams(1, {0: 1})
print("f(d_2, d_1)  =", bider_eval(params, E(d(2)), E(d(1))))
print("f(d_1, d_-1) =", bider_eval(params, E(d(1)), E(d(-1))))
print("f(c, d_4)    =", bider_eval(params, E(C), E(d(4))), " (center annihilated)")
print("Upsilon(d_0, d_0), mu_-1 = 2:",
      upsilon(BiderParams(0, {-1: 2}), E(d(0)), E(d(0))))

print()
print("== the axiom check is a real decision procedure ==")
report = check_biderivation(BilinearTable.from_params(params, CENTERLESS), 3)
print(f"family member, centerless axioms, window 3: passed={report.passed} "
      f"({report.total_cases} cases)")

bogus = BilinearTable(
    lambda u, v: E(d(u.index + v.index))
    if u.tag == "d" and v.tag == "d" else Element.zero(), "dd->d")
report = check_biderivation(bogus, 2)
print(f"raw table (d_m,d_n)->d_(m+n):              passed={report.passed}, "
      f"first witness {report.failures[0].inputs}")

# over the centrally extended algebra the exceptional part is obstructed:
# its h-valued image brackets into the central l
report = check_biderivation(
    BilinearTable.from_params(BiderParams(0, {0: 1}), FULL), 2, FULL)
print(f"Upsilon over the full algebra:             passed={report.passed}, "
      f"residual {report.failures[0].residual} at {report.failures[0].inputs}")

print()
print("== converse: the axioms cut out exactly the family ==")
report = check_bider_converse(3)
print(f"candidate space rank certificate: passed={report.passed}, "
      f"{report.extra}")

print()
print("== commuting maps phi(x) = lambda x + tau(x) ==")
phi = LinearMap.from_spec(5, {d(0): E(C)})
print("lambda=5, tau(d_0)=c:", check_commuting(phi, 4).passed)
raw = LinearMap.from_table(
    {d(m): Element.of((m, d(m))) for m in range(-4, 5)}, "m*d(m)")
report = check_commuting(raw, 4)
print(f"phi(d_m) = m d_m: passed={report.passed}, "
      f"witness {report.failures[0].inputs} -> {report.failures[0].residual}")

print()
print("== triviality sweeps over the parameter grid ==")
report = run_suite(RunConfig(window=3, checks=("postlie-grid",)))[0]
print("commutative post-Lie grid:", report.extra["passing_points"])
report = run_suite(RunConfig(window=3, checks=("lsa-bider-grid",)))[0]
print("left-symmetric biderivation grid:", report.extra["passing_points"])

print()
print("== why lambda = 1 fails the left-symmetric axioms ==")
report = check_lsa_biderivation(BiderParams(1, {}), 3)
witness = next(f for f in report.failures
               if f.inputs == "(d(2), d(1), d(3))"
               and f.equation_id == "lsabider.left")
print("residual at (d_2, d_1, d_3):", witness.residual)
