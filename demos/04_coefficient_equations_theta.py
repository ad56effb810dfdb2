"""The graded-product ansatz: seven coefficient functions, the two
functional-equation systems that govern them, the independent oracle
derived from the identities themselves, and the theta linear system.
"""

from mhv import (RunConfig, ast_residuals, derived_counterparts,
                 random_fns, residuals_from_identity, run_suite, solve_theta,
                 star_residuals, closed_form_fns)

fns = closed_form_fns()

print("== the closed-form coefficient functions ==")
print("f(2, 1)    =", fns.f(2, 1))
print("g(2, 1)    =", fns.g(2, 1))
print("omega(1,-1) =", fns.omega(1, -1))
print("rho(1, -2) =", fns.rho(1, -2))
print("h = a = b  =", fns.h(3, 1), fns.a(3, 1), fns.b(3, 1))

print()
print("== the transcribed systems vanish on the closed forms ==")
sample = (2, 1, 3)
residuals = star_residuals(fns, *sample) + ast_residuals(fns, *sample)
print(f"at {sample}: {len(residuals)} residuals, "
      f"all zero: {all(v.is_zero() for _, v in residuals)}")

print()
print("== the identity-derived oracle bypasses the transcription ==")
oracle = residuals_from_identity(fns, *sample)
print(f"raw identity/compatibility components at {sample}: "
      f"{len(oracle)}, all zero: {all(v.is_zero() for _, v in oracle)}")

print()
print("== cross-checking transcription against oracle on random tables ==")
probe = random_fns(1)
transcribed = dict(star_residuals(probe, 0, 1, 0))
derived = derived_counterparts(probe, 0, 1, 0)
for eq_id in ("star.5", "star.11", "star.12"):
    agree = transcribed[eq_id] == derived[eq_id]
    print(f"{eq_id}: transcribed {transcribed[eq_id]}  |  "
          f"derived {derived[eq_id]}  |  agree: {agree}")

report = run_suite(RunConfig(window=3, checks=("cross-check",)))[0]
print(f"cross-check window 3: passed={report.passed}")
for entry in report.extra["documented_discrepancies"]:
    print(f"  documented: {entry['id']} - {entry['note'][:60]}...")

print()
print("== the theta system ==")
table = solve_theta(5)
print(f"unknowns={table.unknowns}, rank={table.rank}, "
      f"equations={table.equations} (unique solution certified)")
print("theta(1) =", table.values[1])
print("profile:", {n: str(v) for n, v in sorted(table.values.items())})
