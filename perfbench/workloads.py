"""The benchmark's four workloads.

Each workload has three parts:

* ``inputs(seed, small)`` builds the inputs from the seed; this is set-up
  and is not timed.  ``small`` selects the reduced sizes the benchmark's
  own tests use.
* ``run(inputs)`` makes the timed calls into mhv and returns
  ``(outputs, parts)``, where ``parts`` maps a part name to its wall time.
* ``check(inputs, outputs)`` checks every output against the plain-Fraction
  reference in reference.py or against a property the paper proves, and
  returns one ``Outcome`` per operation.

Outputs are read through the public API and the report JSON contract
(``Report.to_dict`` / ``to_json``), never through mhv internals, and are
never compared with a stored copy of an earlier run.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import mhv
from mhv import (CENTERLESS, EPS, FULL, SYMBOLIC, BiderParams, BilinearTable,
                 Element, EpsMode, bracket, check_biderivation,
                 check_lsa_biderivation, d, h, lsa_associator_defect,
                 lsa_commutator, lsa_product, sc)

import reference as ref
from run import CHECKS

E_VALUE = Fraction(2, 5)
ZERO_MEMBER = "lambda=0, omega={}"
GRID_POINTS = 6 * 3 * 3 * 3        # lambda values x mu values on 3 shifts
CONVERSE_GENERATORS = 46
FAMILY_GENERATORS = 6


@dataclass
class Outcome:
    """One checked operation: ``error`` when it raised, ``wrong`` when its
    output disagrees with the reference; both count as failed."""

    label: str
    problem: str | None = None
    kind: str = "ok"


def _outcome(label: str, problems: list) -> Outcome:
    if problems:
        return Outcome(label, "; ".join(problems), "wrong")
    return Outcome(label)


def _guarded(label: str, check, *args) -> Outcome:
    try:
        return _outcome(label, check(*args))
    except Exception as exc:  # a malformed output is a failed operation
        return Outcome(label, f"{type(exc).__name__}: {exc}", "error")


# ---------------------------------------------------------------------------
# verify-w5 and verify-w4-eps-2workers
# ---------------------------------------------------------------------------

@dataclass
class VerifyInputs:
    window: int
    eps: Fraction | None

    @property
    def label(self) -> str:
        return "symbolic" if self.eps is None else f"eps={self.eps}"


def expected_cases(check: str, window: int) -> int | None:
    """total_cases of a check at a window, computed from the window alone;
    None where the count is not a function of the window (bider-grid
    stops as soon as its rank certificate is complete)."""
    b, bc, s = 4 * window + 4, 4 * window + 2, 2 * window + 1
    theta_window = max(window, 2)
    ts = 2 * theta_window + 1
    return {
        "jacobi": b**3, "lsa-identity": b**3,
        "antisym": b**2, "grading": b**2, "compatibility": b**2,
        "commuting": 3 * b**2,
        "bider-family": 10 * bc**3 + 20 * b,
        "postlie-grid": GRID_POINTS, "lsa-bider-grid": GRID_POINTS,
        "star": 13 * s**3, "ast": 7 * s**3,
        "cross-check": 20 * (s**3 + 250),
        # pairs (m, n) with m+n in the window, plus m with -1-m in it
        "solve-theta": ts**2 - theta_window * (theta_window + 1)
        + 2 * theta_window,
    }.get(check)


def verify_inputs(window: int, eps: Fraction | None):
    def make(seed: int, small: bool) -> VerifyInputs:
        # the gate commands take no random input: the seed selects nothing
        return VerifyInputs(1 if small else window, eps)
    return make


def verify_run(inputs: VerifyInputs) -> tuple:
    eps = SYMBOLIC if inputs.eps is None else EpsMode.numeric(inputs.eps)
    outputs, parts = {}, {}
    for name in CHECKS:
        start = time.perf_counter()
        config = mhv.RunConfig(window=inputs.window, eps=eps, checks=(name,))
        outputs[name] = mhv.run_suite(config)
        parts[name] = time.perf_counter() - start
    return outputs, parts


def _check_extra(name: str, doc: dict, window: int) -> list:
    extra = doc.get("extra") or {}
    problems = []
    if name in ("postlie-grid", "lsa-bider-grid"):
        if extra.get("grid_points") != GRID_POINTS:
            problems.append(f"grid_points {extra.get('grid_points')}")
        if extra.get("passing_points") != [ZERO_MEMBER]:
            problems.append(f"passing points {extra.get('passing_points')}")
    elif name == "bider-grid":
        target = CONVERSE_GENERATORS - FAMILY_GENERATORS
        if (extra.get("generators"), extra.get("target_rank"),
                extra.get("rank")) != (CONVERSE_GENERATORS, target, target):
            problems.append(f"rank certificate {extra}")
        if not 0 < doc["total_cases"] == extra.get("rows_used"):
            problems.append(f"rows_used {extra.get('rows_used')}")
    elif name == "solve-theta":
        w = max(window, 2)
        theta = {str(n): str(Fraction(2 * n + 1, 4))
                 for n in range(-w, w + 1)}
        if extra.get("theta") != theta:
            problems.append(f"theta {extra.get('theta')}")
        if extra.get("rank") != 2 * w + 1 or extra.get("unknowns") != 2 * w + 1:
            problems.append(f"theta rank {extra.get('rank')}")
    elif name == "cross-check":
        logged = {entry.get("id"): entry.get("witnesses") for entry in
                  extra.get("documented_discrepancies", [])}
        witnesses = logged.get("star.12") or []
        if not witnesses or any(w["transcribed"] == w["derived"]
                                for w in witnesses):
            problems.append("no star.12 witness logged")
    return problems


def _check_report(name: str, reports: list, inputs: VerifyInputs) -> list:
    if len(reports) != 1:
        return [f"{len(reports)} reports"]
    doc = reports[0].to_dict()
    problems = []
    expected = {"check": name, "window": inputs.window,
                "eps_mode": inputs.label, "passed": True, "failures": []}
    for key, value in expected.items():
        if doc.get(key) != value:
            problems.append(f"{key} = {doc.get(key)!r}, expected {value!r}")
    cases = expected_cases(name, inputs.window)
    if cases is not None and doc.get("total_cases") != cases:
        problems.append(f"total_cases = {doc.get('total_cases')}, "
                        f"expected {cases}")
    return problems + _check_extra(name, doc, inputs.window)


def verify_check(inputs: VerifyInputs, outputs: dict) -> list:
    return [_guarded(name, _check_report, name, outputs.get(name, []), inputs)
            for name in CHECKS]


def verify_cases(outputs: dict) -> int:
    return sum(r.total_cases for reports in outputs.values() for r in reports)


def verify_facts(outputs: dict) -> dict:
    """Per-layer figures read off the reports."""
    extra = outputs["bider-grid"][0].to_dict().get("extra") or {}
    rows = extra.get("rows_used") or 0
    return {"linalg.rank_per_row": extra.get("rank", 0) / rows if rows else 0}


# ---------------------------------------------------------------------------
# kernel-dense-e
# ---------------------------------------------------------------------------

# term counts of (x, y, z) per triple: fixed, so that every seed asks for
# the same amount of work
TERM_SCHEDULE = ((4, 6, 8), (8, 4, 6), (6, 8, 4), (5, 7, 6), (7, 5, 5))
INDEX_SPAN = 6
INDEX_SEED = 0
CHECK_POINTS = (Fraction(2, 5), Fraction(-3, 7))


@dataclass
class DenseTriple:
    specs: tuple        # per element: [((num, den), (tag, index)), ...]
    elements: tuple     # the same elements as mhv Elements


def _poly_scalar(coeffs: tuple):
    acc, power = sc(0), sc(1)
    for c in coeffs:
        acc = acc + sc(c) * power
        power = power * EPS
    return acc


def _poly_value(coeffs: tuple, e: Fraction) -> Fraction:
    return sum(Fraction(c) * e**i for i, c in enumerate(coeffs))


def _dense_coefficient(rng: random.Random, position: int) -> tuple:
    """(num, den) coefficient tuples, lowest degree first: a linear or
    quadratic numerator over b0 + b1 e with 1 <= b0 <= 4, 1 <= b1 <= 3,
    which has no root at e = 0 or at either check point."""
    def nonzero(lo: int, hi: int) -> int:
        return rng.choice([v for v in range(lo, hi + 1) if v])

    num = (nonzero(-3, 3), Fraction(nonzero(-4, 4), rng.randint(1, 3)))
    if position % 2:
        num += (nonzero(-2, 2),)
    return num, (rng.randint(1, 4), rng.randint(1, 3))


def _dense_spec(rng: random.Random, indices: random.Random,
                terms: int) -> list:
    d_count = (terms + 1) // 2
    span = range(-INDEX_SPAN, INDEX_SPAN + 1)
    vectors = [("d", m) for m in indices.sample(span, d_count)]
    vectors += [("h", n) for n in indices.sample(span, terms - d_count)]
    return [(_dense_coefficient(rng, i), bv) for i, bv in enumerate(vectors)]


def _to_element(spec: list) -> Element:
    pairs = []
    for (num, den), (tag, index) in spec:
        vector = d(index) if tag == "d" else h(index)
        pairs.append((_poly_scalar(num) / _poly_scalar(den), vector))
    return Element.of(*pairs)


def dense_inputs(seed: int, small: bool) -> list:
    """The seed draws the coefficients.  The index sets are drawn once, from
    a generator of their own: which index sums coincide sets most of the
    work, and with seeded indices it varied by 8% from seed to seed."""
    rng, indices = random.Random(seed), random.Random(INDEX_SEED)
    schedule = TERM_SCHEDULE[:1] if small else TERM_SCHEDULE
    triples = []
    for counts in schedule:
        specs = tuple(_dense_spec(rng, indices, k) for k in counts)
        triples.append(DenseTriple(specs,
                                   tuple(_to_element(s) for s in specs)))
    return triples


def dense_run(triples: list) -> tuple:
    outputs = []
    start = time.perf_counter()
    for triple in triples:
        x, y, z = triple.elements
        outputs.append({
            "product": lsa_product(x, y),
            "bracket": bracket(x, y),
            "lsa.identity": lsa_associator_defect(x, y, z),
            "jacobi": bracket(x, bracket(y, z)) + bracket(y, bracket(z, x))
            + bracket(z, bracket(x, y)),
            "lsa.compat": lsa_commutator(x, y) - bracket(x, y),
        })
    return outputs, {"triples": time.perf_counter() - start}


def _spec_value(spec: list, e: Fraction) -> dict:
    return {bv: _poly_value(num, e) / _poly_value(den, e)
            for (num, den), bv in spec}


def _element_value(x: Element, e: Fraction) -> dict:
    out = {}
    for bv, coeff in x.terms():
        value = coeff.eval_at(e)
        if value:
            out[(bv.tag, bv.index)] = value
    return out


def _check_against(x: Element, triple: DenseTriple, reference) -> list:
    problems = []
    for e in CHECK_POINTS:
        left, right = (_spec_value(s, e) for s in triple.specs[:2])
        if _element_value(x, e) != reference(left, right, e):
            problems.append(f"differs from the reference at e = {e}")
    return problems


def _check_zero(x: Element) -> list:
    return [] if x.is_zero() and not x.terms() else [f"nonzero: {x}"]


def dense_check(triples: list, outputs: list) -> list:
    references = {
        "product": ref.product,
        "bracket": lambda a, b, e: ref.bracket(a, b),
    }
    outcomes = []
    for i, (triple, out) in enumerate(zip(triples, outputs)):
        for name, reference in references.items():
            outcomes.append(_guarded(f"triple {i} {name}", _check_against,
                                     out[name], triple, reference))
        for name in ("lsa.identity", "jacobi", "lsa.compat"):
            outcomes.append(_guarded(f"triple {i} {name}", _check_zero,
                                     out[name]))
    missing = len(triples) - len(outputs)
    outcomes += [Outcome(f"triple {len(outputs) + i}", "no output", "wrong")
                 for i in range(missing)]
    return outcomes


def dense_cases(outputs: list) -> int:
    return 3 * len(outputs)     # one per identity evaluated


# ---------------------------------------------------------------------------
# counterexamples
# ---------------------------------------------------------------------------

LAMBDAS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
           Fraction(1, 2), Fraction(3, 2), Fraction(-3))
MUS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-3), Fraction(1, 2))
OMEGA_SPAN = range(-2, 3)


@dataclass
class CounterInputs:
    full_window: int
    lsa_window: int
    full_members: tuple     # nonzero Omega: fail over the full algebra
    lambda_member: tuple    # Omega empty: passes over the full algebra
    lsa_members: tuple      # lambda only, Omega only: both fail the
                            # left-symmetric biderivation axioms


def _member(rng: random.Random, omega_size: int, inner: bool = True) -> tuple:
    """(lambda, Omega) with a nonzero lambda, or lambda = 0 if not inner."""
    lam = rng.choice(LAMBDAS) if inner else Fraction(0)
    support = sorted(rng.sample(OMEGA_SPAN, omega_size))
    return lam, {k: rng.choice(MUS) for k in support}


def counter_inputs(seed: int, small: bool) -> CounterInputs:
    rng = random.Random(seed)
    return CounterInputs(
        full_window=1,
        lsa_window=1 if small else 3,
        full_members=(_member(rng, 1), _member(rng, 2)),
        lambda_member=_member(rng, 0),
        lsa_members=(_member(rng, 0), _member(rng, 1, inner=False)),
    )


def _params(member: tuple) -> BiderParams:
    lam, omega = member
    return BiderParams(lam, {k: sc(mu) for k, mu in omega.items()})


def counter_run(inputs: CounterInputs) -> tuple:
    parts = {}

    def timed(part: str, fn, *args):
        start = time.perf_counter()
        value = fn(*args)
        parts[part] = parts.get(part, 0.0) + time.perf_counter() - start
        return value

    def bider(member, mode):
        table = BilinearTable.from_params(_params(member), mode)
        return check_biderivation(table, inputs.full_window, mode)

    numeric = EpsMode.numeric(E_VALUE)
    out = {
        "full": [timed("full", bider, m, FULL) for m in inputs.full_members],
        "centerless": [timed("centerless", bider, m, CENTERLESS)
                       for m in inputs.full_members],
        "lambda": timed("full", bider, inputs.lambda_member, FULL),
        "lsa": [],
    }
    for member in inputs.lsa_members:
        params = _params(member)
        symbolic = timed("lsa_symbolic", check_lsa_biderivation, params,
                         inputs.lsa_window, SYMBOLIC)
        symbolic_json = timed("to_json", symbolic.to_json)
        evaluated = timed("evaluated_at", symbolic.evaluated_at, E_VALUE)
        evaluated_json = timed("to_json", evaluated.to_json)
        numeric_report = timed("lsa_numeric", check_lsa_biderivation, params,
                               inputs.lsa_window, numeric)
        out["lsa"].append((symbolic, symbolic_json, evaluated_json,
                           numeric_report))
    return out, parts


def _failure_map(doc: dict) -> dict:
    return {(f["inputs"], f["equation_id"]): f["residual"]
            for f in doc["failures"]}


def _read_failures(doc: dict) -> dict:
    return {key: ref.parse_rendered(text)
            for key, text in _failure_map(doc).items()}


def _expect(doc: dict, passed: bool, cases: int, eps_mode: str) -> list:
    problems = []
    if doc["passed"] is not passed or bool(doc["failures"]) == passed:
        problems.append(f"passed = {doc['passed']} with "
                        f"{len(doc['failures'])} failures")
    if doc["total_cases"] != cases:
        problems.append(f"total_cases = {doc['total_cases']}, expected {cases}")
    if doc["eps_mode"] != eps_mode:
        problems.append(f"eps_mode = {doc['eps_mode']}")
    return problems


def _check_full(report, member: tuple, window: int) -> list:
    """Fails, every residual a nonzero multiple of l alone, and exactly the
    failures the reference finds over the full algebra."""
    doc = report.to_dict()
    cases = 2 * len(ref.basis(window)) ** 3
    problems = _expect(doc, False, cases, "symbolic")
    found = _read_failures(doc)
    if any(set(value) != {ref.L} for value in found.values()):
        problems.append("a residual is not a multiple of l alone")
    family = ref.family(*member)
    expected = ref.sweep_failures(
        lambda x, y, z: ref.bider_residuals(family, x, y, z), window)
    if found != expected:
        problems.append(f"{len(found)} failures differ from the reference's "
                        f"{len(expected)}")
    return problems


def _check_passes(report, window: int, central: bool) -> list:
    cases = 2 * len(ref.basis(window, central)) ** 3
    return _expect(report.to_dict(), True, cases, "symbolic")


def _check_symbolic(symbolic, symbolic_json: str, window: int) -> list:
    doc = symbolic.to_dict()
    cases = 2 * len(ref.basis(window)) ** 3
    problems = _expect(doc, False, cases, "symbolic")
    if json.loads(symbolic_json)["failures"] != doc["failures"]:
        problems.append("to_json does not hold the report's failures")
    return problems


def _check_evaluated(symbolic, evaluated_json: str, numeric) -> list:
    """The symbolic report evaluated at e agrees failure by failure with the
    numeric run, an absent failure counting as 0."""
    evaluated = json.loads(evaluated_json)
    problems = []
    if evaluated["eps_mode"] != f"eps={E_VALUE}":
        problems.append(f"eps_mode = {evaluated['eps_mode']}")
    if len(evaluated["failures"]) != len(symbolic.to_dict()["failures"]):
        problems.append("evaluated report changed the number of failures")
    ev, num = _read_failures(evaluated), _read_failures(numeric.to_dict())
    differ = [key for key in ev.keys() | num.keys()
              if ev.get(key, {}) != num.get(key, {})]
    if differ:
        problems.append(f"{len(differ)} failures differ, first {min(differ)}")
    return problems


def _check_numeric(numeric, member: tuple, window: int) -> list:
    doc = numeric.to_dict()
    cases = 2 * len(ref.basis(window)) ** 3
    problems = _expect(doc, False, cases, f"eps={E_VALUE}")
    family = ref.family(*member)
    expected = ref.sweep_failures(
        lambda x, y, z: ref.lsa_bider_residuals(family, x, y, z, E_VALUE),
        window)
    if _read_failures(doc) != expected:
        problems.append("failures differ from the reference")
    return problems


def counter_check(inputs: CounterInputs, out: dict) -> list:
    fw, lw = inputs.full_window, inputs.lsa_window
    outcomes = []
    for i, member in enumerate(inputs.full_members):
        outcomes.append(_guarded(f"full {i}", _check_full, out["full"][i],
                                 member, fw))
        outcomes.append(_guarded(f"centerless {i}", _check_passes,
                                 out["centerless"][i], fw, False))
    outcomes.append(_guarded("lambda-only full", _check_passes,
                             out["lambda"], fw, True))
    for i, member in enumerate(inputs.lsa_members):
        symbolic, symbolic_json, evaluated_json, numeric = out["lsa"][i]
        outcomes.append(_guarded(f"lsa {i} symbolic", _check_symbolic,
                                 symbolic, symbolic_json, lw))
        outcomes.append(_guarded(f"lsa {i} evaluated", _check_evaluated,
                                 symbolic, evaluated_json, numeric))
        outcomes.append(_guarded(f"lsa {i} numeric", _check_numeric,
                                 numeric, member, lw))
    return outcomes


def counter_cases(out: dict) -> int:
    reports = out["full"] + out["centerless"] + [out["lambda"]]
    for symbolic, _, _, numeric in out["lsa"]:
        reports += [symbolic, numeric]
    return sum(r.total_cases for r in reports)


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    inputs: Callable        # (seed, small) -> inputs
    run: Callable           # inputs -> (outputs, {part: seconds})
    check: Callable         # (inputs, outputs) -> [Outcome]
    cases: Callable         # outputs -> quantifier instantiations
    facts: Callable | None = None   # outputs -> per-layer figures


WORKLOADS = {
    "verify-w5": Workload(verify_inputs(5, None), verify_run, verify_check,
                          verify_cases, verify_facts),
    "verify-w4-eps-2workers": Workload(verify_inputs(4, E_VALUE), verify_run,
                                       verify_check, verify_cases,
                                       verify_facts),
    "kernel-dense-e": Workload(dense_inputs, dense_run, dense_check,
                               dense_cases),
    "counterexamples": Workload(counter_inputs, counter_run, counter_check,
                                counter_cases),
}
