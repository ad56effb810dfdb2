"""Deterministic machine-readable reports for verification checks.

A Report is the one output format every check produces: the check name,
the window, the e-mode, the exact number of quantifier instantiations,
and the (possibly empty) list of failures.  Failures serialize as fully
rendered strings, so a serialized report is self-contained evidence and
can be used directly as a regression fixture.  JSON output is
byte-identical for identical inputs: key order is fixed and all numbers
are exact decimal strings, never floats.

A Report sorts its failures by (inputs, equation_id) when it is built,
so the failure order is decided here and nowhere else.  Most checks
hand collect a sweep, which yields the (inputs, equation_id, residual)
of its nonzero residuals only and returns the number of the others;
collect counts both as cases and keeps each nonzero residual through
residual_failure, as bider-family's sweep and a grid's zero point do:
rendered, and as its value when it depends on e.  Free-text Failures
(converse, cross-check, solve-theta, a grid's unexpected pass) have none.

A check's plan is its chunks, independent zero-argument callables
returning picklable data, and a finish, which makes its Report of their
results in chunk order.  pooled sums the cases and pools the failures of
a check's part Reports into one Report, and the sort makes the result
independent of where the parts ran; chunked plans a check whose chunks
collect one residual stream each and whose finish pools them.  prefixed
leads every failure label of a part, such as one family member's, with
the part's name.

evaluated_at evaluates every value at an exact nonzero e, refused first,
parsing nothing, and keeps every other failure: a symbolic report
evaluated at e is the report a numeric run must give, whether that run
computed the check symbolically or over Q, where every value is already
rational and evaluated_at only relabels the e-mode.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import partial

from .algebra import Element
from .scalars import Scalar, nonzero_eps

SCHEMA_VERSION = 1


@dataclass(frozen=True, slots=True)
class Failure:
    inputs: str
    equation_id: str
    residual: str
    # the e-dependent Element or Scalar that residual renders, else None
    value: Element | Scalar | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.value is not None and self.value.render() != self.residual:
            raise ValueError(f"{self.residual!r} does not render its value")

    def to_dict(self) -> dict:
        return {
            "inputs": self.inputs,
            "equation_id": self.equation_id,
            "residual": self.residual,
        }

    def sort_key(self) -> tuple:
        return (self.inputs, self.equation_id)


@dataclass
class Report:
    check: str
    window: int
    eps_mode: str
    total_cases: int
    failures: list = field(default_factory=list)
    extra: dict | None = None

    def __post_init__(self):
        self.failures = sorted(self.failures, key=Failure.sort_key)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        out = {
            "schema": SCHEMA_VERSION,
            "check": self.check,
            "window": self.window,
            "eps_mode": self.eps_mode,
            "total_cases": self.total_cases,
            "passed": self.passed,
            "failures": [f.to_dict() for f in self.failures],
        }
        if self.extra is not None:
            out["extra"] = self.extra
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def evaluated_at(self, eps: Fraction) -> "Report":
        """The report a numeric run at e = eps should reproduce: each value
        evaluated (str renders a Scalar's Fraction as Scalar.render would)
        and the e-mode relabeled; a report computed over Q keeps no value,
        so it is only relabeled.  eps, as a Fraction, is checked before
        any failure: a float or bool raises TypeError, 0 ZeroEpsilonError."""
        eps = nonzero_eps(eps)
        evaluated = [f if f.value is None else
                     Failure(f.inputs, f.equation_id,
                             str(f.value.eval_at(eps)))
                     for f in self.failures]
        return Report(self.check, self.window, f"eps={eps}",
                      self.total_cases, evaluated, self.extra)


def residual_failure(inputs: str, equation_id: str,
                     residual: Element | Scalar) -> Failure:
    """The Failure of a nonzero residual: rendered, and kept as its value
    only when it depends on e."""
    coeffs = residual._terms.values() if isinstance(residual, Element) \
        else (residual,)
    depends = not all(c.is_rational() for c in coeffs)
    return _rendered(inputs, equation_id, residual.render(),
                     residual if depends else None)


def _rendered(inputs: str, equation_id: str, residual: str, value) -> Failure:
    """A Failure whose residual renders value, built without the check."""
    failure = Failure(inputs, equation_id, residual)
    object.__setattr__(failure, "value", value)
    return failure


def render_inputs(inputs: tuple) -> str:
    """A case label: a tuple of parts as "(p1, p2, ...)"."""
    return "(" + ", ".join(map(str, inputs)) + ")"


class Swept:
    """A sweep's items, then in zeros the count it returned (0 if none)."""

    def __init__(self, stream):
        self.stream = stream

    def __iter__(self):
        self.zeros = (yield from self.stream) or 0


def collect(check: str, window: int, eps_mode: str, residuals,
            extra: dict | None = None) -> Report:
    """The sorted Report of a sweep of (inputs, equation_id, residual).

    Each item is one case, and so is each of the zero cases whose number
    the sweep returns.  A residual is an Element or a Scalar; only the
    nonzero ones are kept, through residual_failure.  Inputs are rendered
    only for a failure, so a passing sweep never formats its labels."""
    failures = []
    cases = 0
    swept = Swept(residuals)
    for inputs, eq_id, residual in swept:
        cases += 1
        if not residual.is_zero():
            failures.append(residual_failure(render_inputs(inputs), eq_id,
                                             residual))
    return Report(check, window, eps_mode, cases + swept.zeros, failures,
                  extra)


def pooled(check: str, window: int, parts: list) -> Report:
    """The symbolic Report of a check's part Reports: their cases summed
    and their failures pooled."""
    return Report(check, window, "symbolic",
                  sum(p.total_cases for p in parts),
                  [f for p in parts for f in p.failures])


def chunked(check: str, window: int, streams: list) -> tuple:
    """The plan of a check's streams, zero-argument callables returning
    residual streams: a chunk collects each one, and finish pools them."""
    return ([lambda stream=stream: collect(check, window, "symbolic",
                                           stream()) for stream in streams],
            partial(pooled, check, window))


def prefixed(prefix: str, report: Report) -> Report:
    """The same Report with every failure's inputs led by prefix; only
    failures are relabelled, so a passing report formats no label."""
    return replace(report, failures=[
        _rendered(f"{prefix} {f.inputs}", f.equation_id, f.residual, f.value)
        for f in report.failures])


def reports_to_json(reports: list, config: dict | None = None) -> str:
    doc = {"schema": SCHEMA_VERSION}
    if config:
        doc.update(config)
    doc["reports"] = [r.to_dict() for r in reports]
    return json.dumps(doc, indent=2)


TEXT_FAILURES = 5


def reports_to_text(reports: list) -> str:
    lines = []
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status}  {r.check}  (window={r.window}, "
                     f"{r.eps_mode}, cases={r.total_cases}, "
                     f"failures={len(r.failures)})")
        for failure in r.failures[:TEXT_FAILURES]:
            lines.append(f"      {failure.equation_id} at {failure.inputs}: "
                         f"{failure.residual}")
        if len(r.failures) > TEXT_FAILURES:
            lines.append(f"      ... {len(r.failures) - TEXT_FAILURES} more")
    return "\n".join(lines)
