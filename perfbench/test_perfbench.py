"""Tests of the benchmark itself: the plain-Fraction reference, the output
checks (each must count a corrupted result as a failed operation) and
the exact repeat of counts on reduced sizes.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import measure

mhv = measure.import_mhv()

import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from mhv import Element, d, sc  # noqa: E402


# ---------------------------------------------------------------------------
# the reference
# ---------------------------------------------------------------------------

def test_reference_hand_values():
    # [d(2), d(-2)] = 4*d(0) + 1/2*c
    assert ref.bracket({("d", 2): 1}, {("d", -2): 1}) == {
        ("d", 0): 4, ref.C: Fraction(1, 2)}
    # d(2) d(1) = -3/4*d(3) at e = 1/5
    assert ref.product({("d", 2): 1}, {("d", 1): 1}, Fraction(1, 5)) == {
        ("d", 3): Fraction(-3, 4)}
    # [h(1/2), h(-1/2)] = 1/2*l, and h(1/2) h(-1/2) = 1/4*l
    assert ref.bracket({("h", 0): 1}, {("h", -1): 1}) == {ref.L: Fraction(1, 2)}
    assert ref.product({("h", 0): 1}, {("h", -1): 1}, Fraction(1, 5)) == {
        ref.L: Fraction(1, 4)}
    assert ref.bracket({("d", 2): 1}, {("d", -2): 1}, central=False) == {
        ("d", 0): 4}


def test_reference_reads_rendered_elements():
    text = "-3/4*d(3) + h(5/2) - h(-1/2) - 1/2*c + 2*l"
    assert ref.parse_rendered(text) == {
        ("d", 3): Fraction(-3, 4), ("h", 2): 1, ("h", -1): -1,
        ref.C: Fraction(-1, 2), ref.L: 2}
    assert ref.parse_rendered("-d(0)") == {("d", 0): -1}
    assert ref.parse_rendered("0") == {}
    for bad in ("((1-e)/(-1+2*e))*d(-3)", "h(2/2)", "d(1) + d(1)", ""):
        with pytest.raises(ValueError):
            ref.parse_rendered(bad)


def test_reference_matches_mhv_on_basis_pairs():
    e = Fraction(2, 5)
    for u in ref.basis(3):
        for v in ref.basis(3):
            x, y = _element({u: 1}), _element({v: 1})
            assert _value(mhv.bracket(x, y)) == ref.bracket({u: 1}, {v: 1})
            numeric = mhv.lsa_product(x, y, mhv.EpsMode.numeric(e))
            assert _value(numeric) == ref.product({u: 1}, {v: 1}, e)


def _element(value: dict) -> Element:
    vectors = {"d": mhv.d, "h": mhv.h}
    return Element.of(*[(c, vectors[t](i) if t in vectors else
                         {"c": mhv.C, "l": mhv.L}[t])
                        for (t, i), c in value.items()])


def _value(x: Element) -> dict:
    return {(bv.tag, bv.index): c.as_rational() for bv, c in x.terms()}


# ---------------------------------------------------------------------------
# every check counts a corrupted result as a failed operation
# ---------------------------------------------------------------------------

def _failed(outcomes: list) -> list:
    return [o.label for o in outcomes if o.kind != "ok"]


@pytest.fixture(scope="module")
def verify_case():
    inputs = workloads.verify_inputs(5, None)(1, True)
    outputs, _ = workloads.verify_run(inputs)
    return inputs, outputs


def _replace_report(outputs: dict, name: str, **changes) -> dict:
    corrupted = dict(outputs)
    corrupted[name] = [dataclasses.replace(outputs[name][0], **changes)]
    return corrupted


def test_verify_check_passes_and_counts_corruption(verify_case):
    inputs, outputs = verify_case
    assert _failed(workloads.verify_check(inputs, outputs)) == []

    jacobi = outputs["jacobi"][0]
    wrong_cases = _replace_report(outputs, "jacobi",
                                  total_cases=jacobi.total_cases + 1)
    assert _failed(workloads.verify_check(inputs, wrong_cases)) == ["jacobi"]

    theta = outputs["solve-theta"][0].extra
    changed = dict(theta, theta=dict(theta["theta"], **{"0": "1/2"}))
    wrong_theta = _replace_report(outputs, "solve-theta", extra=changed)
    assert _failed(workloads.verify_check(inputs, wrong_theta)) == [
        "solve-theta"]

    cross = outputs["cross-check"][0].extra
    dropped = {"documented_discrepancies": [
        dict(entry, witnesses=[]) for entry in
        cross["documented_discrepancies"]]}
    no_witness = _replace_report(outputs, "cross-check", extra=dropped)
    assert _failed(workloads.verify_check(inputs, no_witness)) == [
        "cross-check"]

    failure = mhv.reports.Failure("(d(0), d(0), d(0))", "jacobi", "c")
    failing = _replace_report(outputs, "antisym", failures=[failure])
    assert _failed(workloads.verify_check(inputs, failing)) == ["antisym"]


def test_expected_cases_match_the_window_formulas():
    # the figures of a window-5 run of the suite
    assert [workloads.expected_cases(c, 5) for c in workloads.CHECKS] == [
        13824, 576, 576, 13824, 576, 106960, None, 1728, 162, 162,
        17303, 9317, 31620, 101]


def test_dense_check_counts_corruption():
    triples = workloads.dense_inputs(3, True)
    outputs, _ = workloads.dense_run(triples)
    assert _failed(workloads.dense_check(triples, outputs)) == []

    product = outputs[0]["product"]
    bv, coeff = product.terms()[0]
    changed = [dict(outputs[0], product=product + Element.of((sc(1), bv)))]
    assert _failed(workloads.dense_check(triples, changed)) == [
        "triple 0 product"]

    bracket = outputs[0]["bracket"]
    bv, coeff = bracket.terms()[-1]
    dropped = [dict(outputs[0], bracket=bracket - Element.of((coeff, bv)))]
    assert _failed(workloads.dense_check(triples, dropped)) == [
        "triple 0 bracket"]

    nonzero = [dict(outputs[0], jacobi=Element.of((sc(1), d(0))))]
    assert _failed(workloads.dense_check(triples, nonzero)) == [
        "triple 0 jacobi"]
    assert _failed(workloads.dense_check(triples, [])) == ["triple 0"]


@pytest.fixture(scope="module")
def counter_case():
    inputs = workloads.counter_inputs(4, True)
    outputs, _ = workloads.counter_run(inputs)
    return inputs, outputs


def _with_failures(report, failures: list):
    return dataclasses.replace(report, failures=failures)


def test_counter_check_passes(counter_case):
    inputs, outputs = counter_case
    outcomes = workloads.counter_check(inputs, outputs)
    assert len(outcomes) == 11 and _failed(outcomes) == []


def test_counter_check_counts_a_changed_coefficient(counter_case):
    inputs, outputs = counter_case
    full = outputs["full"][0]
    first = full.failures[0]
    coeff = ref.parse_rendered(first.residual)[ref.L]
    changed = dataclasses.replace(first, residual=f"{coeff * 2}*l")
    corrupted = dict(outputs, full=[
        _with_failures(full, [changed] + full.failures[1:])]
        + outputs["full"][1:])
    assert _failed(workloads.counter_check(inputs, corrupted)) == ["full 0"]


def test_counter_check_counts_a_dropped_failure(counter_case):
    inputs, outputs = counter_case
    symbolic, symbolic_json, evaluated_json, numeric = outputs["lsa"][0]
    dropped = _with_failures(numeric, numeric.failures[1:])
    corrupted = dict(outputs, lsa=[
        (symbolic, symbolic_json, evaluated_json, dropped)]
        + outputs["lsa"][1:])
    assert _failed(workloads.counter_check(inputs, corrupted)) == [
        "lsa 0 evaluated", "lsa 0 numeric"]

    doc = json.loads(evaluated_json)
    doc["failures"] = doc["failures"][1:]
    corrupted = dict(outputs, lsa=[
        (symbolic, symbolic_json, json.dumps(doc), numeric)]
        + outputs["lsa"][1:])
    assert _failed(workloads.counter_check(inputs, corrupted)) == [
        "lsa 0 evaluated"]


def test_counter_check_counts_wrong_total_cases(counter_case):
    inputs, outputs = counter_case
    centerless = outputs["centerless"][1]
    wrong = dataclasses.replace(centerless,
                                total_cases=centerless.total_cases - 1)
    corrupted = dict(outputs, centerless=[outputs["centerless"][0], wrong])
    assert _failed(workloads.counter_check(inputs, corrupted)) == [
        "centerless 1"]


# ---------------------------------------------------------------------------
# counts repeat exactly; the command refuses a directory without sources
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_counts_repeat_exactly(workload):
    def counts(record: dict) -> dict:
        exact = {key: value for key, value in record["figures"].items()
                 if key.endswith(("calls", "misses"))}
        exact.update({key: record[key]
                      for key in ("cases", "attempted", "failed")})
        return exact

    first, second = (run.spawn(workload, 7, "--small", "--profile", "1")
                     for _ in range(2))
    assert first["failed"] == 0 and first["problems"] == []
    assert counts(first) == counts(second)
    assert counts(first)["fractions.calls"] > 0


def test_command_fails_without_sources(tmp_path):
    here = os.path.dirname(os.path.abspath(__file__))
    shutil.copytree(here, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(here), "BENCHMARK.json"),
                tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-w5",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
