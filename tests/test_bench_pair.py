"""The verdicts of tools/bench_pair.py on paired benchmark values."""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
spec = importlib.util.spec_from_file_location(
    "bench_pair", os.path.join(ROOT, "tools", "bench_pair.py"))
bench_pair = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pair)

# ten parent values: median 1.0, quartiles 0.9875 and 1.02
PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.99]


@pytest.mark.parametrize("change, better, expected", [
    # nine wins and a median 10% lower: gain
    ([0.9] * 9 + [1.5], "lower", "gain"),
    # ten wins by less than the IQR: same
    ([p - 0.01 for p in PARENT], "lower", "same"),
    # eight wins by far: not a gain
    ([0.5] * 8 + [2.0] * 2, "lower", "same"),
    # a median 30% worse with a bound of 25%: worse
    ([1.3] * 10, "lower", "worse"),
    # the same values for a metric where higher is better
    ([1.3] * 10, "higher", "gain"),
    ([0.7] * 10, "higher", "worse"),
])
def test_verdicts(change, better, expected):
    assert bench_pair.verdict(PARENT, change, better, 0.25) == expected


def test_a_wide_parent_is_unresolved():
    parent = [1.0, 2.0] * 5
    assert bench_pair.verdict(parent, parent, "lower", 0.25) == "unresolved"
    # the change's median 60% worse is reported before the spread
    assert bench_pair.verdict(parent, [2.4] * 10, "lower", 0.25) == "worse"


def test_failed_and_wrong_runs_are_flagged():
    def run(pair, correct, failed):
        return {"workload": "w", "pair": pair, "seed": 7 + pair,
                "correct": correct, "failed": failed, "attempted": 3}

    results = {"parent": {"runs": [run(0, True, 0), run(1, False, 0)]},
               "change": {"runs": [run(0, True, 2)]}}
    assert bench_pair.flagged(results) == [
        "FLAG parent w pair 1 seed 8: correct False, failed 0 of 3",
        "FLAG change w pair 0 seed 7: correct True, failed 2 of 3"]
