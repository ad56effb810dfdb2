"""mhv benchmark: end-to-end and per-layer figures of four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each round of the workload runs in a
fresh interpreter (perfbench/measure.py); rounds repeat until S seconds
have passed, at least one.  Set-up time is the median over the rounds
and SETUP_SAMPLES extra interpreters that stop at their first timed
call.  Every output is checked; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: the end-to-end metrics, medians over the rounds, with
  times scaled to a reference machine speed (``speed_scale``);
* ``--trace 1``: the per-layer metrics, medians over rounds run under
  cProfile (self time and calls per module, memo tables, the timers
  around each check).

A record of every round is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

WORKLOADS = ("verify-w5", "verify-w4-eps-2workers", "kernel-dense-e",
             "counterexamples")
WORKERS = {"verify-w4-eps-2workers": 2}     # MHV_WORKERS; 1 elsewhere
SETUP_SAMPLES = 5
# the calibration loop's usual duration on the machine the reference
# figures in README.md were taken on (2 cores, Python 3.11.7)
REFERENCE_CALIBRATION_S = 0.028
ROUND_TIMEOUT_S = 170

# the 14 checks of mhv's run_suite, in its canonical order
CHECKS = ("jacobi", "antisym", "grading", "lsa-identity", "compatibility",
          "bider-family", "bider-grid", "commuting", "postlie-grid",
          "lsa-bider-grid", "star", "ast", "cross-check", "solve-theta")

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "cases_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "fractions.self_s": "s", "fractions.calls": "count",
    "scalars.self_s": "s", "scalars.scalar_init_calls": "count",
    "scalars.canonicalize_calls": "count", "scalars.pgcd_calls": "count",
    "algebra.self_s": "s", "algebra.bracket_calls": "count",
    "algebra.element_add_calls": "count",
    "algebra.basis_bracket.misses": "count",
    "algebra.basis_bracket.hit_ratio": "ratio",
    "lsa.self_s": "s", "lsa.product_calls": "count",
    "lsa.basis_product.misses": "count", "lsa.basis_product.hit_ratio": "ratio",
    "lsa.dd_coeff.misses": "count",
    "biderivations.self_s": "s", "biderivations.check_family_s": "s",
    "coeffs.self_s": "s", "coeffs.cross_check_s": "s",
    "linalg.self_s": "s", "linalg.add_row_calls": "count",
    "linalg.rank_per_row": "ratio",
    "reports.self_s": "s", "reports.evaluated_at_s": "s",
    "reports.to_json_s": "s",
    "expressions.self_s": "s", "expressions.parse_calls": "count",
    "suite.self_s": "s",
    **{f"suite.check.{name}_s": "s" for name in CHECKS},
    "suite.children_cpu_s": "s", "suite.core_use": "ratio",
}


class BenchError(RuntimeError):
    """A round could not be run or did not report."""


def child_env(workload: str) -> dict:
    env = dict(os.environ)
    env["MHV_WORKERS"] = str(WORKERS.get(workload, 1))
    return env


def spawn(workload: str, seed: int, *flags: str) -> dict:
    """Run one round in a fresh interpreter; its record gains ``setup_s``,
    the time from starting the interpreter to its first timed call."""
    command = [sys.executable, os.path.join(HERE, "measure.py"),
               "--workload", workload, "--seed", str(seed), *flags]
    started = time.monotonic()
    try:
        done = subprocess.run(command, cwd=ROOT, env=child_env(workload),
                              capture_output=True, text=True,
                              timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"round {flags} of {workload} passed "
                         f"{ROUND_TIMEOUT_S} s")
    if done.returncode != 0:
        raise BenchError(f"round {flags} of {workload} exited with "
                         f"{done.returncode}:\n{done.stderr.strip()}")
    record = json.loads(done.stdout.strip().splitlines()[-1])
    record["setup_s"] = record["first_call"] - started
    return record


def speed_scale(record: dict) -> float:
    """Factor that brings a time measured in a record's process to the
    reference speed: the reference duration of the calibration loop over
    its median duration in that process, before and after the timed span."""
    return REFERENCE_CALIBRATION_S / statistics.median(record["calibration"])


def end_to_end(rounds: list, setups: list) -> dict:
    median = statistics.median
    wall = [r["wall_s"] * speed_scale(r) for r in rounds]
    return {
        "setup_s": median(r["setup_s"] * speed_scale(r) for r in setups),
        "wall_s": median(wall),
        "cpu_s": median(r["cpu_s"] * speed_scale(r) for r in rounds),
        "cases_per_s": median(r["cases"] / w for r, w in zip(rounds, wall)),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in rounds),
    }


def per_layer(rounds: list) -> dict:
    """Medians over the profiled rounds: the profile's figures, and the
    timers around each check and the CPU clocks for suite.*."""
    timers = {f"suite.check.{check}_s": lambda r, c=check: r["parts"].get(c, 0)
              for check in CHECKS}
    timers["suite.children_cpu_s"] = lambda r: r["children_cpu_s"]
    timers["suite.core_use"] = lambda r: r["cpu_s"] / r["wall_s"]
    return {name: statistics.median(
        timers[name](r) if name in timers else r["figures"].get(name, 0)
        for r in rounds) for name in PER_LAYER}


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    def setup_samples(count: int) -> list:
        return [spawn(workload, seed, "--setup-only") for _ in range(count)]

    # set-up samples are spread over the run, since the machine's speed
    # drifts over seconds; every round's own set-up is a sample too
    setup_only = [] if trace else setup_samples(SETUP_SAMPLES // 2)
    flags = ("--profile", "1") if trace else ()
    rounds = []
    start = time.monotonic()
    while True:
        rounds.append(spawn(workload, seed, *flags))
        if time.monotonic() - start >= seconds:
            break
    if not trace:
        setup_only += setup_samples(SETUP_SAMPLES - SETUP_SAMPLES // 2)
    for r in rounds:
        for problem in r["problems"]:
            print(f"perfbench: {workload}: {problem}", file=sys.stderr)
    if trace:
        values, units = per_layer(rounds), PER_LAYER
    else:
        values, units = end_to_end(rounds, setup_only + rounds), END_TO_END
    write_record(workload, seed, trace, setup_only, rounds)
    return {
        "correct": not any(r["wrong"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }


def write_record(workload: str, seed: int, trace: bool, setup_only: list,
                 rounds: list) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w") as fh:
        json.dump({"workload": workload, "seed": seed, "trace": trace,
                   "nproc": os.cpu_count(), "setup_only": setup_only,
                   "rounds": rounds}, fh, indent=1, sort_keys=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "mhv", "__init__.py")):
        print(f"perfbench: no mhv sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for name, metric in result["metrics"].items():
        print(f"{name:40s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
