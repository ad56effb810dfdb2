"""One measured round of a workload, in a fresh interpreter.

    python3 perfbench/measure.py --workload NAME --seed N [--profile 0|1]
                               [--setup-only] [--small]

Imports mhv from the checkout's src/ directory, builds the workload's
inputs from the seed, makes the timed calls, checks the outputs and prints
one JSON record on stdout.  A fresh process per round starts mhv's memo
tables cold, as every command-line call does.  ``time.monotonic`` is
system-wide on Linux, so the record's ``first_call`` stamp lets the
parent measure set-up from the moment it started this process.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import resource
import signal
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE_DIR = os.path.join(ROOT, "src", "mhv")
CALIBRATION_STEPS = 2000
PROBE_INTERVAL_S = 1.0


def import_mhv():
    """mhv from this checkout, never from an installed copy."""
    if not os.path.isfile(os.path.join(PACKAGE_DIR, "__init__.py")):
        raise SystemExit(f"perfbench: no mhv sources under {PACKAGE_DIR}")
    sys.path.insert(0, os.path.dirname(PACKAGE_DIR))
    import mhv
    if os.path.dirname(os.path.abspath(mhv.__file__)) != PACKAGE_DIR:
        raise SystemExit(f"perfbench: imported mhv from {mhv.__file__}")
    return mhv


def calibrate(samples: int = 5) -> list:
    """Durations of a fixed loop of standard-library Fraction arithmetic,
    the kind of work mhv does, which no change to mhv can speed up.  They
    measure how fast this machine runs Python at the moment."""
    durations = []
    for _ in range(samples):
        start = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, CALIBRATION_STEPS):
            acc = (acc + Fraction(i, i + 1)) * Fraction(2, 3)
        durations.append(time.perf_counter() - start)
    return durations


class SpeedProbe:
    """Runs ``calibrate(1)`` from a timer signal every PROBE_INTERVAL_S
    seconds while it is entered, so that the machine's speed is sampled
    throughout a long timed span and not only at its ends; ``spent`` is
    the time the samples took, to be taken off the span."""

    def __init__(self):
        self.samples: list = []
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples += calibrate(1)
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def cpu_times() -> tuple:
    """(CPU seconds of this process, of its waited-for children)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime,
            children.ru_utime + children.ru_stime)


def peak_rss_mb() -> float:
    peak = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024          # ru_maxrss is in KiB on Linux


def measure(name: str, seed: int, profile: bool, small: bool,
            setup_only: bool = False) -> dict:
    mhv = import_mhv()
    import layers
    import workloads

    workload = workloads.WORKLOADS[name]
    inputs = workload.inputs(seed, small)
    first_call = time.monotonic()
    if setup_only:
        return {"first_call": first_call, "calibration": calibrate()}
    calibration = calibrate()

    # built-in calls are folded into their callers' self time
    profiler = cProfile.Profile(builtins=False) if profile else None
    # the probe's samples would show in the profile, so a profiled round
    # is calibrated at its ends only
    probe = SpeedProbe()
    before = cpu_times()
    start = time.perf_counter()
    with profiler or probe:
        outputs, parts = workload.run(inputs)
    wall = time.perf_counter() - start - probe.spent
    after = cpu_times()
    rss = peak_rss_mb()
    calibration += probe.samples + calibrate()

    outcomes = workload.check(inputs, outputs)
    children = after[1] - before[1]
    record = {
        "first_call": first_call,
        "calibration": calibration,
        "profiled": profile,
        "wall_s": wall,
        "cpu_s": after[0] - before[0] - probe.spent + children,
        "children_cpu_s": children,
        "peak_rss_mb": rss,
        "cases": workload.cases(outputs),
        "attempted": len(outcomes),
        "failed": sum(o.kind != "ok" for o in outcomes),
        "wrong": sum(o.kind == "wrong" for o in outcomes),
        "problems": [f"{o.label}: {o.problem}" for o in outcomes
                     if o.kind != "ok"],
        "parts": parts,
        "figures": layers.memo_figures(mhv),
    }
    if workload.facts:
        record["figures"].update(workload.facts(outputs))
    if profiler:
        figures, table = layers.profile_figures(profiler, PACKAGE_DIR)
        record["figures"].update(figures)
        record["modules"] = table
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--profile", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--small", action="store_true",
                        help="reduced sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    record = measure(args.workload, args.seed, bool(args.profile),
                     args.small, args.setup_only)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
