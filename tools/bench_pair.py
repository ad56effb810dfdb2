"""Paired benchmark runs: a parent checkout against this working tree.

    python3 tools/bench_pair.py PARENT_DIR [--seed N]

For every workload, pair i runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

once in PARENT_DIR and once in this tree, with the parent first in the
even pairs and the change first in the odd ones, so that a drift of the
machine's speed does not favour one side.  The workloads are
BENCHMARK.json's and T is its run_seconds.  Every workload runs PAIRS =
10 pairs, enough for a claim on any of them that the change wins nine
pairs of ten.  Pair i of every workload uses seed N + i.

Results go to two new files at the root of this tree: the parent's to
BENCH_<n>.json and this tree's to BENCH_<n+1>.json, where n is one more
than the highest index of an existing BENCH file (0 if there is none).
Both files are created before the first run and the script stops if
either exists, so no earlier results are overwritten.  Each holds one
entry per run with its workload, pair, seed, order, correctness and
end-to-end metrics.  Its "commit" is the checkout's HEAD, with "-dirty"
appended if tracked files differed from HEAD when the series started.
Both files are rewritten after every run, so an interrupted series keeps
the pairs it finished.  Each pair's wall_s is printed as it finishes,
and at the end, for every workload and end-to-end metric of
BENCHMARK.json, each side's median and quartiles, the number of pairs
the change won, and a verdict, the first of these that holds:

    gain        the change won at least 9 pairs in 10, and its median is
                better than the parent's by more than the parent's
                interquartile range;
    worse       the change's median is worse than the parent's by more
                than the metric's bound, a fraction of the parent's median;
    unresolved  the parent's interquartile range exceeds that bound;
    same        otherwise.

Every run whose result is not correct, or that failed an operation, is
printed as a FLAG line.

perfbench keeps its own records of every round in perfbench/out/ of each
checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 10
SIDES = ("parent", "change")


def commit_of(checkout: str) -> str | None:
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                          capture_output=True, text=True)
    if head.returncode != 0:
        return None
    status = subprocess.run(["git", "status", "--porcelain",
                             "--untracked-files=no"], cwd=checkout,
                            capture_output=True, text=True)
    dirty = status.returncode != 0 or status.stdout.strip()
    return head.stdout.strip() + ("-dirty" if dirty else "")


def next_index() -> int:
    indices = [int(m.group(1)) for name in os.listdir(ROOT)
               if (m := re.fullmatch(r"BENCH_(\d+)\.json", name))]
    return max(indices, default=-1) + 1


def run_once(checkout: str, workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True,
                          text=True)
    if done.returncode != 0:
        raise SystemExit(f"bench_pair: {' '.join(command)} in {checkout} "
                         f"exited with {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: metric["value"]
                        for name, metric in result["metrics"].items()}}


def summary(values: list) -> str:
    if len(values) < 2:
        return f"{values[0]:.4g}"
    q1, median, q3 = statistics.quantiles(values, n=4)
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def wins(parent: list, change: list, better: str) -> int:
    """The number of pairs in which the change's value is the better."""
    sign = 1 if better == "lower" else -1
    return sum(sign * (c - p) < 0 for p, c in zip(parent, change))


def verdict(parent: list, change: list, better: str, bound: float) -> str:
    """gain, worse, unresolved or same for one metric's paired values, as
    the module docstring defines them."""
    if len(parent) < 2:
        return "unresolved"
    q1, median, q3 = statistics.quantiles(parent, n=4)
    gap = (median - statistics.median(change)) \
        * (1 if better == "lower" else -1)
    if wins(parent, change, better) >= 0.9 * len(parent) and gap > q3 - q1:
        return "gain"
    if -gap > bound * abs(median):
        return "worse"
    if q3 - q1 > bound * abs(median):
        return "unresolved"
    return "same"


def flagged(results: dict) -> list:
    """A line for every run that was not correct or failed an operation."""
    return [f"FLAG {side} {run['workload']} pair {run['pair']} seed "
            f"{run['seed']}: correct {run['correct']}, failed "
            f"{run['failed']} of {run['attempted']}"
            for side in SIDES for run in results[side]["runs"]
            if not run["correct"] or run["failed"] > 0]


def write(path: str, side: dict, mode: str = "w") -> None:
    with open(path, mode) as fh:
        json.dump(side, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", help="root of the parent checkout")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of pair 0; pair i uses seed + i")
    args = parser.parse_args(argv)
    parent = os.path.abspath(args.parent)
    if not os.path.isfile(os.path.join(parent, "perfbench", "run.py")):
        parser.error(f"{parent} has no perfbench/run.py")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    seconds = benchmark["run_seconds"]
    workloads = [w["name"] for w in benchmark["workloads"]]

    checkouts = {"parent": parent, "change": ROOT}
    first = next_index()
    paths = {side: os.path.join(ROOT, f"BENCH_{first + i}.json")
             for i, side in enumerate(SIDES)}
    results = {side: {"side": side, "commit": commit_of(checkouts[side]),
                      "python": platform.python_version(),
                      "nproc": os.cpu_count(), "seconds": seconds,
                      "runs": []}
               for side in SIDES}
    for side in SIDES:
        write(paths[side], results[side], mode="x")
    print(f"parent -> {os.path.basename(paths['parent'])}, change -> "
          f"{os.path.basename(paths['change'])}", flush=True)
    for workload in workloads:
        for pair in range(PAIRS):
            seed = args.seed + pair
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for position, side in enumerate(order):
                run = run_once(checkouts[side], workload, seed, seconds)
                results[side]["runs"].append(
                    {"workload": workload, "pair": pair, "seed": seed,
                     "order": ("first", "second")[position], **run})
                write(paths[side], results[side])
            walls = [results[side]["runs"][-1]["metrics"]["wall_s"]
                     for side in SIDES]
            print(f"{workload:24s} pair {pair} seed {seed} "
                  f"({order[0]} first): wall_s {walls[0]:.3f} -> "
                  f"{walls[1]:.3f}", flush=True)

    print("\nmedian [quartiles] per side; wins: pairs where the change is "
          "better")
    for workload in workloads:
        for metric in benchmark["end_to_end"]:
            values = {side: [r["metrics"][metric["name"]]
                             for r in results[side]["runs"]
                             if r["workload"] == workload] for side in SIDES}
            won = wins(values["parent"], values["change"], metric["better"])
            print(f"{workload:24s} {metric['name']:12s} "
                  f"{summary(values['parent'])} -> "
                  f"{summary(values['change'])}  wins {won}/"
                  f"{len(values['change'])}  "
                  + verdict(values["parent"], values["change"],
                            metric["better"], metric["bound"]))
    for line in flagged(results):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
