"""The output gate: rerun the two gate commands and compare their JSON,
byte for byte, with the goldens in tests/golden.

    python3 tools/gate.py

runs `mhv verify --window 5` and `mhv verify --window 4 --eps 2/5`, each
with MHV_WORKERS=1, 2 and 3, in a fresh interpreter on the package in
src/.  Two and three workers split the run's one chunk list two and
three ways, so each stripe of chunks must give the one-process report.  It
prints one line per run, its verdict and then its wall time, the whole
CLI run's, and exits 0 iff every output matches its golden, 1
otherwise.  The six runs take about 10 s; tests/test_golden.py runs
this script as one pytest test.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden")

# (golden file, verify arguments, MHV_WORKERS)
RUNS = (
    ("gate-verify-w5.json", ["--window", "5"], "1"),
    ("gate-verify-w5.json", ["--window", "5"], "2"),
    ("gate-verify-w5.json", ["--window", "5"], "3"),
    ("gate-verify-w4-eps-2-5.json", ["--window", "4", "--eps", "2/5"], "1"),
    ("gate-verify-w4-eps-2-5.json", ["--window", "4", "--eps", "2/5"], "2"),
    ("gate-verify-w4-eps-2-5.json", ["--window", "4", "--eps", "2/5"], "3"),
)


def run(args: list, workers: str) -> tuple:
    """The stdout of one verify run and its wall time in seconds."""
    env = dict(os.environ, MHV_WORKERS=workers,
               PYTHONPATH=os.path.join(ROOT, "src"))
    start = time.perf_counter()
    result = subprocess.run([sys.executable, "-m", "mhv.cli", "verify", *args],
                            env=env, cwd=ROOT, capture_output=True)
    seconds = time.perf_counter() - start
    if result.returncode != 0:
        sys.stderr.write(result.stderr.decode())
    return result.stdout, seconds


def main() -> int:
    ok = True
    for name, args, workers in RUNS:
        with open(os.path.join(GOLDEN, name), "rb") as fh:
            expected = fh.read()
        out, seconds = run(args, workers)
        same = out == expected
        ok = ok and same
        print(f"{'same' if same else 'DIFFERS'}  verify {' '.join(args)}  "
              f"MHV_WORKERS={workers}  vs {name}  {seconds:.1f} s")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
