"""The parse corpus: what the expression parser makes of a fixed list of
inputs, written as JSON.

    python3 tools/parse_corpus.py > tests/golden/parse-corpus.json

The inputs are every residual text in tests/golden, the residuals of the
counterexamples benchmark workload at seed 1, the examples of the README
and the tests, and FUZZ_COUNT short strings drawn from a fixed seed.  For
each input the output gives the rendering of parse_element and of
parse_scalar, or "rejected" where the parse raised an error.
tests/test_expressions.py reads the file and checks that every input that
was accepted when it was written still renders the same.
"""

from __future__ import annotations

import json
import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden")
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from mhv.expressions import parse_element, parse_scalar  # noqa: E402

REJECTED = "rejected"
FUZZ_SEED = 1
FUZZ_COUNT = 400

EXAMPLES = (
    "d(2)", "d(1)", "d(0)", "d(-2)", "d(-3)", "d(-4)", "h(1/2)", "h(-1/2)",
    "c", "l", "0", "1", "2", "7", "-3", "1/5", "2/5", "1/7", "-1/2", "3/4",
    "-3/4", "1+e", "e^2-1", "e^64", "(e^32)*(e^32)", "(1+e)^65",
    "(1+e)/(1+3*e)", "(e^99999999)*d(1)", "-3/4*d(3)",
    "((1+e)/(1+3*e))*d(3)", "((-1-e)/(1+3*e))*d(3)", "d(2) + 3*h(1/2) - c",
    "h(2/2)", "1/2*l - 1/2*l", "-3/4*d(-3) + h(-1/2)", "d(2) + $",
    "d(1)*d(2)", "   ", "",
)

# atoms of fuzzed strings, and the stray pieces that mutate them
SCALAR_ATOMS = ("0", "1", "2", "3", "e")
BASIS = ("d(1)", "d(-2)", "h(1/2)", "h(-3/2)", "c", "l")
PIECES = SCALAR_ATOMS + BASIS + ("h(2/2)", "+", "-", "*", "/", "^", "^2",
                                 "(", ")", " ", "d", "h(", "x", "/2")


def golden_residuals() -> set:
    """Residual texts of the JSON reports and text summaries in GOLDEN."""
    found = set()

    def walk(node):
        if isinstance(node, dict):
            if "residual" in node:
                found.add(node["residual"])
            for value in node.values():
                walk(value)
        elif isinstance(node, list):
            for value in node:
                walk(value)

    for name in sorted(os.listdir(GOLDEN)):
        if name == "parse-corpus.json":
            continue
        with open(os.path.join(GOLDEN, name)) as fh:
            text = fh.read()
        if name.endswith(".json"):
            walk(json.loads(text))
        else:
            # failure lines read "      <equation> at <inputs>: <residual>"
            for line in text.splitlines():
                if line.startswith("      ") and " at " in line:
                    found.add(line.rsplit(": ", 1)[1])
    return found


def counterexample_residuals() -> set:
    """Residual texts of every report the counterexamples workload makes at
    seed 1, the LSA-biderivation reports evaluated at e = 2/5 included."""
    from workloads import WORKLOADS
    workload = WORKLOADS["counterexamples"]
    out, _ = workload.run(workload.inputs(1, False))
    docs = [r.to_dict() for r in out["full"] + out["centerless"]
            + [out["lambda"]]]
    for symbolic, _, evaluated_json, numeric in out["lsa"]:
        docs += [symbolic.to_dict(), json.loads(evaluated_json),
                 numeric.to_dict()]
    return {f["residual"] for doc in docs for f in doc["failures"]}


def _expression(rng: random.Random, atoms: tuple, depth: int) -> str:
    """A random expression of the grammar's shape over the given atoms."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(atoms)
    left = _expression(rng, atoms, depth - 1)
    shape = rng.randrange(4)
    if shape == 0:
        return f"-{left}"
    if shape == 1:
        return f"({left})^{rng.randint(0, 3)}"
    right = _expression(rng, atoms, depth - 1)
    op = rng.choice("+-*/")
    return f"({left}){op}{right}" if shape == 2 else f"{left}{op}{right}"


def _fuzz(rng: random.Random, kind: int) -> str:
    if kind == 0:
        return "".join(rng.choice(PIECES) for _ in range(rng.randint(1, 6)))
    if kind == 1:
        return _expression(rng, SCALAR_ATOMS + BASIS, 3)
    if kind == 2:
        return _expression(rng, SCALAR_ATOMS, 3)
    terms = [f"({_expression(rng, SCALAR_ATOMS, 2)})*{rng.choice(BASIS)}"
             for _ in range(rng.randint(1, 3))]
    return rng.choice(("", "-")) + rng.choice((" + ", " - ")).join(terms)


def fuzzed() -> set:
    """FUZZ_COUNT short strings, a quarter each of random pieces, random
    expressions, random scalar expressions and sums of scalar multiples of
    basis vectors; one in three of the last three gets a random piece
    inserted."""
    rng = random.Random(FUZZ_SEED)
    out = set()
    while len(out) < FUZZ_COUNT:
        kind = len(out) % 4
        text = _fuzz(rng, kind)
        if kind and rng.random() < 1 / 3:
            cut = rng.randint(0, len(text))
            text = text[:cut] + rng.choice(PIECES) + text[cut:]
        out.add(text)
    return out


def rendered(parse, text: str) -> str:
    try:
        return parse(text).render()
    except (ArithmeticError, ValueError):
        return REJECTED


def main() -> int:
    inputs = (golden_residuals() | counterexample_residuals()
              | set(EXAMPLES) | fuzzed())
    corpus = [{"input": text,
               "element": rendered(parse_element, text),
               "scalar": rendered(parse_scalar, text)}
              for text in sorted(inputs)]
    print(json.dumps(corpus, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
