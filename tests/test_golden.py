"""Golden reports: byte-for-byte comparison with JSON written by an
earlier version of mhv.

The files in tests/golden cover all fourteen checks in symbolic and
numeric mode: verify at window 2, symbolic, at e = 2/5 (computed over
Q) and at e = 1/5 (computed symbolically, as its pole degree -5 lies in
(2, 6]).  Through the failing runs they cover the rendering of failure
inputs and residuals, which passing reports never show: a full-mode bider-check whose residuals lie in l, an
LSA-biderivation check reported symbolically, evaluated at e = 2/5 and
run numerically at e = 2/5 (one member at window 1, and the 644 failures
of lambda = 2, Omega = {0: 1} at window 2), a post-Lie check of a
nonzero family member, a commuting check of a map that does not
commute, and the family check at window 1 with a dd -> d part added to
every member.  Two text summaries cover the human format: verify at
window 1, and the failing bider-check, whose 24 failures exercise the
five-failure cut.

The gate-*.json files are the window-5 and window-4 (e = 2/5) verify
outputs; tools/gate.py reproduces and compares them in about 10 s, and
test_gate_passes runs it.
"""

import contextlib
import io
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from mhv import biderivations
from mhv.algebra import Element, d, scalar_table, tag_table
from mhv.biderivations import (BiderParams, LinearMap, check_commuting,
                               check_lsa_biderivation, check_post_lie)
from mhv.cli import main
from mhv.lsa import EpsMode
from mhv.scalars import ONE
from mhv.suite import RunConfig, run_suite

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
E_VALUE = Fraction(2, 5)


def golden(name: str) -> str:
    with open(os.path.join(GOLDEN, name)) as fh:
        return fh.read()


@pytest.mark.parametrize("name, argv, code", [
    ("verify-w2.json", ["verify", "--window", "2"], 0),
    ("verify-w2-eps-2-5.json", ["verify", "--window", "2", "--eps", "2/5"],
     0),
    ("bider-check-l1-o0-w1-full.json",
     ["bider-check", "--lambda", "1", "--omega", "0=1", "--window", "1",
      "--full"], 1),
    ("verify-w1.txt", ["verify", "--window", "1", "--format", "text"], 0),
    ("bider-check-l1-o0-w1-full.txt",
     ["bider-check", "--lambda", "1", "--omega", "0=1", "--window", "1",
      "--full", "--format", "text"], 1),
    ("verify-w2-eps-1-5.json", ["verify", "--window", "2", "--eps", "1/5"],
     0),
])
def test_cli_output_is_golden(name, argv, code):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == code
    assert out.getvalue() == golden(name)


def test_lsa_biderivation_reports_are_golden():
    params = BiderParams(0, {-1: 1})
    symbolic = check_lsa_biderivation(params, 1)
    numeric = check_lsa_biderivation(params, 1, EpsMode.numeric(E_VALUE))
    assert symbolic.to_json() + "\n" == golden("lsabider-w1-symbolic.json")
    assert symbolic.evaluated_at(E_VALUE).to_json() + "\n" \
        == golden("lsabider-w1-evaluated-2-5.json")
    assert numeric.to_json() + "\n" == golden("lsabider-w1-numeric-2-5.json")


def test_larger_lsa_biderivation_reports_are_golden():
    # 644 failures, 384 of them e-dependent: the symbolic sweep, its
    # evaluation and the numeric sweep of a member with lambda and Omega
    params = BiderParams(2, {0: 1})
    symbolic = check_lsa_biderivation(params, 2)
    numeric = check_lsa_biderivation(params, 2, EpsMode.numeric(E_VALUE))
    assert symbolic.to_json() + "\n" \
        == golden("lsabider-l2-o0-w2-symbolic.json")
    assert symbolic.evaluated_at(E_VALUE).to_json() + "\n" \
        == golden("lsabider-l2-o0-w2-evaluated-2-5.json")
    assert numeric.to_json() + "\n" \
        == golden("lsabider-l2-o0-w2-numeric-2-5.json")


def test_post_lie_report_is_golden():
    report = check_post_lie(BiderParams(1, {0: 1}), 1)
    assert report.to_json() + "\n" == golden("postlie-l1-o0-w1.json")


def test_commuting_report_is_golden():
    phi = LinearMap.from_table(
        {d(m): Element.of((m, d(m))) for m in range(-1, 2)}, "m*d(m)")
    report = check_commuting(phi, 1)
    assert report.to_json() + "\n" == golden("commuting-md-w1.json")


def test_failing_family_report_is_golden(monkeypatch):
    # one dd -> d generator, of weight 1 in every member, breaks the axioms
    # of each; the members' failures are pooled across forked chunks alike
    parts_of = biderivations.family_parts
    part = scalar_table(tag_table(dd=lambda m, n: Element({d(m + n): 1})), 1)
    monkeypatch.setattr(
        biderivations, "family_parts",
        lambda params, mode: parts_of(params, mode) + [(ONE, part)])
    config = RunConfig(window=1, checks=("bider-family",))
    for workers in ("1", "3"):
        monkeypatch.setenv("MHV_WORKERS", workers)
        family, = run_suite(config)
        assert family.to_json() + "\n" == golden("bider-family-dd-d-w1.json")


def test_gate_passes():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    gate = subprocess.run([sys.executable, os.path.join(root, "tools",
                                                        "gate.py")],
                          capture_output=True, text=True, timeout=600)
    assert gate.returncode == 0, gate.stdout + gate.stderr
    assert gate.stdout.count("same ") == 6
