"""Report determinism, JSON schema, suite orchestration and the CLI."""

import dataclasses
import inspect
import json
import multiprocessing
import os
import pickle
import re
import signal
import subprocess
import sys
import textwrap
import time
from fractions import Fraction
from functools import partial

import pytest

from mhv.algebra import Element, d
from mhv.cli import ALIASES, build_parser, main
from mhv.expressions import MAX_DEGREE, ParseError, parse
from mhv.coeffs import associator_defect
from mhv.lsa import SYMBOLIC, EpsMode, product_table
from mhv.reports import (Failure, Report, collect, prefixed,
                         reports_to_json)
from mhv.scalars import PoleError, Scalar, ZeroEpsilonError
from mhv.suite import (CHECK_ORDER, CHECKS, RunConfig, WorkerDiedError,
                       run_chunks, run_suite)

# (1+e)/(1+3*e), which is 3/4 at e = 1/5
RATIO = Scalar((1, 1), (1, 3))


def run_with(workers: int, config: RunConfig) -> list:
    """run_suite(config) with MHV_WORKERS set to workers."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("MHV_WORKERS", str(workers))
        return run_suite(config)


class TestReports:
    def test_schema_fields(self):
        r = Report("demo", 3, "symbolic", 10,
                   [Failure("(d(1), d(2))", "eq", "d(3)")])
        doc = r.to_dict()
        assert doc["schema"] == 1
        assert list(doc) == ["schema", "check", "window", "eps_mode",
                             "total_cases", "passed", "failures"]
        assert doc["passed"] is False

    def test_collect_counts_a_sweeps_items_and_its_returned_zeros(self):
        # every item is a case, a zero one included, and so is each zero
        # case the sweep counted without yielding it
        def sweep():
            yield ("z",), "eq", Element.zero()
            yield ("w",), "eq", Element.basis(d(1))
            return 5

        r = collect("demo", 3, "symbolic", sweep())
        assert r.total_cases == 7
        assert r.failures == [Failure("(w)", "eq", "d(1)")]

    def test_failures_sorted(self):
        r = Report("demo", 3, "symbolic", 2,
                   [Failure("(d(2))", "b", "0"), Failure("(d(1))", "a", "0")])
        assert [f.inputs for f in r.failures] == ["(d(1))", "(d(2))"]

    def test_evaluated_at_maps_residuals(self):
        r = collect("demo", 3, "symbolic",
                    [((d(2), d(1)), "eq", Element.of((RATIO, d(3))))])
        assert r.failures[0].residual == "((1+e)/(1+3*e))*d(3)"
        ev = r.evaluated_at(Fraction(1, 5))
        assert ev.eps_mode == "eps=1/5"
        assert ev.failures[0].residual == "3/4*d(3)"

    @pytest.mark.parametrize("residual, value", [
        pytest.param(RATIO, "3/4", id="(1+e)/(1+3*e)-3/4"),
        pytest.param(Scalar((1, -5), (1,)), "0", id="1-5*e-0")])
    def test_evaluated_at_maps_scalar_residuals(self, residual, value):
        r = collect("demo", 3, "symbolic", [(("w",), "eq", residual)])
        assert r.evaluated_at(Fraction(1, 5)).failures[0].residual == value

    @pytest.mark.parametrize("e_dependent", [False, True])
    def test_evaluated_at_checks_e_before_the_failures(self, e_dependent):
        # 0 was once accepted unless a failure depended on e, and a float
        # was labelled with its decimal text but evaluated at its binary
        # value: 1+e at 0.4 rendered 12610078956637389/9007199254740992
        residual = Scalar((1, 1), (1,)) if e_dependent \
            else Element.basis(d(1))
        r = collect("demo", 3, "symbolic", [(("w",), "eq", residual)])
        for zero in (0, Fraction(0)):
            with pytest.raises(ZeroEpsilonError):
                r.evaluated_at(zero)
        with pytest.raises(TypeError):
            r.evaluated_at(0.4)
        ev = r.evaluated_at(2)
        assert ev.eps_mode == "eps=2"
        assert ev.failures[0].residual == ("3" if e_dependent else "d(1)")

    def test_evaluated_at_leaves_free_text(self):
        # an e-free residual and free text keep no value and stay as they are
        swept = collect("demo", 3, "symbolic",
                        [(("w0",), "eq", -Element.basis(d(1))),
                         (("w1",), "eq", RATIO)])
        r = Report("demo", 3, "symbolic", 3, swept.failures
                   + [Failure("(w2)", "eq", "rank 4 < 5: nope")])
        assert [f.value is None for f in r.failures] == [True, False, True]
        assert [f.residual for f in r.evaluated_at(Fraction(1, 5)).failures] \
            == ["-d(1)", "3/4", "rank 4 < 5: nope"]

    def test_a_copy_with_a_new_residual_keeps_no_stale_value(self):
        # a copy of a (1+e)/(1+3*e) failure with the residual "7" once kept
        # the old value and evaluated to 3/4 at e = 1/5
        swept = collect("demo", 3, "symbolic", [(("w",), "eq", RATIO)])
        failure = swept.failures[0]
        with pytest.raises(ValueError, match="does not render its value"):
            dataclasses.replace(failure, residual="7")
        with pytest.raises(ValueError, match="does not render its value"):
            Failure("(w)", "eq", "7", RATIO)
        # a copy that keeps the residual keeps the value
        moved = dataclasses.replace(failure, inputs="(v)")
        part = prefixed("m", swept).failures[0]
        assert moved.value is part.value is RATIO
        assert part.inputs == "m (w)"
        assert prefixed("m", swept).evaluated_at(Fraction(1, 5)).failures \
            == [Failure("m (w)", "eq", "3/4")]

    def test_evaluated_at_calls_no_parser(self, monkeypatch):
        import mhv.expressions

        def refuse(*args, **kwargs):
            raise AssertionError("evaluated_at parsed a residual")

        for name in ("parse", "parse_element", "parse_scalar",
                     "parse_rational"):
            monkeypatch.setattr(mhv.expressions, name, refuse)
        r = collect("demo", 3, "symbolic",
                    [(("w0",), "eq", -Element.basis(d(1))),
                     (("w1",), "eq", RATIO),
                     (("w2",), "eq", Element.of((RATIO, d(3))))])
        assert [f.residual for f in r.evaluated_at(Fraction(1, 5)).failures] \
            == ["-d(1)", "3/4", "3/4*d(3)"]

    def test_evaluated_at_maps_residuals_the_parser_rejects(self):
        # degree MAX_DEGREE + 1 in e: the parser refuses the rendered text,
        # so a report parsed back would have kept the residual symbolic
        power = Scalar((0,) * (MAX_DEGREE + 1) + (1,), (1,))
        r = collect("demo", 3, "symbolic",
                    [(("w",), "eq", Element.of((power, d(1))))])
        with pytest.raises(ParseError):
            parse(r.failures[0].residual)
        assert r.evaluated_at(Fraction(1, 5)).failures[0].residual \
            == f"{Fraction(1, 5) ** (MAX_DEGREE + 1)}*d(1)"

    def test_failing_report_round_trips_through_pickle(self):
        r = Report("demo", 3, "symbolic", 2,
                   [Failure("(d(1), h(1/2))", "eq", "((1+e)/(1+3*e))*d(3)")],
                   {"rank": 4})
        assert pickle.loads(pickle.dumps(r)) == r
        swept = collect("demo", 3, "symbolic",
                        [(("w",), "eq", Element.of((RATIO, d(3))))])
        copy = pickle.loads(pickle.dumps(swept))
        assert copy.failures[0].value == swept.failures[0].value

    def test_json_byte_determinism(self):
        a = run_suite(RunConfig(window=2, checks=("jacobi", "solve-theta")))
        b = run_suite(RunConfig(window=2, checks=("jacobi", "solve-theta")))
        assert reports_to_json(a) == reports_to_json(b)


# a chunk that kills the process running it unless that is the calling
# one; run_chunks([die, die], 2) runs the second copy in a forked child
DIE = ("import os, signal\n"
       "caller = os.getpid()\n"
       "def die():\n"
       "    if os.getpid() != caller:\n"
       "        os.kill(os.getpid(), signal.SIGKILL)\n")

# set by a test before it forks: a multiprocessing Event
PICKLED = None


class PickledError(ValueError):
    """Sets PICKLED when pickled, which a forked child does to send it."""

    def __reduce__(self):
        PICKLED.set()
        return PickledError, self.args


class UnsendableError(ValueError):
    def __reduce__(self):
        raise TypeError("not picklable")


def assert_no_child_processes():
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# one-line mutations of lsa._basis_product_numeric: (source, mutant, the
# checks that fail at window 2 and e = 2/5)
NUMERIC_MUTANTS = {
    "dh-sign": ("Fraction(-(2 * n + 1), 2)", "Fraction(2 * n + 1, 2)",
                {"lsa-identity", "compatibility"}),
    "c-term": ("(eps - 1 / eps)", "(eps + 1 / eps)", {"lsa-identity"}),
}


@pytest.fixture(scope="module")
def symbolic_w2():
    """The symbolic reports of every check at window 2."""
    return run_with(1, RunConfig(window=2))


class TestSuite:
    def test_jacobi_case_count_formula(self):
        # full-mode basis of window 4 has 2*9+2 = 20 vectors
        reports = run_suite(RunConfig(window=4, checks=("jacobi",)))
        assert reports[0].total_cases == 20**3
        assert reports[0].passed

    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(window=2, checks=("nonsense",))

    @pytest.mark.parametrize("checks", [(), ("star", "star")])
    def test_empty_or_repeated_checks_rejected(self, checks):
        with pytest.raises(ValueError):
            RunConfig(window=1, checks=checks)

    @pytest.mark.parametrize("window", [0, -1, True, 2.0, "2"])
    def test_window_that_is_not_an_int_of_at_least_1_rejected(self, window):
        with pytest.raises(ValueError, match="window must be at least 1"):
            RunConfig(window=window, checks=("antisym",))

    def test_residual_values_survive_the_fork_pipe(self, monkeypatch):
        # no registry check fails at e-dependent residuals, so one is made
        # to: the symbolic product, swept as lsa-identity's residual.  A
        # numeric run computes it over Q, so symbolic runs carry the values;
        # one lost on the way back from a child would stay symbolic
        from mhv import suite
        table = product_table(SYMBOLIC)
        monkeypatch.setitem(suite.CHECKS, "lsa-identity", lambda w, eps:
                            suite._sweep("lsa-identity", "lsa.identity", 2,
                                         lambda x, y: table(x, y)._terms, w))
        eps = Fraction(2, 5)
        config = RunConfig(window=2, checks=("lsa-identity",))
        symbolic = run_with(1, config)
        evaluated = [r.evaluated_at(eps) for r in symbolic]
        assert any(f.value is not None for f in symbolic[0].failures)
        assert not any("e" in f.residual for f in evaluated[0].failures)
        for workers in (1, 2, 3):
            assert reports_to_json([r.evaluated_at(eps) for r in run_with(
                workers, config)]) == reports_to_json(evaluated)

    def test_numeric_run_is_evaluated_symbolic(self):
        sym = run_suite(RunConfig(window=2))
        eps = Fraction(2, 5)
        num = run_suite(RunConfig(window=2, eps=EpsMode.numeric(eps)))
        assert reports_to_json([r.evaluated_at(eps) for r in sym]) \
            == reports_to_json(num)

    @pytest.mark.parametrize("eps, over_q", [
        (Fraction(1, 7), True), (Fraction(-1, 7), True),
        (Fraction(1, 6), False), (Fraction(-1, 6), False)])
    def test_a_pole_in_reach_keeps_a_numeric_run_symbolic(
            self, symbolic_w2, monkeypatch, eps, over_q):
        # at window 2 a triple product reaches index sums up to 6 in size:
        # e = +-1/7 is computed over Q, through the plain-Fraction product
        # and the closed form at e (star, ast, cross-check: three), and
        # e = +-1/6 symbolically; either way the reports are the symbolic
        # ones evaluated at e
        from mhv import coeffs, lsa
        numeric, closed = lsa._basis_product_numeric, coeffs._closed_form
        products, forms = [], []
        monkeypatch.setattr(lsa, "_basis_product_numeric", lambda u, v, eps:
                            products.append(eps) or numeric(u, v, eps))
        monkeypatch.setattr(coeffs, "_closed_form",
                            lambda e: forms.append(e) or closed(e))
        reports = run_with(1, RunConfig(window=2, eps=EpsMode.numeric(eps)))
        assert reports_to_json(reports) == reports_to_json(
            [r.evaluated_at(eps) for r in symbolic_w2])
        assert set(products) == ({eps} if over_q else set())
        assert len(forms) == (3 if over_q else 0)

    def test_the_route_bound_is_tight(self):
        # at e = 1/6 the product of window-2 vectors d(-2)*d(-2) is d(-4),
        # and d(-4)*d(-2) is at the pole: a run there cannot be over Q
        table = product_table(EpsMode.numeric(Fraction(1, 6)))
        with pytest.raises(PoleError, match=re.escape("d(-4)*d(-2)")):
            associator_defect(table, d(-2), d(-2), d(-2))

    def test_a_symbolic_run_builds_no_second_closed_form(self, monkeypatch):
        from mhv import coeffs
        monkeypatch.setattr(coeffs, "_closed_form", None)
        assert all(r.passed for r in run_suite(RunConfig(window=1)))

    @pytest.mark.parametrize("mutant", NUMERIC_MUTANTS)
    def test_numeric_oracle_mutants_fail_a_numeric_run(self, monkeypatch,
                                                       mutant):
        # one-line source mutations of the plain-Fraction product: a run at
        # e = 2/5 sweeps it, so the checks that read it fail
        from mhv import lsa
        old, new, failing = NUMERIC_MUTANTS[mutant]
        source = textwrap.dedent(inspect.getsource(lsa._basis_product_numeric))
        assert source.count(old) == 1
        namespace = dict(vars(lsa))
        exec(source.replace(old, new), namespace)
        monkeypatch.setattr(lsa, "_basis_product_numeric",
                            namespace["_basis_product_numeric"])
        reports = run_with(1, RunConfig(
            window=2, eps=EpsMode.numeric(Fraction(2, 5))))
        assert {r.check for r in reports if not r.passed} == failing

    @pytest.mark.parametrize("eps", [Fraction(2, 5), None, "2/5"])
    def test_eps_that_is_not_an_eps_mode_rejected(self, eps):
        with pytest.raises(TypeError, match="eps must be an EpsMode"):
            RunConfig(window=2, eps=eps)

    def test_inadmissible_eps_refused(self):
        from mhv.lsa import AdmissibilityError
        with pytest.raises(AdmissibilityError):
            run_suite(RunConfig(window=3, eps=EpsMode.numeric(Fraction(-1, 2)),
                                checks=("lsa-identity",)))

    def test_reciprocal_outside_window_admissible(self):
        reports = run_suite(RunConfig(window=3,
                                      eps=EpsMode.numeric(Fraction(1, 7)),
                                      checks=("lsa-identity",)))
        assert reports[0].passed
        assert reports[0].eps_mode == "eps=1/7"

    def test_workers_do_not_change_output(self):
        # every check, the chunked ones (the sweeps, bider-family,
        # cross-check, both grids, star and ast) against their run in one
        # process, symbolic and at a rational e
        for eps in (SYMBOLIC, EpsMode.numeric(Fraction(2, 5))):
            cfg = RunConfig(window=2, eps=eps)
            serial = reports_to_json(run_with(1, cfg))
            parallel = reports_to_json(run_with(3, cfg))
            assert serial == parallel

    def test_workers_do_not_change_random_table_residuals(self,
                                                         monkeypatch):
        # the passing report shows only the first star.12 witnesses; as
        # failures, star.12 residuals of every random-table key show, so a
        # table whose values depended on the process that read them, once
        # its chunks are split across processes, would show here
        monkeypatch.setattr("mhv.coeffs.RUNTIME_DISCREPANCIES", ())
        cfg = RunConfig(window=2, checks=("cross-check",))
        serial = run_with(1, cfg)
        assert not serial[0].passed
        assert reports_to_json(serial) \
            == reports_to_json(run_with(3, cfg))

    def test_run_chunks_keeps_chunk_order_without_pickling_chunks(self):
        # closures over local state cannot be pickled; forked workers
        # inherit them
        offset = 10
        chunks = [lambda i=i: i * i + offset for i in range(7)]
        expected = [i * i + offset for i in range(7)]
        assert run_chunks(chunks, 3) == expected
        assert run_chunks(chunks, 1) == expected

    def test_a_chunk_error_stops_every_process(self, tmp_path):
        # this process raises at chunk 0; its child stops after the one
        # chunk it may have started
        log = tmp_path / "ran"
        fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)

        def boom():
            raise ValueError("boom")

        def slow(i):
            os.write(fd, b"%d\n" % i)
            time.sleep(1)
        try:
            start = time.monotonic()
            with pytest.raises(ValueError, match="boom"):
                run_chunks([boom] + [partial(slow, i) for i in range(1, 9)],
                           2)
            assert time.monotonic() - start < 1.5
        finally:
            os.close(fd)
        assert set(map(int, log.read_text().split())) <= {1}
        assert_no_child_processes()

    def test_a_chunk_error_in_a_child_stops_this_process(self, tmp_path,
                                                         monkeypatch):
        # chunk 1 fails in the child; chunk 0, here, returns once the child
        # pickles its exception, which it does after it has stopped every
        # process, so no later chunk runs anywhere
        monkeypatch.setattr(sys.modules[__name__], "PICKLED",
                            multiprocessing.get_context("fork").Event())
        log = tmp_path / "ran"
        fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)

        def fail():
            raise PickledError("child")
        try:
            with pytest.raises(ValueError, match="child"):
                run_chunks([partial(PICKLED.wait, 60), fail]
                           + [partial(os.write, fd, b"%d\n" % i)
                              for i in range(2, 8)], 2)
        finally:
            os.close(fd)
        assert log.read_text() == ""
        assert_no_child_processes()

    def test_a_chunk_error_keeps_its_type_in_any_process(self):
        def boom():
            raise ValueError("boom")
        with pytest.raises(ValueError, match="boom"):
            run_chunks([boom] * 8, 2)
        # chunk 1 runs in the child, whose traceback is the cause
        with pytest.raises(ValueError, match="boom") as raised:
            run_chunks([lambda: 0, boom], 2)
        assert "in boom" in str(raised.value.__cause__)

        def unsendable():
            raise UnsendableError("lost")
        with pytest.raises(RuntimeError, match="UnsendableError: lost") \
                as raised:
            run_chunks([lambda: 0, unsendable], 2)
        assert "in unsendable" in str(raised.value.__cause__)
        assert_no_child_processes()

    def test_no_child_outlives_the_call(self):
        assert run_chunks([lambda i=i: i for i in range(9)], 3) \
            == list(range(9))
        assert_no_child_processes()
        run_with(2, RunConfig(window=1, checks=("jacobi", "bider-family")))
        assert_no_child_processes()
        caller = os.getpid()

        def die():
            if os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)
        with pytest.raises(WorkerDiedError):
            run_chunks([die, die], 2)
        assert_no_child_processes()

    def test_a_failed_fork_closes_its_pipe_and_joins_the_others(
            self, monkeypatch):
        forks = []

        def fork():
            if forks:
                raise OSError("no fork")
            forks.append(real_fork())
            return forks[-1]
        real_fork = os.fork
        open_fds = os.listdir("/proc/self/fd")
        monkeypatch.setattr(os, "fork", fork)
        with pytest.raises(OSError, match="no fork"):
            run_chunks([lambda: None] * 3, 3)
        monkeypatch.undo()
        assert_no_child_processes()
        assert os.listdir("/proc/self/fd") == open_fds

    def test_each_chunk_runs_once(self, tmp_path):
        # more processes than cores, each appending its chunks' indices
        log = tmp_path / "ran"
        fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        try:
            run_chunks([partial(os.write, fd, b"%d\n" % i)
                        for i in range(2000)], 4)
        finally:
            os.close(fd)
        assert sorted(map(int, log.read_text().split())) \
            == list(range(2000))

    @pytest.mark.parametrize("workers, forks", [(2, 1), (3, 2)])
    def test_one_run_of_every_check_forks_once_per_extra_worker(
            self, monkeypatch, workers, forks):
        # every check's chunks go into one list, which one call of
        # run_chunks shares; forking per chunked check made 12 children
        # per extra worker
        from mhv import suite
        fork = suite.os.fork
        forked = []

        def counted():
            forked.append(None)
            return fork()

        monkeypatch.setattr(suite.os, "fork", counted)
        reports = run_with(workers, RunConfig(window=1))
        assert len(forked) == forks
        assert [r.check for r in reports] == list(CHECK_ORDER)
        assert reports_to_json(reports) \
            == reports_to_json(run_with(1, RunConfig(window=1)))

    def test_the_calling_process_runs_every_nth_chunk(self):
        # process k of 3 runs chunks k, k + 3, ...; this process is k = 0
        pids = run_chunks([os.getpid] * 8, 3)
        assert pids[0] == os.getpid()
        assert len(set(pids)) == 3
        assert pids == pids[:3] * 2 + pids[:2]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_a_real_chunk_list_reversed_gives_the_reversed_results(
            self, workers):
        # the costliest chunks (bider-grid's one chunk, the grids' zero
        # point pieces) come last, and every result must still be placed
        # by its index
        chunks = [chunk for name in ("bider-grid", "postlie-grid", "ast")
                  for chunk in CHECKS[name](2, SYMBOLIC)[0]]
        serial = run_chunks(chunks, 1)
        assert run_chunks(chunks[::-1], workers) == serial[::-1]

    def test_the_calling_process_keeps_its_memo_tables_warm(self):
        # a fresh interpreter, so that no earlier test has filled the memo;
        # jacobi sweeps the int form of the bracket
        code = ("from mhv import algebra\n"
                "from mhv.suite import RunConfig, run_suite\n"
                "run_suite(RunConfig(window=2, checks=('jacobi',)))\n"
                "print(algebra._int_bracket.cache_info().currsize)\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              env=dict(os.environ, MHV_WORKERS="2"),
                              capture_output=True, text=True, timeout=60,
                              check=True)
        assert int(proc.stdout) > 0

    def test_a_dead_worker_fails_the_run_instead_of_hanging(self):
        code = ("from mhv.suite import run_chunks\n"
                + DIE + "run_chunks([die, die], 2)\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode != 0
        assert "WorkerDiedError" in proc.stderr

    def test_a_dead_worker_exits_3_with_one_error_line(self):
        # exit code 1 means failed checks; a dead worker is not one
        code = ("import sys\n"
                "from mhv import suite\n"
                "from mhv.cli import main\n"
                + DIE + "suite.CHECKS['jacobi'] = "
                "lambda window, eps: ([die, die], None)\n"
                "sys.exit(main(['verify', '--window', '1', "
                "'--checks', 'jacobi']))\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              env=dict(os.environ, MHV_WORKERS="2"),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.startswith("mhv: error: ")
        assert proc.stderr.count("\n") == 1

    def test_sweeps_take_basis_rows_k_and_b_minus_1_minus_k(self):
        # the chunk list depends on the window alone: chunk k sweeps the
        # cases whose first basis vector is basis[k] or basis[b - 1 - k]
        from mhv.algebra import FULL, Element, basis_vectors
        from mhv.suite import _sweep
        basis = basis_vectors(3, FULL)
        b = len(basis)
        firsts = []
        parts = []

        def record(x, y):
            # the sweep hands the residual its basis vectors themselves
            firsts[-1].add(x)
            return Element.zero()

        chunks, finish = _sweep("probe", "probe", 2, record, 3)
        for chunk in chunks:
            firsts.append(set())
            parts.append(chunk())
        report = finish(parts)
        assert firsts == [{basis[k], basis[b - 1 - k]} for k in range(b // 2)]
        assert [p.total_cases for p in parts] == [2 * b] * (b // 2)
        assert report.passed and report.total_cases == b ** 2

    def test_family_takes_one_chunk_per_first_centerless_vector(
            self, monkeypatch):
        # chunk i sweeps every member's centerless triples whose first
        # basis vector is basis[i], with one kernel call for all the
        # members' distinct generators; the central cases run outside the
        # chunks
        from mhv import biderivations
        from mhv.algebra import CENTERLESS, FULL, basis_vectors
        from mhv.biderivations import (FAMILY_SAMPLES, family_parts,
                                       family_plan)
        basis = basis_vectors(2, CENTERLESS)
        generators = {table for params in FAMILY_SAMPLES
                      for _, table in family_parts(params, CENTERLESS)}
        residuals = biderivations.derivation_residuals
        firsts = []
        parts = []

        def record(tables, mul, xs, basis):
            assert len(tables) == len(generators)
            firsts[-1].append(list(xs))
            return residuals(tables, mul, xs, basis)

        monkeypatch.setattr(biderivations, "derivation_residuals", record)
        chunks, finish = family_plan(2)
        assert firsts == []
        for chunk in chunks:
            firsts.append([])
            parts.append(chunk())
        report = finish(parts)
        assert firsts == [[[bv]] for bv in basis]
        assert [p.total_cases for p in parts] \
            == [2 * len(basis)**2 * len(FAMILY_SAMPLES)] * len(basis)
        assert report.passed
        cases = 2 * len(basis)**3 + 4 * len(basis_vectors(2, FULL))
        assert report.total_cases == cases * len(FAMILY_SAMPLES)

    def test_commuting_chunks_pool_like_one_sweep(self, monkeypatch):
        # one chunk per sample; with samples that fail, the pooled
        # failures show that no process changes them
        from mhv import suite
        from mhv.algebra import Element, d, h
        from mhv.biderivations import LinearMap, commuting_residuals
        from mhv.reports import collect, pooled, prefixed
        cfg = RunConfig(window=2, checks=("commuting",))
        assert {reports_to_json(run_with(k, cfg)) for k in (1, 2, 3)} \
            == {reports_to_json(run_with(1, cfg))}
        maps = [LinearMap.from_table({d(m): Element.of((m, d(m)))
                                      for m in range(-2, 3)}, "m*d(m)"),
                LinearMap.from_table({h(m): Element.basis(h(m))
                                      for m in range(-2, 3)}, "h-only")]
        monkeypatch.setattr(suite, "_commuting_specs", lambda window: maps)
        expected = pooled("commuting", 2, [
            prefixed(phi.name, collect("commuting", 2, "symbolic",
                                       commuting_residuals(phi, 2)))
            for phi in maps])
        assert not expected.passed
        for workers in (1, 2, 3):
            report, = run_with(workers, cfg)
            assert report.to_json() == expected.to_json(), workers

    def test_an_inhomogeneous_bracket_fails_grading(self, monkeypatch):
        from mhv.algebra import Element, d
        # _grading reads the bracket's table on basis pairs
        monkeypatch.setattr("mhv.suite._bracket",
                            lambda x, y: Element.of((1, d(0)), (1, d(1))))
        report = run_suite(RunConfig(window=1, checks=("grading",)))[0]
        assert len(report.failures) == report.total_cases == 8**2
        assert {(f.equation_id, f.residual) for f in report.failures} \
            == {("grading", "d(0) + d(1)")}

    def test_a_wrong_theta_value_fails(self, monkeypatch):
        from types import SimpleNamespace
        table = SimpleNamespace(unknowns=2, rank=2, equations=3,
                                values={0: Fraction(1, 4), 1: Fraction(1)})
        monkeypatch.setattr("mhv.suite.solve_theta", lambda window: table)
        report = run_suite(RunConfig(window=1, checks=("solve-theta",)))[0]
        assert report.failures == [Failure("theta(1)", "theta.value",
                                           "1 != 3/4")]

    def test_an_unsolvable_theta_system_fails(self, monkeypatch):
        from mhv.linalg import InconsistentSystemError

        def solve_theta(window):
            raise InconsistentSystemError("no solution")

        monkeypatch.setattr("mhv.suite.solve_theta", solve_theta)
        report = run_suite(RunConfig(window=1, checks=("solve-theta",)))[0]
        assert report.failures == [Failure("window=1", "theta.system",
                                           "no solution")]
        assert report.total_cases == 0

    @pytest.mark.parametrize("workers",
                             ["-3", "0", "x", "2.0", "True", "", "65"])
    def test_worker_count_below_one_is_a_usage_error(self, monkeypatch,
                                                      capsys, workers):
        # refused before any fork; 64 is the ceiling, whatever the cores
        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setenv("MHV_WORKERS", workers)
        assert main(["verify", "--window", "1", "--checks", "jacobi"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and "MHV_WORKERS must be an integer from 1 " \
            f"to 64, got {workers!r}" in out.err

    def test_worker_count_from_env_does_not_change_output(self, monkeypatch,
                                                          capsys):
        argv = ["verify", "--window", "2", "--checks", "lsa-identity,jacobi"]
        outputs = []
        for workers in ("1", "2"):
            monkeypatch.setenv("MHV_WORKERS", workers)
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


class TestCli:
    def run(self, capsys, *argv):
        code = main(list(argv))
        out = capsys.readouterr()
        return code, out.out, out.err

    @pytest.mark.parametrize("command", [
        "lsa-check", "verify", "solve-theta", "bider-check", "postlie-grid",
        "lsa-bider-grid", "star-check", "ast-check", "cross-check"])
    @pytest.mark.parametrize("window", ["-1", "0"])
    def test_window_below_one_is_a_usage_error(self, command, window):
        with pytest.raises(SystemExit) as exc:
            main([command, f"--window={window}"])
        assert exc.value.code == 2

    def test_bracket(self, capsys):
        code, out, _ = self.run(capsys, "bracket", "d(2)", "d(-2)",
                                "--format", "text")
        assert code == 0
        assert out.strip() == "4*d(0) + 1/2*c"

    def test_bracket_centerless(self, capsys):
        code, out, _ = self.run(capsys, "bracket", "d(2)", "d(-2)",
                                "--centerless", "--format", "text")
        assert out.strip() == "4*d(0)"

    def test_bracket_json(self, capsys):
        code, out, _ = self.run(capsys, "bracket", "d(2)", "d(1)")
        assert json.loads(out) == {"schema": 1, "result": "d(3)"}

    def test_lsa_mul(self, capsys):
        code, out, _ = self.run(capsys, "lsa-mul", "d(2)", "d(1)",
                                "--format", "text")
        assert out.strip() == "((-1-e)/(1+3*e))*d(3)"

    def test_lsa_mul_numeric(self, capsys):
        code, out, _ = self.run(capsys, "lsa-mul", "d(2)", "d(1)",
                                "--eps", "1/5", "--format", "text")
        assert out.strip() == "-3/4*d(3)"

    def test_lsa_mul_pole(self, capsys):
        code, _, err = self.run(capsys, "lsa-mul", "d(-3)", "d(-4)",
                                "--eps", "1/7")
        assert code == 2
        assert "d(-3)*d(-4)" in err

    def test_parse_error_exit(self, capsys):
        code, _, err = self.run(capsys, "bracket", "h(2/2)", "d(0)")
        assert code == 2
        assert "odd half" in err

    def test_verify_json(self, capsys):
        code, out, _ = self.run(capsys, "verify", "--window", "2",
                                "--checks", "jacobi,antisym")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == 1
        assert [r["check"] for r in doc["reports"]] == ["jacobi", "antisym"]
        assert all(r["passed"] for r in doc["reports"])

    @pytest.mark.parametrize("checks", [",", "star,star", ""])
    def test_verify_empty_or_repeated_checks_is_a_usage_error(self, capsys,
                                                              checks):
        # an empty selection would pass vacuously; "" is one, not the default
        code, out, err = self.run(capsys, "verify", "--window", "1",
                                  "--checks", checks)
        assert code == 2 and out == ""
        assert "checks" in err

    def test_verify_inadmissible(self, capsys):
        code, _, err = self.run(capsys, "verify", "--window", "3",
                                "--eps=-1/2", "--checks", "lsa-identity")
        assert code == 2
        assert "not admissible" in err

    def test_lsa_check_numeric(self, capsys):
        code, out, _ = self.run(capsys, "lsa-check", "--window", "2",
                                "--eps", "1/7")
        assert code == 0
        doc = json.loads(out)
        assert doc["reports"][0]["check"] == "lsa-identity"
        assert doc["reports"][0]["passed"]

    def test_solve_theta(self, capsys):
        code, out, _ = self.run(capsys, "solve-theta", "--window", "3")
        assert code == 0
        doc = json.loads(out)
        extra = doc["reports"][0]["extra"]
        assert extra["theta"]["1"] == "3/4"
        assert extra["rank"] == extra["unknowns"]

    def test_bider_check(self, capsys):
        code, out, _ = self.run(capsys, "bider-check", "--lambda", "2",
                                "--omega", "1=1,-2=3/4", "--window", "2")
        assert code == 0
        assert json.loads(out)["reports"][0]["passed"]

    def test_bider_check_full_mode_exposes_obstruction(self, capsys):
        code, out, _ = self.run(capsys, "bider-check", "--lambda", "0",
                                "--omega", "0=1", "--window", "2", "--full")
        assert code == 1
        assert not json.loads(out)["reports"][0]["passed"]

    def test_bider_check_repeated_omega_shift_is_a_usage_error(self,
                                                               capsys):
        # the last value used to win silently
        code, out, err = self.run(capsys, "bider-check", "--omega",
                                  "0=1,0=-1", "--window", "1", "--full")
        assert code == 2 and out == ""
        assert "omega shift 0" in err

    @pytest.mark.parametrize("omega, shift", [("1.5=1", "'1.5'"),
                                              ("a=1", "'a'"), ("=1", "''")])
    def test_bider_check_non_integer_omega_shift_is_a_usage_error(
            self, capsys, omega, shift):
        code, out, err = self.run(capsys, "bider-check", "--omega", omega,
                                  "--window", "1")
        assert code == 2 and out == ""
        assert err == f"mhv: error: omega shift {shift} is not an integer\n"

    @pytest.mark.parametrize("command", sorted(ALIASES))
    def test_alias_runs_its_one_check(self, capsys, command):
        check = ALIASES[command][0]
        code, out, _ = self.run(capsys, command, "--window", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["checks"] == [check]
        assert [r["check"] for r in doc["reports"]] == [check]

    @pytest.mark.parametrize("command", sorted(ALIASES))
    def test_alias_default_window(self, command):
        window = build_parser().parse_args([command]).window
        assert window == (4 if command in ("postlie-grid", "lsa-bider-grid")
                          else 5)

    def test_postlie_grid(self, capsys):
        code, out, _ = self.run(capsys, "postlie-grid", "--window", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["reports"][0]["extra"]["passing_points"] \
            == ["lambda=0, omega={}"]

    def test_installed_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "mhv.cli", "bracket", "h(1/2)", "h(-1/2)",
             "--format", "text"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "1/2*l"
