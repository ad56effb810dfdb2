"""Orchestration of the exhaustive verification checks.

run_suite executes a selection of named checks at a common window and
e-mode and returns one Report per check.  The JSON reports promise that
a numeric report is the symbolic report evaluated at the fixed rational
e.  EpsMode.computed_in refuses a numeric e whose pole degree -1/e lies
inside the window itself, where the product table would be undefined on
the window's own output degrees, and routes the run.

A numeric run computes its e-dependent checks over Q when no product it
takes can reach the pole, that is when 1 + e*s vanishes at no index sum
|s| <= 3*window: lsa-identity, compatibility and lsa-bider-grid sweep
the plain-Fraction product of the lsa module, an independent declaration
of the table, and star, ast and cross-check the closed form at e.  Every
other numeric run, and every e-free check, computes symbolically.
Either way each report is then evaluated at e, which for a report
computed over Q only relabels its e-mode.  A passing report is the same
by either route; a failing one computed over Q may differ, where a
residual vanishes at e or a free-text failure (a cross-check mismatch)
renders its values.

The check registry CHECKS is one flat table from each check name, in
canonical order, to its plan, plan(window, eps) -> (chunks, finish),
where eps is the e-mode the check computes in (a check that does not
depend on e ignores it) and finish(results) -> Report takes the chunks'
results in order.  Each entry calls its planner directly.  CHECK_ORDER
is its keys:

    jacobi antisym grading lsa-identity compatibility bider-family
    bider-grid commuting postlie-grid lsa-bider-grid star ast
    cross-check solve-theta

run_suite(config) runs the chunks of the selected checks as one list,
in config.checks order, through run_chunks, then finishes each check.
MHV_WORKERS=N, read by run_suite alone, an integer from 1 to 64
(default 1; any other value is refused), caps process parallelism:
this process and N-1 children, forked once per run, share the list by
index, each taking every N-th chunk.  A plan's own work (the closed
form, a product table, bider-family's central cases) runs here, as the
plan is made, before the fork.  The chunks of each check are

    the five basis sweeps   first basis vectors basis[k], basis[b-1-k]
    bider-family            one first basis vector (centerless)
    commuting               one sample
    postlie-grid, lsa-bider-grid   each nonzero grid point; the zero
                            point's table (no residual)
    star, ast               m
    cross-check             every table, closed form and random, by
                            unordered pairs {m, n}, m = i - w or w - i
    bider-grid, solve-theta the whole check (bider-grid stops early)

The chunk list depends on the window, the e-mode and the selected checks
alone, so output is byte-identical for any worker count.  Every sweep
yields only its nonzero residuals and returns the number of its zero
cases, which reports.collect adds to the cases it reads.
"""

from __future__ import annotations

import mmap
import os
import pickle
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from operator import itemgetter

from .algebra import (BRACKET_TABLES, FULL, BasisVector, C, Element, L,
                      accumulate_right, basis_sweep, basis_vectors,
                      grading_degree, window_indices)
from .biderivations import (LinearMap, check_bider_converse,
                            commuting_residuals, family_plan, grid_plan,
                            lsa_bider_residuals, post_lie_residuals)
from .coeffs import (associator_defect, ast_pair_residuals,
                     ast_triple_residuals, closed_form_fns, commutator_defect,
                     cross_check_plan, solve_theta, star_pair_residuals,
                     star_triple_residuals)
from .linalg import InconsistentSystemError, UnderdeterminedSystemError
from .lsa import SYMBOLIC, EpsMode, product_table
from .reports import Failure, Report, chunked, collect, pooled, prefixed
from .scalars import ONE, ratio, sc


# ---------------------------------------------------------------------------
# the scheduler
# ---------------------------------------------------------------------------

MAX_WORKERS = 64  # the most processes a run may use, whatever the cores


class WorkerTraceback(Exception):
    """The traceback of a chunk's exception in a forked child, chained as
    its cause when run_chunks raises it here."""


class WorkerDiedError(RuntimeError):
    """A forked child of run_chunks ended before sending its results."""


def _stripe(chunks: list, first: int, step: int, stop) -> list:
    """[(index, result)] of chunks first, first + step, ... in turn, until
    they run out or another process sets stop."""
    done = []
    for index in range(first, len(chunks), step):
        if stop[0]:
            break
        done.append((index, chunks[index]()))
    return done


def _work(chunks: list, first: int, step: int, stop, writer: int) -> None:
    """A forked child: run its stripe, send one pickled
    ([(index, result)], exception, traceback) down writer, and exit."""
    status = 1
    try:
        try:
            data = pickle.dumps((_stripe(chunks, first, step, stop), None,
                                 ""))
        except BaseException as exc:
            stop[0] = 1  # no process starts another chunk
            import traceback
            trace = traceback.format_exc()
            try:
                data = pickle.dumps(([], exc, trace))
                pickle.loads(data)
            except Exception:
                # an exception that does not survive pickling is sent as
                # the last line of its traceback
                data = pickle.dumps(([], RuntimeError(
                    trace.rstrip().splitlines()[-1]), trace))
        with open(writer, "wb") as out:
            out.write(data)
        status = 0
    finally:
        os._exit(status)


def _join(pid: int, reader: int) -> tuple:
    """What a forked child sent and its exit status, once it has exited."""
    with open(reader, "rb") as stream:
        data = stream.read()
    return data, os.waitpid(pid, 0)[1]


def run_chunks(chunks: list, workers: int) -> list:
    """The results of chunks, zero-argument callables, in chunk order.

    With one worker (or one chunk) they run here, in order.  Otherwise
    N = min(workers, len(chunks)) processes, this one (k = 0) and N-1
    forked children (k = 1 .. N-1), share them by index: process k runs
    chunks k, k + N, k + 2N, ... in turn.  Which process runs a chunk
    depends on N alone, so this process does the same work, and fills its
    memo tables the same way, in every run; every later fork inherits
    those tables.  A child inherits the chunk list without pickling, so
    chunks may be closures, and sends its results back once, so a chunk
    must return picklable data (Reports, Failures, strings, ints).
    The first exception of a chunk, here or in a child, stops every
    process from starting another chunk and is raised here; a child that
    dies raises WorkerDiedError here once this process has run its own
    chunks.  Every child has exited by the time this returns or raises."""
    total = len(chunks)
    if workers <= 1 or total <= 1:
        return [chunk() for chunk in chunks]
    step = min(workers, total)
    stop = mmap.mmap(-1, 1)  # one byte shared with every child
    children, results = [], [None] * total
    try:
        for first in range(1, step):
            reader, writer = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(reader)
                os.close(writer)
                raise
            if pid == 0:
                _work(chunks, first, step, stop, writer)
            os.close(writer)
            children.append((pid, reader))
        for index, result in _stripe(chunks, 0, step, stop):
            results[index] = result
    except BaseException:
        stop[0] = 1
        raise
    finally:
        sent = [_join(pid, reader) for pid, reader in children]
        stop.close()
    for data, status in sent:
        if status:
            raise WorkerDiedError(
                "a forked worker ended with exit code "
                f"{os.waitstatus_to_exitcode(status)} before sending its "
                "results")
        done, error, trace = pickle.loads(data)
        if error is not None:
            raise error from WorkerTraceback(trace)
        for index, result in done:
            results[index] = result
    return results


# ---------------------------------------------------------------------------
# the basis sweeps: a residual function of two or three basis vectors,
# evaluated by algebra.basis_sweep on every pair or triple of the
# full-mode window basis, through the tables on basis pairs
# ---------------------------------------------------------------------------

# the bracket as a table on basis pairs
_bracket = BRACKET_TABLES[FULL]
_ints, _scale = _bracket.int_form


def _jacobi(x: BasisVector, y: BasisVector, z: BasisVector) -> dict:
    """[x, [y, z]] + [y, [z, x]] + [z, [x, y]], summed on the int form,
    whose two bracket factors make it _scale**2 times the true one."""
    acc: dict = {}
    accumulate_right(acc, ONE, _ints, x, _ints(y, z))
    accumulate_right(acc, ONE, _ints, y, _ints(z, x))
    accumulate_right(acc, ONE, _ints, z, _ints(x, y))
    return {bv: ratio(c, _scale * _scale) for bv, c in acc.items()}


def _antisym(x: BasisVector, y: BasisVector) -> dict:
    return (_bracket(x, y) + _bracket(y, x))._terms


def _grading(x: BasisVector, y: BasisVector) -> dict:
    """The bracket where it is not homogeneous of degree deg x + deg y."""
    value = _bracket(x, y)
    if value.is_zero() or grading_degree(value) == x.degree() + y.degree():
        return {}
    return value._terms


def _sweep(name: str, eq_id: str, arity: int, residual, window: int,
           twins=None) -> tuple:
    """The plan of a basis sweep of residual and its twins, chunk k taking
    first entries basis[k] and basis[b-1-k], to even out orbit sweeps."""
    b = len(basis_vectors(window, FULL))
    return chunked(name, window, [
        partial(basis_sweep, window, arity,
                lambda *xs: [(eq_id, residual(*xs))], sorted({k, b - 1 - k}),
                twins)
        for k in range((b + 1) // 2)])


# ---------------------------------------------------------------------------
# the remaining checks
# ---------------------------------------------------------------------------

def _commuting_specs(window: int) -> list:
    """Three deterministic (lambda, tau) samples with tau valued in the
    center on a few window basis vectors."""
    import random
    rng = random.Random(7)
    specs = []
    basis = basis_vectors(window, FULL)
    for i in range(3):
        lam = Fraction(rng.randint(1, 9), rng.randint(1, 4)) \
            * (1 if rng.random() < 0.5 else -1)
        tau = {}
        for bv in rng.sample(basis, 3):
            tau[bv] = Element.of((Fraction(rng.randint(-3, 3)), C),
                                 (Fraction(rng.randint(-3, 3)), L))
        specs.append(LinearMap.from_spec(sc(lam), tau, name=f"sample{i}"))
    return specs


def _commuting_plan(window: int) -> tuple:
    """The commuting condition of each sample, one chunk per sample."""
    return ([lambda phi=phi: prefixed(phi.name, collect(
                "commuting", window, "symbolic",
                commuting_residuals(phi, window)))
             for phi in _commuting_specs(window)],
            partial(pooled, "commuting", window))


def _equation_sweep(name: str, pair_residuals, triple_residuals,
                    window: int, eps: EpsMode) -> tuple:
    """The plan of an equation system, pair_residuals(fns, m, n) (taken
    once per m, n, counted at every k) joined to triple_residuals(fns, m,
    n, k), on the closed form of eps over the window cube, by m."""
    fns = closed_form_fns(eps.eps)
    indices = window_indices(window)

    def stream(m: int):
        zeros = 0
        for n in indices:
            pair = pair_residuals(fns, m, n)
            for k in indices:
                for eq_id, residual in pair + triple_residuals(fns, m, n, k):
                    if residual.is_zero():
                        zeros += 1
                    else:
                        yield (m, n, k), eq_id, residual
        return zeros

    return chunked(name, window, [partial(stream, m) for m in indices])


def _check_solve_theta(window: int) -> Report:
    try:
        table = solve_theta(max(window, 2))
    except (InconsistentSystemError, UnderdeterminedSystemError) as exc:
        return Report("solve-theta", window, "symbolic", 0, [Failure(
            f"window={window}", "theta.system", str(exc))], {})
    values = sorted(table.values.items())
    failures = []
    for n, value in values:
        expected = Fraction(2 * n + 1, 4)
        if value != expected:
            failures.append(Failure(f"theta({n})", "theta.value",
                                    f"{value} != {expected}"))
    extra = {"unknowns": table.unknowns, "rank": table.rank,
             "equations": table.equations,
             "theta": {str(n): str(v) for n, v in values}}
    return Report("solve-theta", window, "symbolic", table.equations,
                  failures, extra)


# name -> plan(window, eps) -> (chunks, finish), in canonical order.  A
# grid passes iff its zero point alone satisfies the axioms: the zero
# product the post-Lie ones, f = 0 the left-symmetric biderivation ones.
CHECKS = {
    # the twins: Jacobi's sum is cyclic, the associator defect antisymmetric
    "jacobi": lambda w, eps: _sweep(
        "jacobi", "jacobi", 3, _jacobi, w,
        lambda x, y, z: [((y, z, x), 1), ((z, x, y), 1)]),
    "antisym": lambda w, eps: _sweep("antisym", "antisym", 2, _antisym, w),
    "grading": lambda w, eps: _sweep("grading", "grading", 2, _grading, w),
    "lsa-identity": lambda w, eps: _sweep(
        "lsa-identity", "lsa.identity", 3,
        partial(associator_defect, product_table(eps)), w,
        lambda x, y, z: [((y, x, z), -1)]),
    "compatibility": lambda w, eps: _sweep(
        "compatibility", "lsa.compat", 2,
        partial(commutator_defect, product_table(eps)), w),
    "bider-family": lambda w, eps: family_plan(w),
    "bider-grid": lambda w, eps: ([partial(check_bider_converse, w)],
                                  itemgetter(0)),
    "commuting": lambda w, eps: _commuting_plan(w),
    "postlie-grid": lambda w, eps: grid_plan(
        "postlie-grid", w, partial(post_lie_residuals, window=w)),
    "lsa-bider-grid": lambda w, eps: grid_plan(
        "lsa-bider-grid", w, partial(lsa_bider_residuals, window=w,
                                     mul=product_table(eps))),
    "star": lambda w, eps: _equation_sweep(
        "star", star_pair_residuals, star_triple_residuals, w, eps),
    "ast": lambda w, eps: _equation_sweep(
        "ast", ast_pair_residuals, ast_triple_residuals, w, eps),
    "cross-check": cross_check_plan,
    "solve-theta": lambda w, eps: ([partial(_check_solve_theta, w)],
                                   itemgetter(0)),
}

CHECK_ORDER = tuple(CHECKS)


@dataclass
class RunConfig:
    window: int = 5
    eps: EpsMode = SYMBOLIC
    checks: tuple = CHECK_ORDER

    def __post_init__(self):
        window_indices(self.window)  # refuses a non-int window or one below 1
        if not isinstance(self.eps, EpsMode):
            raise TypeError(f"eps must be an EpsMode, got {self.eps!r}")
        if isinstance(self.checks, str):
            raise TypeError("checks must be a sequence of check names, not "
                            f"the string {self.checks!r}")
        if not self.checks:
            raise ValueError("no checks selected")
        unknown = [c for c in self.checks if c not in CHECK_ORDER]
        if unknown:
            raise ValueError(f"unknown checks: {', '.join(unknown)}")
        if len(set(self.checks)) < len(self.checks):
            raise ValueError(f"repeated checks: {', '.join(self.checks)}")


def run_suite(config: RunConfig) -> list:
    """Execute the selected checks and return one Report each, their
    chunks run by one call of run_chunks with MHV_WORKERS workers."""
    given = os.environ.get("MHV_WORKERS", "1")
    try:
        workers = int(given)
    except ValueError:
        workers = 0
    if not 1 <= workers <= MAX_WORKERS:
        raise ValueError(f"MHV_WORKERS must be an integer from 1 to "
                         f"{MAX_WORKERS}, got {given!r}")
    mode = config.eps.computed_in(config.window)
    plans = [CHECKS[name](config.window, mode) for name in config.checks]
    results = iter(run_chunks([c for chunks, _ in plans for c in chunks],
                              workers))
    reports = []
    for chunks, finish in plans:
        report = finish([next(results) for _ in chunks])
        if not config.eps.is_symbolic:
            report = report.evaluated_at(config.eps.eps)
        reports.append(report)
    return reports
