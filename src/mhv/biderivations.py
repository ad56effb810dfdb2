"""Biderivations of the mirror Heisenberg-Virasoro algebra and their
applications: commuting maps, commutative post-Lie structures, and
biderivations of the graded left-symmetric algebra.

The classified two-parameter family is

    f(x, y) = lambda [x, y] + Upsilon_Omega(x, y),

where Upsilon_Omega is supported on d,d pairs,

    Upsilon_Omega(d_m, d_n) = sum_k (k+1/2) mu_k h_{m+n+k+1/2},

and Omega = (mu_k) has finite support.  family_parts is the one place
that splits a member into weighted generator tables: lambda with the
bracket's table and (k+1/2) mu_k with upsilon[k] (upsilon[s] sends
d_m, d_n to h_{m+n+s+1/2}).  family_table sums them into the member's
table on basis pairs, once per member; bider_eval, upsilon,
BilinearTable.from_params and the post-Lie and left-symmetric sweeps
derive from it, and the converse's candidate space holds the same
generator tables.  family_plan uses the parts themselves: the
derivation axioms are linear in f, so it takes each distinct generator's
residuals once per basis triple and checks every member by linearity,
as the weighted sum of its generators' residuals.
Every derivation sweep (check_biderivation, the left-symmetric
biderivations, bider-family, bider-grid) is one call per chunk of one
kernel, derivation_residuals, over the chunk's first basis vectors and
all its tables; it takes mul(x, y) and mul(y, z) once for all tables,
f(x, .) once per x, as the sweep reaches it, and f(x, y) once per (x, y),
and projects nothing.  It yields an axiom case (one axiom at one triple)
only where some table's residual is nonzero, with Element.zero() for
each one that vanishes, and counts the others (see reports.collect), so
a passing sweep builds no Element; the post-Lie and commuting sweeps run
through algebra.basis_sweep.  Every sweep sums each residual from its
tables on basis vectors into one term dict with accumulate_left and
accumulate_right, not with BilinearTable's element-level extension.
bider-family and bider-grid sweep each table's int_form in ints against
2[., .]: a residual is scale(f)*scale(mul) times the true one (4 for
the bracket, 2 for upsilon[s]), and is divided back only when nonzero.

The family arises on the centerless quotient and the derivation axioms
hold there; that is the default mode of check_biderivation.  Over the
centrally extended algebra the h-valued image of Upsilon brackets into
the central l (for example [Upsilon(d_0, d_0), h_{-1/2}] = mu_0/4 * l),
and no central correction of the family can absorb the resulting
residual, so in FULL mode only the inner members (Omega empty) satisfy
the axioms; full mode is kept available precisely to exhibit that
obstruction.

The converse is certified in bounded brute-force form by
check_bider_converse, which solves the (centerless) axiom equations
exactly over a declared candidate space of bilinear shapes and confirms
that the solution set is precisely the family span.  It sweeps the
basis triples in order, in one process, and stops after the triple at
which its rows certify the rank.

check_post_lie and check_lsa_biderivation test the commutative post-Lie
axioms and the left-symmetric biderivation axioms for a family member.
grid_plan sweeps their residuals (post_lie_residuals, lsa_bider_residuals,
each as pieces) over a parameter grid, one chunk per point, which stops at
its first nonzero residual, or per piece of the zero point; only the zero
point's, the one witness a grid reports, becomes a Failure.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable

from .algebra import (BRACKET_TABLES, C, CENTERLESS, FULL, AlgebraMode,
                      BasisVector, CentralTermError, Element, L, _add_scaled,
                      accumulate_left, accumulate_right, basis_sweep,
                      basis_vectors, bilinear, combine, d, h, linear,
                      project_centerless, scalar_element, scalar_table,
                      tag_table)
from .linalg import RowReducer
from .lsa import SYMBOLIC, EpsMode, product_table
from .reports import (Failure, Report, Swept, collect, pooled, prefixed,
                      render_inputs, residual_failure)
from .scalars import MINUS_ONE, ONE, Scalar, sc


class BiderParams:
    """A member (lambda, Omega) of the classified biderivation family."""

    __slots__ = ("lam", "omega")

    def __init__(self, lam: Scalar | int | Fraction,
                 omega: dict | None = None):
        self.lam = lam if isinstance(lam, Scalar) else sc(lam)
        cleaned = {}
        for k, mu in (omega or {}).items():
            mu = mu if isinstance(mu, Scalar) else sc(mu)
            # a bool is not an index, as in BasisVector; int() of an
            # infinite float raises OverflowError and of a nan ValueError
            try:
                integral = not isinstance(k, bool) and k == int(k)
            except (OverflowError, ValueError):
                integral = False
            if not integral:
                raise ValueError(f"omega shift {k} is not an integer")
            if not mu.is_zero():
                cleaned[int(k)] = mu
        self.omega = cleaned

    def is_zero(self) -> bool:
        return self.lam.is_zero() and not self.omega

    def describe(self) -> str:
        entries = ", ".join(f"{k}: {mu}" for k, mu in sorted(self.omega.items()))
        return f"lambda={self.lam}, omega={{{entries}}}"

    def __repr__(self) -> str:
        return f"BiderParams({self.describe()})"


# a bilinear map given by its values on basis pairs
PairTable = Callable[[BasisVector, BasisVector], Element]


# h(k) with the int coefficient 1: every value of an upsilon[s] int_form
_unit_h = lru_cache(maxsize=None)(lambda k: Element({h(k): 1}, _clean=True))


@lru_cache(maxsize=None)
def _upsilon_generator(s: int) -> PairTable:
    """upsilon[s]: d_m, d_n -> h_{m+n+s+1/2}, zero on every other pair,
    declared in ints at scale 1.  One table per shift, so members that
    share a generator share it by identity."""
    return scalar_table(tag_table(dd=lambda m, n: _unit_h(m + n + s)), 1)


def family_parts(params: BiderParams, mode: AlgebraMode) -> list:
    """The member f = lambda [., .] + Upsilon_Omega as (weight, generator
    table) parts: lambda with the bracket's table for mode, when lambda
    is nonzero, then (k+1/2) mu_k with upsilon[k] for each k in Omega,
    in increasing k.  The zero member has no parts."""
    parts = [(sc(Fraction(2 * k + 1, 2)) * mu, _upsilon_generator(k))
             for k, mu in sorted(params.omega.items())]
    if not params.lam.is_zero():
        parts.insert(0, (params.lam, BRACKET_TABLES[mode]))
    return parts


def family_table(params: BiderParams, mode: AlgebraMode = FULL) -> PairTable:
    """The one table on basis pairs of a member: the sum of its
    family_parts.  The centerless table rejects central basis vectors, as
    the centerless bracket does."""
    table = combine(family_parts(params, mode))
    if mode is FULL:
        return table

    # a repeat pair is one C-level cache hit; a raise is never cached, so
    # every call with a central argument raises
    @lru_cache(maxsize=None)
    def centerless(u: BasisVector, v: BasisVector) -> Element:
        if u.is_central() or v.is_central():
            raise CentralTermError(
                "centerless mode forbids central terms in the family "
                f"arguments ({u.render()}, {v.render()})")
        return table(u, v)

    return centerless


def upsilon(params: BiderParams, x: Element, y: Element) -> Element:
    """The exceptional component Upsilon_Omega: the member (0, Omega)."""
    return bider_eval(BiderParams(0, params.omega), x, y)


def bider_eval(params: BiderParams, x: Element, y: Element) -> Element:
    """lambda [x, y] + Upsilon_Omega(x, y)."""
    return bilinear(family_table(params), x, y)


class BilinearTable:
    """A candidate bilinear map given by its values on basis pairs.

    The evaluator must be total on basis vectors (return the zero element
    where the map vanishes).  Bilinear extension to arbitrary elements is
    provided here.
    """

    __slots__ = ("evaluator", "name")

    def __init__(self, evaluator: Callable[[BasisVector, BasisVector], Element],
                 name: str = "table"):
        self.evaluator = evaluator
        self.name = name

    @staticmethod
    def from_params(params: BiderParams,
                    mode: AlgebraMode = FULL) -> "BilinearTable":
        return BilinearTable(family_table(params, mode), params.describe())

    def __call__(self, x: Element, y: Element) -> Element:
        return bilinear(self.evaluator, x, y)


def derivation_residuals(tables: list, mul: PairTable, xs: list,
                         basis: list):
    """The two derivation axioms of each table f of tables with respect to
    the product table mul at the basis triples (x, y, z), x in xs and y
    and z in basis:

        left:  f(mul(x, y), z) - mul(f(x, z), y) - mul(x, f(y, z))
        right: f(x, mul(y, z)) - mul(f(x, y), z) - mul(y, f(x, z)).

    An axiom case is one axiom at one triple.  Yields ((x, y, z), axiom,
    residuals), in basis order, only for the cases where some table's
    residual is nonzero, with one residual per table, Element.zero()
    where it vanishes; returns the number of the other cases.  Nothing is
    projected: on the quotient, f's values must already be centerless.  No
    empty value reaches an accumulate kernel, each table's products come
    in the order written, so under a numeric e the first pole raises, and
    f(x, z) is taken at the first y."""
    zero = Element.zero()
    yielded = 0
    for x in xs:
        fx = []
        for y in basis:
            mxy = mul(x, y)
            fxy = [f(x, y) for f in tables]
            for k, z in enumerate(basis):
                if k == len(fx):
                    fx.append([f(x, z) for f in tables])
                myz = None
                accs = []  # each table's left and right in turn
                for f, fxy_f, fxz_f in zip(tables, fxy, fx[k]):
                    left: dict = {}
                    if mxy._terms:
                        accumulate_left(left, ONE, f, mxy, z)
                    if fxz_f._terms:
                        accumulate_left(left, MINUS_ONE, mul, fxz_f, y)
                    fyz = f(y, z)
                    if fyz._terms:
                        accumulate_right(left, MINUS_ONE, mul, x, fyz)
                    if myz is None:
                        myz = mul(y, z)
                    right: dict = {}
                    if myz._terms:
                        accumulate_right(right, ONE, f, x, myz)
                    if fxy_f._terms:
                        accumulate_left(right, MINUS_ONE, mul, fxy_f, z)
                    if fxz_f._terms:
                        accumulate_right(right, MINUS_ONE, mul, y, fxz_f)
                    accs += left, right
                if not any(accs):
                    continue
                for i, axiom in enumerate(("left", "right")):
                    if any(accs[i::2]):
                        yielded += 1
                        yield (x, y, z), axiom, [
                            Element(acc, _clean=True) if acc else zero
                            for acc in accs[i::2]]
    return 2 * len(xs) * len(basis) ** 2 - yielded


def _axiom_cases(name: str, f: PairTable, mul: PairTable, window: int,
                 mode: AlgebraMode, first: slice = slice(None)):
    """The sweep (see reports.collect) of the two axioms, name.left and
    name.right, of the table f on the window basis triples with first
    vector in basis[first]: derivation_residuals' items, relabelled.  On
    the quotient (CENTERLESS) f's values are projected, as the centerless
    bracket sends C and L to zero."""
    basis = basis_vectors(window, mode)
    g = f if mode is FULL else lambda u, v: project_centerless(f(u, v))
    eq_ids = {axiom: f"{name}.{axiom}" for axiom in ("left", "right")}
    items = Swept(derivation_residuals([g], mul, basis[first], basis))
    for inputs, axiom, (residual,) in items:
        yield inputs, eq_ids[axiom], residual
    return items.zeros


def _joined(pieces: list):
    """The sweeps of pieces, zero-argument callables, as one."""
    zeros = 0
    for piece in pieces:
        zeros += (yield from piece()) or 0
    return zeros


# 2[., .] on the quotient, the int table every lane sweeps against
_ints, _two = BRACKET_TABLES[CENTERLESS].int_form


def _lanes(tables: list) -> tuple:
    """The ints of the tables' int_forms (ints, s), swept on the quotient
    against 2[., .], and the scales 2s of their residuals."""
    forms = [f.int_form for f in tables]
    return [ints for ints, _ in forms], [_two * s for _, s in forms]


def check_biderivation(cand: BilinearTable, window: int,
                       mode: AlgebraMode = CENTERLESS) -> Report:
    """Both derivation axioms on every basis triple of the window.

    The default mode is the centerless quotient, where the classified
    family lives; FULL mode additionally exercises the central extension
    and rejects every candidate with a nonzero Upsilon part."""
    return collect(f"biderivation[{cand.name}]", window, "symbolic",
                   _axiom_cases("bider", cand.evaluator, BRACKET_TABLES[mode],
                                window, mode),
                   {"mode": mode.value})


# ---------------------------------------------------------------------------
# commuting maps
# ---------------------------------------------------------------------------

class LinearMap:
    """A linear map given on basis vectors, extended by linearity."""

    __slots__ = ("evaluator", "name")

    def __init__(self, evaluator: Callable[[BasisVector], Element],
                 name: str = "map"):
        self.evaluator = evaluator
        self.name = name

    @staticmethod
    def from_spec(lam: Scalar | int | Fraction,
                  tau: dict | None = None,
                  name: str | None = None) -> "LinearMap":
        """phi(x) = lambda x + tau(x) with tau valued in the center."""
        lam = lam if isinstance(lam, Scalar) else sc(lam)
        tau = dict(tau or {})
        for bv, image in tau.items():
            for w in image.support():
                if not w.is_central():
                    raise ValueError(
                        f"tau({bv.render()}) = {image.render()} "
                        "is not central")

        def evaluate(u: BasisVector) -> Element:
            out = Element.basis(u).scale(lam)
            extra = tau.get(u)
            return out + extra if extra is not None else out

        return LinearMap(evaluate, name or f"lambda*id+tau (lambda={lam})")

    @staticmethod
    def from_table(entries: dict, name: str = "map") -> "LinearMap":
        def evaluate(u: BasisVector) -> Element:
            return entries.get(u, Element.zero())
        return LinearMap(evaluate, name)

    def __call__(self, x: Element) -> Element:
        return linear(self.evaluator, x)


def commuting_residuals(phi: LinearMap, window: int):
    """The polarized commuting condition [phi(u), v] + [phi(v), u] = 0 on
    the window basis pairs, as a sweep (see reports.collect)."""

    br = BRACKET_TABLES[FULL]

    def polarized(u: BasisVector, v: BasisVector) -> list:
        acc: dict = {}
        accumulate_left(acc, ONE, br, phi.evaluator(u), v)
        accumulate_left(acc, ONE, br, phi.evaluator(v), u)
        return [("commuting.polarized", Element(acc, _clean=True))]

    return basis_sweep(window, 2, polarized)


def check_commuting(phi: LinearMap, window: int) -> Report:
    """The polarized commuting condition on all window basis pairs
    (equivalent to [phi(x), x] = 0 on the window span)."""
    return collect(f"commuting[{phi.name}]", window, "symbolic",
                   commuting_residuals(phi, window))


# ---------------------------------------------------------------------------
# commutative post-Lie structures
# ---------------------------------------------------------------------------

def post_lie_residuals(params: BiderParams, window: int) -> list:
    """The three axioms as pieces, zero-argument callables returning
    sweeps (see reports.collect), in canonical order: the pairs, then the
    triples by first basis vector."""
    dot = family_table(params)
    br = BRACKET_TABLES[FULL]

    def commutative(x: BasisVector, y: BasisVector) -> list:
        return [("postlie.commutative", dot(x, y) - dot(y, x))]

    def triple(x: BasisVector, y: BasisVector, z: BasisVector) -> list:
        # [x, y]*z - x*(y*z) + y*(x*z)
        bp: dict = {}
        accumulate_left(bp, ONE, dot, br(x, y), z)
        accumulate_right(bp, MINUS_ONE, dot, x, dot(y, z))
        accumulate_right(bp, ONE, dot, y, dot(x, z))
        # x*[y, z] - [x*y, z] - [y, x*z]
        pb: dict = {}
        accumulate_right(pb, ONE, dot, x, br(y, z))
        accumulate_left(pb, MINUS_ONE, br, dot(x, y), z)
        accumulate_right(pb, MINUS_ONE, br, y, dot(x, z))
        return [("postlie.bracket_product", Element(bp, _clean=True)),
                ("postlie.product_bracket", Element(pb, _clean=True))]

    return [partial(basis_sweep, window, 2, commutative)] + [
        partial(basis_sweep, window, 3, triple, (i,))
        for i in range(len(basis_vectors(window)))]


def check_post_lie(params: BiderParams, window: int) -> Report:
    """All three commutative post-Lie axioms for x*y := f_params(x, y)."""
    return collect(f"postlie[{params.describe()}]", window, "symbolic",
                   _joined(post_lie_residuals(params, window)))


# ---------------------------------------------------------------------------
# biderivations of the left-symmetric algebra
# ---------------------------------------------------------------------------

def lsa_bider_residuals(params: BiderParams, window: int,
                        mul: PairTable) -> list:
    """The derivation axioms with respect to the left-symmetric product,
    given as its product_table mul, as one piece (see post_lie_residuals)
    per first basis vector.  A pole raises lsa_product's PoleError: no
    value of f or mul has two d terms."""
    f = family_table(params)
    return [partial(_axiom_cases, "lsabider", f, mul, window, FULL,
                    slice(i, i + 1))
            for i in range(len(basis_vectors(window)))]


def check_lsa_biderivation(params: BiderParams, window: int,
                           eps: EpsMode = SYMBOLIC) -> Report:
    """Derivation axioms of f_params with respect to the left-symmetric
    product, on all window basis triples."""
    pieces = lsa_bider_residuals(params, window, product_table(eps))
    return collect(f"lsabider[{params.describe()}]", window, eps.describe(),
                   _joined(pieces))


# ---------------------------------------------------------------------------
# parameter grids and triviality sweeps
# ---------------------------------------------------------------------------

GRID_LAMBDAS = (Fraction(0), Fraction(1), Fraction(-1), Fraction(2),
                Fraction(-2), Fraction(1, 2))
GRID_MUS = (Fraction(0), Fraction(1), Fraction(-1))
GRID_SUPPORT = (-1, 0, 1)


def grid_points() -> list:
    """The finite parameter grid for the two triviality sweeps, the zero
    point first."""
    points = []
    for lam in GRID_LAMBDAS:
        for mu_m1 in GRID_MUS:
            for mu_0 in GRID_MUS:
                for mu_1 in GRID_MUS:
                    omega = {k: mu for k, mu in
                             zip(GRID_SUPPORT, (mu_m1, mu_0, mu_1))
                             if mu != 0}
                    points.append(BiderParams(lam, omega))
    return points


def _first_failure(pieces: list) -> tuple | None:
    """The first (inputs, equation_id, residual) of the pieces, in turn,
    whose residual is nonzero, or None if every one vanishes."""
    return next((case for piece in pieces for case in piece()
                 if not case[2].is_zero()), None)


def grid_plan(check_name: str, window: int, residual_source) -> tuple:
    """Plan the grid; pass iff the passing set is exactly the zero point.

    residual_source(params) gives a point's residuals as pieces (see
    post_lie_residuals).  Each nonzero point is one chunk, which stops at
    its first nonzero residual.  The zero point, which must sweep every
    case, is one chunk per piece at the head of the list; its witness is
    the first piece's, the first nonzero residual of the whole sweep."""
    points = grid_points()
    pieces = residual_source(points[0])

    def finish(found: list) -> Report:
        failures = []
        passing = []
        zero = next((w for w in found[:len(pieces)] if w is not None), None)
        for params, witness in zip(points, [zero] + found[len(pieces):]):
            if witness is None:
                passing.append(params)
                if not params.is_zero():
                    failures.append(Failure(f"({params.describe()})",
                                            "grid.unexpected_pass", "0"))
            elif params.is_zero():
                inputs, eq_id, residual = witness
                failures.append(residual_failure(
                    f"({params.describe()}) at {render_inputs(inputs)}",
                    f"grid.trivial_failed[{eq_id}]", residual))
        extra = {
            "grid_points": len(points),
            "passing_points": [p.describe() for p in passing],
        }
        return Report(check_name, window, "symbolic", len(points), failures,
                      extra)

    return ([partial(_first_failure, [piece]) for piece in pieces]
            + [lambda params=params: _first_failure(residual_source(params))
               for params in points[1:]], finish)


# ---------------------------------------------------------------------------
# converse certification: the axioms cut out exactly the family
# ---------------------------------------------------------------------------

UPSILON_SHIFTS = (-2, -1, 0, 1, 2)
_DECOY_SHIFTS = (-2, -1, 0, 1, 2)


def _candidate_generators() -> list:
    """A linearly independent spanning set of centerless bilinear shapes,
    strictly larger than the family, over which the axiom equations are
    solved."""
    gens = [("bracket", BRACKET_TABLES[CENTERLESS])]
    gens += [(f"upsilon[{s}]", _upsilon_generator(s)) for s in UPSILON_SHIFTS]
    # each decoy lives on the pairs whose tags its name starts with, as
    # scale times itself in ints
    decoys = (
        ("dd->d", 1, lambda m, n, s: Element({d(m + n + s): 1})),
        ("dd->(m-n)d", 1, lambda m, n, s: Element({d(m + n + s): m - n})),
        ("dd->(m-n)h", 1, lambda m, n, s: Element({h(m + n + s): m - n})),
        ("dh->h", 1, lambda m, n, s: Element({h(m + n + s): 1})),
        ("dh->-(n+1/2)h", 2,
         lambda m, n, s: Element({h(m + n + s): -(2 * n + 1)})),
        ("hd->h", 1, lambda m, n, s: Element({h(m + n + s): 1})),
        ("hh->d", 1, lambda m, n, s: Element({d(m + n + s): 1})),
        ("hh->h", 1, lambda m, n, s: Element({h(m + n + s): 1})),
    )
    for s in _DECOY_SHIFTS:
        gens += [(f"{name}[{s}]", scalar_table(
            tag_table(**{name[:2]: partial(fn, s=s)}), scale))
            for name, scale, fn in decoys]
    return gens


# the generators family_parts splits every member into
FAMILY_GENERATORS = ("bracket",) + tuple(f"upsilon[{s}]"
                                         for s in UPSILON_SHIFTS)


def check_bider_converse(window: int) -> Report:
    """Solve the (centerless) biderivation axioms exactly over the candidate
    space and certify that the solution set is exactly the family span.

    The axiom residual of a candidate sum_g u_g * g is linear in u, so every
    (triple, axiom, output vector) gives one linear equation.  Family
    generators satisfy the axioms identically, so their columns are zero in
    every row and the system's solution space always contains the family;
    the certificate is that the rank over the remaining columns is full,
    leaving nothing else.  The kernel's axiom cases come in order and every
    row goes to one RowReducer; unless a family residual was found, the
    sweep stops after the first triple at which the target rank is reached,
    at the first case of a later triple.  A column swept at a scale changes
    neither the rank nor the rows that raise it, so only the family
    columns are divided back.
    """
    gens = _candidate_generators()
    names = [name for name, _ in gens]
    tables, scales = _lanes([fn for _, fn in gens])
    family = {names.index(name) for name in FAMILY_GENERATORS}
    target = len(gens) - len(family)
    basis = basis_vectors(window, CENTERLESS)

    reducer = RowReducer()
    failures = []
    rows_used = 0
    last = None
    for inputs, _, per_gen in derivation_residuals(tables, _ints, basis,
                                                   basis):
        if inputs != last and reducer.rank >= target and not failures:
            break
        last = inputs
        # each generator's residual walked once: output vector ->
        # [(generator, coefficient)] in generator order
        by_vector: dict = {}
        for g, res in enumerate(per_gen):
            if g in family:
                res = scalar_element(res, scales[g])
            for w, coeff in res._terms.items():
                by_vector.setdefault(w, []).append((g, coeff))
        for w in sorted(by_vector, key=BasisVector.sort_key):
            row = {}
            for g, coeff in by_vector[w]:
                if g in family:
                    failures.append(Failure(
                        render_inputs(inputs), "converse.family_residual",
                        f"{names[g]}: {coeff.render()}"))
                else:
                    row[g] = coeff
            reducer.add_row(row)
        rows_used += len(by_vector)
    if reducer.rank < target:
        failures.append(Failure(
            f"window={window}", "converse.rank_deficit",
            f"rank {reducer.rank} < {target}: extra solutions beyond "
            "the family survive the window equations"))
    extra = {
        "generators": len(gens),
        "family_dimension": len(family),
        "target_rank": target,
        "rank": reducer.rank,
        "rows_used": rows_used,
    }
    return Report("bider-grid", window, "symbolic", rows_used, failures,
                  extra)


# canned family members exercised by the family check: finite Omega
# supports inside [-3, 3], mixed signs and a non-integer lambda
FAMILY_SAMPLES = (
    BiderParams(0, {}),
    BiderParams(1, {}),
    BiderParams(2, {1: sc(1)}),
    BiderParams(Fraction(1, 2), {-3: sc(2), 3: sc(-1)}),
    BiderParams(-2, {0: sc(1), 2: sc(-3)}),
)


def _central_residuals(params: BiderParams, basis: list):
    f = family_table(params)
    for central in (C, L):
        for u in basis:
            yield (central, u, "left"), "bider.central", f(central, u)
            yield (central, u, "right"), "bider.central", f(u, central)


def _family_sweep(members: list, lanes: tuple, window: int,
                  x: BasisVector) -> Report:
    """Every member's centerless axiom cases on the basis triples with
    first vector x.  members holds (label, [(weight, index into lanes)]).
    Each axiom case is one case per member; it takes each table's residual
    once, and only where one is nonzero is each member's residual formed,
    as its weighted sum of them divided back."""
    tables, scales = lanes
    failures = []
    cases = 0
    basis = basis_vectors(window, CENTERLESS)
    eq_ids = {axiom: f"bider.{axiom}" for axiom in ("left", "right")}
    items = Swept(derivation_residuals(tables, _ints, [x], basis))
    for inputs, axiom, per_table in items:
        cases += len(members)
        per_table = [scalar_element(res, scale)
                     for res, scale in zip(per_table, scales)]
        for label, weights in members:
            acc: dict = {}
            for weight, i in weights:
                _add_scaled(acc, per_table[i], weight)
            if acc:
                failures.append(residual_failure(
                    f"{label} {render_inputs(inputs)}", eq_ids[axiom],
                    Element(acc, _clean=True)))
    cases += len(members) * items.zeros
    return Report("bider-family", window, "symbolic", cases, failures)


def family_plan(window: int) -> tuple:
    """The plan of bider-family: the canned members' centerless axioms,
    checked by linearity over their distinct generator tables
    (family_parts), one chunk per first centerless basis vector; and the
    central annihilation of both arguments in the full algebra, collected
    per member's table as the plan is made.  A failure's label leads with
    its member's params."""
    index: dict = {}
    members = [(f"params=({params.describe()})",
                [(weight, index.setdefault(table, len(index)))
                 for weight, table in family_parts(params, CENTERLESS)])
               for params in FAMILY_SAMPLES]
    basis = basis_vectors(window, FULL)
    central = [prefixed(label, collect("bider-family", window, "symbolic",
                                       _central_residuals(params, basis)))
               for (label, _), params in zip(members, FAMILY_SAMPLES)]
    return ([partial(_family_sweep, members, _lanes(list(index)), window, x)
             for x in basis_vectors(window, CENTERLESS)],
            lambda sweeps: pooled("bider-family", window, central + sweeps))
