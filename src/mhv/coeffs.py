"""Coefficient functions of the graded product ansatz and their
functional-equation systems.

The ansatz assigns seven coefficient functions to the graded product:

    d_m d_n           = f(m,n) d_{m+n} + omega(m,n) C
    d_m h_{n+1/2}     = g(m,n) h_{m+n+1/2}
    h_{m+1/2} d_n     = h(m,n) h_{m+n+1/2}
    h_{m+1/2} h_{n+1/2} = a(m,n) d_{m+n} + b(m,n) h_{m+n+1/2} + rho(m,n) L

Two equation systems govern these functions: thirteen centerless
equations ("star.1" .. "star.13") and seven central ones ("ast.1" ..
"ast.7").  star_residuals / ast_residuals evaluate the transcribed
equations verbatim, with one unavoidable repair: the star.10
transcription arrives with an unbindable index (a coefficient
"a(a, m+k)") and is completed with the index the identity expansion
dictates.  Each joins a pair part (star.1-4, ast.1-2, which read only
m and n), which a sweep takes once per (m, n), and a triple part.

CoeffFns.product is the product of the ansatz as a table on basis pairs,
memoized for the life of its CoeffFns; on closed_form_fns() it is the
symbolic product of the lsa module.  closed_form_fns(eps) is the closed
form with e = eps substituted, a new CoeffFns over Q for each call, which
star, ast and cross-check take in a numeric run.
CoeffFns.pair_relations, the oracle's compatibility components of an
index pair, follows the same memo rule: it lives and dies with its
CoeffFns.
associator_defect and commutator_defect are the two residuals of a
product table on basis vectors, as term dicts: the left-symmetric
identity's defect, antisymmetric in its first two vectors, and the
commutator minus the bracket.  The lsa-identity and compatibility sweeps
run them on the closed form, and the oracle on any CoeffFns.

residuals_from_identity is the independent oracle: it builds the product
from the ansatz, expands the left-symmetric identity on the six basis
triple types and commutator compatibility on the three pair types, and
returns raw component residuals.  derived_counterparts rearranges those
raw components into the transcription's shapes (substituting the pair
relations the same way the equations themselves are arranged), giving a
per-equation reference value to compare against the transcription.
cross_check_plan plans the comparison on the closed-form solution and
on seeded random coefficient tables, each by unordered index pair so that
a defect's swapped twin is negated, not recomputed; it is expected to
expose exactly one transcription error at runtime (star.12, whose second
term repeats b(m,k) where the expansion yields b(n,k)) and documents two
more transcription findings (the star.10 index repair, and ast.4, which
circulates in two argument-naming conventions that are pointwise
different instances of the same equation family).

solve_theta recovers the one-parameter l-coefficient table from its two
constraint families as an exact linear system with a rank certificate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, lru_cache, partial
from operator import itemgetter
from typing import Callable

from .algebra import (BRACKET_TABLES, FULL, C, Element, L, accumulate_left,
                      accumulate_right, d, h, tag_table)
from .linalg import solve_unique
from .reports import Failure, Report
from .scalars import (EPS, MINUS_ONE, ONE, ZERO, Scalar, nonzero_eps,
                      pole_error, sc)


@dataclass(frozen=True)
class CoeffFns:
    """The seven coefficient functions, memoized and total."""

    f: Callable[[int, int], Scalar]
    g: Callable[[int, int], Scalar]
    h: Callable[[int, int], Scalar]
    a: Callable[[int, int], Scalar]
    b: Callable[[int, int], Scalar]
    omega: Callable[[int, int], Scalar]
    rho: Callable[[int, int], Scalar]
    name: str = "fns"
    FIELDS = ("f", "g", "h", "a", "b", "omega", "rho")  # not a dataclass field

    @staticmethod
    def make(f, g, h, a, b, omega, rho, name="fns") -> "CoeffFns":
        return CoeffFns(cache(f), cache(g), cache(h), cache(a), cache(b),
                        cache(omega), cache(rho), name)

    def replace(self, name=None, **overrides) -> "CoeffFns":
        fields = {k: getattr(self, k) for k in self.FIELDS}
        for k, fn in overrides.items():
            fields[k] = cache(fn)
        return CoeffFns(name=name or self.name + "*", **fields)

    @cached_property
    def product(self):
        """The graded product of the ansatz as a table on basis pairs,
        memoized per pair for the life of this CoeffFns."""
        return lru_cache(maxsize=None)(tag_table(
            dd=lambda m, n: Element.of((self.f(m, n), d(m + n)),
                                       (self.omega(m, n), C)),
            dh=lambda m, n: Element.of((self.g(m, n), h(m + n))),
            hd=lambda m, n: Element.of((self.h(m, n), h(m + n))),
            hh=lambda m, n: Element.of((self.a(m, n), d(m + n)),
                                       (self.b(m, n), h(m + n)),
                                       (self.rho(m, n), L))))

    @cached_property
    def pair_relations(self):
        """compat_residuals of a pair (m, n) as a dict by component id,
        memoized per pair for the life of this CoeffFns, like product."""
        return lru_cache(maxsize=None)(
            lambda m, n: dict(compat_residuals(self, m, n)))


def _half(n: int) -> Scalar:
    return sc(Fraction(2 * n + 1, 2))


def closed_form_fns(eps: Fraction | None = None) -> CoeffFns:
    """The closed-form solution of both equation systems: the product table
    of the lsa module docstring, with e = eps substituted when eps, a
    nonzero rational (0 raises ZeroEpsilonError), is given, so that its
    values are rationals.  closed_form_fns() is one shared instance, so
    every symbolic check fills one product memo; each call with eps makes
    a new instance, whose memos die with it."""
    return _CLOSED_FORM if eps is None else _closed_form(sc(nonzero_eps(eps)))


def _closed_form(e: Scalar) -> CoeffFns:
    """The closed form at e, a Scalar: EPS, or a nonzero rational."""
    e_inv = ONE / e

    def f(m: int, n: int) -> Scalar:
        # -n(1+e*n)/(1+e*(m+n)) cancels at m = 0 or n = 0, even at a pole
        if m == 0 or n == 0:
            return sc(-n) if m == 0 else ZERO
        den = ONE + sc(m + n) * e
        if den.is_zero():
            raise pole_error(m + n, e, [(m, n)])
        return sc(-n) * (ONE + sc(n) * e) / den

    def g(m: int, n: int) -> Scalar:
        return -_half(n)

    def zero(m: int, n: int) -> Scalar:
        return ZERO

    def omega(m: int, n: int) -> Scalar:
        if m + n != 0:
            return ZERO
        return (sc(m**3 - m) + (e - e_inv) * sc(m * m)) * sc(Fraction(1, 24))

    def rho(m: int, n: int) -> Scalar:
        if m + n + 1 != 0:
            return ZERO
        return sc(Fraction(1, 2)) * _half(m)

    return CoeffFns.make(f, g, zero, zero, zero, omega, rho, "closed-form")


_CLOSED_FORM = _closed_form(EPS)


def zero_fns() -> CoeffFns:
    def zero(m: int, n: int) -> Scalar:
        return ZERO
    return CoeffFns.make(zero, zero, zero, zero, zero, zero, zero, "zero")


def random_fns(seed: int) -> CoeffFns:
    """Unstructured tables of values p/q with |p| <= 6 and 1 <= q <= 4,
    each value a function of its key alone: fn(m, n) comes from
    random.Random(f"{seed}:{fn}:{m}:{n}")."""
    def draw(fn: str, m: int, n: int) -> Scalar:
        rng = random.Random(f"{seed}:{fn}:{m}:{n}")
        return sc(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))

    return CoeffFns.make(*(partial(draw, fn) for fn in CoeffFns.FIELDS),
                         name=f"random(seed={seed})")


def _delta(i: int, j: int) -> Scalar:
    return ONE if i == j else ZERO


# ---------------------------------------------------------------------------
# transcribed equation systems
# ---------------------------------------------------------------------------

def star_pair_residuals(fns: CoeffFns, m: int, n: int) -> list:
    """star.1 .. star.4, which involve only (m, n)."""
    f, g, hh, a, b = fns.f, fns.g, fns.h, fns.a, fns.b
    return [
        ("star.1", f(m, n) - f(n, m) - sc(m - n)),
        ("star.2", g(m, n) - hh(n, m) + _half(n)),
        ("star.3", a(m, n) - a(n, m)),
        ("star.4", b(m, n) - b(n, m)),
    ]


def star_triple_residuals(fns: CoeffFns, m: int, n: int, k: int) -> list:
    """star.5 .. star.13.  star.10 carries the index repair described in
    the module docstring; star.12 is evaluated verbatim."""
    f, g, hh, a, b = fns.f, fns.g, fns.h, fns.a, fns.b
    return [
        ("star.5", f(m, k) * f(n, m + k) - f(n, k) * f(m, n + k)
         - sc(n - m) * f(m + n, k)),
        ("star.6", g(m, k) * g(n, m + k) - g(n, k) * g(m, n + k)
         - sc(n - m) * g(m + n, k)),
        ("star.7", hh(m, k) * g(n, m + k) - f(n, k) * hh(m, n + k)
         + _half(m) * hh(m + n, k)),
        ("star.8", a(m, k) * f(n, m + k) - g(n, k) * a(m, n + k)
         + _half(m) * a(m + n, k)),
        ("star.9", b(m, k) * g(n, m + k) - g(n, k) * b(m, n + k)
         + _half(m) * b(m + n, k)),
        ("star.10", hh(m, k) * a(n, m + k) - hh(n, k) * a(m, n + k)),
        ("star.11", hh(m, k) * b(n, m + k) - hh(n, k) * b(m, n + k)),
        ("star.12", b(m, k) * a(n, m + k) - b(m, k) * a(m, n + k)),
        ("star.13", a(m, k) * hh(n, m + k) + b(m, k) * b(n, m + k)
         - a(n, k) * hh(m, n + k) - b(n, k) * b(m, n + k)),
    ]


def star_residuals(fns: CoeffFns, m: int, n: int, k: int) -> list:
    """The thirteen centerless equations as (id, LHS - RHS) pairs."""
    return star_pair_residuals(fns, m, n) \
        + star_triple_residuals(fns, m, n, k)


def ast_pair_residuals(fns: CoeffFns, m: int, n: int) -> list:
    """ast.1 and ast.2, which involve only (m, n)."""
    omega, rho = fns.omega, fns.rho
    return [
        ("ast.1", omega(m, n) - omega(n, m)
         - sc(Fraction(m**3 - m, 12)) * _delta(m + n, 0)),
        ("ast.2", rho(m, n) - rho(n, m) - _half(m) * _delta(m + n + 1, 0)),
    ]


def ast_triple_residuals(fns: CoeffFns, m: int, n: int, k: int) -> list:
    """ast.3 .. ast.7."""
    f, g, hh, a, b = fns.f, fns.g, fns.h, fns.a, fns.b
    omega, rho = fns.omega, fns.rho
    return [
        ("ast.3", f(n, k) * omega(m, n + k) - f(m, k) * omega(n, m + k)
         - sc(m - n) * omega(m + n, k)),
        ("ast.4", g(m, k) * rho(n, m + k) - _half(n) * rho(m + n, k)),
        ("ast.5", a(m, k) * omega(n, m + k)),
        ("ast.6", hh(n, k) * rho(m, n + k) - hh(m, k) * rho(n, m + k)),
        ("ast.7", b(m, k) * rho(n, m + k) - b(n, k) * rho(m, n + k)),
    ]


def ast_residuals(fns: CoeffFns, m: int, n: int, k: int) -> list:
    """The seven central equations as (id, LHS - RHS) pairs."""
    return ast_pair_residuals(fns, m, n) + ast_triple_residuals(fns, m, n, k)


def ast4_swapped_form(fns: CoeffFns, m: int, n: int, k: int) -> Scalar:
    """The variant of ast.4 with the two free indices named the other way
    around: g(n,k) rho(m,n+k) - (m+1/2) rho(m+n,k)."""
    return fns.g(n, k) * fns.rho(m, n + k) - _half(m) * fns.rho(m + n, k)


# ---------------------------------------------------------------------------
# the identity-derived oracle
# ---------------------------------------------------------------------------

def associator_defect(mul, x, y, z) -> dict:
    """((x*y)*z - x*(y*z)) - ((y*x)*z - y*(x*z)) for a product mul given as
    a table on basis pairs and basis vectors x, y, z; empty iff the triple
    satisfies the left-symmetric identity.  By this formula it is exactly
    antisymmetric in x and y, for any mul."""
    acc: dict = {}
    accumulate_left(acc, ONE, mul, mul(x, y), z)
    accumulate_right(acc, MINUS_ONE, mul, x, mul(y, z))
    accumulate_left(acc, MINUS_ONE, mul, mul(y, x), z)
    accumulate_right(acc, ONE, mul, y, mul(x, z))
    return acc


def commutator_defect(mul, x, y) -> dict:
    """x*y - y*x - [x, y] for a product mul given as a table on basis pairs
    and basis vectors x, y; empty iff the commutator gives the bracket."""
    return (mul(x, y) - mul(y, x) - BRACKET_TABLES[FULL](x, y))._terms


def raw_defect_components(fns: CoeffFns, ttype: str, m: int, n: int,
                          k: int) -> dict:
    """Component residuals of the left-symmetric identity for the basis
    triple of type ttype at indices (m, n, k): coefficient of d(m+n+k),
    h(m+n+k), C and L in ((xy)z - x(yz)) - ((yx)z - y(xz))."""
    defect = associator_defect(fns.product, *[
        (d if tag == "d" else h)(i) for tag, i in zip(ttype, (m, n, k))])
    s = m + n + k
    return {"d": defect.get(d(s), ZERO), "h": defect.get(h(s), ZERO),
            "c": defect.get(C, ZERO), "l": defect.get(L, ZERO)}


def compat_residuals(fns: CoeffFns, m: int, n: int) -> list:
    """Commutator-minus-bracket components for the three pair types."""
    mul = fns.product
    out = []
    r = commutator_defect(mul, d(m), d(n))
    out.append(("compat.dd.d", r.get(d(m + n), ZERO)))
    out.append(("compat.dd.c", r.get(C, ZERO)))
    r = commutator_defect(mul, d(m), h(n))
    out.append(("compat.dh.h", r.get(h(m + n), ZERO)))
    r = commutator_defect(mul, h(m), h(n))
    out.append(("compat.hh.d", r.get(d(m + n), ZERO)))
    out.append(("compat.hh.h", r.get(h(m + n), ZERO)))
    out.append(("compat.hh.l", r.get(L, ZERO)))
    return out


_TYPE_COMPONENTS = {
    "ddd": ("d", "c"),
    "ddh": ("h",),
    "dhd": ("h",),
    "dhh": ("d", "h", "c", "l"),
    "hhd": ("d", "h", "c", "l"),
    "hhh": ("d", "h", "l"),
}


def residuals_from_identity(fns: CoeffFns, m: int, n: int, k: int) -> list:
    """The independent oracle: raw identity components for all six triple
    types at (m, n, k) plus the pair compatibility components at (m, n)."""
    out = []
    for ttype, comps in _TYPE_COMPONENTS.items():
        components = raw_defect_components(fns, ttype, m, n, k)
        for comp in comps:
            out.append((f"identity.{ttype}.{comp}", components[comp]))
    out.extend(compat_residuals(fns, m, n))
    return out


# ---------------------------------------------------------------------------
# transcription shapes rebuilt from the oracle
# ---------------------------------------------------------------------------

def derived_counterparts(fns: CoeffFns, m: int, n: int, k: int,
                         raw=None) -> dict:
    """For every transcribed equation, the combination that produces its
    shape, built from the raw oracle components: the raw defect of the
    instantiating triple with the pair relations substituted out.
    Agreement of these values with star_residuals/ast_residuals is exactly
    correctness of the transcription.  raw(ttype, m, n, k) gives the raw
    components, raw_defect_components of fns unless given."""
    f, g, hh, a, b = fns.f, fns.g, fns.h, fns.a, fns.b
    omega, rho = fns.omega, fns.rho
    raw = raw or partial(raw_defect_components, fns)

    # the pair relations (star.1-4, ast.1-2 in the transcription's
    # orientation) are the oracle's compatibility components
    pair = fns.pair_relations

    def relation(component):
        return lambda mm, nn: pair(mm, nn)[f"compat.{component}"]

    eq1r, eq2r, eq3r, eq4r, ast1r, ast2r = map(
        relation, ("dd.d", "dh.h", "hh.d", "hh.h", "dd.c", "hh.l"))

    ddd = raw("ddd", m, n, k)
    ddh = raw("ddh", m, n, k)
    dhd_s = raw("dhd", n, m, k)    # triple (d_n, h_{m+1/2}, d_k)
    dhh = raw("dhh", m, n, k)      # triple (d_m, h_{n+1/2}, h_{k+1/2})
    dhh_s = raw("dhh", n, m, k)    # triple (d_n, h_{m+1/2}, h_{k+1/2})
    hhd_s = raw("hhd", n, m, k)    # triple (h_{n+1/2}, h_{m+1/2}, d_k)
    hhh_s = raw("hhh", n, m, k)    # triple (h_{n+1/2}, h_{m+1/2}, h_{k+1/2})

    return {
        "star.1": eq1r(m, n),
        "star.2": eq2r(m, n),
        "star.3": eq3r(m, n),
        "star.4": eq4r(m, n),
        "star.5": ddd["d"] - eq1r(m, n) * f(m + n, k),
        "star.6": ddh["h"] - eq1r(m, n) * g(m + n, k),
        "star.7": eq2r(n, m) * hh(m + n, k) - dhd_s["h"],
        "star.8": eq2r(n, m) * a(m + n, k) - dhh_s["d"],
        "star.9": eq2r(n, m) * b(m + n, k) - dhh_s["h"],
        "star.10": eq3r(n, m) * f(m + n, k) - hhd_s["d"],
        "star.11": eq4r(n, m) * hh(m + n, k) - hhd_s["h"],
        "star.12": eq4r(n, m) * a(m + n, k) - hhh_s["d"],
        "star.13": eq3r(n, m) * g(m + n, k) + eq4r(n, m) * b(m + n, k)
        - hhh_s["h"],
        "ast.1": ast1r(m, n),
        "ast.2": ast2r(m, n),
        "ast.3": eq1r(m, n) * omega(m + n, k) - ddd["c"],
        "ast.4": dhh["l"] - eq2r(m, n) * rho(m + n, k),
        "ast.5": -dhh_s["c"],
        "ast.6": hhd_s["l"],
        "ast.7": eq4r(n, m) * rho(m + n, k) - hhh_s["l"],
    }


# of the three documented transcription findings (star.10, star.12 and
# ast.4), star.12 is the only one expected to disagree at runtime
RUNTIME_DISCREPANCIES = ("star.12",)

# cross-check's random tables: their seeds, and the window they run on
SAMPLE_SEEDS = (1, 2)
SAMPLE_WINDOW = 2

LOGGED_WITNESSES = 3  # witnesses logged per documented discrepancy


def _pair_defect(fns: CoeffFns, known: dict, ttype: str, m: int, n: int,
                 k: int) -> dict:
    """raw_defect_components of fns, remembered in known; a type whose
    first two vectors share a tag takes minus its known twin (n, m, k)."""
    if (ttype, m, n, k) not in known:
        twin = ttype[0] == ttype[1] and known.get((ttype, n, m, k))
        known[ttype, m, n, k] = {c: -v for c, v in twin.items()} if twin \
            else raw_defect_components(fns, ttype, m, n, k)
    return known[ttype, m, n, k]


def _compare(fns: CoeffFns, w: int, groups) -> tuple:
    """One chunk of cross-check over the tuples (m, n, k), k in [-w, w],
    with (m, n) in groups, lists of index pairs that share one memo of
    _pair_defect: (cases, failures, witnesses), where witnesses maps each
    runtime discrepancy to its first LOGGED_WITNESSES ((m, n, k), fns
    name, transcribed, derived) in (m, n, k) order.  Each (m, n) takes its
    pair parts once, for every k."""
    failures = []
    cases = 0
    found: dict = {eq_id: [] for eq_id in RUNTIME_DISCREPANCIES}
    for group in groups:
        raw = partial(_pair_defect, fns, {})
        for m, n in group:
            star_pair = star_pair_residuals(fns, m, n)
            ast_pair = ast_pair_residuals(fns, m, n)
            for k in range(-w, w + 1):
                transcribed = dict(
                    star_pair + star_triple_residuals(fns, m, n, k)
                    + ast_pair + ast_triple_residuals(fns, m, n, k))
                derived = derived_counterparts(fns, m, n, k, raw)
                for eq_id, t_value in transcribed.items():
                    cases += 1
                    d_value = derived[eq_id]
                    if t_value == d_value:
                        continue
                    if eq_id in found:
                        found[eq_id].append(
                            ((m, n, k), fns.name, t_value, d_value))
                    else:
                        failures.append(Failure(
                            f"{fns.name} ({m}, {n}, {k})",
                            f"cross.{eq_id}",
                            f"transcribed {t_value.render()} != "
                            f"derived {d_value.render()}"))
    return cases, failures, {
        eq_id: sorted(entries, key=itemgetter(0))[:LOGGED_WITNESSES]
        for eq_id, entries in found.items()}


def cross_check_plan(window: int, eps) -> tuple:
    """The plan of cross-check under the e-mode eps, an lsa.EpsMode: each
    transcribed residual against its oracle-derived counterpart, on the
    closed form of eps over the window and on each seeded random table
    over SAMPLE_WINDOW.  A table over window w goes by unordered pairs
    {m, n}, m <= n, chunk i taking m = i - w and w - i, so (m, n, k) and
    (n, m, k) share a chunk.  Disagreement except the documented star.12
    fails."""
    tables = [(closed_form_fns(eps.eps), window)] + [
        (random_fns(seed), SAMPLE_WINDOW) for seed in SAMPLE_SEEDS]
    chunks = [partial(_compare, fns, w, [
        sorted({(m, n), (n, m)}) for m in sorted({i - w, w - i})
        for n in range(m, w + 1)]) for fns, w in tables for i in range(w + 1)]
    return chunks, partial(_cross_check_report, window,
                           [fns.name for fns, _ in tables])


def _cross_check_report(window: int, names: list, parts: list) -> Report:
    """cross-check's Report from its chunks' (cases, failures, witnesses),
    with names the plan's tables in order: it logs the first
    LOGGED_WITNESSES of star.12 by table in that order, each table's in
    (m, n, k) order."""
    found = sorted((names.index(name), key, name, tv, dv)
                   for _, _, witnesses in parts
                   for key, name, tv, dv in witnesses.get("star.12", ()))
    logged = [{"fns": name, "tuple": "({}, {}, {})".format(*key),
               "transcribed": tv.render(), "derived": dv.render()}
              for _, key, name, tv, dv in found[:LOGGED_WITNESSES]]
    ast4_witness = []
    probe = random_fns(SAMPLE_SEEDS[0])
    for (m, n, k) in ((0, 1, 0), (1, 2, -1), (0, 2, 1)):
        primary = dict(ast_residuals(probe, m, n, k))["ast.4"]
        swapped = ast4_swapped_form(probe, m, n, k)
        if primary != swapped:
            ast4_witness.append({
                "fns": probe.name,
                "tuple": f"({m}, {n}, {k})",
                "primary_form": primary.render(),
                "swapped_form": swapped.render(),
            })
    documented = [{
        "id": "star.10",
        "note": "arrives with an unbindable index; completed with the "
                "index the identity expansion dictates, so transcription "
                "and oracle agree by construction",
        "witnesses": [],
    }, {
        "id": "star.12",
        "note": "transcribed second term repeats b(m,k); the identity "
                "expansion yields b(n,k)",
        "witnesses": logged,
    }, {
        "id": "ast.4",
        "note": "circulates in two argument-naming conventions; the two "
                "forms are pointwise different instances of the same "
                "equation family and the oracle matches the primary form",
        "witnesses": ast4_witness[:LOGGED_WITNESSES],
    }]
    return Report("cross-check", window, "symbolic",
                  sum(part[0] for part in parts),
                  [f for part in parts for f in part[1]],
                  {"documented_discrepancies": documented})


# ---------------------------------------------------------------------------
# the theta linear system
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThetaTable:
    """Solved l-coefficient profile theta with its rank certificate."""

    window: int
    values: dict            # n -> Fraction
    unknowns: int
    rank: int
    equations: int


def theta_equations(window: int) -> tuple:
    """Rows and right-hand sides of the two constraint families restricted
    to the window: (m+n+1/2) theta(n) = (n+1/2) theta(m+n) and
    theta(-1-m) - theta(m) = -(m+1/2)."""
    def col(n: int) -> int:
        return n + window

    rows, rhs = [], []
    rng = range(-window, window + 1)
    for m in rng:
        for n in rng:
            if not -window <= m + n <= window:
                continue
            row = {}
            coeff_n = Fraction(2 * (m + n) + 1, 2)
            row[col(n)] = row.get(col(n), Fraction(0)) + coeff_n
            coeff_mn = Fraction(2 * n + 1, 2)
            row[col(m + n)] = row.get(col(m + n), Fraction(0)) - coeff_mn
            rows.append({c: v for c, v in row.items() if v != 0})
            rhs.append(Fraction(0))
    for m in rng:
        if not -window <= -1 - m <= window:
            continue
        row = {col(-1 - m): Fraction(1)}
        row[col(m)] = row.get(col(m), Fraction(0)) - Fraction(1)
        rows.append({c: v for c, v in row.items() if v != 0})
        rhs.append(Fraction(-(2 * m + 1), 2))
    return rows, rhs


def solve_theta(window: int) -> ThetaTable:
    """Solve the theta constraints exactly; unique solution certified by
    rank = number of unknowns.  Raises InconsistentSystemError or
    UnderdeterminedSystemError if the window system were defective."""
    if window < 2:
        raise ValueError("window must be at least 2")
    rows, rhs = theta_equations(window)
    unknowns = 2 * window + 1
    solution = solve_unique(rows, rhs, unknowns)
    values = {n: solution[n + window] for n in range(-window, window + 1)}
    return ThetaTable(window, values, unknowns, unknowns, len(rows))
