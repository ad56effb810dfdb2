"""Per-layer figures: profile self time and call counts per mhv module,
and the hit counts of mhv's memo tables.

A layer is a module of the package, plus the standard-library
``fractions`` module that ``scalars`` is built on.  cProfile's entries are
assigned to the module whose file defines the function; built-in
functions and methods go to ``builtins``, everything else to ``other``.
"""

from __future__ import annotations

import fractions
import os
import pstats

FRACTIONS_FILE = os.path.abspath(fractions.__file__)

LAYERS = ("fractions", "scalars", "algebra", "lsa", "biderivations",
          "coeffs", "linalg", "reports", "expressions", "suite")

# metric -> (module, function names) whose call counts are summed
CALLS = {
    "fractions.calls": ("fractions", None),
    "scalars.scalar_init_calls": ("scalars", ("__init__",)),
    "scalars.canonicalize_calls": ("scalars", ("_canonicalize",)),
    "scalars.pgcd_calls": ("scalars", ("pgcd",)),
    "algebra.bracket_calls": ("algebra", ("bracket",)),
    "algebra.element_add_calls": ("algebra", ("__add__",)),
    "lsa.product_calls": ("lsa", ("lsa_product",)),
    "linalg.add_row_calls": ("linalg", ("add_row",)),
    "expressions.parse_calls": ("expressions",
                                ("parse_element", "parse_scalar")),
}

# metric -> (module, function) whose cumulative time is reported
CUMULATIVE = {
    "biderivations.check_family_s": ("biderivations", "check_family"),
    "coeffs.cross_check_s": ("coeffs", "cross_check"),
    "reports.evaluated_at_s": ("reports", "evaluated_at"),
    "reports.to_json_s": ("reports", "to_json"),
}

# metric stem -> (module, memo table) read through functools' cache_info
MEMO_TABLES = {
    "algebra.basis_bracket": ("algebra", "_basis_bracket"),
    "lsa.basis_product": ("lsa", "_basis_product_symbolic"),
    "lsa.dd_coeff": ("lsa", "dd_coeff"),
}


def module_of(filename: str, package_dir: str) -> str:
    if filename == "~":
        return "builtins"
    path = os.path.abspath(filename)
    if os.path.dirname(path) == package_dir:
        return os.path.splitext(os.path.basename(path))[0]
    if path == FRACTIONS_FILE:
        return "fractions"
    return "other"


def profile_figures(profile, package_dir: str) -> tuple:
    """(per-layer metrics, table of self time and calls per module) from a
    finished cProfile.Profile."""
    stats = pstats.Stats(profile).stats
    self_s: dict = {}
    calls: dict = {}
    by_function: dict = {}
    for (filename, _, function), (_, ncalls, tottime, cumtime, _) \
            in stats.items():
        module = module_of(filename, package_dir)
        self_s[module] = self_s.get(module, 0.0) + tottime
        calls[module] = calls.get(module, 0) + ncalls
        key = (module, function)
        prev_calls, prev_cum = by_function.get(key, (0, 0.0))
        by_function[key] = (prev_calls + ncalls, max(prev_cum, cumtime))

    metrics = {f"{layer}.self_s": self_s.get(layer, 0.0) for layer in LAYERS}
    for name, (module, functions) in CALLS.items():
        if functions is None:
            metrics[name] = calls.get(module, 0)
        else:
            metrics[name] = sum(by_function.get((module, f), (0, 0.0))[0]
                                for f in functions)
    for name, key in CUMULATIVE.items():
        metrics[name] = by_function.get(key, (0, 0.0))[1]
    table = {module: {"self_s": self_s[module], "calls": calls[module]}
             for module in sorted(self_s)}
    return metrics, table


def memo_figures(package) -> dict:
    """Misses and hit ratio of each memo table; 0 where a table is absent."""
    out = {}
    for stem, (module, name) in MEMO_TABLES.items():
        table = getattr(getattr(package, module, None), name, None)
        info = getattr(table, "cache_info", None)
        hits, misses = (info().hits, info().misses) if info else (0, 0)
        out[f"{stem}.misses"] = misses
        out[f"{stem}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0
    return out
