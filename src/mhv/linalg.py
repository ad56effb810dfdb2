"""Exact linear algebra over the rationals: incremental row reduction for
rank certificates and a small dense solver for square-ish systems.

Rows are sparse dicts {column: int or Fraction}, exact over Q either way;
any other entry, a float or a bool above all, raises TypeError.  The
RowReducer eliminates fraction-free on rows scaled to ints: pivot rows
are primitive, and a row being reduced has its content (the gcd of its
entries) taken out after each step that scaled it, when it is the
primitive int multiple of the row elimination over Q would give.  Feeding it rows one at a time gives the rank of
everything seen so far, which lets sweeps stop early once a target rank
is certified.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


class InconsistentSystemError(ValueError):
    """An augmented system has no solution."""


class UnderdeterminedSystemError(ValueError):
    """The solution exists but is not unique (rank < unknowns)."""


class RowReducer:
    """Incremental fraction-free Gaussian elimination with sparse rows."""

    def __init__(self):
        self.pivots: dict = {}   # pivot column -> primitive int row, lead > 0

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, row: dict) -> dict:
        """Row, scaled to ints, reduced against the pivots (input not
        mutated); a bool, or an entry not an int or a Fraction, raises."""
        if any(isinstance(v, bool) or not isinstance(v, (int, Fraction))
               for v in row.values()):
            raise TypeError(f"row entries must be ints or Fractions: {row}")
        scale = lcm(*(v.denominator for v in row.values()))
        row = {c: v.numerator * (scale // v.denominator)
               for c, v in row.items() if v != 0}
        while row:
            lead = min(row)
            pivot = self.pivots.get(lead)
            if pivot is None:
                return row
            # row * (p/g) - pivot * (a/g) clears the lead a against p
            g = gcd(pivot[lead], row[lead])
            p, a = pivot[lead] // g, row[lead] // g
            if p != 1:
                row = {c: p * v for c, v in row.items()}
            for c, v in pivot.items():
                newv = row.get(c, 0) - a * v
                if newv == 0:
                    row.pop(c, None)
                else:
                    row[c] = newv
            if p != 1 and row:
                g = gcd(*row.values())
                if g != 1:
                    row = {c: v // g for c, v in row.items()}
        return row

    def add_row(self, row: dict) -> bool:
        """Insert a row; True if it increased the rank."""
        reduced = self.reduce(row)
        if not reduced:
            return False
        lead = min(reduced)
        g = gcd(*reduced.values()) * (1 if reduced[lead] > 0 else -1)
        self.pivots[lead] = {c: v // g for c, v in reduced.items()}
        return True

    def in_row_space(self, row: dict) -> bool:
        return not self.reduce(row)


def solve_unique(rows: list, rhs: list, n_unknowns: int) -> list:
    """Solve rows * x = rhs exactly; requires a unique solution.

    Raises InconsistentSystemError or UnderdeterminedSystemError otherwise.
    Returns the solution as a list of Fractions of length n_unknowns.
    """
    reducer = RowReducer()
    aug_col = n_unknowns  # augmented column sorts after all unknowns
    for row, b in zip(rows, rhs):
        full = dict(row)
        if b != 0:
            full[aug_col] = b
        reduced = reducer.reduce(full)
        if reduced and min(reduced) == aug_col:
            raise InconsistentSystemError("no solution: 0 = nonzero")
        reducer.add_row(reduced)
    if len(reducer.pivots) < n_unknowns:
        raise UnderdeterminedSystemError(
            f"rank {len(reducer.pivots)} < {n_unknowns} unknowns")
    # back-substitute: eliminate every pivot column from the other rows
    solution = [Fraction(0)] * n_unknowns
    for col in sorted(reducer.pivots, reverse=True):
        row = reducer.pivots[col]
        value = Fraction(row.get(aug_col, 0))
        for c, v in row.items():
            if c != col and c != aug_col:
                value -= v * solution[c]
        solution[col] = value / row[col]  # the lead, an int
    return solution
