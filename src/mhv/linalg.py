"""Exact linear algebra over the rationals: incremental row reduction for
rank certificates and a small dense solver for square-ish systems.

Rows are sparse dicts {column: int or Fraction}, exact over Q either way;
any other entry, a float or a bool above all, raises TypeError.  The
RowReducer keeps a set of reduced pivot rows; feeding it rows one at a
time gives the rank of everything seen so far, which lets sweeps stop
early once a target rank is certified.
"""

from __future__ import annotations

from fractions import Fraction


class InconsistentSystemError(ValueError):
    """An augmented system has no solution."""


class UnderdeterminedSystemError(ValueError):
    """The solution exists but is not unique (rank < unknowns)."""


class RowReducer:
    """Incremental Gaussian elimination over Q with sparse rows."""

    def __init__(self):
        self.pivots: dict = {}   # pivot column -> reduced row (lead coeff 1)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, row: dict) -> dict:
        """Row reduced against the current pivots (input not mutated); a
        bool, or any entry not an int or a Fraction, raises TypeError."""
        if any(isinstance(v, bool) or not isinstance(v, (int, Fraction))
               for v in row.values()):
            raise TypeError(f"row entries must be ints or Fractions: {row}")
        row = {c: v for c, v in row.items() if v != 0}
        while row:
            lead = min(row)
            pivot = self.pivots.get(lead)
            if pivot is None:
                return row
            factor = row[lead]
            for c, v in pivot.items():
                newv = row.get(c, 0) - factor * v
                if newv == 0:
                    row.pop(c, None)
                else:
                    row[c] = newv
        return row

    def add_row(self, row: dict) -> bool:
        """Insert a row; True if it increased the rank."""
        reduced = self.reduce(row)
        if not reduced:
            return False
        lead = min(reduced)
        inv = 1 / Fraction(reduced[lead])
        self.pivots[lead] = {c: v * inv for c, v in reduced.items()}
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
        value = row.get(aug_col, Fraction(0))
        for c, v in row.items():
            if c != col and c != aug_col:
                value -= v * solution[c]
        solution[col] = value
    return solution
