"""Exact rational linear algebra."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from mhv.linalg import (InconsistentSystemError, RowReducer,
                        UnderdeterminedSystemError, solve_unique)


def F(x):
    return Fraction(x)


COLUMNS = 5
# sparse rows of small ints and Fractions, zeros included
ROWS = st.dictionaries(
    st.integers(0, COLUMNS - 1),
    st.integers(-3, 3) | st.fractions(-3, 3, max_denominator=4),
    max_size=COLUMNS)


def plain_rank(rows: list) -> int:
    """The rank of rows by dense Gaussian elimination in Fractions."""
    m = [[Fraction(row.get(c, 0)) for c in range(COLUMNS)] for row in rows]
    rank = 0
    for c in range(COLUMNS):
        pivot = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(rank + 1, len(m)):
            factor = m[i][c] / m[rank][c]
            m[i] = [a - factor * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


class TestRowReducer:
    def test_rank_counts_independent_rows(self):
        r = RowReducer()
        assert r.add_row({0: F(1), 1: F(2)})
        assert not r.add_row({0: F(2), 1: F(4)})
        assert r.add_row({1: F(1)})
        assert r.rank == 2

    def test_in_row_space(self):
        r = RowReducer()
        r.add_row({0: F(1), 2: F(1)})
        r.add_row({1: F(1)})
        assert r.in_row_space({0: F(3), 1: F(-1), 2: F(3)})
        assert not r.in_row_space({2: F(1), 3: F(1)})

    def test_reduce_does_not_mutate(self):
        r = RowReducer()
        r.add_row({0: F(1)})
        row = {0: F(5), 1: F(1)}
        r.reduce(row)
        assert row == {0: F(5), 1: F(1)}


class TestSolveUnique:
    def test_small_system(self):
        # x + y = 3, x - y = 1
        rows = [{0: F(1), 1: F(1)}, {0: F(1), 1: F(-1)}]
        assert solve_unique(rows, [F(3), F(1)], 2) == [F(2), F(1)]

    def test_redundant_rows_ok(self):
        rows = [{0: F(1), 1: F(1)}, {0: F(2), 1: F(2)}, {1: F(1)}]
        assert solve_unique(rows, [F(3), F(6), F(1)], 2) == [F(2), F(1)]

    def test_inconsistent(self):
        rows = [{0: F(1)}, {0: F(1)}]
        with pytest.raises(InconsistentSystemError):
            solve_unique(rows, [F(1), F(2)], 1)

    def test_underdetermined(self):
        with pytest.raises(UnderdeterminedSystemError):
            solve_unique([{0: F(1), 1: F(1)}], [F(1)], 2)

    def test_exact_fractions(self):
        rows = [{0: F(Fraction(1, 3)), 1: F(Fraction(1, 7))},
                {0: F(Fraction(2, 5)), 1: F(Fraction(-1, 2))}]
        rhs = [Fraction(1), Fraction(0)]
        x = solve_unique(rows, rhs, 2)
        for row, b in zip(rows, rhs):
            assert sum(row.get(i, Fraction(0)) * x[i] for i in range(2)) == b


class TestIntRows:
    """Rows are reduced exactly and fraction-free: every pivot row is a
    primitive int row with a positive lead, never a float or a Fraction."""

    def test_proportional_int_rows_have_rank_one(self):
        r = RowReducer()
        assert r.add_row({0: 49, 1: 1})
        assert not r.add_row({0: 98, 1: 2})
        assert r.rank == 1
        assert r.pivots == {0: {0: 49, 1: 1}}
        assert all(type(v) is int for v in r.pivots[0].values())

    def test_fraction_rows_give_primitive_int_pivots(self):
        r = RowReducer()
        assert r.add_row({0: Fraction(-2, 3), 2: Fraction(4, 9)})
        assert r.add_row({0: 1, 1: 1})
        assert r.pivots == {0: {0: 3, 2: -2}, 1: {1: 3, 2: 2}}
        assert all(type(v) is int for row in r.pivots.values()
                   for v in row.values())

    def test_a_scaled_row_has_its_content_taken_out(self):
        # 2*(x0 + 5*x1) - (2*x0 + x1) = 9*x1, which is x1 up to content
        r = RowReducer()
        assert r.add_row({0: 2, 1: 1})
        assert r.reduce({0: 1, 1: 5}) == {1: 1}

    @given(st.lists(ROWS, max_size=7), ROWS)
    def test_rank_and_row_space_agree_with_plain_elimination(self, rows,
                                                             probe):
        r = RowReducer()
        for i, row in enumerate(rows):
            assert r.add_row(row) \
                == (plain_rank(rows[:i + 1]) > plain_rank(rows[:i]))
        assert r.rank == plain_rank(rows)
        assert r.in_row_space(probe) \
            == (plain_rank(rows + [probe]) == plain_rank(rows))
        for col, pivot in r.pivots.items():
            assert all(type(v) is int for v in pivot.values())
            assert min(pivot) == col and pivot[col] > 0
            assert gcd(*pivot.values()) == 1

    def test_solve_unique_on_ints(self):
        solution = solve_unique([{0: 3}], [1], 1)
        assert solution == [Fraction(1, 3)]
        assert type(solution[0]) is Fraction

    def test_a_float_entry_is_refused(self):
        with pytest.raises(TypeError, match="ints or Fractions"):
            RowReducer().add_row({0: 1, 1: 0.5})
        with pytest.raises(TypeError, match="ints or Fractions"):
            solve_unique([{0: 3}], [0.5], 1)
