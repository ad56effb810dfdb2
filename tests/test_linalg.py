"""Exact rational linear algebra."""

from fractions import Fraction

import pytest

from mhv.linalg import (InconsistentSystemError, RowReducer,
                        UnderdeterminedSystemError, solve_unique)


def F(x):
    return Fraction(x)


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
    """Int rows are reduced exactly: every pivot row is normalised with a
    Fraction, never with a float."""

    def test_proportional_int_rows_have_rank_one(self):
        r = RowReducer()
        assert r.add_row({0: 49, 1: 1})
        assert not r.add_row({0: 98, 1: 2})
        assert r.rank == 1
        assert r.pivots == {0: {0: 1, 1: Fraction(1, 49)}}
        assert all(type(v) is Fraction for v in r.pivots[0].values())

    def test_solve_unique_on_ints(self):
        solution = solve_unique([{0: 3}], [1], 1)
        assert solution == [Fraction(1, 3)]
        assert type(solution[0]) is Fraction

    def test_a_float_entry_is_refused(self):
        with pytest.raises(TypeError, match="ints or Fractions"):
            RowReducer().add_row({0: 1, 1: 0.5})
        with pytest.raises(TypeError, match="ints or Fractions"):
            solve_unique([{0: 3}], [0.5], 1)
