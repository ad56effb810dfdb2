"""The public API: every callable exported by the package has annotations
that resolve, and every entry point that lifts a rational refuses a
float and a bool."""

import inspect
import typing
from fractions import Fraction

import pytest

import mhv
from mhv.linalg import RowReducer


def public_callables():
    for name, obj in sorted(vars(mhv).items()):
        if name.startswith("_") or not callable(obj) \
                or not getattr(obj, "__module__", "").startswith("mhv"):
            continue
        yield name, obj
        if inspect.isclass(obj):
            for attr, member in sorted(vars(obj).items()):
                if attr.startswith("_") and attr != "__init__":
                    continue
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member


@pytest.mark.parametrize("obj", [pytest.param(obj, id=name)
                                 for name, obj in public_callables()])
def test_type_hints_resolve(obj):
    typing.get_type_hints(obj)


# each entry point that takes a rational, with the float it must refuse
# and the exact value it must keep taking
RATIONAL_ENTRIES = {
    "sc": (mhv.sc, 0.1, Fraction(1, 10)),
    "Scalar.from_rational": (mhv.Scalar.from_rational, 0.1, Fraction(1, 10)),
    "EpsMode": (mhv.EpsMode, 0.4, Fraction(2, 5)),
    "EpsMode.numeric": (mhv.EpsMode.numeric, 0.4, Fraction(2, 5)),
    "BiderParams lambda": (mhv.BiderParams, 0.1, Fraction(1, 10)),
    "BiderParams mu": (lambda mu: mhv.BiderParams(1, {0: mu}), 0.5,
                       Fraction(1, 2)),
    "LinearMap.from_spec": (mhv.LinearMap.from_spec, 0.5, Fraction(1, 2)),
    "Element.of": (lambda c: mhv.Element.of((c, mhv.d(1))), 0.5,
                   Fraction(1, 2)),
    "Scalar num": (lambda c: mhv.Scalar((c,), (1,)), 0.5, Fraction(1, 2)),
    "Scalar den": (lambda c: mhv.Scalar((1,), (c,)), 0.5, Fraction(1, 2)),
    "Scalar top coefficient": (lambda c: mhv.Scalar((1, c), (1,)), 0.5,
                               Fraction(1, 2)),
    "Scalar.eval_at": ((mhv.ONE + mhv.EPS).eval_at, 0.4, Fraction(2, 5)),
    "Element.eval_at": (mhv.Element.of((mhv.ONE + mhv.EPS, mhv.d(1))).eval_at,
                        0.4, Fraction(2, 5)),
    "Report.evaluated_at": (
        mhv.Report("probe", 1, "symbolic", 0, [], {}).evaluated_at, 0.4,
        Fraction(2, 5)),
}

@pytest.mark.parametrize("entry", RATIONAL_ENTRIES)
def test_a_float_is_refused(entry):
    # a float would be taken at its binary value: sc(0.1) was
    # 3602879701896397/36028797018963968; a bool would run at e = 1 or be
    # taken as the rational 1, a False coefficient even where a trailing
    # zero is trimmed
    lift, inexact, exact = RATIONAL_ENTRIES[entry]
    with pytest.raises(TypeError, match="float"):
        lift(inexact)
    for flag in (True, False):
        with pytest.raises(TypeError, match="bool"):
            lift(flag)
    lift(exact)


def test_checks_that_are_a_string_are_refused():
    with pytest.raises(TypeError, match="'jacobi'"):
        mhv.RunConfig(window=2, checks="jacobi")


@pytest.mark.parametrize("flag", [True, False])
def test_a_row_entry_that_is_a_bool_is_refused(flag):
    with pytest.raises(TypeError, match="ints or Fractions"):
        RowReducer().add_row({0: flag})
    assert RowReducer().add_row({0: 1, 1: Fraction(1, 2)})
