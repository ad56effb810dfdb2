"""The public API: every callable exported by the package has annotations
that resolve."""

import inspect
import typing

import pytest

import mhv


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
