from __future__ import annotations

import os
import pkgutil
import subprocess
import sys

import pytest

import eigenperm
from eigenperm import bijection, four_patterns, perms, recurrences, series, textforms, verify


def test_package_exports_exactly_the_module_apis():
    # The package re-exports each module's __all__; besides those it shows
    # only its submodules.
    modules = (bijection, four_patterns, perms, recurrences, series, textforms, verify)
    exported = set().union(*(m.__all__ for m in modules))
    submodules = {info.name for info in pkgutil.iter_modules(eigenperm.__path__)}
    public = {name for name in dir(eigenperm) if not name.startswith("_")}
    assert public - submodules == exported


# What ``import eigenperm, eigenperm.cli`` adds to sys.modules on CPython
# 3.11: the package's own modules and what their module-level imports need.
# A module that only some calls use, such as the census lanes or the json
# of the --json forms, is imported inside those calls.
IMPORTED_311 = {
    "__future__", "argparse", "eigenperm", "eigenperm.bijection", "eigenperm.cli",
    "eigenperm.four_patterns", "eigenperm.perms", "eigenperm.recurrences", "eigenperm.series",
    "eigenperm.textforms", "eigenperm.verify", "gettext", "signal",
}


def test_import_loads_no_module_beyond_its_own_needs():
    code = (
        "import sys; before = set(sys.modules); import eigenperm, eigenperm.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(eigenperm.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    loaded = set(proc.stdout.split())
    assert not loaded & {"socket", "_socket", "selectors", "pickle", "multiprocessing"}
    # The value classes are plain classes: nothing compiles their methods at import.
    assert not loaded & {"dataclasses", "inspect"}
    if sys.version_info[:2] == (3, 11):
        assert loaded <= IMPORTED_311, sorted(loaded - IMPORTED_311)


# Each frozen value class with positional arguments (some not yet in
# stored form), the fields they store, and its documented defaults.
RECORDS = [
    (perms.LRMaxFactorization, (((3, (1,)), (5, (2, 4))), 1), (((3, (1,)), (5, (2, 4))), 1), {}),
    (perms.UnderlinedPattern, ([3, 5, 2, 4, 1], 2), ((3, 5, 2, 4, 1), 2), {}),
    (bijection.StarredPermutation, ([1, 2], [0, 1], 2), ((1, 2), (0, 1), 2), {"after_max": 0}),
    (bijection.MarkedPermutation, ([3, 1, 2, 4], [3]), ((3, 1, 2, 4), frozenset({3})), {"marks": frozenset()}),
    (bijection.WindowPlan, (((0, 1),), (0,), (None,), (None, 1), ((1,),)),
     (((0, 1),), (0,), (None,), (None, 1), ((1,),)), {}),
    (four_patterns.PatternClass, (perms.parse_pattern("1(2)3"), (), "catalan", True, (1, 1, 2)),
     (perms.parse_pattern("1(2)3"), (), "catalan", True, (1, 1, 2)), {}),
    (four_patterns.SetPartition, ([[3, 5], [1, 2, 4]],), ((frozenset({1, 2, 4}), frozenset({3, 5})),), {}),
    (recurrences.RecurrenceTables, ((1, 1), (1,), ((1,),)), ((1, 1), (1,), ((1,),)), {}),
    (series.PowerSeries, ([1, 0],), ((1, 0),), {}),
    (verify.CheckResult, ("a check", True, "n <= 1"), ("a check", True, "n <= 1"), {}),
]


@pytest.mark.parametrize("cls, args, stored, defaults", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_value_classes_are_frozen_records_of_their_fields(cls, args, stored, defaults):
    # __match_args__ names the constructor's parameters, in order.
    names = cls.__match_args__
    assert len(names) == len(args) == len(stored)
    x = cls(*args)
    assert tuple(getattr(x, name) for name in names) == stored
    assert cls(**dict(zip(names, args))) == x
    required = len(names) - len(defaults)
    assert names[required:] == tuple(defaults)
    short = cls(*args[:required])
    assert {name: getattr(short, name) for name in defaults} == defaults
    # repr is the dataclass form, Name(field=value, ...).
    assert repr(x) == f"{cls.__name__}({', '.join(f'{n}={v!r}' for n, v in zip(names, stored))})"
    y = cls(*stored)
    assert y is not x and y == x and not y != x and hash(y) == hash(x)
    # An instance of another class never equals x, not even one of the same
    # name and fields.
    twin = type(cls.__name__, (cls,), {})(*args)
    assert x != twin and twin != x
    assert x != stored and x.__eq__(stored) is NotImplemented
    for name in (*names, "extra"):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert tuple(getattr(x, name) for name in names) == stored
    # Like a dataclass, the constructor takes each field once, by position
    # or by name, and no other name.
    for bad_args, bad_kwargs in (
        (args[:required - 1], {}),
        ((*args, None), {}),
        (args, {"extra": None}),
        (args, {names[0]: args[0]}),
    ):
        with pytest.raises(TypeError):
            cls(*bad_args, **bad_kwargs)
