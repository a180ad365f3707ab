from __future__ import annotations

import os
import pkgutil
import subprocess
import sys

import pytest

import eigenperm
from eigenperm import bijection, four_patterns, perms, recurrences, series, textforms, verify

SRC = os.path.dirname(os.path.dirname(os.path.abspath(eigenperm.__file__)))
# Code that prints the package's modules in sys.modules, on one line.
PRINT_LOADED = "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'eigenperm'))"
EXPORTED = set().union(*(m.__all__ for m in (bijection, four_patterns, perms, recurrences, series, textforms, verify)))


def shown_api(names) -> set[str]:
    """The public names among ``names``, less the package's submodules."""
    submodules = {info.name for info in pkgutil.iter_modules(eigenperm.__path__)}
    return {name for name in names if not name.startswith("_")} - submodules


def test_package_exports_exactly_the_module_apis():
    # The package re-exports each module's __all__; besides those it shows
    # only its submodules.
    assert shown_api(dir(eigenperm)) == EXPORTED


def fresh(code: str, *argv: str) -> list[str]:
    """The lines ``code`` prints in a new interpreter that imports from src."""
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, check=True)
    return proc.stdout.splitlines()


# What ``import eigenperm, eigenperm.cli`` adds to sys.modules on CPython
# 3.11: the package, its CLI, perms and what their module-level imports
# need.  The other modules load when a command, or a read of the package
# namespace, needs them; a module that only some calls use, such as the
# census lanes or the json of the --json forms, is imported inside those
# calls.
IMPORTED_311 = {"__future__", "argparse", "eigenperm", "eigenperm.cli", "eigenperm.perms", "gettext", "signal"}


def test_import_loads_no_module_beyond_its_own_needs():
    code = (
        "import sys; before = set(sys.modules); import eigenperm, eigenperm.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    loaded = set(fresh(code)[-1].split())
    assert not loaded & {"socket", "_socket", "selectors", "pickle", "multiprocessing"}
    # The value classes are plain classes: nothing compiles their methods at import.
    assert not loaded & {"dataclasses", "inspect"}
    if sys.version_info[:2] == (3, 11):
        assert loaded <= IMPORTED_311, sorted(loaded - IMPORTED_311)


# The modules each command runs, beyond the package, its CLI and perms.
# Every command with --n or --max-n reads it with textforms' integer rule;
# four_patterns imports recurrences and series; census counts in _lanes.
FOUR_PATTERNS = {"four_patterns", "recurrences", "series"}
EVERY_MODULE = {"_lanes", "bijection", "cli", "four_patterns", "perms", "recurrences", "series", "textforms", "verify"}
COMMAND_MODULES = [
    (("seq", "eigen", "--n", "5"), {"series", "textforms"}),
    (("seq", "a", "--n", "5"), {"recurrences", "textforms"}),
    (("seq", "catalan", "--n", "5"), {"recurrences", "textforms"}),
    (("seq", "bell", "--n", "5"), {"recurrences", "textforms"}),
    (("seq", "a051295", "--n", "5"), FOUR_PATTERNS | {"textforms"}),
    (("seq", "new4", "--n", "5"), FOUR_PATTERNS | {"textforms"}),
    (("count", "--pattern", "3(5)241", "--n", "5"), {"_lanes", "textforms"}),
    (("count", "--pattern", "3(5)241", "--n", "5", "--fast"), {"recurrences", "textforms"}),
    (("classify4", "--max-n", "5"), FOUR_PATTERNS | {"_lanes", "textforms"}),
    (("eigen", "decompose", "--input", "3 1 2"), {"bijection", "textforms"}),
    (("eigen", "compose", "--input", "1 2 ;  / 1 / "), {"bijection", "textforms"}),
    (("biject", "forward", "--input", "2 3^ 1 4"), {"bijection", "textforms"}),
    (("biject", "inverse", "--input", "1 / 2 1"), {"bijection", "textforms"}),
    (("verify", "--suite", "all", "--max-n", "5"), EVERY_MODULE),
]


@pytest.mark.parametrize("argv, modules", COMMAND_MODULES, ids=[" ".join(argv) for argv, _ in COMMAND_MODULES])
def test_each_command_loads_only_the_modules_it_runs(argv, modules):
    # sys.modules itself: -X importtime does not see import_module's imports.
    code = (
        "import contextlib, io, sys; import eigenperm.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()): status = eigenperm.cli.run(sys.argv[1:])\n"
        "print(status)\n" + PRINT_LOADED
    )
    status, loaded = fresh(code, *argv)
    assert status == "0"
    assert set(loaded.split()) == {"eigenperm"} | {f"eigenperm.{m}" for m in modules | {"cli", "perms"}}


# The package namespace loads on first use, all at once.


def test_import_loads_no_other_module_of_the_package():
    assert fresh("import sys, eigenperm\n" + PRINT_LOADED)[-1].split() == ["eigenperm"]


def test_star_import_binds_exactly_the_module_apis():
    code = "before = set(globals())\nfrom eigenperm import *\nprint(*set(globals()) - before - {'before'})"
    assert set(fresh(code)[-1].split()) == EXPORTED


def test_dir_first_shows_the_whole_namespace():
    assert shown_api(fresh("import eigenperm; print(*dir(eigenperm))")[-1].split()) == EXPORTED


def test_a_dunder_probe_loads_nothing():
    code = (
        "import sys, eigenperm\n"
        "print(hasattr(eigenperm, '__wrapped__'), hasattr(eigenperm, '__test__'))\n" + PRINT_LOADED
    )
    probes, loaded = fresh(code)
    assert probes.split() == ["False", "False"]
    assert loaded.split() == ["eigenperm"]


def test_a_name_read_loads_every_module_and_an_unknown_name_raises():
    code = (
        "import sys, eigenperm\n"
        "print(eigenperm.parse_perm('2 1'), hasattr(eigenperm, 'no_such_name'))\n" + PRINT_LOADED
    )
    read, loaded = fresh(code)
    assert read == "(2, 1) False"
    assert set(loaded.split()) == {"eigenperm"} | {f"eigenperm.{m}" for m in eigenperm._MODULES}


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
