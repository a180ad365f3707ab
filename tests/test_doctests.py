from __future__ import annotations

import doctest
import importlib
import pkgutil

import pytest

import eigenperm

# Every module of the package, so that a new one cannot be left out.
MODULES = [
    importlib.import_module(f"eigenperm.{info.name}")
    for info in pkgutil.iter_modules(eigenperm.__path__)
]


def test_every_module_is_collected():
    names = {m.__name__ for m in MODULES}
    assert names >= {
        f"eigenperm.{name}"
        for name in (
            "bijection", "cli", "four_patterns", "perms", "recurrences", "series",
            "textforms", "verify",
        )
    }


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    result = doctest.testmod(module)
    assert result.failed == 0
