from __future__ import annotations

import pkgutil

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
