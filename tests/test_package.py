from __future__ import annotations

import os
import pkgutil
import subprocess
import sys

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
# A module that only some calls use, such as the recurrence split's channel,
# is imported inside those calls.
IMPORTED_311 = {
    "__future__", "_ast", "_json", "_opcode", "argparse", "ast", "copy", "dataclasses", "dis",
    "eigenperm", "eigenperm.bijection", "eigenperm.cli", "eigenperm.four_patterns",
    "eigenperm.perms", "eigenperm.recurrences", "eigenperm.series", "eigenperm.textforms",
    "eigenperm.verify", "gettext", "importlib.machinery", "inspect", "json", "json.decoder",
    "json.encoder", "json.scanner", "linecache", "opcode", "signal", "token", "tokenize",
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
    if sys.version_info[:2] == (3, 11):
        assert loaded <= IMPORTED_311, sorted(loaded - IMPORTED_311)
