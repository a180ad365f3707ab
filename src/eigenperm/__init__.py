"""Marked-pattern permutation classes and the composition eigensequence.

The package counts and constructs the permutations in which a 3241
pattern may only occur inside a 35241 pattern, proves (computationally)
that they are enumerated by the unique monic integer sequence whose
generating series shifts left under self-composition, and classifies all
96 single-marked patterns on four letters by their counting sequences.

The namespace re-exports each module's ``__all__``.  It loads on first
use, and then all at once: the first read of any name, ``dir()`` or
``from eigenperm import *`` imports every module, so that ``import
eigenperm`` alone, or one CLI command, compiles only what it runs.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_MODULES = ("bijection", "four_patterns", "perms", "recurrences", "series", "textforms", "verify")


def _load() -> None:
    # All modules, not only the one a name comes from: code that wraps the
    # package's functions from outside (the benchmark's tracer) looks every
    # module up in sys.modules after one read of the namespace.
    namespace = globals()
    exported: list[str] = []
    for name in _MODULES:
        module = _import_module(f"{__name__}.{name}")
        namespace.update((attr, getattr(module, attr)) for attr in module.__all__)
        exported += module.__all__
    namespace["__all__"] = exported  # set last: it marks the namespace as loaded


def __getattr__(name: str):
    # A dunder probe other than __all__ (copy, pickle, doctest) loads nothing.
    dunder = name.startswith("__") and name.endswith("__") and name != "__all__"
    if not dunder and "__all__" not in globals():
        _load()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    if "__all__" not in globals():
        _load()
    return sorted(globals())
