"""The names and signatures the benchmark's tracer relies on.

``perfbench/worker.py`` wraps each function it lists in ``TRACED`` by
module attribute, and its census observer reads ``n`` from the second
positional argument of ``perms.census``.  The tracer finds each module in
``sys.modules``, after the benchmark's own ``from eigenperm import ...``.
A rename in the package would otherwise surface only when the benchmark
traces.
"""

from __future__ import annotations

import importlib
import inspect
import os
import subprocess
import sys

import pytest

from eigenperm import perms

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture(scope="module")
def worker():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(PERFBENCH)
        yield importlib.import_module("worker")


def test_every_traced_name_resolves(worker):
    for name in worker.TRACED:
        module, attr = name.split(".")
        assert hasattr(importlib.import_module(f"eigenperm.{module}"), attr), name


def test_census_takes_n_second(worker):
    assert "perms.census" in worker.OBSERVERS
    params = list(inspect.signature(perms.census).parameters.values())
    assert params[1].name == "n"
    assert params[1].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD


def test_a_namespace_import_loads_every_traced_module(worker):
    # The worker imports eigenperm and its CLI, then its workloads read the
    # namespace; the tracer then looks each module up in sys.modules.
    code = "import sys, eigenperm, eigenperm.cli; from eigenperm import bijection; print(*sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(os.path.abspath(perms.__file__)))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    loaded = set(proc.stdout.split())
    assert {f"eigenperm.{name.split('.')[0]}" for name in worker.TRACED} <= loaded
