"""Outside-in tracer: wraps eigenperm's public functions from outside the package.

Each traced function is replaced by a wrapper in every eigenperm module
that binds it (``bijection.as_perm`` as well as ``perms.as_perm``); a traced
class gets its ``__init__`` wrapped.  A call records a span: the traced
name, start, end, the enclosing span and the op id the benchmark set.
Spans stay in flat arrays in memory until the run ends; then they are
written out and reduced to calls and self time per name.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter
from typing import Callable

# Extra counts taken from a call's arguments and result.
Observer = Callable[[tuple, dict, object], dict[str, int]]


class Tracer:
    def __init__(self, names: list[str], observers: dict[str, Observer] | None = None):
        self.names = list(names)  # "module.function" or "module.Class"
        self.observers = observers or {}
        self.fn = array("H")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter[str] = Counter()
        self.current_op = [-1]  # the caller sets [0] before each op
        self._stack = [-1]  # open spans; -1 stands for "no parent"
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "eigenperm" or key.startswith("eigenperm.")]
        for fid, name in enumerate(self.names):
            module, attr = name.split(".")
            target = getattr(sys.modules[f"eigenperm.{module}"], attr)
            if isinstance(target, type):
                self._replace(target, "__init__", self._wrap(fid, target.__init__, name))
                continue
            wrapper = self._wrap(fid, target, name)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is target:
                        self._replace(m, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def _replace(self, owner: object, key: str, value: object) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def _wrap(self, fid: int, f: Callable, name: str) -> Callable:
        stack, current_op, clock = self._stack, self.current_op, time.perf_counter
        fn, parent, op, start, end = self.fn, self.parent, self.op, self.start, self.end
        observe, counts = self.observers.get(name), self.counts

        @functools.wraps(f)
        def traced(*args, **kwargs):
            idx = len(start)
            fn.append(fid)
            parent.append(stack[-1])
            op.append(current_op[0])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = f(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if observe is not None:
                counts.update(observe(args, kwargs, result))
            return result

        return traced

    def summary(self) -> tuple[dict[str, int], dict[str, float], array]:
        """Calls and self time per name, and each span's root span."""
        size = len(self.start)
        child = array("d", bytes(8 * size))
        root = array("l", bytes(8 * size))
        start, end, parent = self.start, self.end, self.parent
        for i in range(size):
            p = parent[i]
            root[i] = i if p < 0 else root[p]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = Counter()
        self_s = Counter()
        for i in range(size):
            name = self.names[self.fn[i]]
            calls[name] += 1
            self_s[name] += end[i] - start[i] - child[i]
        return dict(calls), dict(self_s), root

    def write(self, path: str) -> None:
        """One JSON header line, then the span columns as native arrays."""
        header = {"names": self.names, "spans": len(self.start),
                  "columns": [["fn", "H"], ["parent", "l"], ["op", "l"], ["start", "d"], ["end", "d"]]}
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for column in (self.fn, self.parent, self.op, self.start, self.end):
                column.tofile(f)
