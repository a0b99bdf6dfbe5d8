"""Spans around iterqm's public functions, recorded from outside the package.

:meth:`Tracer.install` replaces each public function of every iterqm
module, in every module namespace that binds it, with a wrapper that
records a span (name, operation, start, end, parent).  Spans live in flat
arrays in memory and are written out once, after the timed loop.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

def iterqm_modules() -> list:
    """The package and every submodule imported so far."""
    return [
        module for name, module in sorted(sys.modules.items())
        if name == "iterqm" or name.startswith("iterqm.")
    ]


def find_caches() -> dict:
    """Every functools cache bound in an iterqm module, by function name."""
    caches = {}
    for module in iterqm_modules():
        for obj in vars(module).values():
            if hasattr(obj, "cache_info") and getattr(obj, "__module__", "").startswith("iterqm"):
                caches[obj.__name__] = obj
    return caches


def _public_functions(module):
    for name, obj in vars(module).items():
        if (
            not name.startswith("_")
            and callable(obj)
            and not isinstance(obj, type)
            and getattr(obj, "__module__", "").startswith("iterqm.")
        ):
            yield name, obj


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_op = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        stack, span_name, span_op, parent, start, end = (
            self._stack, self.span_name, self.span_op, self.parent, self.start, self.end
        )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            span_name.append(nid)
            span_op.append(self.op)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()

        return wrapper

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for module in iterqm_modules():
            for attr, fn in list(_public_functions(module)):
                if id(fn) not in wrappers:
                    label = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
                    wrappers[id(fn)] = self.wrap(label, fn)
                self._patched.append((module, attr, fn))
                setattr(module, attr, wrappers[id(fn)])
        qseries = sys.modules["iterqm.qseries"]
        mul = qseries.QSeries.__mul__
        self._patched.append((qseries.QSeries, "__mul__", mul))
        qseries.QSeries.__mul__ = self.wrap("qseries.mul", mul)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def summary(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, self seconds), self time excluding child spans."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, list] = {name: [0, 0.0] for name in self.names}
        for i in range(n):
            entry = out[self.names[self.span_name[i]]]
            entry[0] += 1
            entry[1] += self.end[i] - self.start[i] - child[i]
        return {name: (calls, secs) for name, (calls, secs) in out.items()}

    def write(self, path) -> None:
        """One line per span: name, operation, start, end (seconds), parent index."""
        with open(path, "w") as fh:
            fh.write("name\top\tstart_s\tend_s\tparent\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.names[self.span_name[i]]}\t{self.span_op[i]}\t"
                    f"{self.start[i]:.9f}\t{self.end[i]:.9f}\t{self.parent[i]}\n"
                )
