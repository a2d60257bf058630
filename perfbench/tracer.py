"""Span tracing of the package's modules, installed from outside.

A ``Tracer`` wraps every function and method defined in the given modules
of the package.  ``install`` puts the wrappers in place, including every
module-level name that refers to a wrapped function (so calls made inside
the package are recorded too); ``uninstall`` restores the originals.  The
package's files are not edited.

Each call becomes one span: item index, span id, parent span id, function
name, start and end.  Spans stay in memory (flat arrays) until the run
writes them out.  A function's self time is its span's duration minus the
durations of its child spans; a module's self time is the sum over its
functions.  Standard-library calls (``Fraction`` arithmetic, numpy) count
toward the package function that made them.
"""

from __future__ import annotations

import json
from array import array
from collections import defaultdict
from enum import Enum
from time import perf_counter
from types import FunctionType

# Element access and scalar coercion: millions of calls per pass at n = 8,
# each far cheaper than a span.  Their time counts toward the caller.
SKIPPED = frozenset({"rat", "__setattr__", "__getitem__", "__len__", "__iter__", "__hash__"})


class Tracer:
    def __init__(self, package, module_names):
        self.names: list[str] = []
        self.item = array("l")
        self.parent = array("l")
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.current_item = -1  # negative: record nothing (outside the timed calls)
        self.patches: list[tuple] = []  # (owner, attribute, original, wrapper)

        modules = [getattr(package, name) for name in module_names]
        wrapped = {}
        for short, mod in zip(module_names, modules):
            for attr, obj in vars(mod).items():
                if attr in SKIPPED or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, FunctionType):
                    wrapped[obj] = self._wrap(f"{short}.{obj.__qualname__}", obj)
                elif isinstance(obj, type) and not issubclass(obj, (Enum, BaseException)):
                    self._patch_class(short, obj)
        # every module-level reference to a wrapped function, re-exports included
        for mod in [package, *modules]:
            for attr, obj in vars(mod).items():
                if isinstance(obj, FunctionType) and obj in wrapped:
                    self.patches.append((mod, attr, obj, wrapped[obj]))

    def _patch_class(self, short: str, cls: type) -> None:
        for attr, obj in vars(cls).items():
            if attr in SKIPPED:
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if isinstance(obj, FunctionType):
                self.patches.append((cls, attr, obj, self._wrap(name, obj)))
            elif isinstance(obj, staticmethod) and isinstance(obj.__func__, FunctionType):
                self.patches.append((cls, attr, obj, staticmethod(self._wrap(name, obj.__func__))))

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        stack, item, parent, names, start, end = (
            self.stack, self.item, self.parent, self.name_id, self.start, self.end
        )
        tracer = self

        def traced(*args, **kwargs):
            if tracer.current_item < 0:
                return fn(*args, **kwargs)
            sid = len(names)
            item.append(tracer.current_item)
            parent.append(stack[-1] if stack else -1)
            names.append(name_id)
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[sid] = t0
                end[sid] = t1

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__module__ = fn.__module__
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for owner, attr, _, wrapper in self.patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self.patches:
            setattr(owner, attr, original)

    # -- analysis ---------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self.name_id)

    def _duration(self, sid: int) -> float:
        return self.end[sid] - self.start[sid]

    def summary(self) -> dict:
        """Per function name: [calls, inclusive seconds, self seconds]."""
        child = defaultdict(float)
        for sid in range(self.span_count):
            if self.parent[sid] >= 0:
                child[self.parent[sid]] += self._duration(sid)
        out: dict = {}
        for sid in range(self.span_count):
            entry = out.setdefault(self.names[self.name_id[sid]], [0, 0.0, 0.0])
            dur = self._duration(sid)
            entry[0] += 1
            entry[1] += dur
            entry[2] += dur - child[sid]
        return out

    def outermost_time(self, predicate) -> dict:
        """Per item: summed duration of the spans whose name satisfies
        ``predicate`` and that have no such span among their ancestors."""
        marked = [False] * self.span_count
        per_item = defaultdict(float)
        for sid in range(self.span_count):
            hit = predicate(self.names[self.name_id[sid]])
            inside = self.parent[sid] >= 0 and marked[self.parent[sid]]
            marked[sid] = hit or inside
            if hit and not inside:
                per_item[self.item[sid]] += self._duration(sid)
        return per_item

    def root_time(self) -> float:
        """Time covered by spans without a parent: all time in the package."""
        return sum(self._duration(sid) for sid in range(self.span_count) if self.parent[sid] < 0)

    def write(self, path) -> None:
        """Spans as JSON: the name table plus one row per span, times in
        microseconds from the first span."""
        origin = self.start[0] if self.span_count else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"columns": ["item", "span", "parent", "name", "start_us", "end_us"],\n')
            fh.write(' "names": ' + json.dumps(self.names) + ',\n "spans": [\n')
            for sid in range(self.span_count):
                fh.write(
                    f"{',' if sid else ''}[{self.item[sid]}, {sid}, {self.parent[sid]}, {self.name_id[sid]}, "
                    f"{(self.start[sid] - origin) * 1e6:.1f}, {(self.end[sid] - origin) * 1e6:.1f}]\n"
                )
            fh.write("]}\n")
