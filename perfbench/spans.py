"""In-memory spans around functions patched from outside the program.

A Tracer wraps callables so that each call made while an op is active
records one span: name, start, end, parent span, op id and whether it raised.
Spans stay in memory until the run ends; `totals` turns them into per-name
calls, errors and self time (duration minus the time covered by child spans,
which nest without overlap because the program is single-threaded).
"""

from __future__ import annotations

import functools
from array import array
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.ops = array("q")
        self.failed = bytearray()
        self.counts: dict[int, dict] = {}
        self.op: int | None = None  # spans are recorded only while set
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, count=None):
        """A callable that runs `fn` inside a span called `name`.

        `count(args, kwargs, result)`, when given, returns a dict of work
        counts stored with the span.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            idx = len(tracer.names)
            tracer.names.append(name)
            tracer.parents.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.ops.append(tracer.op)
            tracer.failed.append(0)
            tracer.starts.append(0.0)
            tracer.ends.append(0.0)
            tracer._stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.failed[idx] = 1
                raise
            finally:
                tracer.ends[idx] = perf_counter()
                tracer.starts[idx] = start
                tracer._stack.pop()
            if count is not None:
                tracer.counts[idx] = count(args, kwargs, result)
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def patch(self, owner, attr: str, value) -> None:
        """setattr(owner, attr, value), remembering the binding it replaces
        (read from the owner's own namespace, so a staticmethod is restored
        as itself)."""
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def wrap_attr(self, owner, attr: str, name: str, count=None) -> None:
        """Wrap a function or staticmethod stored on a class or module."""
        raw = vars(owner)[attr]
        if isinstance(raw, staticmethod):
            self.patch(owner, attr, staticmethod(self.wrap(name, raw.__func__, count)))
        else:
            self.patch(owner, attr, self.wrap(name, raw, count))

    def restore(self) -> None:
        """Put back every binding replaced by `patch`, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.names)

    def totals(self) -> dict:
        """name -> {"calls", "errors", "self_s", plus every summed count}."""
        n = len(self.names)
        child_s = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child_s[p] += self.ends[i] - self.starts[i]
        out: dict[str, dict] = {}
        for i in range(n):
            t = out.setdefault(self.names[i], {"calls": 0, "errors": 0, "self_s": 0.0})
            t["calls"] += 1
            t["errors"] += self.failed[i]
            t["self_s"] += self.ends[i] - self.starts[i] - child_s[i]
            for key, value in self.counts.get(i, {}).items():
                t[key] = t.get(key, 0) + value
        return out

    def children(self, parent: str, name: str) -> int:
        """Spans called `name` whose direct parent is called `parent`."""
        return sum(
            1 for i, nm in enumerate(self.names)
            if nm == name and self.parents[i] >= 0
            and self.names[self.parents[i]] == parent
        )

    def descendants(self, ancestor: str, name: str) -> int:
        """Spans called `name` with a span called `ancestor` above them."""
        found = 0
        for i, nm in enumerate(self.names):
            if nm != name:
                continue
            p = self.parents[i]
            while p >= 0 and self.names[p] != ancestor:
                p = self.parents[p]
            found += p >= 0
        return found

    def dump(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                fh.write(
                    f'{{"id":{i},"name":"{name}","start":{self.starts[i]!r},'
                    f'"end":{self.ends[i]!r},"parent":{self.parents[i]},'
                    f'"op":{self.ops[i]},'
                    f'"error":{"true" if self.failed[i] else "false"}}}\n'
                )
