"""Tracing for the benchmark's traced round.

Spans are recorded from the benchmark's own code, around calls into the
modules of `langcrawl`: the program itself carries no instrumentation. A span
is (name, start, end, parent); all of them stay in memory in flat arrays and
are written out once, after the run. The wrappers here are installed for the
traced round only and removed when it ends.
"""
from __future__ import annotations

import gzip
import json
from array import array
from collections import Counter
from time import perf_counter

from langcrawl.apiface import Endpoint, RateLimiter, RetryAfter

ENDPOINTS = tuple(e.value for e in Endpoint)  # DataSource method names


class Recorder:
    """Flat, append-only span storage with a stack for parent links."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()  # counters that are not spans

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn, on_result=None):
        """`fn` with every call recorded as one span named `name`.

        on_result, when given, sees each return value (to count outcomes).
        """
        nid = self._name_id(name)
        name_of, parent, start, end, stack = (
            self.name_of, self.parent, self.start, self.end, self._stack
        )

        def traced(*args, **kwargs):
            idx = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) as one span."""
        return self.wrap(name, fn)(*args, **kwargs)

    # -- summaries ------------------------------------------------------------

    def summary(self) -> tuple[dict[str, float], dict[str, int], dict[str, float]]:
        """(total seconds, calls, self seconds) per span name.

        Self time is a span's duration minus the durations of its direct
        children.
        """
        n = len(self.name_of)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        total: dict[str, float] = {}
        own: dict[str, float] = {}
        calls: Counter = Counter()
        for i in range(n):
            name = self.names[self.name_of[i]]
            total[name] = total.get(name, 0.0) + dur[i]
            own[name] = own.get(name, 0.0) + dur[i] - child[i]
            calls[name] += 1
        return total, dict(calls), own

    def total_under(self, prefix: str, parent_name: str) -> float:
        """Seconds of spans named prefix* whose direct parent is a parent_name span."""
        names = self.names
        out = 0.0
        for i in range(len(self.name_of)):
            p = self.parent[i]
            if (
                p >= 0
                and names[self.name_of[i]].startswith(prefix)
                and names[self.name_of[p]] == parent_name
            ):
                out += self.end[i] - self.start[i]
        return out

    def write(self, path) -> int:
        """One JSON line per span: name, start and end (s, relative to the
        first span), parent (line index, -1 for none). Gzipped."""
        n = len(self.name_of)
        t0 = self.start[0] if n else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i in range(n):
                fh.write(
                    json.dumps(
                        [
                            self.names[self.name_of[i]],
                            round(self.start[i] - t0, 9),
                            round(self.end[i] - t0, 9),
                            self.parent[i],
                        ]
                    )
                    + "\n"
                )
        return n


class Patches:
    """Replace attributes of modules and classes with traced wrappers, and
    put the originals back on restore()."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._saved: list[tuple[object, str, object]] = []

    def trace(self, owner, attr: str, name: str, on_result=None) -> None:
        raw = vars(owner).get(attr)
        if isinstance(raw, classmethod):
            # wrap the bound method; a staticmethod keeps it unbound-callable
            wrapped = staticmethod(self.recorder.wrap(name, getattr(owner, attr), on_result))
        else:
            wrapped = self.recorder.wrap(name, getattr(owner, attr), on_result)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


class SourceProxy:
    """A DataSource that forwards each endpoint call of `inner` through
    `around(endpoint_name, bound_method)`, which returns the callable to use.

    Timing is one `around`; a fault injector is another.
    """

    def __init__(self, inner, around) -> None:
        for name in ENDPOINTS:
            setattr(self, name, around(name, getattr(inner, name)))


def timed_source(world, recorder: Recorder) -> SourceProxy:
    return SourceProxy(world, lambda name, fn: recorder.wrap(f"simnet.{name}", fn))


class TimedClock:
    """Wraps a SimClock; each sleep that moves the world forward is a
    `simnet.advance` span."""

    def __init__(self, inner, recorder: Recorder) -> None:
        self.now = inner.now
        self._inner = inner
        self._advance = recorder.wrap("simnet.advance", inner.sleep_until)

    def sleep_until(self, t) -> None:
        if t > self._inner.now():
            self._advance(t)


class CountingLimiter(RateLimiter):
    """RateLimiter that times each acquire and counts grants and blocks."""

    def __init__(self, recorder: Recorder, budgets=None) -> None:
        super().__init__(budgets)
        self.granted = 0
        self.blocked = 0
        self._acquire = recorder.wrap("apiface.acquire", super().acquire)

    def acquire(self, e, now):
        result = self._acquire(e, now)
        if isinstance(result, RetryAfter):
            self.blocked += 1
        else:
            self.granted += 1
        return result
