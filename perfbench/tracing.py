"""Spans and call counters recorded from the benchmark's own files.

A span wraps one call into a cayleyac module's public function: it records
its name, start, end, parent span and workload, plus the call counts that
accrued inside it.  Counts come from wrappers installed on a group
*instance* (never on a class or module), and only in a traced unit, so the
untraced units run the program exactly as a user would.
"""

from __future__ import annotations

import collections
import contextlib
import os
import statistics
import time


class Tracer:
    """In-memory span recorder; spans are written out when the run ends."""

    enabled = True

    def __init__(self, workload: str, phase: str):
        self.workload = workload
        self.phase = phase
        self.spans: list[dict] = []
        self.counts: collections.Counter = collections.Counter()
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "name": name, "workload": self.workload,
               "phase": self.phase,
               "parent": self._stack[-1] if self._stack else None, **attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        before = dict(self.counts)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
            rec["counts"] = {k: v - before.get(k, 0) for k, v in self.counts.items()
                             if v != before.get(k, 0)}

    def count_calls(self, obj, method: str) -> None:
        """Count calls of ``obj.method`` by shadowing the bound method with
        an instance attribute; deleting the attribute restores it."""
        inner = getattr(obj, method)
        counts = self.counts

        def counted(*args):
            counts[method] += 1
            return inner(*args)

        setattr(obj, method, counted)

    def total(self, name: str, what: str = "s", **match) -> float:
        """Sum over the spans called ``name`` whose attributes match: their
        duration (``what="s"``), a call count, or a recorded attribute."""
        out = 0
        for rec in self.spans:
            if rec["name"] != name or any(rec.get(k) != v for k, v in match.items()):
                continue
            if what == "s":
                out += rec["end"] - rec["start"]
            elif what in rec["counts"]:
                out += rec["counts"][what]
            else:
                out += rec.get(what, 0)
        return out

    def records(self) -> list[dict]:
        """Spans with their self time: duration minus the part covered by
        child spans."""
        child = collections.defaultdict(float)
        for rec in self.spans:
            if rec["parent"] is not None:
                child[rec["parent"]] += rec["end"] - rec["start"]
        return [dict(rec, self=rec["end"] - rec["start"] - child[rec["id"]])
                for rec in self.spans]


class NoTrace:
    """Stand-in for untraced units: spans cost one generator call and
    record nothing."""

    enabled = False

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        yield {}


def per_op_us(fn, args_list, reps: int = 5) -> float:
    """Median over ``reps`` passes of the mean time of one ``fn(*args)``
    call, in microseconds."""
    passes = []
    for _ in range(reps):
        start = time.perf_counter()
        for args in args_list:
            fn(*args)
        passes.append((time.perf_counter() - start) / len(args_list) * 1e6)
    return statistics.median(passes)


def rss_mb() -> float:
    """Current resident set size of this process in MiB (Linux)."""
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2 ** 20
