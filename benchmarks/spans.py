"""Spans around calls into guti's public functions, kept in memory.

The benchmark replaces a function with a timing wrapper in the namespace
its callers look it up from (``guti.sampler.forward``, not
``guti.model.forward``), so no file under ``src/`` changes.  Each span
records its name, start, end, the span that was open when it began, and
the request the benchmark was serving.  Wrappers can also add counts
(positions, pad slots, parse outcomes) at the same boundary.

A span's self time is its duration minus the part of that interval that
its child spans cover.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    id: int
    parent: int | None
    request: str | None
    name: str
    start_ns: int
    end_ns: int = 0

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Records spans while ``active``; a wrapper is a plain pass-through otherwise."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.request: str | None = None
        self.active = False
        self._stack: list[int] = []

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` with a wrapper that records span ``name``.

        ``count(counts, args, kwargs, result)`` adds counts after each call.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            span = Span(len(tracer.spans), tracer._stack[-1] if tracer._stack else None,
                        tracer.request, name, time.perf_counter_ns())
            tracer.spans.append(span)
            tracer._stack.append(span.id)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._stack.pop()
                span.end_ns = time.perf_counter_ns()
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result

        setattr(owner, attr, traced)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.id, s.parent, s.request, s.name,
                                     s.start_ns, s.end_ns]) + "\n")


def self_times_ns(spans: list[Span]) -> dict[int, int]:
    """Span id -> duration minus the union of its children's intervals.

    Child intervals are clipped to the parent's, so a child that outlives
    its parent (which a single-threaded run cannot produce) is not counted
    twice.
    """
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start_ns, s.end_ns))
    out = {}
    for s in spans:
        covered = 0
        run_start = run_end = None
        for a, b in sorted(children.get(s.id, ())):
            a, b = max(a, s.start_ns), min(b, s.end_ns)
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out[s.id] = s.duration_ns - covered
    return out


@dataclass
class NameTotals:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0


def totals_by_name(spans: list[Span]) -> dict[str, NameTotals]:
    selfs = self_times_ns(spans)
    out: dict[str, NameTotals] = defaultdict(NameTotals)
    for s in spans:
        t = out[s.name]
        t.calls += 1
        t.total_ns += s.duration_ns
        t.self_ns += selfs[s.id]
    return out


def total_ns_under(spans: list[Span], name: str, ancestor: str) -> int:
    """Summed duration of spans called ``name`` that run inside an ``ancestor`` span."""
    by_id = {s.id: s for s in spans}
    total = 0
    for s in spans:
        if s.name != name:
            continue
        p = s.parent
        while p is not None and by_id[p].name != ancestor:
            p = by_id[p].parent
        if p is not None:
            total += s.duration_ns
    return total
