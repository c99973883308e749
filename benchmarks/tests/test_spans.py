"""Self-time arithmetic on a hand-built span tree.

Run with ``python3 -m pytest benchmarks/tests -q`` from the repository root.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from spans import Span, Tracer, self_times_ns, total_ns_under, totals_by_name  # noqa: E402


def tree():
    #  root 0..100
    #    a 10..40      (grandchild g 20..30)
    #    b 35..60      overlaps a: the union 10..60 is covered once
    #    c 90..120     outlives root: clipped to 90..100
    #  other 200..210  a second root with no children
    return [
        Span(0, None, "r1", "root", 0, 100),
        Span(1, 0, "r1", "a", 10, 40),
        Span(2, 1, "r1", "g", 20, 30),
        Span(3, 0, "r1", "b", 35, 60),
        Span(4, 0, "r1", "c", 90, 120),
        Span(5, None, "r2", "a", 200, 210),
    ]


def test_self_time_subtracts_union_of_children():
    selfs = self_times_ns(tree())
    assert selfs[0] == 100 - (60 - 10) - (100 - 90)
    assert selfs[1] == 30 - 10
    assert selfs[2] == 10
    assert selfs[3] == 25
    assert selfs[4] == 30
    assert selfs[5] == 10


def test_totals_by_name_and_ancestor_filter():
    totals = totals_by_name(tree())
    assert (totals["a"].calls, totals["a"].total_ns, totals["a"].self_ns) == (2, 40, 30)
    assert totals["root"].self_ns == 40
    assert total_ns_under(tree(), "a", "root") == 30
    assert total_ns_under(tree(), "g", "root") == 10
    assert total_ns_under(tree(), "b", "a") == 0


def test_wrapper_links_parents_and_counts():
    class Owner:
        @staticmethod
        def outer(x):
            return Owner.inner(x) + 1

        @staticmethod
        def inner(x):
            return x * 2

    tracer = Tracer()
    tracer.wrap(Owner, "outer", "outer")
    tracer.wrap(Owner, "inner", "inner",
                count=lambda c, args, kwargs, result: c.update(inner_in=args[0]))
    assert Owner.outer(3) == 7 and not tracer.spans   # inactive: pass-through
    tracer.active = True
    tracer.request = "req-1"
    assert Owner.outer(3) == 7
    outer, inner = tracer.spans
    assert (outer.parent, inner.parent) == (None, outer.id)
    assert inner.request == "req-1" and tracer.counts["inner_in"] == 3
    assert outer.start_ns <= inner.start_ns <= inner.end_ns <= outer.end_ns
