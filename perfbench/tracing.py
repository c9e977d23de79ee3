"""Spans recorded from the benchmark's side of each library call.

A span has a name, a start, an end and the span that was open when it began.
Family queries are too many to keep one by one: each is added to the
innermost open span as family time and counted, which is all the per-layer
metrics need.  Spans stay in memory; the run reduces them to metrics.  Time
is read from the clock the tracer is given, which in a run is the pace
clock that stops while the host's pace is probed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from time import perf_counter


@dataclass
class Span:
    name: str
    parent: int | None  # index of the enclosing span in Tracer.spans
    start: float
    end: float = 0.0
    family_s: float = 0.0  # time in family queries made inside this span

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.family_s = 0.0
        self._open: list[int] = []

    def call(self, name: str, fn, *args):
        """fn(*args) inside a span called ``name``."""
        span = Span(name, self._open[-1] if self._open else None, self.clock())
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args)
        finally:
            span.end = self.clock()
            self._open.pop()

    def add(self, counter: str, n: int = 1):
        self.counts[counter] += n

    def family_query(self, method: str, seconds: float, hit: bool):
        self.counts[f"families.{method}_calls"] += 1
        if method == "forbidden_subset" and hit:
            self.counts["families.witnesses"] += 1
        self.family_s += seconds
        if self._open:
            self.spans[self._open[-1]].family_s += seconds

    def wrap_family(self, family):
        return TracedFamily(family, self)


class NullTracer:
    """Stands in for a Tracer in untraced rounds: calls pass straight on."""

    @staticmethod
    def call(name, fn, *args):
        return fn(*args)

    @staticmethod
    def add(counter, n=1):
        pass

    @staticmethod
    def wrap_family(family):
        return family


class TracedFamily:
    """The family a query is given, timing and counting each query made of
    it from outside; calls the family makes of itself are not seen."""

    def __init__(self, family, tracer: Tracer):
        self._family = family
        self._tracer = tracer

    def forbidden_subset(self, system, members):
        start = self._tracer.clock()
        witness = self._family.forbidden_subset(system, members)
        self._tracer.family_query("forbidden_subset",
                                  self._tracer.clock() - start,
                                  witness is not None)
        return witness

    def extends_member(self, system, members, new):
        start = self._tracer.clock()
        hit = self._family.extends_member(system, members, new)
        self._tracer.family_query("extends_member", self._tracer.clock() - start,
                                  hit)
        return hit

    def __getattr__(self, name):
        return getattr(self._family, name)


STAGES = ("grounds.construct", "system.validate", "build.build", "build.reduce",
          "build.level_reduce", "build.dump", "tree.restrict", "tree.tangles",
          "tree.certificates")
COUNTS = ("grounds.separations", "build.tree_nodes", "build.contractions",
          "build.report_bytes", "tree.levels", "families.forbidden_subset_calls",
          "families.extends_member_calls")


def layer_metrics(tracer: Tracer, scale: float) -> dict[str, float]:
    """Per-layer totals of one traced round, times multiplied by ``scale``.

    A stage's self time is its time minus the family queries made inside it.
    """
    out = {}
    for stage in STAGES:
        spans = [s for s in tracer.spans if s.name == stage]
        out[f"{stage}_s"] = scale * sum(s.seconds for s in spans)
        out[f"{stage}_self_s"] = scale * sum(s.seconds - s.family_s for s in spans)
    out["families.query_s"] = scale * tracer.family_s
    for name in COUNTS:
        out[name] = tracer.counts[name]
    calls = tracer.counts["families.forbidden_subset_calls"]
    out["families.witness_rate"] = (tracer.counts["families.witnesses"] / calls
                                    if calls else 0.0)
    return out
