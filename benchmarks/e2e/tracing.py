"""Driver-side spans: name, start, end, parent — recorded from the
benchmark's own files around each call into a layer, kept in memory and
written out when the run ends.  Spans inside ``src/`` are a later issue.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter_ns
from typing import Dict, List

ROOT = "burst"


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class NullTracer:
    """Tracing off: every ``tracer(name)`` is one shared no-op context."""

    _span = _NullSpan()

    def __call__(self, name: str) -> _NullSpan:
        return self._span


NULL_TRACER = NullTracer()


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        stack = tracer._stack
        self.index = len(tracer.spans)
        # [name, start, end, parent]; the span's id is its index.
        tracer.spans.append([self.name, 0, 0, stack[-1] if stack else -1])
        stack.append(self.index)
        tracer.spans[self.index][1] = perf_counter_ns()
        return self

    def __exit__(self, *exc):
        end = perf_counter_ns()
        self.tracer.spans[self.index][2] = end
        self.tracer._stack.pop()
        return False


class Tracer:
    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []

    def __call__(self, name: str) -> _Span:
        return _Span(self, name)

    def root_durations(self) -> List[int]:
        return [end - start for _n, start, end, parent in self.spans
                if parent < 0]

    def shares(self) -> Dict[str, float]:
        """Self time per span name over total root time.  A span's self
        time is its duration minus the part its children cover, so the
        shares of one trace sum to 1."""
        child_time = [0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_time: Dict[str, int] = defaultdict(int)
        total = 0
        for (name, start, end, parent), covered in zip(self.spans, child_time):
            self_time[name] += (end - start) - covered
            if parent < 0:
                total += end - start
        return {name: value / total for name, value in self_time.items()}

    def write(self, path: str, **header) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    **header,
                    "fields": ["id", "name", "start_ns", "end_ns", "parent"],
                    "spans": [[i] + span for i, span in enumerate(self.spans)],
                },
                fh,
            )
