"""In-memory spans recorded around calls into ``repro``'s layers.

A span is ``(id, name, start, end, parent, request_id)``.  Parents are
tracked per thread, so a span opened on the batcher thread never becomes
the child of one opened on the generator thread; spans of one request
share its ``request_id`` instead.  Spans stay in memory and are written
as JSON lines when the workload ends, so recording costs one clock read
and one list append per boundary.

A span's *self time* is its duration minus the part of that interval its
child spans cover; summing self times by layer attributes wall time
without counting anything twice.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict

__all__ = ["Tracer"]


class _Span:
    __slots__ = ("tracer", "name", "request_id", "id", "parent", "start")

    def __init__(self, tracer: "Tracer", name: str, request_id):
        self.tracer = tracer
        self.name = name
        self.request_id = request_id

    def __enter__(self) -> "_Span":
        stack = self.tracer._stack()
        self.id = next(self.tracer._ids)
        self.parent = stack[-1] if stack else None
        stack.append(self.id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        end = time.perf_counter()
        self.tracer._stack().pop()
        self.tracer.spans.append((self.id, self.name, self.start, end,
                                  self.parent, self.request_id))


class Tracer:
    """Collects spans; see the module docstring for the model."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, request_id=None) -> _Span:
        return _Span(self, name, request_id)

    # -- analysis -------------------------------------------------------
    def durations(self, name: str) -> list[float]:
        return [end - start for _, span_name, start, end, _, _ in self.spans
                if span_name == name]

    def self_times(self) -> dict[int, float]:
        """Self time of every span, keyed by span id."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        result = {}
        for span_id, _, start, end, _, _ in self.spans:
            covered = 0.0
            cursor = start
            for child_start, child_end in sorted(children.get(span_id, ())):
                child_start = max(child_start, cursor)
                child_end = min(child_end, end)
                if child_end > child_start:
                    covered += child_end - child_start
                    cursor = child_end
            result[span_id] = (end - start) - covered
        return result

    def self_time_by_name(self) -> dict[str, list[float]]:
        self_times = self.self_times()
        by_name: dict[str, list[float]] = defaultdict(list)
        for span_id, name, *_ in self.spans:
            by_name[name].append(self_times[span_id])
        return by_name

    # -- output ---------------------------------------------------------
    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as handle:
            for span_id, name, start, end, parent, request_id in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "request_id": request_id,
                }) + "\n")
