"""In-memory span recorder for the traced benchmark run.

A span is opened around one call the harness makes into the library.
Spans carry their name, start and end (``perf_counter`` seconds), the
index of the enclosing span and the id of the benchmark item they
belong to.  Nothing is written until the run ends.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    item: str | None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.item: str | None = None
        self._open: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        parent = self._open[-1] if self._open else None
        span = Span(name, perf_counter(), 0.0, parent, self.item)
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            self._open.pop()

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus the time the
        span's direct children cover."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.end - span.start
        totals: dict[str, float] = {}
        for span, inner in zip(self.spans, covered):
            totals[span.name] = totals.get(span.name, 0.0) + span.end - span.start - inner
        return totals

    def write(self, path) -> None:
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(asdict(span)) + "\n")


def direct(name: str, fn, *args, **kwargs):
    """The untraced stand-in for ``Tracer.call``."""
    return fn(*args, **kwargs)
