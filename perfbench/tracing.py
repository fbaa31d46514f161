"""Spans recorded around the benchmark's calls into each multiport module.

A span is (id, parent, name, start, end, attrs). Spans are kept in memory and
written as JSON lines when the run ends. With tracing off the benchmark uses
:data:`OFF`, whose ``span`` returns one shared no-op context manager.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.workload = ""
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        """Record one span; ``attrs`` may be extended inside the block."""
        record = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "workload": self.workload,
            "attrs": attrs,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield attrs
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, seconds: float, **attrs) -> None:
        """Record a span timed elsewhere, such as inside a child process."""
        now = time.perf_counter()
        self.spans.append(
            {
                "id": len(self.spans),
                "parent": self._stack[-1] if self._stack else None,
                "name": name,
                "workload": self.workload,
                "attrs": attrs,
                "start": now - seconds,
                "end": now,
            }
        )

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record, sort_keys=True) + "\n")


class _Off:
    _null = nullcontext({})

    def span(self, name: str, **attrs):
        return self._null


OFF = _Off()
