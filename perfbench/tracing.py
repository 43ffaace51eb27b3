"""In-memory span recorder for the traced run.

A span is a name, a start and end from `time.perf_counter_ns`, the index of
its parent span, the id of the operation it belongs to (unique within one
traced run, across workloads), and free attributes
(node counts, errors).  Spans are only opened by the benchmark's own files,
around calls into a layer's public function; nothing inside hyperslice is
instrumented.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.op_id: int | None = None
        self._ops = 0
        self._stack: list[int] = []

    @contextmanager
    def op(self, name: str):
        """The span of one operation, under the next op id."""
        self.op_id = self._ops
        self._ops += 1
        try:
            with self.span("op", op_name=name) as rec:
                yield rec
        finally:
            self.op_id = None

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "name": name,
            "start": 0,
            "end": 0,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op_id,
        }
        rec.update(attrs)
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec["start"] = time.perf_counter_ns()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter_ns()
            self._stack.pop()

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def self_ns(self) -> list[int]:
        """Each span's duration minus the part of its interval its children cover."""
        children: dict[int, list[tuple[int, int]]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append((s["start"], s["end"]))
        out = []
        for idx, s in enumerate(self.spans):
            covered = 0
            hi_seen = s["start"]
            for lo, hi in sorted(children.get(idx, [])):
                lo, hi = max(lo, hi_seen), min(hi, s["end"])
                if hi > lo:
                    covered += hi - lo
                    hi_seen = hi
            out.append(s["end"] - s["start"] - covered)
        return out
