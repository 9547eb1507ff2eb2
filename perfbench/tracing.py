"""In-memory spans for the traced benchmark run.

A span records a name, its start and end on the ``perf_counter`` clock, the
span that was open when it began, and free-form attributes.  Spans stay in a
list until the run ends; nothing is written while the workload runs.  The
untraced run uses ``NullTracer``, whose spans record nothing.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        sid = len(self.spans)
        rec = {"id": sid, "name": name, "parent": self._open[-1] if self._open else None, "attrs": attrs}
        self.spans.append(rec)
        self._open.append(sid)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def self_times(self, root: str) -> dict[str, float]:
        """Total self time per span name, over the spans under top-level spans named ``root``.

        A span's self time is its duration minus the durations of its
        direct children.
        """
        top: dict[int, str] = {}
        child = {s["id"]: 0.0 for s in self.spans}
        for s in self.spans:  # a parent is always listed before its children
            top[s["id"]] = s["name"] if s["parent"] is None else top[s["parent"]]
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s in self.spans:
            if top[s["id"]] == root:
                out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"]) - child[s["id"]]
        return out


class NullTracer:
    @contextmanager
    def span(self, name: str, **attrs):
        yield None


NULL = NullTracer()
