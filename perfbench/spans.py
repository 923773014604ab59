"""Spans recorded by the benchmark around each public call, and self time.

A span is ``(op, name, parent, start_ns, end_ns)``: spans of one op share
the op id, and ``parent`` names the span that caused this one (``None``
for the op's root).  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

#: the read op's layers, in call order, between its six clock stamps
READ_LAYERS = ("planner.bind", "planner.plan", "engine.prepare",
               "joins.execute", "engine.close")


class SpanRecorder:
    def __init__(self):
        self.spans: list[tuple] = []

    def read(self, op: int, stamps: tuple) -> None:
        """Record one read op from the stamps ``Workload.read`` returns."""
        self.spans.append((op, "op.read", None, stamps[0], stamps[-1]))
        for name, start, end in zip(READ_LAYERS, stamps, stamps[1:]):
            self.spans.append((op, name, "op.read", start, end))

    def write(self, op: int, start: int, end: int) -> None:
        self.spans.append((op, "op.write", None, start, end))
        self.spans.append((op, "storage.extend", "op.write", start, end))

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for op, name, parent, start, end in self.spans:
                out.write(json.dumps({"op": op, "name": name, "parent": parent,
                                      "start_ns": start, "end_ns": end}) + "\n")


def _covered(start: int, end: int, intervals: list[tuple[int, int]]) -> int:
    """Length of ``[start, end)`` covered by the union of ``intervals``."""
    covered, reach = 0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


def self_times(spans: list[tuple]) -> dict[str, list[tuple[int, int]]]:
    """Per span name, ``(op, self time)`` of each span: its duration minus
    the part of it its children cover.  Span names are unique per op."""
    children: dict[tuple, list[tuple[int, int]]] = defaultdict(list)
    for op, _name, parent, start, end in spans:
        if parent is not None:
            children[(op, parent)].append((start, end))
    result: dict[str, list[tuple[int, int]]] = defaultdict(list)
    for op, name, _parent, start, end in spans:
        result[name].append((op, end - start - _covered(
            start, end, children.get((op, name), []))))
    return result
