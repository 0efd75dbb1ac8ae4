"""In-memory span recorder and the self-time arithmetic over its span trees.

A span is (name, start, end, parent); spans of one job share a job id.
Spans stay in memory and are summarised when the benchmark ends.  Self time
is a span's duration minus the part of that interval its child spans cover.
"""
from __future__ import annotations

import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    job: int
    parent: int            # index into Recorder.spans, -1 for a job's root
    start: float
    end: float = 0.0


class Recorder:
    """Spans plus counters and maxima recorded at the same boundaries."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.maxima: dict[str, float] = {}
        self.job = -1
        self._stack: list[int] = []

    def enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.job, parent, time.perf_counter()))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def exit(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span stack out of order: {popped} != {idx}")

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def maximum(self, name: str, value: float) -> None:
        if value > self.maxima.get(name, float("-inf")):
            self.maxima[name] = value


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Self time of every span: duration minus the union of its children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        kids = [(max(a, s.start), min(b, s.end)) for a, b in children.get(i, [])]
        out.append((s.end - s.start) - _covered([k for k in kids if k[1] > k[0]]))
    return out


def self_by_name(spans: list[Span]) -> dict[str, float]:
    totals: dict[str, float] = {}
    for s, t in zip(spans, self_times(spans)):
        totals[s.name] = totals.get(s.name, 0.0) + t
    return totals


def self_by_job(spans: list[Span]) -> dict[int, float]:
    totals: dict[int, float] = {}
    for s, t in zip(spans, self_times(spans)):
        totals[s.job] = totals.get(s.job, 0.0) + t
    return totals
