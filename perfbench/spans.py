"""Benchmark-owned tracing: spans around the calls into each layer.

The program is not edited to trace itself.  In a traced run the
benchmark swaps a layer's entry points for wrappers (:func:`patched`)
that open a :class:`Span` around each call; spans nest through a
per-thread stack, so a span opened inside another (a candidate search
inside ``prepare``) records it as its parent.  Spans stay in memory and
are reduced once the run ends.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    """One timed call: name, interval, causing span and request."""

    span_id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    rid: object = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from every thread; parents come from a thread stack."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, rid: object = None, **attrs):
        stack = self._stack()
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        span = Span(span_id, name, time.perf_counter(),
                    parent=stack[-1].span_id if stack else None,
                    rid=rid, attrs=attrs)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]


def covered(intervals, lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals
                     if min(b, hi) > max(a, lo))
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> dict[str, float]:
    """Total self time per span name, in seconds.

    A span's self time is its duration minus the part of its interval
    that its child spans cover (overlapping children count once).
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    totals: dict[str, float] = {}
    for span in spans:
        inner = covered(children.get(span.span_id, ()), span.start, span.end)
        totals[span.name] = totals.get(span.name, 0.0) \
            + span.duration - inner
    return totals


def root_busy(spans) -> float:
    """Summed duration of spans no other span caused (the busy time)."""
    return sum(span.duration for span in spans if span.parent is None)


@contextmanager
def patched(owner, attr: str, make_wrapper):
    """Replace ``owner.attr`` with ``make_wrapper(original)`` for a block."""
    original = getattr(owner, attr)
    had_own = attr in vars(owner)
    setattr(owner, attr, make_wrapper(original))
    try:
        yield
    finally:
        if had_own:
            setattr(owner, attr, original)
        else:
            delattr(owner, attr)
