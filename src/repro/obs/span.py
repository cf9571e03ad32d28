"""Hierarchical timing: spans, a ring-buffer recorder, and tracers.

A :class:`Span` measures one named region of work against a monotonic
clock; nesting spans (or pre-measured :meth:`Tracer.record` calls made
inside an open span) yields a parent/depth chain, so a recorded trace
reads like a flame graph of the pipeline::

    tracer = Tracer(registry=registry)
    with tracer.span("train"):
        with tracer.span("train.parse"):
            ...
    tracer.recorder.records()   # [train.parse (depth 1), train]

Completed spans land in a bounded :class:`TraceRecorder` (a ring buffer
— old spans are dropped, never the process) and, when the tracer is
built over a :class:`~repro.obs.registry.MetricsRegistry`, feed the
``trace_span_seconds`` histogram labeled by span name, so exporters see
phase latencies without replaying the trace.

All timing uses ``time.perf_counter`` (monotonic); see the DESIGN note
on why the observability layer never derives measurements from wall
clocks.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .registry import Histogram, MetricsRegistry

__all__ = ["Span", "SpanRecord", "TraceRecorder", "Tracer", "trace"]

#: Metric fed by every completed span of a registry-backed tracer.
SPAN_HISTOGRAM = "trace_span_seconds"


@dataclass(slots=True)
class SpanRecord:
    """One completed span, as stored in the trace ring buffer."""

    name: str
    #: Name of the innermost span open when this one started (None at
    #: top level).
    parent: str | None
    #: Nesting depth at completion time (0 = top level).
    depth: int
    #: Start instant on the tracer's monotonic clock (comparable only
    #: within one process lifetime).
    start_s: float
    duration_s: float
    attrs: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "parent": self.parent,
            "depth": self.depth,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "attrs": dict(self.attrs),
        }


class TraceRecorder:
    """Bounded buffer of completed spans (oldest evicted first)."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._buffer: deque[SpanRecord] = deque(maxlen=capacity)
        self._total = 0

    def record(self, record: SpanRecord) -> None:
        with self._lock:
            self._buffer.append(record)
            self._total += 1

    def records(self) -> list[SpanRecord]:
        """Retained spans, oldest first."""
        with self._lock:
            return list(self._buffer)

    @property
    def total(self) -> int:
        """Spans ever recorded (including since-evicted ones)."""
        with self._lock:
            return self._total

    @property
    def dropped(self) -> int:
        """Spans evicted by the ring buffer."""
        with self._lock:
            return self._total - len(self._buffer)


class Span:
    """Context manager timing one region; exposes ``duration_s`` after
    exit."""

    __slots__ = ("name", "attrs", "duration_s", "_tracer", "_start")

    def __init__(
        self, tracer: "Tracer", name: str, attrs: dict[str, Any]
    ) -> None:
        self.name = name
        self.attrs = attrs
        self.duration_s = 0.0
        self._tracer = tracer
        self._start = 0.0

    def __enter__(self) -> "Span":
        self._start = self._tracer._clock()
        self._tracer._push(self.name)
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self._tracer._pop()
        self.duration_s = max(
            0.0, self._tracer._clock() - self._start
        )
        self._tracer._finish(
            self.name, self._start, self.duration_s, self.attrs
        )


class Tracer:
    """Produces spans against one recorder (and optional registry).

    The open-span stack is thread-local, so concurrent threads build
    independent hierarchies into the shared recorder.
    """

    def __init__(
        self,
        recorder: TraceRecorder | None = None,
        registry: "MetricsRegistry | None" = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.recorder = recorder or TraceRecorder()
        self._clock = clock
        self._local = threading.local()
        self._histogram: "Histogram | None" = None
        # Labeled child per span name — labels() is idempotent, so the
        # unlocked get/set race is benign (both writers store the same
        # child object).
        self._span_children: dict[str, "Histogram"] = {}
        if registry is not None:
            self._histogram = registry.histogram(
                SPAN_HISTOGRAM,
                "Duration of traced pipeline spans by name.",
            )

    # -- public API -------------------------------------------------------

    def span(self, name: str, **attrs: Any) -> Span:
        """A context manager timing ``name`` as a child of the current
        span."""
        return Span(self, name, attrs)

    def record(
        self, name: str, duration_s: float, **attrs: Any
    ) -> SpanRecord:
        """Record a pre-measured duration as a span.

        For phases whose time is accumulated across many small slices
        (e.g. the per-record match time inside ``detect_session``) where
        opening a context manager per slice would distort the numbers.
        The span is parented under whatever span is currently open.
        """
        start = self._clock() - max(0.0, duration_s)
        return self._finish(name, start, max(0.0, duration_s), attrs)

    # -- span bookkeeping -------------------------------------------------

    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _push(self, name: str) -> None:
        self._stack().append(name)

    def _pop(self) -> None:
        stack = self._stack()
        if stack:
            stack.pop()

    def _finish(
        self,
        name: str,
        start_s: float,
        duration_s: float,
        attrs: dict[str, Any],
    ) -> SpanRecord:
        stack = self._stack()
        record = SpanRecord(
            name=name,
            parent=stack[-1] if stack else None,
            depth=len(stack),
            start_s=start_s,
            duration_s=duration_s,
            attrs=attrs,
        )
        self.recorder.record(record)
        if self._histogram is not None:
            child = self._span_children.get(name)
            if child is None:
                child = self._span_children[name] = self._histogram.labels(
                    span=name
                )
            child.observe(duration_s)
        return record


#: Process-default tracer backing the bare :func:`trace` helper — handy
#: for ad-hoc timing; subsystems that export metrics build their own
#: ``Tracer(registry=...)`` instead.
_DEFAULT_TRACER = Tracer()


def trace(name: str, **attrs: Any) -> Span:
    """``with trace("phase"):`` against the process-default tracer."""
    return _DEFAULT_TRACER.span(name, **attrs)
