"""Per-layer spans for the traced run, recorded from outside the program.

The traced run replaces selected class attributes of ``repro`` with
wrappers that only call through.  Each call is a span of the program's
own :class:`repro.obs.Tracer`: the span (name, parent, depth, start,
duration) lands in its ring buffer, and its duration in the tracer's
``trace_span_seconds`` histogram, whose count and sum per span name are
a layer's calls and busy time.  The benchmark adds only what the tracer
does not keep: a layer's *self* time, its span's duration minus the
part of that interval its child spans cover, and counts taken at the
same boundaries.

A call into a layer that is already on the thread's stack opens no span
of its own, so a layer calling itself is counted once and its busy time
is not doubled.  Parents are tracked per thread: a call made on an
executor thread (a serve tenant pump) has no parent, so the sweep that
waited for it keeps that wait in its self time.
"""

from __future__ import annotations

import functools
import importlib
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable

#: Spans kept for ``--out``; the ring buffer keeps the latest ones.
SPAN_CAPACITY = 100_000

#: (module, class, attribute, layer).  Layer names are the module names
#: the per-layer metrics are reported under.
LAYER_PATCHES = (
    ("repro.parsing.spell", "SpellParser", "consume",
     "parsing.spell.consume"),
    ("repro.parsing.spell", "SpellParser", "match", "parsing.spell.match"),
    ("repro.parsing.spell", "SpellParser", "match_batch",
     "parsing.spell.match"),
    ("repro.extraction.pipeline", "InformationExtractor", "build_all",
     "extraction"),
    ("repro.extraction.pipeline", "InformationExtractor",
     "to_intel_message", "extraction"),
    ("repro.graph.hwgraph", "HWGraphBuilder", "train_session", "graph"),
    ("repro.graph.hwgraph", "HWGraphBuilder", "build", "graph"),
    ("repro.detection.detector", "AnomalyDetector", "detect_job",
     "detection"),
    ("repro.detection.detector", "AnomalyDetector", "detect_session",
     "detection"),
    ("repro.stream.source", "FileFollowSource", "poll", "stream.source"),
    ("repro.serve.tenant", "BoundedQueueSource", "poll", "stream.source"),
    ("repro.stream.tracker", "SessionTracker", "observe", "stream.tracker"),
    ("repro.stream.tracker", "SessionTracker", "flush", "stream.tracker"),
    ("repro.stream.detector", "StreamingDetector", "observe",
     "stream.detector.observe"),
    ("repro.stream.detector", "StreamingDetector", "observe_batch",
     "stream.detector.observe"),
    ("repro.stream.detector", "StreamingDetector", "finalize",
     "stream.detector.finalize"),
    ("repro.stream.sink", "JsonLinesSink", "emit", "stream.sink"),
    ("repro.stream.checkpoint", "StreamCheckpoint", "save",
     "stream.checkpoint"),
    ("repro.serve.tenant", "Tenant", "pump", "serve.tenant.pump"),
    ("repro.serve.service", "DetectionService", "cycle",
     "serve.service.cycle"),
    ("repro.serve.registry", "ModelRegistry", "publish", "serve.registry"),
    ("repro.serve.registry", "ModelRegistry", "acquire", "serve.registry"),
    ("repro.query.store", "ModelStore", "from_intellog", "query.store"),
    ("repro.query.store", "ModelStore", "to_intellog", "query.store"),
    ("repro.query.store", "ModelStore", "save", "query.store"),
    ("repro.query.store", "ModelStore", "load_path", "query.store"),
)

#: Every layer, in reporting order.  ``parsing.formatters`` and
#: ``parsing.records`` spans come from the benchmark's own
#: ``parse_lines`` and ``split_sessions`` call sites; inside the stream
#: source, parsing is part of ``stream.source``.
LAYERS = ("parsing.formatters",) + tuple(
    dict.fromkeys(entry[3] for entry in LAYER_PATCHES)
) + ("parsing.records",)


class Ledger:
    """Spans, self times, counts and samples of one traced phase."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        from repro.obs import MetricsRegistry, TraceRecorder, Tracer

        self.registry = MetricsRegistry()
        self.tracer = Tracer(recorder=TraceRecorder(SPAN_CAPACITY),
                             registry=self.registry, clock=clock)
        self._local = threading.local()
        self._lock = threading.Lock()
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)

    def _open(self) -> list[list]:
        """This thread's open spans, innermost last, as
        ``[name, child seconds, span]``."""
        try:
            return self._local.open
        except AttributeError:
            self._local.open = []
            return self._local.open

    def _begin(self, name: str) -> list | None:
        open_ = self._open()
        if any(frame[0] == name for frame in open_):
            return None
        frame = [name, 0.0, self.tracer.span(name)]
        open_.append(frame)
        frame[2].__enter__()
        return frame

    def _end(self, frame: list) -> None:
        name, child, span = frame
        span.__exit__(None, None, None)
        open_ = self._open()
        open_.pop()
        if open_:
            open_[-1][1] += span.duration_s
        with self._lock:
            self.self_s[name] += max(0.0, span.duration_s - child)

    @contextmanager
    def span(self, name: str):
        """A span around a call the benchmark makes itself."""
        frame = self._begin(name)
        try:
            yield
        finally:
            if frame is not None:
                self._end(frame)

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        observe: Callable[[tuple, Any], None] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` timed as a span of ``name``; ``observe(args, result)``
        runs after the span closes, so its cost is not charged to it."""
        begin, end = self._begin, self._end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                if frame is not None:
                    end(frame)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += amount

    def sample(self, name: str, values: list[float]) -> None:
        with self._lock:
            self.samples[name].extend(values)

    def layers(self) -> dict[str, tuple[int, float]]:
        """``(calls, busy seconds)`` per span name, from the tracer's
        ``trace_span_seconds`` histogram."""
        from repro.obs import SPAN_HISTOGRAM

        histogram = self.registry.get(SPAN_HISTOGRAM)
        if histogram is None:
            return {}
        return {
            labels["span"]: (value["count"], value["sum"])
            for labels, value in histogram.samples() if "span" in labels
        }

    def span_dicts(self) -> list[dict[str, Any]]:
        return [r.to_dict() for r in self.tracer.recorder.records()]

    @property
    def dropped(self) -> int:
        return self.tracer.recorder.dropped


class Patches:
    """Class attributes replaced by traced wrappers until ``restore``."""

    def __init__(self, ledger: Ledger) -> None:
        self.ledger = ledger
        self._saved: list[tuple[type, str, Any]] = []

    def wrap(
        self,
        owner: type,
        attr: str,
        name: str,
        observe: Callable[[tuple, Any], None] | None = None,
    ) -> None:
        raw = owner.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            traced: Any = type(raw)(
                self.ledger.wrap(raw.__func__, name, observe)
            )
        else:
            traced = self.ledger.wrap(raw, name, observe)
        setattr(owner, attr, traced)
        self._saved.append((owner, attr, raw))

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


def _observers(ledger: Ledger, origin: dict[str, float]) -> dict:
    """Counts taken at the patched boundaries, keyed by (class, attr)."""

    def matched(args: tuple, result: Any) -> None:
        ledger.count("parsing.spell.messages", 1)

    def matched_batch(args: tuple, result: Any) -> None:
        ledger.count("parsing.spell.messages", len(args[1]))

    def tracked(args: tuple, result: Any) -> None:
        ledger.sample("stream.tracker.open_sessions", [args[0].open_count])

    def saved(args: tuple, result: Any) -> None:
        ledger.count("stream.checkpoint.bytes", os.path.getsize(args[1]))

    def file_polled(args: tuple, result: Any) -> None:
        # A backfilled file is wholly available when the round starts,
        # so a record's wait is how long the reader took to reach it.
        if result:
            wait_ms = (time.monotonic() - origin["t0"]) * 1000.0
            ledger.sample("stream.source.wait_ms", [wait_ms] * len(result))

    def pumped(args: tuple, result: Any) -> None:
        ledger.sample(
            "serve.tenant.queue_depth", [args[0].queue.queue_depth]
        )

    def cycled(args: tuple, result: Any) -> None:
        if not result:
            ledger.count("serve.service.idle_cycles", 1)

    return {
        ("SpellParser", "match"): matched,
        ("SpellParser", "match_batch"): matched_batch,
        ("SessionTracker", "observe"): tracked,
        ("StreamCheckpoint", "save"): saved,
        ("FileFollowSource", "poll"): file_polled,
        ("Tenant", "pump"): pumped,
        ("DetectionService", "cycle"): cycled,
    }


def install(ledger: Ledger, origin: dict[str, float]) -> Patches:
    """Wrap every layer boundary in :data:`LAYER_PATCHES`.

    ``origin["t0"]`` (monotonic seconds) is when the current backfill
    round started; the file source measures record waits from it.
    """
    observers = _observers(ledger, origin)
    patches = Patches(ledger)
    for module, cls_name, attr, layer in LAYER_PATCHES:
        owner = getattr(importlib.import_module(module), cls_name)
        patches.wrap(
            owner, attr, layer, observe=observers.get((cls_name, attr)),
        )
    return patches
