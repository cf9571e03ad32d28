"""`repro.obs` — dependency-free runtime observability (ISSUE 5).

Metric primitives (:mod:`repro.obs.registry`), hierarchical timing
(:mod:`repro.obs.span`), and exporters (:mod:`repro.obs.export`).
Subsystems accept a :class:`MetricsRegistry` at construction or via an
``instrument()`` hook; nothing in the package imports the rest of
``repro``, so every layer can depend on it without cycles.  Nor does it
load the HTTP/TLS stack (``http``, ``socketserver``, ``email``,
``ssl``) until a :class:`MetricsServer` starts, so a process without a
metrics endpoint does not pay its 6.5 MB of RSS.

Spans cost a few microseconds each, so hot loops do not open them per
item: the stream runtime times its stages with ``perf_counter`` deltas
into one histogram observation per stage per poll batch
(``stream_stage_seconds``), and an instrumented detector records its
per-session ``detect.*`` spans only when it is handed a :class:`Tracer`
(``repro detect --metrics-out`` does; the stream and serve runtimes do
not).
"""

from .export import (
    SNAPSHOT_FORMAT,
    MetricsServer,
    json_snapshot,
    prometheus_text,
    render_snapshot,
    start_metrics_server,
    write_snapshot,
)
from .registry import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .span import SPAN_HISTOGRAM, Span, SpanRecord, TraceRecorder, Tracer, trace

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "SNAPSHOT_FORMAT",
    "SPAN_HISTOGRAM",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsServer",
    "Span",
    "SpanRecord",
    "TraceRecorder",
    "Tracer",
    "json_snapshot",
    "prometheus_text",
    "render_snapshot",
    "start_metrics_server",
    "trace",
    "write_snapshot",
]
