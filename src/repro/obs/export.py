"""Exporters: Prometheus text exposition, canonical JSON snapshots,
a human-readable renderer, and the ``--metrics-port`` HTTP endpoint.

Two serializations of one registry:

* :func:`prometheus_text` — the text exposition format (version 0.0.4)
  that any Prometheus-compatible scraper understands, served by
  :func:`start_metrics_server` for ``repro watch --metrics-port``;
* :func:`json_snapshot` — a canonical dict (sorted metrics, sorted
  labels, stable shapes) written by ``--metrics-out`` on exit and
  rendered back by ``repro stats``.

Only a running endpoint needs the HTTP/TLS stack: ``http.server`` pulls
in ``http.client``, ``socketserver``, ``email`` and ``ssl``, so
:meth:`MetricsServer.start` imports it and builds the request handler
then, once per process.  Importing this module stays light: ``import
repro.obs`` after ``import repro`` adds about 0.2 MB of RSS, and
``http.server`` would add 6.5 MB more.

The snapshot's ``snapshot_unix_s`` stamp is the one sanctioned
wall-clock read in the observability layer: it labels *when the export
happened* for operators correlating snapshots with cluster events, and
is never used as a measurement (all durations come from monotonic
clocks — see the DESIGN observability note and the astlint DET002
allowlist for ``repro/obs``).
"""

from __future__ import annotations

import functools
import json
import math
import threading
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any

from .registry import Histogram, MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from http.server import ThreadingHTTPServer

__all__ = [
    "SNAPSHOT_FORMAT",
    "MetricsServer",
    "json_snapshot",
    "prometheus_text",
    "render_snapshot",
    "start_metrics_server",
    "write_snapshot",
]

SNAPSHOT_FORMAT = "repro-metrics-v1"

#: Quantiles surfaced by the human renderer for histograms.
_RENDER_QUANTILES = (0.5, 0.99)


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _format_labels(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label_value(value)}"'
        for name, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def prometheus_text(registry: MetricsRegistry) -> str:
    """Render the registry in the Prometheus text exposition format."""
    lines: list[str] = []
    for metric in registry.metrics():
        if metric.help:
            lines.append(f"# HELP {metric.name} {metric.help}")
        lines.append(f"# TYPE {metric.name} {metric.kind}")
        if isinstance(metric, Histogram):
            for labels, sample in metric.samples():
                for le, count in sample["buckets"]:
                    bucket_labels = dict(labels)
                    bucket_labels["le"] = (
                        "+Inf" if le == "+Inf" else _format_value(float(le))
                    )
                    lines.append(
                        f"{metric.name}_bucket"
                        f"{_format_labels(bucket_labels)} {count}"
                    )
                lines.append(
                    f"{metric.name}_sum{_format_labels(labels)} "
                    f"{repr(sample['sum'])}"
                )
                lines.append(
                    f"{metric.name}_count{_format_labels(labels)} "
                    f"{sample['count']}"
                )
        else:
            for labels, value in metric.samples():
                lines.append(
                    f"{metric.name}{_format_labels(labels)} "
                    f"{_format_value(value)}"
                )
    return "\n".join(lines) + "\n"


def json_snapshot(
    registry: MetricsRegistry, *, stamp: bool = True
) -> dict[str, Any]:
    """Canonical dict form of the registry.

    ``stamp=False`` omits the wall-clock export stamp, producing fully
    deterministic output (used by the golden exporter tests).
    """
    metrics: dict[str, Any] = {}
    for metric in registry.metrics():
        samples: list[dict[str, Any]] = []
        for labels, value in metric.samples():
            entry: dict[str, Any] = {"labels": labels}
            if isinstance(metric, Histogram):
                entry.update(value)
            else:
                entry["value"] = value
            samples.append(entry)
        metrics[metric.name] = {
            "type": metric.kind,
            "help": metric.help,
            "samples": samples,
        }
    snapshot: dict[str, Any] = {"format": SNAPSHOT_FORMAT}
    if stamp:
        snapshot["snapshot_unix_s"] = round(time.time(), 3)  # repro: allow=DET002 -- stamps when the export happened, never a measurement
    snapshot["metrics"] = metrics
    return snapshot


def write_snapshot(
    registry: MetricsRegistry, path: str | Path
) -> dict[str, Any]:
    """Serialize :func:`json_snapshot` to ``path``; returns the dict."""
    snapshot = json_snapshot(registry)
    Path(path).write_text(
        json.dumps(snapshot, indent=2, sort_keys=True) + "\n"
    )
    return snapshot


def _histogram_quantile(sample: dict[str, Any], q: float) -> float:
    """Estimate a quantile from a snapshot's cumulative buckets."""
    count = sample.get("count", 0)
    if not count:
        return 0.0
    rank = q * count
    lower = 0.0
    previous = 0
    finite_upper = 0.0
    for le, cumulative in sample.get("buckets", ()):
        if le == "+Inf":
            break
        upper = float(le)
        finite_upper = upper
        if cumulative >= rank and cumulative > previous:
            in_bucket = cumulative - previous
            fraction = (rank - previous) / in_bucket
            return lower + (upper - lower) * fraction
        lower = upper
        previous = cumulative
    return finite_upper


def render_snapshot(snapshot: dict[str, Any]) -> str:
    """Human-readable rendering of a saved snapshot (``repro stats``)."""
    if snapshot.get("format") != SNAPSHOT_FORMAT:
        raise ValueError(
            f"not a {SNAPSHOT_FORMAT} snapshot "
            f"(format={snapshot.get('format')!r})"
        )
    lines: list[str] = []
    stamp = snapshot.get("snapshot_unix_s")
    if stamp is not None:
        lines.append(f"snapshot taken at unix {stamp}")
    for name, metric in sorted(snapshot.get("metrics", {}).items()):
        kind = metric.get("type", "untyped")
        lines.append(f"{name} ({kind})")
        for sample in metric.get("samples", ()):
            labels = _format_labels(sample.get("labels", {})) or "-"
            if kind == "histogram":
                count = sample.get("count", 0)
                total = sample.get("sum", 0.0)
                quantiles = "  ".join(
                    f"p{int(q * 100)}={_histogram_quantile(sample, q):.6f}s"
                    for q in _RENDER_QUANTILES
                )
                lines.append(
                    f"  {labels}  count={count}  sum={total:.6f}s  "
                    f"{quantiles}"
                )
            else:
                lines.append(
                    f"  {labels}  {_format_value(sample.get('value', 0.0))}"
                )
    return "\n".join(lines)


@functools.cache
def _metrics_handler() -> type:
    """The ``/metrics`` request handler class, built on first use.

    ``http.server`` pulls in ``http.client``, ``socketserver``,
    ``email`` and ``ssl``; only a running endpoint needs them, so they
    are imported here rather than with the module.
    """
    from http.server import BaseHTTPRequestHandler

    class _MetricsHandler(BaseHTTPRequestHandler):
        registry: MetricsRegistry  # injected by MetricsServer
        #: Extra JSON routes: path -> zero-arg callable returning a
        #: JSON-serialisable object (e.g. ``/tenants`` on the serve fleet).
        #: This is the *live* mapping owned by the MetricsServer — routes
        #: added via :meth:`MetricsServer.add_json_route` after startup are
        #: visible to the next request (the handler reads per request).
        json_routes: dict[str, Any] = {}

        def do_GET(self) -> None:  # noqa: N802 - http.server API
            path = self.path.split("?", 1)[0]
            route = self.json_routes.get(path)
            if route is not None:
                body = json.dumps(
                    route(), indent=2, sort_keys=True
                ).encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)
                return
            if path not in ("/metrics", "/"):
                routes = ", ".join(sorted(self.json_routes) or ())
                self.send_error(
                    404,
                    "only /metrics is served"
                    + (f" (plus {routes})" if routes else ""),
                )
                return
            body = prometheus_text(self.registry).encode("utf-8")
            self.send_response(200)
            self.send_header(
                "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
            )
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, format: str, *args: Any) -> None:
            """Silence per-request stderr logging (scrapes are periodic)."""

    return _MetricsHandler


class MetricsServer:
    """A background thread serving ``/metrics`` for one registry.

    The server is restartable: :meth:`stop` releases the listener
    socket and joins the thread, after which :meth:`start` binds a
    fresh socket (with ``port=0`` a *new* free port each cycle).  The
    constructor starts the server by default for backward
    compatibility; pass ``start=False`` to construct idle and start
    explicitly (the serving layer does, across restarts).
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        port: int,
        host: str = "127.0.0.1",
        *,
        json_routes: dict[str, Any] | None = None,
        start: bool = True,
    ) -> None:
        self._registry = registry
        self._requested_port = port
        self._host = host
        self._json_routes = dict(json_routes or {})
        self._lock = threading.Lock()
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None
        if start:
            self.start()

    def start(self) -> "MetricsServer":
        """Bind and serve; idempotent while already running."""
        from http.server import ThreadingHTTPServer

        # Socket creation is real IO — do it outside the lock, then
        # publish under the lock.  A concurrent start() that lost the
        # publication race closes its own socket and defers.
        # The handler gets the server's *live* route mapping, not a
        # copy, so add_json_route() works on a running server.  Reads
        # are single dict lookups (atomic under the GIL); writes happen
        # under self._lock.
        handler = type(
            "_BoundMetricsHandler", (_metrics_handler(),),
            {
                "registry": self._registry,
                "json_routes": self._json_routes,
            },
        )
        with self._lock:
            if self._server is not None:
                return self
        server = ThreadingHTTPServer(
            (self._host, self._requested_port), handler
        )
        thread = threading.Thread(
            target=server.serve_forever,
            name="repro-metrics-exporter",
            daemon=True,
        )
        publish = False
        with self._lock:
            if self._server is None:
                self._server = server
                self._thread = thread
                publish = True
        if publish:
            thread.start()
        else:
            server.server_close()
        return self

    def add_json_route(self, path: str, route: Any) -> None:
        """Register a JSON route on a (possibly running) server.

        ``route`` is a zero-arg callable returning a JSON-serialisable
        object; it becomes visible to the very next request.  Restarts
        keep every registered route.
        """
        if not path.startswith("/"):
            raise ValueError(f"route path must start with '/': {path!r}")
        with self._lock:
            self._json_routes[path] = route

    @property
    def running(self) -> bool:
        with self._lock:
            return self._server is not None

    @property
    def port(self) -> int:
        with self._lock:
            server = self._server
        if server is None:
            raise RuntimeError("metrics server is not running")
        return int(server.server_address[1])

    @property
    def url(self) -> str:
        with self._lock:
            server = self._server
        if server is None:
            raise RuntimeError("metrics server is not running")
        host = server.server_address[0]
        return f"http://{host}:{int(server.server_address[1])}/metrics"

    def stop(self) -> None:
        """Shut down, release the socket and join the listener thread.

        Idempotent; after ``stop`` the instance can :meth:`start`
        again (a fresh bind — under ``port=0`` likely a fresh port).
        """
        with self._lock:
            server, self._server = self._server, None
            thread, self._thread = self._thread, None
        if server is None:
            return
        # shutdown() blocks on the serve_forever loop and join() on the
        # thread — both outside the lock so a concurrent start() (which
        # will see the cleared slot and bind anew) is never held up.
        server.shutdown()
        server.server_close()
        if thread is not None:
            thread.join(timeout=5.0)

    def close(self) -> None:
        self.stop()


def start_metrics_server(
    registry: MetricsRegistry, port: int, host: str = "127.0.0.1"
) -> MetricsServer:
    """Serve ``registry`` at ``http://host:port/metrics`` (port 0 picks
    a free port; read it back from ``server.port``)."""
    return MetricsServer(registry, port, host)
