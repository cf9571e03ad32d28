"""Tests for the observability layer (``repro.obs``)."""

import json
import math
import sys
import threading
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    SPAN_HISTOGRAM,
    MetricsRegistry,
    MetricsServer,
    SpanRecord,
    TraceRecorder,
    Tracer,
    json_snapshot,
    prometheus_text,
    render_snapshot,
    start_metrics_server,
    trace,
    write_snapshot,
)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = MetricsRegistry().counter("requests_total")
        assert c.value == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_increment_rejected(self):
        c = MetricsRegistry().counter("requests_total")
        with pytest.raises(ValueError):
            c.inc(-1.0)

    def test_restore_sets_absolute_value(self):
        c = MetricsRegistry().counter("requests_total")
        c.inc(5)
        c.restore(42.0)
        assert c.value == 42.0

    def test_labeled_children_are_isolated_and_cached(self):
        c = MetricsRegistry().counter("closed_total")
        c.labels(reason="flush").inc()
        c.labels(reason="eviction").inc(3)
        assert c.labels(reason="flush") is c.labels(reason="flush")
        assert c.labels(reason="flush").value == 1.0
        assert c.labels(reason="eviction").value == 3.0
        samples = c.samples()
        assert samples == [
            ({"reason": "eviction"}, 3.0),
            ({"reason": "flush"}, 1.0),
        ]

    def test_label_order_and_repeats_share_one_child(self):
        c = MetricsRegistry().counter("pair_total")
        first = c.labels(a="1", b="2")
        assert c.labels(b="2", a="1") is first
        assert c.labels(a="1", b="2") is first
        first.inc()
        c.labels(b="2", a="1").inc()
        assert c.samples() == [({"a": "1", "b": "2"}, 2.0)]

    def test_non_str_values_keep_their_own_children(self):
        # 1, 1.0 and True compare equal but stringify differently: each
        # must reach the child of its own str(), before and after the
        # "1" child was cached.
        c = MetricsRegistry().counter("typed_total")
        c.labels(n="1").inc()
        c.labels(n=1).inc()
        c.labels(n=True).inc(5)
        c.labels(n=1.0).inc(7)
        assert c.labels(n="1") is c.labels(n=1)
        assert c.samples() == [
            ({"n": "1"}, 2.0), ({"n": "1.0"}, 7.0), ({"n": "True"}, 5.0),
        ]

    def test_invalid_label_name_raises_every_time(self):
        c = MetricsRegistry().counter("bad_label_total")
        for _ in range(2):
            with pytest.raises(ValueError):
                c.labels(**{"bad-name": "x"})

    def test_unlabeled_sample_appears_when_touched(self):
        c = MetricsRegistry().counter("mixed_total")
        c.inc(2)
        c.labels(kind="a").inc()
        labels = [lbl for lbl, _ in c.samples()]
        assert labels == [{}, {"kind": "a"}]


class TestGauge:
    def test_remove_drops_the_series_until_labels_recreates_it(self):
        g = MetricsRegistry().gauge("tenant_records")
        g.labels(tenant="a").set(3)
        g.labels(tenant="b").set(5)
        old = g.labels(tenant="b")
        g.remove(tenant="b")
        g.remove(tenant="b")  # already gone: a no-op
        g.remove(tenant="never")
        assert g.samples() == [({"tenant": "a"}, 3.0)]
        fresh = g.labels(tenant="b")
        assert fresh is not old and fresh.value == 0.0
        fresh.set(1)
        assert g.samples() == [
            ({"tenant": "a"}, 3.0), ({"tenant": "b"}, 1.0),
        ]

    def test_remove_drops_every_alias_of_the_child(self):
        g = MetricsRegistry().gauge("typed")
        g.labels(n=1, m="x").set(2)
        g.labels(m="x", n="1").set(4)  # the same child, another order
        g.remove(m="x", n=1)
        assert g.samples() == [({}, 0.0)]
        assert not g._by_raw
        g.labels(n="1", m="x").set(7)
        assert g.samples() == [({"m": "x", "n": "1"}, 7.0)]

    def test_labels_and_remove_race(self):
        """Eight threads create, set and remove four label sets at
        once; afterwards every cached alias points at a live child, so
        the next write to any set shows in the samples."""
        g = MetricsRegistry().gauge("churn")
        barrier = threading.Barrier(8, timeout=30)
        errors: list[BaseException] = []

        def churn(k: int) -> None:
            try:
                barrier.wait()
                for i in range(2000):
                    tenant = f"t{(k + i) % 4}"
                    if (k + i) % 3:
                        g.labels(tenant=tenant).set(i)
                    else:
                        g.remove(tenant=tenant)
            except BaseException as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=churn, args=(k,)) for k in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        live = list(g._children.values())
        assert all(
            any(child is c for c in live) for child in g._by_raw.values()
        )
        for k in range(4):
            g.labels(tenant=f"t{k}").set(100 + k)
        assert g.samples() == [
            ({"tenant": f"t{k}"}, 100.0 + k) for k in range(4)
        ]

    def test_set_inc_dec(self):
        g = MetricsRegistry().gauge("open_sessions")
        g.set(10)
        g.inc()
        g.dec(4)
        assert g.value == 7.0

    def test_gauge_may_go_negative(self):
        g = MetricsRegistry().gauge("queue_depth")
        g.set(-1)
        assert g.value == -1.0


class TestHistogram:
    def test_count_sum_and_cumulative_buckets(self):
        h = MetricsRegistry().histogram(
            "latency_seconds", buckets=[0.1, 1.0]
        )
        for v in (0.05, 0.5, 5.0):
            h.observe(v)
        assert h.count == 3
        assert h.sum == pytest.approx(5.55)
        counts = h.bucket_counts()
        assert counts[0] == (0.1, 1)
        assert counts[1] == (1.0, 2)
        assert counts[-1] == (float("inf"), 3)

    def test_quantile_interpolates_within_bucket(self):
        h = MetricsRegistry().histogram("q_seconds", buckets=[1.0, 2.0])
        for _ in range(4):
            h.observe(1.5)
        # All mass in (1.0, 2.0]; the median interpolates inside it.
        assert 1.0 < h.quantile(0.5) <= 2.0

    def test_quantile_empty_is_zero(self):
        h = MetricsRegistry().histogram("empty_seconds")
        assert h.quantile(0.5) == 0.0

    def test_quantile_beyond_buckets_clamps_to_last_bound(self):
        h = MetricsRegistry().histogram("big_seconds", buckets=[1.0, 2.0])
        h.observe(100.0)
        assert h.quantile(0.99) == 2.0

    def test_default_buckets_cover_latency_range(self):
        h = MetricsRegistry().histogram("default_seconds")
        bounds = [le for le, _ in h.bucket_counts()]
        assert bounds[:-1] == list(DEFAULT_LATENCY_BUCKETS)

    def test_non_increasing_buckets_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.histogram("bad_seconds", buckets=[1.0, 1.0])

    def test_nan_lands_in_the_inf_bucket(self):
        h = MetricsRegistry().histogram("nan_seconds", buckets=[1.0, 2.0])
        h.observe(float("nan"))
        h.observe_many(float("nan"), 2)
        assert [n for _, n in h.bucket_counts()] == [0, 0, 3]

    @settings(max_examples=300, deadline=None)
    @given(
        bounds=st.lists(
            st.floats(allow_nan=False, allow_infinity=False,
                      min_value=-1e6, max_value=1e6),
            min_size=1, max_size=24, unique=True,
        ).map(sorted),
        values=st.lists(
            st.one_of(
                st.floats(allow_nan=True, allow_infinity=True),
                st.sampled_from([0.0, -0.0, 1.0, 2.5, 1e-6]),
            ),
            max_size=60,
        ),
        repeat=st.integers(min_value=1, max_value=5),
    )
    def test_bucket_search_matches_linear_scan(self, bounds, values,
                                               repeat):
        # Exact bounds are among the values, to hit the ``le`` edge.
        values = values + bounds[: len(bounds) // 2]
        h = MetricsRegistry().histogram("bisect_seconds", buckets=bounds)
        ref = _FrozenLinearHistogram(bounds)
        for i, value in enumerate(values):
            if i % 2:
                h.observe_many(value, repeat)
                ref.observe_many(value, repeat)
            else:
                h.observe(value)
                ref.observe(value)
        assert h.count == ref.count
        assert _same_float(h.sum, ref.sum)
        assert [n for _, n in h.bucket_counts()] == ref.cumulative()

    def test_labeled_children_inherit_buckets(self):
        h = MetricsRegistry().histogram("lab_seconds", buckets=[0.5])
        child = h.labels(stage="parse")
        child.observe(0.1)
        assert child.bucket_counts()[0] == (0.5, 1)


def _same_float(a: float, b: float) -> bool:
    return (math.isnan(a) and math.isnan(b)) or a == b


class _FrozenLinearHistogram:
    """The bucket search ``Histogram`` used before it bisected: a scan
    of the bounds for the first one at or above the value; no match (a
    value above every bound, or NaN) goes to ``+Inf``."""

    def __init__(self, bounds):
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value):
        self.observe_many(value, 1)

    def observe_many(self, value, count):
        self.sum += value * count
        self.count += count
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += count
                return
        self.counts[-1] += count

    def cumulative(self):
        out, running = [], 0
        for n in self.counts[:-1]:
            running += n
            out.append(running)
        return out + [self.count]


class TestRegistry:
    def test_get_or_create_returns_same_metric(self):
        registry = MetricsRegistry()
        assert registry.counter("a_total") is registry.counter("a_total")

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("thing")
        with pytest.raises(TypeError):
            registry.gauge("thing")

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("bad-name")

    def test_contains_len_and_sorted_iteration(self):
        registry = MetricsRegistry()
        registry.gauge("zz")
        registry.counter("aa_total")
        assert "zz" in registry
        assert "missing" not in registry
        assert len(registry) == 2
        assert [m.name for m in registry.metrics()] == ["aa_total", "zz"]

    def test_collectors_run_in_order_on_every_export(self):
        registry = MetricsRegistry()
        depth = registry.gauge("depth")
        calls: list[str] = []
        source = iter(range(1, 100))

        def first() -> None:
            calls.append("first")
            depth.set(next(source))

        registry.add_collector(first)
        registry.add_collector(lambda: calls.append("second"))
        assert depth.value == 0  # nothing runs until a read
        assert "depth 1" in prometheus_text(registry)
        snapshot = json_snapshot(registry, stamp=False)
        assert snapshot["metrics"]["depth"]["samples"][0]["value"] == 2
        assert calls == ["first", "second"] * 2
        # A single metric fetched by name is not a whole-registry read.
        registry.get("depth")
        assert len(calls) == 4


class TestTracing:
    def test_span_nesting_records_parent_and_depth(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            tracer.record("accum", 0.25)
        got = [
            (r.name, r.parent, r.depth)
            for r in tracer.recorder.records()
        ]
        assert got == [
            ("inner", "outer", 1),
            ("accum", "outer", 1),
            ("outer", None, 0),
        ]

    def test_span_duration_available_after_exit(self):
        tracer = Tracer()
        with tracer.span("timed") as span:
            pass
        assert span.duration_s >= 0.0

    def test_registry_backed_tracer_feeds_span_histogram(self):
        registry = MetricsRegistry()
        tracer = Tracer(registry=registry)
        with tracer.span("phase"):
            pass
        hist = registry.get(SPAN_HISTOGRAM)
        assert hist.labels(span="phase").count == 1

    def test_record_clamps_negative_duration(self):
        tracer = Tracer()
        record = tracer.record("weird", -1.0)
        assert record.duration_s == 0.0

    def test_stacks_are_thread_local(self):
        tracer = Tracer()
        seen = {}

        def worker():
            with tracer.span("worker-span"):
                pass
            seen["parent"] = tracer.recorder.records()[-1].parent

        with tracer.span("main-span"):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        # The worker thread's span must not inherit this thread's stack.
        assert seen["parent"] is None

    def test_trace_helper_uses_default_tracer(self):
        with trace("adhoc") as span:
            pass
        assert span.name == "adhoc"


class TestTraceRecorder:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            TraceRecorder(capacity=0)

    def test_ring_buffer_evicts_oldest(self):
        recorder = TraceRecorder(capacity=2)
        for i in range(5):
            recorder.record(
                SpanRecord(
                    name=f"s{i}", parent=None, depth=0,
                    start_s=float(i), duration_s=0.0,
                )
            )
        assert [r.name for r in recorder.records()] == ["s3", "s4"]
        assert recorder.total == 5
        assert recorder.dropped == 3


class TestExporters:
    def _registry(self):
        registry = MetricsRegistry()
        registry.counter("events_total", "Events seen.").inc(3)
        registry.counter("closed_total").labels(reason="flush").inc()
        registry.gauge("depth").set(-1)
        registry.histogram("lat_seconds", buckets=[0.1, 1.0]).observe(0.5)
        return registry

    def test_prometheus_text_format(self):
        text = prometheus_text(self._registry())
        assert "# HELP events_total Events seen." in text
        assert "# TYPE events_total counter" in text
        assert "events_total 3" in text
        assert 'closed_total{reason="flush"} 1' in text
        assert "depth -1" in text
        assert 'lat_seconds_bucket{le="0.1"} 0' in text
        assert 'lat_seconds_bucket{le="+Inf"} 1' in text
        assert "lat_seconds_count 1" in text

    def test_prometheus_label_escaping(self):
        registry = MetricsRegistry()
        registry.counter("esc_total").labels(key='a"b\\c').inc()
        text = prometheus_text(registry)
        assert 'esc_total{key="a\\"b\\\\c"} 1' in text

    def test_json_snapshot_unstamped_is_deterministic(self):
        a = json_snapshot(self._registry(), stamp=False)
        b = json_snapshot(self._registry(), stamp=False)
        assert a == b
        assert "snapshot_unix_s" not in a
        assert a["format"] == "repro-metrics-v1"
        assert a["metrics"]["events_total"]["samples"][0]["value"] == 3.0

    def test_json_snapshot_stamped(self):
        snapshot = json_snapshot(self._registry())
        assert isinstance(snapshot["snapshot_unix_s"], float)

    def test_write_snapshot_round_trips(self, tmp_path):
        path = tmp_path / "metrics.json"
        written = write_snapshot(self._registry(), path)
        loaded = json.loads(path.read_text())
        assert loaded == written

    def test_render_snapshot(self):
        out = render_snapshot(json_snapshot(self._registry(), stamp=False))
        assert "events_total (counter)" in out
        assert '{reason="flush"}  1' in out
        assert "p50=" in out and "p99=" in out

    def test_render_rejects_foreign_payload(self):
        with pytest.raises(ValueError):
            render_snapshot({"format": "something-else"})


class TestMetricsServer:
    def test_serves_prometheus_text_on_free_port(self):
        registry = MetricsRegistry()
        registry.counter("hits_total").inc(7)
        server = start_metrics_server(registry, port=0)
        try:
            assert server.port > 0
            with urllib.request.urlopen(server.url, timeout=5) as resp:
                assert resp.status == 200
                body = resp.read().decode("utf-8")
            assert "hits_total 7" in body
            bad = f"http://127.0.0.1:{server.port}/nope"
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(bad, timeout=5)
            assert err.value.code == 404
        finally:
            server.close()

    def test_start_stop_cycles_leak_no_threads_or_sockets(self):
        """Regression: serve restarts must not leak listener threads.

        Historically the listener thread was started in ``__init__``
        and ``close()`` was terminal — a restart leaked the old thread
        and kept the socket bound.  Now stop() releases both and
        start() rebinds (port 0 picks a fresh free port each cycle).
        """

        def exporter_threads():
            return [
                t for t in threading.enumerate()
                if t.name == "repro-metrics-exporter" and t.is_alive()
            ]

        registry = MetricsRegistry()
        registry.counter("hits_total").inc(1)
        baseline = len(exporter_threads())
        server = MetricsServer(registry, port=0, start=False)
        assert not server.running
        ports = []
        for _ in range(3):
            server.start()
            assert server.running
            ports.append(server.port)
            with urllib.request.urlopen(server.url, timeout=5) as resp:
                assert resp.status == 200
            # Idempotent start: same bind, no second thread.
            server.start()
            assert server.port == ports[-1]
            assert len(exporter_threads()) == baseline + 1
            port = server.port
            server.stop()
            server.stop()  # idempotent
            assert not server.running
            assert len(exporter_threads()) == baseline
            # The old socket is released: connecting is refused.
            with pytest.raises(OSError):
                urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/metrics", timeout=1
                )
        with pytest.raises(RuntimeError):
            _ = server.port

    def test_json_routes_served_alongside_metrics(self):
        registry = MetricsRegistry()
        registry.counter("hits_total").inc(3)
        server = MetricsServer(
            registry, port=0,
            json_routes={"/tenants": lambda: {"tenants": ["a", "b"]}},
        )
        try:
            base = f"http://127.0.0.1:{server.port}"
            with urllib.request.urlopen(
                base + "/tenants", timeout=5
            ) as resp:
                assert resp.status == 200
                assert resp.headers["Content-Type"] == "application/json"
                payload = json.loads(resp.read().decode("utf-8"))
            assert payload == {"tenants": ["a", "b"]}
            with urllib.request.urlopen(
                base + "/metrics", timeout=5
            ) as resp:
                assert "hits_total 3" in resp.read().decode("utf-8")
        finally:
            server.close()
