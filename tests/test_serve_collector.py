"""Fleet gauges computed on read equal the per-sweep mirror they replaced.

``DetectionService`` used to copy every tenant's status into its
``serve_*`` metrics after each sweep that changed something
(``_mirror_metrics``, frozen below as :func:`frozen_mirror`).  A
collector on the fleet registry now computes them when the registry is
read.  The differential test serves random bursts to a few tenants,
with a model swap and a tenant whose source starts failing, and reads
the registry at random points: between runs of the loop, and from
another thread while a sweep is stopped inside a tenant's poll.  At
every read, each sample of the mirrored metrics in ``prometheus_text``
and ``json_snapshot`` must equal what the frozen mirror writes into a
fresh registry at that moment.  ``REPRO_CHAOS_SEED`` seeds the examples.
"""

from __future__ import annotations

import os
import sys
import threading

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from test_serve_wake import (
    STREAM_SEEDS,
    FakeClock,
    TimedSource,
    attach,
    from_thread,
    make_service,
    spark_stream,
    timed,
)

from repro.obs import MetricsRegistry, json_snapshot, prometheus_text
from repro.query.store import ModelStore
from repro.serve import ModelRegistry
from repro.stream import IterableSource, ListSink

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "1"))

#: Every metric the mirror wrote.
MIRRORED = (
    "serve_active_tenants",
    "serve_failed_tenants",
    "serve_model_swaps_total",
    "serve_open_sessions",
    "serve_quarantined_tenants",
    "serve_registry_cold_loads",
    "serve_registry_live_models",
    "serve_registry_warm_hits",
    "serve_registry_warm_models",
    "serve_tenant_open_sessions",
    "serve_tenant_queue_depth",
    "serve_tenant_records",
    "serve_tenant_reports",
    "serve_tenant_shed_records",
)


def frozen_mirror(svc, reg: MetricsRegistry) -> None:
    """The per-sweep mirror as it was, writing into ``reg``."""
    tenants = [svc.tenant(tid) for tid in svc.tenant_ids]
    failed = 0
    fleet_open = 0
    for tenant in tenants:
        status = tenant.status()
        if status["failure"] or status["health"] == "failed":
            failed += 1
        fleet_open += status["open_sessions"]
        labels = {"tenant": tenant.tenant_id}
        reg.gauge("serve_tenant_records").labels(**labels).set(
            status["records"]
        )
        reg.gauge("serve_tenant_reports").labels(**labels).set(
            status["reports"]
        )
        reg.gauge("serve_tenant_open_sessions").labels(**labels).set(
            status["open_sessions"]
        )
        reg.gauge("serve_tenant_queue_depth").labels(**labels).set(
            status["queue_depth"]
        )
        reg.gauge("serve_tenant_shed_records").labels(**labels).set(
            status["shed_records"]
        )
        reg.counter("serve_model_swaps_total").labels(**labels).restore(
            status["swaps"]
        )
    reg.gauge("serve_active_tenants").set(len(tenants))
    reg.gauge("serve_failed_tenants").set(failed)
    reg.gauge("serve_quarantined_tenants").set(
        len(svc.supervisor.quarantined())
    )
    reg.gauge("serve_open_sessions").set(fleet_open)
    stats = svc.registry.stats()
    reg.gauge("serve_registry_live_models").set(stats["live_models"])
    reg.gauge("serve_registry_warm_models").set(stats["warm_models"])
    reg.gauge("serve_registry_cold_loads").set(stats["cold_loads"])
    reg.gauge("serve_registry_warm_hits").set(stats["warm_hits"])


def mirrored_samples(registry: MetricsRegistry) -> tuple[list[str], dict]:
    """The mirrored metrics' sample lines and snapshot samples."""
    lines = [
        line for line in prometheus_text(registry).splitlines()
        if not line.startswith("#")
        and line.split("{")[0].split(" ")[0] in MIRRORED
    ]
    metrics = json_snapshot(registry, stamp=False)["metrics"]
    return lines, {name: metrics[name]["samples"] for name in MIRRORED}


@pytest.fixture(scope="module")
def registry(tmp_path_factory, spark_model) -> ModelRegistry:
    reg = ModelRegistry(tmp_path_factory.mktemp("collector") / "registry")
    reg.publish(ModelStore.from_intellog(spark_model), "spark-prod")
    return reg


@pytest.fixture(scope="module")
def streams() -> dict:
    return {s: spark_stream(s) for s in STREAM_SEEDS}


class HookedSource(TimedSource):
    """A timed source that calls ``hook`` before every poll, and raises
    from its ``fail_at``-th poll on."""

    def __init__(self, clock, timed_records, hook, fail_at=None):
        super().__init__(clock, timed_records)
        self._hook = hook
        self._fail_at = fail_at
        self._polls = 0

    def poll(self, max_records):
        self._hook()
        self._polls += 1
        if self._fail_at is not None and self._polls >= self._fail_at:
            raise RuntimeError("source gave out")
        return super().poll(max_records)


@st.composite
def served_runs(draw):
    seeds = draw(st.lists(
        st.sampled_from(STREAM_SEEDS), min_size=2, max_size=3, unique=True,
    ))
    bursts = {
        s: draw(st.lists(
            st.tuples(st.integers(1, 150), st.floats(0.0, 0.3)),
            min_size=1, max_size=8,
        ))
        for s in seeds
    }
    reads = draw(st.sets(st.integers(0, 60), max_size=8))
    swap_at = draw(st.integers(0, 60))
    fail_at = draw(st.one_of(st.none(), st.integers(1, 20)))
    runs = draw(st.lists(st.integers(1, 25), min_size=1, max_size=4))
    quantum = draw(st.integers(1, 400))
    return seeds, bursts, reads, swap_at, fail_at, runs, quantum


@seed(CHAOS_SEED)
@settings(max_examples=25, deadline=None)
@given(run=served_runs())
def test_scrapes_equal_the_frozen_mirror(registry, streams, run):
    seeds, bursts, reads, swap_at, fail_at, runs, quantum = run
    clock = FakeClock()
    svc, _ = make_service(registry, clock, quantum=quantum)
    polls = [0]
    checked = []
    # A mismatch is noted, not raised: raised inside a poll, the
    # service would take it for the tenant's failure.
    mismatches = []

    def check(scrape_from_thread: bool) -> None:
        scraped = []
        if scrape_from_thread:
            from_thread(lambda: scraped.append(mirrored_samples(svc.metrics)))
        else:
            scraped.append(mirrored_samples(svc.metrics))
        shadow = MetricsRegistry()
        frozen_mirror(svc, shadow)
        checked.append(clock.t)
        if scraped[0] != mirrored_samples(shadow):
            mismatches.append((clock.t, scraped[0], mirrored_samples(shadow)))

    def hook() -> None:
        # Runs on the sweep thread, inside a tenant's poll.
        n = polls[0]
        polls[0] += 1
        if n == swap_at:
            from_thread(lambda: svc.swap(f"t{seeds[0]}"))
        if n in reads:
            check(scrape_from_thread=True)

    for s in seeds:
        attach(svc, f"t{s}", HookedSource(
            clock, timed(streams[s], bursts[s]), hook
        ), sink=ListSink())
    attach(svc, "x-failing", HookedSource(
        clock, [(0.0, r) for r in streams[seeds[0]][:50]], hook,
        fail_at=fail_at,
    ), sink=ListSink())
    for max_cycles in runs:
        svc.run(max_cycles=max_cycles)
        check(scrape_from_thread=False)
    clock.advance(10.0)
    svc.drain()
    check(scrape_from_thread=False)
    assert checked
    assert not mismatches, mismatches[0]
    svc.close()


def test_scrapes_during_sweeps_never_raise(registry, streams):
    """A scraper thread reading while the loop sweeps sees every tenant."""
    clock = FakeClock()
    svc, _ = make_service(registry, clock, quantum=16)
    for s in STREAM_SEEDS[:3]:
        attach(svc, f"t{s}", TimedSource(
            clock, [(0.0, r) for r in streams[s]]
        ))
    done = threading.Event()
    texts: list[str] = []
    errors: list[BaseException] = []

    def scrape() -> None:
        try:
            while not done.is_set():
                texts.append(prometheus_text(svc.metrics))
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    scraper = threading.Thread(target=scrape)
    scraper.start()
    try:
        svc.drain()
    finally:
        done.set()
        scraper.join(timeout=30)
    assert not errors
    assert texts
    for s in STREAM_SEEDS[:3]:
        assert f'serve_tenant_records{{tenant="t{s}"}}' in texts[-1]
    svc.close()


def test_concurrent_attach_and_detach_keep_the_fleet_view_whole(
    registry, streams
):
    """Control threads racing attach and detach leave the sorted tenant
    views the sweep and the collector read equal to the tenant map."""
    clock = FakeClock()
    svc, _ = make_service(registry, clock)
    records = streams[STREAM_SEEDS[0]][:20]
    workers, rounds = 4, 8
    errors: list[BaseException] = []
    # Every round starts on all threads at once, the last one included.
    barrier = threading.Barrier(workers, timeout=30)

    def churn(k: int) -> None:
        try:
            for i in range(rounds):
                barrier.wait()
                attach(svc, f"w{k}-{i}", IterableSource(list(records)))
                if i % 2:
                    svc.detach(f"w{k}-{i - 1}", flush=False)
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=churn, args=(k,)) for k in range(workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    expected = sorted(
        f"w{k}-{i}" for k in range(workers) for i in range(1, rounds, 2)
    )
    assert svc.tenant_ids == expected
    status = svc.drain()
    assert [t["tenant"] for t in status["tenants"]] == expected
    assert all(t["records"] == len(records) for t in status["tenants"])
    text = prometheus_text(svc.metrics)
    assert f"serve_active_tenants {len(expected)}" in text
    svc.close()


def test_swap_counter_only_counts_up(registry, streams):
    """Each applied swap adds one, and nothing lowers the count: not a
    scrape, and not re-attaching the tenant with a fresh handle."""
    clock = FakeClock()
    svc, _ = make_service(registry, clock)
    records = streams[STREAM_SEEDS[0]][:20]
    attach(svc, "t", IterableSource(list(records)))
    swaps = svc.metrics.get("serve_model_swaps_total").labels(tenant="t")
    svc.swap("t")
    svc.cycle()
    assert svc.tenant("t").swaps == 1
    assert swaps.value == 1
    svc.detach("t", flush=False)
    attach(svc, "t", IterableSource(list(records)))
    prometheus_text(svc.metrics)
    assert swaps.value == 1
    svc.swap("t")
    svc.drain()
    assert swaps.value == 2
    assert 'serve_model_swaps_total{tenant="t"} 2' in prometheus_text(
        svc.metrics
    )
    svc.close()


def tenant_series(text: str, tenant: str) -> list[str]:
    return [
        line for line in text.splitlines()
        if line.startswith("serve_tenant_") and f'tenant="{tenant}"' in line
    ]


def test_detach_drops_the_tenant_gauges(registry, streams):
    """A scrape after a detach lists none of the gone tenant's gauges,
    a re-attach brings them back, and the swap counter stays."""
    clock = FakeClock()
    svc, _ = make_service(registry, clock)
    records = streams[STREAM_SEEDS[0]][:20]
    attach(svc, "a", IterableSource(list(records)))
    attach(svc, "b", IterableSource(list(records)))
    svc.swap("b")
    svc.drain()
    text = prometheus_text(svc.metrics)
    assert len(tenant_series(text, "b")) == 5

    svc.detach("b", flush=False)
    text = prometheus_text(svc.metrics)
    assert tenant_series(text, "b") == []
    assert len(tenant_series(text, "a")) == 5
    assert "serve_active_tenants 1" in text
    assert 'serve_model_swaps_total{tenant="b"} 1' in text
    snapshot = json_snapshot(svc.metrics, stamp=False)["metrics"]
    assert all(
        sample["labels"].get("tenant") != "b"
        for name, metric in snapshot.items()
        if name.startswith("serve_tenant_")
        for sample in metric["samples"]
    )

    attach(svc, "b", IterableSource(list(records)))
    svc.drain()
    text = prometheus_text(svc.metrics)
    assert f'serve_tenant_records{{tenant="b"}} {len(records)}' in text
    assert len(tenant_series(text, "b")) == 5
    # close() detaches everyone but freezes the gauges as the run left
    # them, for --metrics-out.
    svc.close()
    text = prometheus_text(svc.metrics)
    assert len(tenant_series(text, "a")) == len(tenant_series(text, "b")) == 5
