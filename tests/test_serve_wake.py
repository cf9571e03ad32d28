"""The serve loop's idle wait and pump pacing, and serve == batch under
random pacing.

After an empty sweep :meth:`DetectionService.run` waits for work: it
probes every healthy tenant's ``backlog()`` in short slices and sweeps
again as soon as one has records (or its probe raises ``OSError``),
``stop()`` is called, or ``ServeConfig.poll_interval`` has passed.  A
sweep pumps only the tenants with work, and every other tenant once per
``poll_interval``.  The wake tests drive the loop with a fake clock and
a fake ``sleep`` that advances it, so every timing below is exact.

The differential test releases each tenant's records in random-size
bursts on that fake clock, runs the service for a random number of
sweeps at a random quantum, drains it, and requires every tenant's
reports to be byte-equal to batch ``detect_job`` on the model loaded
from the very artifact the registry served.  ``REPRO_CHAOS_SEED`` seeds
its examples, as in the chaos suite.
"""

from __future__ import annotations

import bisect
import json
import os
import threading

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.core import ResilienceConfig, ServeConfig
from repro.parsing.records import LogRecord, split_sessions
from repro.query.store import ModelStore
from repro.serve import DetectionService, ModelRegistry, TenantSpec
from repro.serve.service import _WAIT_SLICE
from repro.simulators import WorkloadGenerator
from repro.stream import FileFollowSource, ListSink

#: Close only on end markers / final flush, so parity has no timing.
UNBOUNDED = dict(idle_timeout=1e12, max_open_sessions=10**9)

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "1"))

#: Longest idle wait under test.
POLL = 0.2
#: The service's wait slice.
SLICE = _WAIT_SLICE
#: Slack for float sums of slices.
EPS = 1e-9


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


class TimedSource:
    """Records that become visible at fixed fake-clock times."""

    def __init__(
        self, clock: FakeClock, timed: list[tuple[float, LogRecord]]
    ) -> None:
        self._clock = clock
        self._due = [due for due, _ in timed]
        self._records = [r for _, r in timed]
        self._next = 0
        #: Clock reading of every poll that returned records.
        self.polled_at: list[float] = []

    def _visible(self) -> int:
        return bisect.bisect_right(self._due, self._clock())

    def poll(self, max_records: int) -> list[LogRecord]:
        end = min(self._visible(), self._next + max_records)
        batch = self._records[self._next:end]
        self._next = end
        if batch:
            self.polled_at.append(self._clock())
        return batch

    def exhausted(self) -> bool:
        return self._next >= len(self._records)

    def backlog(self) -> int | None:
        return self._visible() - self._next

    def position(self) -> dict:
        return {"index": self._next}

    def seek(self, position: dict) -> None:
        self._next = int(position.get("index", 0))


class BusySource:
    """Always has records; each poll advances the clock by ``cost``, as
    a pump that does work takes time."""

    def __init__(self, clock: FakeClock, cost: float, batch: int = 4):
        self._clock = clock
        self._cost = cost
        self._batch = batch
        self._next = 0

    def poll(self, max_records: int) -> list[LogRecord]:
        self._clock.advance(self._cost)
        n = min(max_records, self._batch)
        out = [record(self._next + k, "busy") for k in range(n)]
        self._next += n
        return out

    def exhausted(self) -> bool:
        return False

    def backlog(self) -> int | None:
        return self._batch

    def position(self) -> dict:
        return {"index": self._next}

    def seek(self, position: dict) -> None:
        self._next = int(position.get("index", 0))


class FailingOnceSource:
    """Never has records and its backlog reads 0; the first poll at or
    after ``fail_at`` raises ``OSError``."""

    def __init__(self, clock: FakeClock, fail_at: float) -> None:
        self._clock = clock
        self._fail_at = fail_at
        #: Clock reading of every poll, and of the one that raised.
        self.polls: list[float] = []
        self.failed_at: float | None = None

    def poll(self, max_records: int) -> list:
        now = self._clock()
        self.polls.append(now)
        if self.failed_at is None and now >= self._fail_at:
            self.failed_at = now
            raise OSError("source hiccup")
        return []

    def exhausted(self) -> bool:
        return False

    def backlog(self) -> int | None:
        return 0

    def position(self) -> dict:
        return {}

    def seek(self, position: dict) -> None:
        pass


class FlakySink(ListSink):
    """A list sink whose first ``failures`` emits raise ``OSError``;
    notes the clock reading of each emit that succeeds."""

    def __init__(self, clock: FakeClock, failures: int) -> None:
        super().__init__()
        self._clock = clock
        self._failures = failures
        self.emitted_at: list[float] = []

    def emit(self, report, closed) -> None:
        if self._failures:
            self._failures -= 1
            raise OSError("sink refused")
        super().emit(report, closed)
        self.emitted_at.append(self._clock())


class IdleSource:
    """Never has records; ``backlog`` is scripted per test."""

    def __init__(self, clock: FakeClock, backlog=lambda: 0) -> None:
        self._clock = clock
        self._backlog = backlog
        #: Clock reading of every poll.
        self.polls: list[float] = []

    def poll(self, max_records: int) -> list:
        self.polls.append(self._clock())
        return []

    def exhausted(self) -> bool:
        return False

    def backlog(self) -> int | None:
        return self._backlog()

    def position(self) -> dict:
        return {}

    def seek(self, position: dict) -> None:
        pass


def record(i: int, sid: str = "s") -> LogRecord:
    return LogRecord(timestamp=float(i), level="INFO", source="T",
                     message=f"tick {i}", session_id=sid)


@pytest.fixture(scope="module")
def registry(tmp_path_factory, spark_model) -> ModelRegistry:
    reg = ModelRegistry(tmp_path_factory.mktemp("wake") / "registry")
    reg.publish(ModelStore.from_intellog(spark_model), "spark-prod")
    return reg


def make_service(registry, clock, on_sleep=None, quantum=512):
    """A service on ``clock`` whose ``sleep`` advances it; ``on_sleep``
    sees the clock reading before each sleep."""
    sleeps: list[float] = []

    def sleep(seconds: float) -> None:
        if on_sleep is not None:
            on_sleep(clock.t)
        sleeps.append(seconds)
        clock.advance(seconds)

    svc = DetectionService(
        registry, ServeConfig(quantum=quantum, poll_interval=POLL),
        clock=clock, sleep=sleep,
    )
    return svc, sleeps


def attach(svc, tenant_id, source, sink=None):
    return svc.attach(
        TenantSpec(tenant_id=tenant_id, model="spark-prod", **UNBOUNDED),
        source=source, sink=sink if sink is not None else ListSink(),
    )


def from_thread(fn) -> None:
    """Run ``fn`` on another thread, as a control plane would."""
    worker = threading.Thread(target=fn)
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive()


class TestIdleWait:
    def test_record_visible_mid_wait_is_pumped_within_one_slice(
        self, registry
    ):
        clock = FakeClock()
        svc, _ = make_service(registry, clock)
        source = TimedSource(clock, [(0.010, record(0))])
        attach(svc, "t", source)
        svc.run(max_cycles=2)
        assert svc.tenant("t").runtime.stats.records == 1
        assert len(source.polled_at) == 1
        assert 0.010 <= source.polled_at[0] <= 0.010 + SLICE + EPS
        svc.close()

    def test_unknowable_backlog_waits_the_full_poll_interval(
        self, registry
    ):
        clock = FakeClock()
        svc, sleeps = make_service(registry, clock)
        source = IdleSource(clock, backlog=lambda: None)
        attach(svc, "t", source)
        svc.run(max_cycles=2)
        assert source.polls[0] == 0.0
        assert source.polls[1] == pytest.approx(POLL)
        assert max(sleeps) <= SLICE + EPS
        svc.close()

    def test_backlog_oserror_ends_the_wait(self, registry):
        clock = FakeClock()
        svc, _ = make_service(registry, clock)

        def backlog() -> int:
            if clock.t >= 0.05:
                raise OSError("backlog probe failed")
            return 0

        source = IdleSource(clock, backlog=backlog)
        attach(svc, "t", source)
        svc.run(max_cycles=2)
        assert len(source.polls) == 2
        assert 0.05 <= source.polls[1] <= 0.05 + SLICE + EPS
        svc.close()

    def test_stop_from_another_thread_ends_the_wait_within_one_slice(
        self, registry
    ):
        clock = FakeClock()
        stopped_at: list[float] = []

        def on_sleep(now: float) -> None:
            if now >= 0.012 and not stopped_at:
                stopped_at.append(now)
                from_thread(svc.stop)

        svc, _ = make_service(registry, clock, on_sleep=on_sleep)
        attach(svc, "t", IdleSource(clock))
        svc.run()
        assert stopped_at
        assert clock.t <= stopped_at[0] + SLICE + EPS
        svc.close()

    def test_tenant_attached_during_a_wait_is_probed(self, registry):
        clock = FakeClock()
        late = TimedSource(clock, [(0.0, record(0, "late"))])
        attached_at: list[float] = []

        def on_sleep(now: float) -> None:
            if now >= 0.02 and not attached_at:
                attached_at.append(now)
                from_thread(lambda: attach(svc, "late", late))

        svc, _ = make_service(registry, clock, on_sleep=on_sleep)
        attach(svc, "early", IdleSource(clock))
        svc.run(max_cycles=2)
        assert attached_at
        assert len(late.polled_at) == 1
        assert late.polled_at[0] <= attached_at[0] + SLICE + EPS
        assert svc.tenant("late").runtime.stats.records == 1
        svc.close()

    def test_backlog_the_pump_cannot_consume_does_not_spin(self, registry):
        # E.g. a followed file whose last line is still unterminated: its
        # byte backlog is non-zero, yet a poll returns nothing.
        clock = FakeClock()
        svc, _ = make_service(registry, clock)
        source = IdleSource(clock, backlog=lambda: 5)
        attach(svc, "t", source)
        svc.run(max_cycles=4)
        # One immediate re-sweep on first sight, then the full interval
        # until the reading changes.
        assert source.polls == pytest.approx([0.0, 0.0, POLL, 2 * POLL])
        svc.close()

    def test_followed_file_not_created_yet_probes_quietly(self, tmp_path):
        # The wait probes every slice; a missing file is "nothing yet",
        # as in poll(), not an IO error logged 1,000 times a second.
        source = FileFollowSource(tmp_path / "later.log", formatter="hadoop")
        assert source.backlog() == 0
        assert source.io_errors == 0

    def test_truncated_followed_file_reads_its_new_bytes_as_backlog(
        self, tmp_path
    ):
        # A sweep pumps a tenant early only if its backlog says so, so a
        # rotated or truncated file must not read 0 until its paced turn.
        path = tmp_path / "app.log"
        line = "2018-06-04 10:00:00,000 INFO [main] org.Foo: tick {}\n"
        path.write_text("".join(line.format(i) for i in range(8)))
        source = FileFollowSource(path, formatter="hadoop")
        assert len(source.poll(100) + source.flush_pending()) == 8
        assert source.backlog() == 0
        fresh = line.format("after")
        path.write_text(fresh)
        assert source.backlog() == len(fresh)
        assert len(source.poll(100) + source.flush_pending()) == 1
        assert source.backlog() == 0

    def test_burst_after_a_long_quiet_period_is_polled_within_one_slice(
        self, registry
    ):
        clock = FakeClock()
        svc, sleeps = make_service(registry, clock)
        due = 50 * POLL + 0.0123  # mid-wait, long after the last record
        source = TimedSource(
            clock,
            [(0.0, record(0))] + [(due, record(i)) for i in range(1, 40)],
        )
        attach(svc, "t", source)
        svc.run(duration=due + POLL)
        assert svc.tenant("t").runtime.stats.records == 40
        assert source.polled_at[0] == 0.0
        assert due <= source.polled_at[1] <= due + SLICE + EPS
        assert max(sleeps) <= SLICE + EPS
        svc.close()

    def test_wait_ends_with_the_run_duration(self, registry):
        clock = FakeClock()
        svc, _ = make_service(registry, clock)
        attach(svc, "t", IdleSource(clock))
        svc.run(duration=0.05)
        assert clock.t == pytest.approx(0.05)
        svc.close()


class TestPumpPacing:
    def test_busy_tenant_starves_neither_due_records_nor_paced_pumps(
        self, registry
    ):
        # The busy tenant's backlog never reads zero, so the loop never
        # waits; every sweep costs COST of fake time.
        clock = FakeClock()
        svc, sleeps = make_service(registry, clock)
        cost = 0.003
        due = (0.1234, 0.4567)
        quiet = TimedSource(clock, [(at, record(i, "quiet"))
                                    for i, at in enumerate(due)])
        idle = IdleSource(clock)
        attach(svc, "a-busy", BusySource(clock, cost))
        attach(svc, "b-idle", idle)
        attach(svc, "c-quiet", quiet)
        sweeps = 0
        while clock.t < 1.0:
            svc.cycle()
            sweeps += 1
        assert not sleeps
        # A record that falls due mid-sweep is polled by the next sweep
        # at the latest.
        assert len(quiet.polled_at) == len(due)
        for polled, at in zip(quiet.polled_at, due):
            assert at <= polled <= at + cost + SLICE + EPS
        assert svc.tenant("c-quiet").runtime.stats.records == len(due)
        # The tenant without work is pumped once per poll interval, not
        # once per sweep, and never less often.
        gaps = [b - a for a, b in zip(idle.polls, idle.polls[1:])]
        assert idle.polls[0] <= cost + EPS
        assert gaps and max(gaps) <= POLL + cost + EPS
        assert len(idle.polls) <= 1.0 / POLL + 2 < sweeps / 10
        svc.close()

    def test_parked_reports_and_failed_polls_are_retried_every_sweep(
        self, registry
    ):
        # Neither tenant's backlog says so, but each owes its runtime a
        # step: one has a report parked by a failed sink emit, the other
        # a poll to retry.  Both are pumped on the next sweep, not at
        # their paced turn.
        clock = FakeClock()
        cost = 0.003
        svc = DetectionService(
            registry, ServeConfig(poll_interval=POLL),
            resilience=ResilienceConfig(retry_attempts=1),
            clock=clock, sleep=clock.advance,
        )
        due = 0.1234
        parked = TimedSource(clock, [
            (due, record(0, "p")),
            (due, LogRecord(timestamp=1.0, level="INFO", source="T",
                            message="Deleting directory /tmp/spark",
                            session_id="p")),
        ])
        sink = FlakySink(clock, failures=1)
        retried = FailingOnceSource(clock, fail_at=due)
        attach(svc, "a-busy", BusySource(clock, cost))
        attach(svc, "b-parked", parked, sink=sink)
        attach(svc, "c-retried", retried)
        while clock.t < 2 * POLL:
            svc.cycle()
        assert len(parked.polled_at) == 1
        assert len(sink.reports) == 1
        assert sink.emitted_at[0] <= parked.polled_at[0] + cost + EPS
        failed_at = retried.polls.index(retried.failed_at)
        assert retried.polls[failed_at + 1] <= retried.failed_at + cost + EPS
        svc.close()

    def test_reattached_tenant_is_pumped_at_once(self, registry):
        clock = FakeClock()
        svc, _ = make_service(registry, clock)
        first = IdleSource(clock)
        attach(svc, "t", first)
        svc.cycle()
        assert first.polls == [0.0]
        clock.advance(POLL / 4)
        svc.detach("t", flush=False)
        again = IdleSource(clock)
        attach(svc, "t", again)
        svc.cycle()
        assert again.polls == [POLL / 4]
        svc.close()


# -- serve == batch under random pacing ------------------------------------

#: Per-tenant record streams: one Spark job each, time-ordered.
STREAM_SEEDS = (11, 22, 33, 44)


def spark_stream(seed: int) -> list[LogRecord]:
    gen = WorkloadGenerator(seed=seed)
    records = [r for job in gen.run_batch("spark", 1) for r in job.records]
    records.sort(key=lambda r: r.timestamp)
    return records


def report_bytes(reports) -> dict[str, bytes]:
    return {
        r.session_id: json.dumps(r.to_dict(), sort_keys=True).encode()
        for r in reports
    }


@pytest.fixture(scope="module")
def streams() -> dict[int, list[LogRecord]]:
    return {seed: spark_stream(seed) for seed in STREAM_SEEDS}


@pytest.fixture(scope="module")
def batch_reports(registry, streams) -> dict[int, dict[str, bytes]]:
    # The served artifact, not the in-memory training model: a model's
    # tie-breaks follow the key order of the JSON it was loaded from.
    _, digest = registry.resolve("spark-prod")
    model = ModelStore.load_path(registry.artifact_path(digest)).to_intellog()
    return {
        seed: report_bytes(model.detect_job(split_sessions(records)).sessions)
        for seed, records in streams.items()
    }


@st.composite
def fleets(draw):
    """Tenant streams, burst schedules, quantum and sweep count."""
    seeds = draw(st.lists(
        st.sampled_from(STREAM_SEEDS), min_size=2, max_size=4,
        unique=True,
    ))
    schedules = {}
    for seed in seeds:
        bursts = draw(st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=120),
                st.floats(min_value=0.0, max_value=0.3),
            ),
            min_size=1, max_size=12,
        ))
        schedules[seed] = bursts
    quantum = draw(st.integers(min_value=1, max_value=600))
    max_cycles = draw(st.integers(min_value=1, max_value=60))
    return schedules, quantum, max_cycles


def timed(records, bursts) -> list[tuple[float, LogRecord]]:
    """Release ``records`` in ``(size, gap)`` bursts; the last burst
    takes whatever is left."""
    out, at, i = [], 0.0, 0
    for n, (size, gap) in enumerate(bursts):
        at += gap
        end = len(records) if n == len(bursts) - 1 else i + size
        out.extend((at, r) for r in records[i:end])
        i = end
        if i >= len(records):
            break
    return out


@seed(CHAOS_SEED)
@settings(max_examples=60, deadline=None)
@given(fleet=fleets())
def test_served_reports_equal_batch_under_random_pacing(
    registry, streams, batch_reports, fleet
):
    schedules, quantum, max_cycles = fleet
    clock = FakeClock()
    svc, _ = make_service(registry, clock, quantum=quantum)
    sinks = {}
    for seed, bursts in schedules.items():
        sinks[seed] = ListSink()
        attach(
            svc, f"t{seed}", TimedSource(clock, timed(streams[seed], bursts)),
            sink=sinks[seed],
        )
    svc.run(max_cycles=max_cycles)
    clock.advance(10.0)  # every burst is due before the drain
    svc.drain()
    for seed, sink in sinks.items():
        fids = sink.emitted_ids()
        assert len(fids) == len(set(fids))
        assert report_bytes(sink.reports) == batch_reports[seed], seed
    svc.close()
