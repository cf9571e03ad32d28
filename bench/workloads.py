"""The four workloads: set-up, the measured phase, and output checks.

``run.py`` runs this file as a fresh child process per workload, so
peak RSS, imports and warm caches belong to that workload alone::

    python3 bench/workloads.py --workload NAME --work DIR --seconds S [--trace]
    python3 bench/workloads.py --workload NAME --work DIR --probe-setup N

A measured phase repeats the workload's round until ``--seconds`` have
passed (at least one round; serve runs a fixed number of rounds).  A
round is made of short timed units -- one genre model in ``train``, one
job in ``detect-batch``, one backfill pass in ``stream-backfill`` -- and
each unit runs many times in a run.  Each run's times are scaled to one
host speed by the :class:`HostProbe` samples taken around it; the rate
and CPU come from the median scaled run of each unit, and each report's
delay from its median scaled delivery over the runs that made it.
Serve is open loop and sleeps between sweeps, so its times are not
scaled, and every serve round makes its own reports.  With
``--trace`` the child runs one untraced phase and then one traced phase
on fresh state, and reports the per-layer ledger of the traced one.
``--probe-setup`` only sets the workload up, prints ``ready`` and tears
down: ``run.py`` times it from process start, many times, for
``setup_s``.  The child prints one JSON object as its last stdout line.
"""

from __future__ import annotations

import argparse
import bisect
import json
import resource
import shutil
import statistics
import sys
import time
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from common import (
    GENRES,
    SERVE_ROUNDS,
    SERVE_TENANTS,
    HostProbe,
    model_path,
    percentile,
    use_src,
)
from ledger import LAYERS, Ledger, Patches, install

#: Keys the JSON-lines sink adds to each report; not part of the report.
SINK_KEYS = ("closed_reason", "finalization_id")


class ScheduledSource:
    """Open-loop replay: record ``i`` becomes visible ``due[i]`` seconds
    after :meth:`start`.

    Due times are fixed before the run, so a slow consumer never slows
    the schedule: a stalled consumer finds every record that fell due
    meanwhile, each with the wait the stall cost it.  Uses no thread;
    visibility is decided when the consumer polls.
    """

    def __init__(
        self,
        records: list,
        due: list[float],
        clock: Callable[[], float] = time.monotonic,
        on_release: Callable[[list[float]], None] | None = None,
    ) -> None:
        if len(records) != len(due):
            raise ValueError("one due time per record")
        if any(b < a for a, b in zip(due, due[1:])):
            raise ValueError("due times must not decrease")
        self._records = records
        self._due = due
        self._clock = clock
        self._on_release = on_release
        self._start: float | None = None
        self._next = 0

    def start(self, t0: float) -> None:
        self._start = t0

    def _now(self) -> float | None:
        if self._start is None:
            return None
        return self._clock() - self._start

    def poll(self, max_records: int) -> list:
        now = self._now()
        if now is None:
            return []
        stop = min(len(self._due), self._next + max(0, max_records))
        end = bisect.bisect_right(self._due, now, self._next, stop)
        batch = self._records[self._next:end]
        if self._on_release is not None and batch:
            self._on_release(
                [(now - due) * 1000.0 for due in self._due[self._next:end]]
            )
        self._next = end
        return batch

    def exhausted(self) -> bool:
        return self._next >= len(self._records)

    def backlog(self) -> int | None:
        now = self._now()
        if now is None:
            return 0
        return bisect.bisect_right(self._due, now, self._next) - self._next

    def position(self) -> dict[str, Any]:
        return {"kind": "scheduled", "index": self._next}

    def seek(self, position: dict[str, Any]) -> None:
        self._next = int(position.get("index", 0))


class StampedSource:
    """Delegates to ``inner`` and notes when the latest record of each
    session was handed to the runtime."""

    def __init__(self, inner):
        self.inner = inner
        #: Session id -> hand-over time of its latest record.
        self.read_at: dict[str, float] = {}

    def _stamp(self, batch: list) -> list:
        now = time.monotonic()
        for record in batch:
            self.read_at[record.session_id] = now
        return batch

    def poll(self, max_records: int) -> list:
        return self._stamp(self.inner.poll(max_records))

    def flush_pending(self) -> list:
        return self._stamp(self.inner.flush_pending())

    def finalize(self) -> list:
        return self._stamp(self.inner.finalize())

    def __getattr__(self, name: str):
        # exhausted/backlog/position/seek, quarantine and counters.
        return getattr(self.inner, name)


class TimedSink:
    """Delivers through ``inner`` and stamps each report's delivery."""

    def __init__(self, inner):
        self.inner = inner
        #: (session id, close reason, delivery time) per report.
        self.delivered: list[tuple[str, str, float]] = []

    def emit(self, report, closed) -> None:
        self.inner.emit(report, closed)
        self.delivered.append(
            (report.session_id, closed.reason, time.monotonic())
        )

    def emitted_ids(self) -> list[str]:
        return self.inner.emitted_ids()

    def close(self) -> None:
        self.inner.close()


def check_reports(
    expected: dict[str, dict], delivered: list[dict]
) -> tuple[int, list[str]]:
    """Compare delivered report payloads with the batch reference.

    ``expected`` maps session id to the reference report dict.  Returns
    ``(attempted, problems)``: every expected report is one attempt, as
    is every delivered report the reference does not know; a mismatched,
    missing, duplicate or unexpected report is one problem.
    """
    problems: list[str] = []
    seen: set[str] = set()
    extra = 0
    for payload in delivered:
        report = {k: v for k, v in payload.items() if k not in SINK_KEYS}
        sid = report.get("session_id")
        if sid in seen:
            problems.append(f"duplicate report {sid}")
            extra += 1
            continue
        seen.add(sid)
        if sid not in expected:
            problems.append(f"unexpected report {sid}")
            extra += 1
        elif report != expected[sid]:
            problems.append(f"report differs from batch: {sid}")
    problems.extend(
        f"missing report {sid}" for sid in expected if sid not in seen
    )
    return len(expected) + extra, problems


def reference_reports(model, sessions) -> dict[str, dict]:
    """Batch ``detect_job`` reports, as they read back from JSON."""
    report = model.detect_job(sessions)
    return {
        s.session_id: json.loads(json.dumps(s.to_dict()))
        for s in report.sessions
    }


def read_jsonl(path: Path) -> list[dict]:
    return [
        json.loads(line)
        for line in path.read_text().splitlines() if line.strip()
    ]


@dataclass
class Phase:
    """What one measured phase observed."""

    #: ``(unit, records, wall s, CPU s, scale)`` per timed run of a unit;
    #: runs of the same ``unit`` read the same records.  ``scale`` turns
    #: the run's times into times at the reference host speed
    #: (:meth:`HostProbe.factor`; 1.0 where runs are not scaled).
    passes: list[tuple[Any, int, float, float, float]] = field(
        default_factory=list
    )
    #: Report -> its delivery delays (ms, scaled like their run), one per
    #: run that made it.
    delays_ms: dict[Any, list[float]] = field(default_factory=dict)
    setup_s: list[float] = field(default_factory=list)
    attempted: int = 0
    problems: list[str] = field(default_factory=list)
    info: dict[str, Any] = field(default_factory=dict)
    #: Registries of instrumented parsers (exact-match share).
    registries: list = field(default_factory=list)
    reference_s: float = 0.0
    reference_records: int = 0
    #: Peak RSS when the measured loop ended (before the output checks).
    rss_mb: float = 0.0

    def add_round(self, records: int, wall: float, cpu: float,
                  unit: Any = 0, scale: float = 1.0) -> None:
        self.passes.append((unit, records, wall, cpu, scale))

    def delay(self, report: Any, ms: float) -> None:
        self.delays_ms.setdefault(report, []).append(ms)

    @property
    def records(self) -> int:
        return sum(p[1] for p in self.passes)

    @property
    def wall(self) -> float:
        return sum(p[2] for p in self.passes)

    def check(self, attempted: int, problems: list[str]) -> None:
        self.attempted += attempted
        self.problems.extend(problems)

    def _typical(self, scaled: bool = True) -> tuple[int, float, float]:
        """Records, and the median over each unit's runs of its wall and
        CPU seconds (scaled, or as measured), summed over units."""
        runs: dict[Any, list[tuple[int, float, float, float]]] = {}
        for unit, records, wall, cpu, scale in self.passes:
            runs.setdefault(unit, []).append(
                (records, wall, cpu, scale if scaled else 1.0)
            )
        totals = [
            (unit_runs[0][0],
             statistics.median(wall * scale
                               for _, wall, _, scale in unit_runs),
             statistics.median(cpu * scale
                               for _, _, cpu, scale in unit_runs))
            for unit_runs in runs.values()
        ]
        return tuple(sum(column) for column in zip(*totals))

    def unscaled_records_per_s(self) -> float:
        records, wall, _ = self._typical(scaled=False)
        return records / wall

    def end_to_end(self) -> dict[str, float]:
        records, wall, _ = self._typical()
        return {
            "records_per_s": records / wall,
            "report_delay_p90_ms": self.delay_percentile(90),
        }

    def delay_percentile(self, q: float) -> float:
        return percentile(
            [statistics.median(runs) for runs in self.delays_ms.values()], q
        )

    def cpu_ms_per_krec(self) -> float:
        records, _, cpu = self._typical()
        return cpu * 1e6 / records


def rounds(seconds: float):
    """Round indices until ``seconds`` have passed (at least one)."""
    start = time.perf_counter()
    index = 0
    while True:
        yield index
        index += 1
        if time.perf_counter() - start >= seconds:
            return


class Tracing:
    """The ledger's wrappers, installed for the measured part of a phase
    only, so loading inputs and checking outputs stay out of the ledger.
    Without a ledger every method is a no-op."""

    def __init__(self, ledger: Ledger | None) -> None:
        self.ledger = ledger
        #: Start of the current backfill round (monotonic seconds).
        self.origin = {"t0": time.monotonic()}
        self._patches: Patches | None = None

    def start(self) -> None:
        if self.ledger is not None and self._patches is None:
            self._patches = install(self.ledger, self.origin)

    def stop(self) -> None:
        if self._patches is not None:
            self._patches.restore()
            self._patches = None

    def span(self, name: str):
        """A span around a call the benchmark makes itself."""
        if self.ledger is None:
            return nullcontext()
        return self.ledger.span(name)


def inputs(work: Path) -> dict:
    return json.loads((work / "inputs.json").read_text())


def load_model(work: Path, genre: str):
    from repro.query.store import ModelStore

    return ModelStore.load_path(model_path(work, genre)).to_intellog()


def exact_share(registries: list) -> float:
    """Share of matches resolved by the exact-template trie."""
    exact = total = 0.0
    for registry in registries:
        metric = registry.get("spell_index_hits_total")
        if metric is None:
            continue
        for labels, value in metric.samples():
            total += value
            if labels.get("path") == "exact":
                exact += value
    return exact / total if total else 0.0


# -- train -----------------------------------------------------------------


def setup_train(work: Path, tag: str) -> dict:
    from repro.parsing.formatters import HadoopFormatter

    return {"formatter": HadoopFormatter()}


def train_phase(work: Path, seconds: float, tracing: Tracing,
                tag: str) -> Phase:
    from repro import IntelLog
    from repro.parsing.records import split_sessions
    from repro.query.store import ModelStore
    from repro.stream import yarn_session_key

    corpora = inputs(work)
    phase = Phase()
    tracing.start()
    s0 = time.perf_counter()
    formatter = setup_train(work, tag)["formatter"]
    phase.setup_s.append(time.perf_counter() - s0)
    trained = []
    probe = HostProbe()
    for i in rounds(seconds):
        for genre in GENRES:
            lines = corpora[genre]["lines"]
            path = work / f"{tag}-{genre}-{i}.json"
            c0, t0 = time.process_time(), time.perf_counter()
            with tracing.span("parsing.formatters"):
                records = list(formatter.parse_lines(lines))
            with tracing.span("parsing.records"):
                sessions = split_sessions(
                    [yarn_session_key(r) for r in records]
                )
            model = IntelLog()
            model.train(sessions)
            store = ModelStore.from_intellog(model)
            store.save(path)
            t1, c1 = time.perf_counter(), time.process_time()
            scale = probe.factor()
            phase.add_round(len(records), t1 - t0, c1 - c0, genre, scale)
            phase.delay(genre, (t1 - t0) * 1000.0 * scale)
            trained.append((genre, path, len(sessions), store.digest()))
    tracing.stop()
    phase.rss_mb = peak_rss_mb()

    digests: dict[str, str] = {}
    for genre, path, n_sessions, digest in trained:
        problems = []
        containers = corpora[genre]["containers"]
        if n_sessions != containers:
            problems.append(
                f"{genre}: {n_sessions} sessions from {containers} containers"
            )
        reloaded = ModelStore.from_intellog(
            ModelStore.load_path(path).to_intellog()
        ).digest()
        if reloaded != digest:
            problems.append(f"{path.name} does not reload to its digest")
        if digests.setdefault(genre, digest) != digest:
            problems.append(f"{path.name} differs from the first model")
        phase.check(1, problems)
        path.unlink()
    phase.info["model_digests"] = digests
    return phase


# -- detect-batch ----------------------------------------------------------


def setup_detect(work: Path, tag: str) -> dict:
    from repro.parsing.formatters import HadoopFormatter

    return {
        "formatter": HadoopFormatter(),
        "models": {genre: load_model(work, genre) for genre in GENRES},
    }


def _job_reports_text(report) -> str:
    return json.dumps([s.to_dict() for s in report.sessions], sort_keys=True)


def detect_phase(work: Path, seconds: float, tracing: Tracing,
                 tag: str) -> Phase:
    from repro.obs import MetricsRegistry
    from repro.parsing.records import split_sessions
    from repro.stream import yarn_session_key

    jobs = inputs(work)["jobs"]
    phase = Phase()
    tracing.start()
    s0 = time.perf_counter()
    state = setup_detect(work, tag)
    phase.setup_s.append(time.perf_counter() - s0)
    formatter, models = state["formatter"], state["models"]
    if tracing.ledger is not None:
        # The parser alone, for the exact-match share: instrumenting the
        # detector would move detection onto its timed branch.
        registry = MetricsRegistry()
        for model in models.values():
            model.spell.instrument(registry)
        phase.registries.append(registry)

    # Job -> (reports text, anomalous) of its first pass; later passes
    # are compared with it as they finish, so no report piles up.
    first: dict[int, tuple[str, bool]] = {}
    probe = HostProbe()
    for _ in rounds(seconds):
        for j, job in enumerate(jobs):
            c0, t0 = time.process_time(), time.perf_counter()
            with tracing.span("parsing.formatters"):
                records = list(formatter.parse_lines(job["lines"]))
            with tracing.span("parsing.records"):
                sessions = split_sessions(
                    [yarn_session_key(r) for r in records]
                )
            report = models[job["genre"]].detect_job(sessions, job_id=str(j))
            t1, c1 = time.perf_counter(), time.process_time()
            scale = probe.factor()
            phase.add_round(len(records), t1 - t0, c1 - c0, j, scale)
            phase.delay(j, (t1 - t0) * 1000.0 * scale)
            text = _job_reports_text(report)
            expected, _ = first.setdefault(j, (text, report.anomalous))
            problems = []
            if text != expected:
                problems.append(f"job {j} reports differ from its first pass")
            if any(s.session_id.startswith("<default")
                   for s in report.sessions):
                problems.append(f"job {j} has an unattributed session")
            phase.check(1, problems)
    tracing.stop()
    phase.rss_mb = peak_rss_mb()

    # The reference runs the per-session path on freshly loaded models.
    fresh = {genre: load_model(work, genre) for genre in GENRES}
    flagged = {True: [0, 0], False: [0, 0]}
    for j, job in enumerate(jobs):
        records = [
            yarn_session_key(r) for r in formatter.parse_lines(job["lines"])
        ]
        detector = fresh[job["genre"]].detector()
        reference = json.dumps(
            [detector.detect_session(s).to_dict()
             for s in split_sessions(records)],
            sort_keys=True,
        )
        text, anomalous = first[j]
        if text != reference:
            phase.check(0, [f"job {j} reports differ from reference"])
        # Recall and false alarms (paper Table 6).
        flagged[job["fault"]][0] += 1
        flagged[job["fault"]][1] += int(anomalous)
    phase.info["detect_recall"] = flagged[True][1] / max(flagged[True][0], 1)
    phase.info["false_alarm_rate"] = (
        flagged[False][1] / max(flagged[False][0], 1)
    )
    return phase


# -- stream-backfill -------------------------------------------------------


def setup_stream(work: Path, tag: str, cluster: int = 0) -> dict:
    from repro.stream import (
        FileFollowSource,
        JsonLinesSink,
        StreamRuntime,
    )

    source = StampedSource(
        FileFollowSource(work / f"stream-{cluster}.log", formatter="hadoop")
    )
    sink = TimedSink(JsonLinesSink(work / f"{tag}-reports.jsonl"))
    runtime = StreamRuntime(
        load_model(work, "mapreduce"), source, sink=sink,
        checkpoint_path=work / f"{tag}-ckpt.json",
    )
    return {"source": source, "sink": sink, "runtime": runtime}


def stream_phase(work: Path, seconds: float, tracing: Tracing,
                 tag: str) -> Phase:
    from repro.parsing.formatters import HadoopFormatter
    from repro.parsing.records import split_sessions
    from repro.stream import yarn_session_key

    containers = inputs(work)["containers"]
    phase = Phase()
    finished = []
    probe = HostProbe()
    peaks = phase.info["peak_open_sessions"] = [0] * len(containers)
    tracing.start()
    for i in rounds(seconds):
        for k in range(len(containers)):
            s0 = time.perf_counter()
            state = setup_stream(work, f"{tag}-{i}-{k}", cluster=k)
            phase.setup_s.append(time.perf_counter() - s0)
            source, sink, runtime = (
                state["source"], state["sink"], state["runtime"]
            )
            probe.sample()
            tracing.origin["t0"] = time.monotonic()
            c0, t0 = time.process_time(), time.perf_counter()
            stats = runtime.run(once=True)
            t1, c1 = time.perf_counter(), time.process_time()
            scale = probe.factor()
            sink.close()
            phase.add_round(stats.records, t1 - t0, c1 - c0, k, scale)
            # The whole file is backlog from the start, and waiting in it
            # is throughput; the delay is from hand-over of a session's
            # last record to delivery of its report.
            for sid, reason, at in sink.delivered:
                if reason == "end_marker":
                    phase.delay(
                        sid, (at - source.read_at[sid]) * 1000.0 * scale
                    )
            phase.registries.append(runtime.registry)
            finished.append(
                (k, work / f"{tag}-{i}-{k}-reports.jsonl", stats)
            )
            peaks[k] = max(peaks[k], stats.peak_open_sessions)
    tracing.stop()
    phase.rss_mb = peak_rss_mb()

    r0 = time.perf_counter()
    model = load_model(work, "mapreduce")
    references = []
    for k, count in enumerate(containers):
        lines = (work / f"stream-{k}.log").read_text().splitlines()
        records = [
            yarn_session_key(r) for r in HadoopFormatter().parse_lines(lines)
        ]
        sessions = split_sessions(records)
        problems = []
        if len(sessions) != count:
            problems.append(
                f"cluster {k}: {len(sessions)} sessions from {count} "
                f"containers"
            )
        references.append(
            (reference_reports(model, sessions), len(records), problems)
        )
    phase.reference_s = time.perf_counter() - r0
    phase.reference_records = sum(n for _, n, _ in references)
    for k, path, stats in finished:
        expected, n_records, shape_problems = references[k]
        attempted, problems = check_reports(expected, read_jsonl(path))
        problems.extend(shape_problems)
        if stats.records != n_records:
            problems.append(
                f"cluster {k}: consumed {stats.records} of {n_records} "
                f"records"
            )
        quarantined = sum(stats.quarantined.values())
        problems.extend(["quarantined record"] * quarantined)
        if stats.health == "failed":
            problems.append(f"runtime failed: {stats.failure}")
        phase.check(attempted + quarantined, problems)
    return phase


# -- serve-openloop --------------------------------------------------------


def setup_serve(work: Path, tag: str, feeds: dict[str, dict],
                sleep: Callable[[float], None] = time.sleep,
                on_release: Callable[[list[float]], None] | None = None
                ) -> dict:
    """Publish the three models, start the service, attach 4 tenants.

    ``feeds`` maps tenant id to ``{"model", "records", "due"}``.
    """
    from repro.core import ServeConfig
    from repro.query.store import ModelStore
    from repro.serve import DetectionService, ModelRegistry, TenantSpec
    from repro.stream import JsonLinesSink

    registry = ModelRegistry(work / f"{tag}-registry")
    for genre in GENRES:
        registry.publish(ModelStore.load_path(model_path(work, genre)),
                         genre)
    service = DetectionService(
        registry, ServeConfig(), checkpoint_dir=work / f"{tag}-ckpt",
        sleep=sleep,
    )
    sources, sinks = {}, {}
    for tid, feed in feeds.items():
        sources[tid] = ScheduledSource(
            feed["records"], feed["due"], on_release=on_release
        )
        sinks[tid] = TimedSink(JsonLinesSink(work / f"{tag}-{tid}.jsonl"))
        service.attach(
            TenantSpec(tenant_id=tid, model=feed["model"]),
            source=sources[tid], sink=sinks[tid],
        )
    return {"registry": registry, "service": service, "sources": sources,
            "sinks": sinks}


def _serve_feeds(work: Path, schedule: dict) -> dict[str, dict]:
    from repro.parsing.formatters import HadoopFormatter
    from repro.stream import yarn_session_key

    formatter = HadoopFormatter()
    return {
        tid: {
            "model": tenant["model"],
            "records": [
                yarn_session_key(r)
                for r in formatter.parse_lines(tenant["lines"])
            ],
            "due": tenant["due"],
        }
        for tid, tenant in schedule["tenants"].items()
    }


def serve_phase(work: Path, seconds: float, tracing: Tracing,
                tag: str) -> Phase:
    """:data:`SERVE_ROUNDS` rounds, each a fresh service that replays the
    whole schedule (``seconds / SERVE_ROUNDS`` long) and drains."""
    from repro.parsing.records import split_sessions
    from repro.query.store import ModelStore

    schedule = inputs(work)
    phase = Phase()
    sleep: Callable[[float], None] = time.sleep
    on_release = None
    ledger = tracing.ledger
    if ledger is not None:
        def sleep(s: float) -> None:
            ledger.count("serve.service.sleep_s", s)
            time.sleep(s)

        def on_release(waits: list[float]) -> None:
            ledger.sample("stream.source.wait_ms", waits)

    finished = []
    for i in range(SERVE_ROUNDS):
        round_tag = f"{tag}-{i}"
        feeds = _serve_feeds(work, schedule)
        total = sum(len(feed["records"]) for feed in feeds.values())
        tracing.start()
        s0 = time.perf_counter()
        state = setup_serve(work, round_tag, feeds, sleep=sleep,
                            on_release=on_release)
        phase.setup_s.append(time.perf_counter() - s0)
        service, sinks = state["service"], state["sinks"]

        t_start = time.monotonic()
        for source in state["sources"].values():
            source.start(t_start)
        c0, t0 = time.process_time(), time.perf_counter()
        service.run(duration=seconds / SERVE_ROUNDS)
        service.drain()
        t1, c1 = time.perf_counter(), time.process_time()
        phase.add_round(total, t1 - t0, c1 - c0)
        tracing.stop()

        tenant_state = {}
        peaks = phase.info.setdefault("peak_open_sessions", {})
        for tid in feeds:
            tenant = service.tenant(tid)
            stats = tenant.runtime.stats
            tenant_state[tid] = (tenant.queue.shed, stats, tenant.failure)
            phase.registries.append(tenant.registry)
            peaks[tid] = max(peaks.get(tid, 0), stats.peak_open_sessions)
        service.close()
        for sink in sinks.values():
            sink.close()
        for tid, feed in feeds.items():
            last_due: dict[str, float] = {}
            for record, due in zip(feed["records"], feed["due"]):
                last_due[record.session_id] = due
            # A report's wait depends on where the sweep loop's pacing
            # stood when its last record fell due, not only on the host,
            # so every round's reports count.
            for sid, reason, at in sinks[tid].delivered:
                if reason == "end_marker":
                    phase.delay((i, tid, sid),
                                (at - t_start - last_due[sid]) * 1000.0)
        finished.append((round_tag, state["registry"], tenant_state))
    phase.rss_mb = peak_rss_mb()

    # The reference loads the very artifacts the registry served: a
    # model's behaviour depends on the key order of the JSON it was
    # loaded from, not only on its digest (see bench/README.md).
    r0 = time.perf_counter()
    fresh = _serve_feeds(work, schedule)
    registry = finished[0][1]
    models = {
        genre: ModelStore.load_path(
            registry.artifact_path(registry.resolve(genre)[1])
        ).to_intellog()
        for genre in GENRES
    }
    expected = {
        tid: reference_reports(
            models[feed["model"]], split_sessions(feed["records"])
        )
        for tid, feed in fresh.items()
    }
    phase.reference_s = time.perf_counter() - r0
    phase.reference_records = sum(len(f["records"]) for f in fresh.values())
    for round_tag, _, tenant_state in finished:
        for tid in fresh:
            attempted, problems = check_reports(
                expected[tid], read_jsonl(work / f"{round_tag}-{tid}.jsonl")
            )
            shed, stats, failure = tenant_state[tid]
            quarantined = sum(stats.quarantined.values())
            problems.extend([f"{tid}: shed record"] * shed)
            problems.extend([f"{tid}: quarantined record"] * quarantined)
            if failure or stats.health == "failed":
                problems.append(f"{tid}: tenant failed: {failure}")
            phase.check(attempted + shed + quarantined, problems)
    return phase


# -- driver ----------------------------------------------------------------


def run_phase(workload: str, work: Path, seconds: float,
              ledger: Ledger | None, tag: str) -> Phase:
    phases = {
        "train": train_phase,
        "detect-batch": detect_phase,
        "stream-backfill": stream_phase,
        "serve-openloop": serve_phase,
    }
    tracing = Tracing(ledger)
    try:
        return phases[workload](work, seconds, tracing, tag)
    finally:
        tracing.stop()


def layer_metrics(ledger: Ledger, phase: Phase,
                  overhead: float) -> dict[str, float]:
    """Per-layer values of one traced phase, per 1,000 input records."""
    krec = phase.records / 1000.0
    wall = phase.wall
    spans = ledger.layers()
    counts, samples = ledger.counts, ledger.samples
    out: dict[str, float] = {}
    for layer in LAYERS:
        calls, busy = spans.get(layer, (0, 0.0))
        out[f"{layer}.calls_per_krec"] = calls / krec
        out[f"{layer}.busy_ms_per_krec"] = busy * 1e3 / krec
        out[f"{layer}.self_ms_per_krec"] = ledger.self_s[layer] * 1e3 / krec
    saves = spans.get("stream.checkpoint", (0, 0.0))[0]
    cycles = spans.get("serve.service.cycle", (0, 0.0))[0]
    waits = samples["stream.source.wait_ms"]
    open_sessions = samples["stream.tracker.open_sessions"]
    out.update({
        "parsing.spell.matches_per_record":
            counts["parsing.spell.messages"] / (krec * 1000.0),
        "parsing.spell.exact_share": exact_share(phase.registries),
        "stream.tracker.open_sessions_peak": max(open_sessions, default=0),
        "stream.tracker.open_sessions_mean":
            statistics.fmean(open_sessions) if open_sessions else 0.0,
        "stream.checkpoint.bytes_per_save":
            counts["stream.checkpoint.bytes"] / max(saves, 1),
        "stream.batch_reference_ms_per_krec":
            phase.reference_s * 1e6 / phase.reference_records
            if phase.reference_records else 0.0,
        "stream.source.wait_ms_p50": percentile(waits, 50),
        "stream.source.wait_ms_p99": percentile(waits, 99),
        "serve.tenant.queue_depth_p99":
            percentile(samples["serve.tenant.queue_depth"], 99),
        "serve.service.idle_cycle_share":
            counts["serve.service.idle_cycles"] / max(cycles, 1),
        "serve.service.sleep_share":
            counts["serve.service.sleep_s"] / wall if wall else 0.0,
        "trace.overhead_share": overhead,
    })
    return out


def peak_rss_mb() -> float:
    """This process's peak resident set size.

    Linux carries ``ru_maxrss`` across ``execve``, so a child spawned by
    a parent holding the generated corpus would inherit the parent's
    peak; the address space's own high-water mark (``VmHWM``) starts
    fresh at exec.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def probe_setup(workload: str, work: Path, index: int) -> None:
    """Set up once, say ``ready``, tear down (timed by ``run.py``)."""
    tag = f"probe{index}"
    if workload == "train":
        setup_train(work, tag)
    elif workload == "detect-batch":
        setup_detect(work, tag)
    elif workload == "stream-backfill":
        state = setup_stream(work, tag)
        print("ready", flush=True)
        state["sink"].close()
        return
    elif workload == "serve-openloop":
        state = setup_serve(work, tag, feeds={
            tid: {"model": genre, "records": [], "due": []}
            for tid, genre in SERVE_TENANTS
        })
        print("ready", flush=True)
        state["service"].close()
        for sink in state["sinks"].values():
            sink.close()
        shutil.rmtree(work / f"{tag}-registry", ignore_errors=True)
        shutil.rmtree(work / f"{tag}-ckpt", ignore_errors=True)
        return
    else:
        raise ValueError(f"unknown workload {workload!r}")
    print("ready", flush=True)


def measure(workload: str, work: Path, seconds: float,
            trace: bool) -> dict[str, Any]:
    phase = run_phase(workload, work, seconds, None, "run")
    result: dict[str, Any] = {
        "metrics": {**phase.end_to_end(), "peak_rss_mb": phase.rss_mb},
        "attempted": phase.attempted,
        "problems": phase.problems,
        "info": {
            **phase.info,
            "unit_runs": len(phase.passes),
            "records": phase.records,
            "unscaled_records_per_s": phase.unscaled_records_per_s(),
            "host_scale_median": statistics.median(
                p[4] for p in phase.passes
            ),
            "report_delay_p50_ms": phase.delay_percentile(50),
            "report_delay_p99_ms": phase.delay_percentile(99),
            "cpu_ms_per_krec": phase.cpu_ms_per_krec(),
            "delay_samples": len(phase.delays_ms),
            "setup_inprocess_s": statistics.median(phase.setup_s)
            if phase.setup_s else 0.0,
        },
    }
    if trace:
        ledger = Ledger()
        traced = run_phase(workload, work, seconds, ledger, "traced")
        base = phase.cpu_ms_per_krec()
        traced_cpu = traced.cpu_ms_per_krec()
        result["info"]["traced_cpu_ms_per_krec"] = traced_cpu
        result["layers"] = layer_metrics(ledger, traced, traced_cpu / base - 1)
        result["attempted"] += traced.attempted
        result["problems"] += traced.problems
        (work / "spans.json").write_text(json.dumps({
            "spans": ledger.span_dicts(), "dropped": ledger.dropped,
        }))
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--probe-setup", type=int, default=None)
    args = parser.parse_args(argv)
    use_src()
    from repro.core.errors import ModelValidationWarning

    warnings.simplefilter("ignore", ModelValidationWarning)
    if args.probe_setup is not None:
        probe_setup(args.workload, args.work, args.probe_setup)
        return 0
    result = measure(args.workload, args.work, args.seconds, args.trace)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
