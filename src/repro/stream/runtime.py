"""The live detection runtime: source → tracker → detector → sink.

:class:`StreamRuntime` is the event loop that turns IntelLog's batch
pipeline into an online service.  Each iteration pulls a batch of
records from the :class:`~repro.stream.source.LogSource`, gives every
record an immediate unexpected-message check
(:class:`~repro.stream.detector.StreamingDetector.observe`), feeds it to
the :class:`~repro.stream.tracker.SessionTracker`, and — whenever the
tracker closes a session — finalizes the full HW-graph-instance checks
and emits the :class:`~repro.detection.report.SessionReport` through the
sink.  Durable state has two parts, so restarts neither drop nor
duplicate work:

* after every poll batch that delivered reports, one append to the
  delivery journal (:mod:`~repro.stream.journal`) records their
  finalization ids and counter deltas — tens of bytes per report;
* the full checkpoint snapshot (source position + tracker state +
  counters + exactly-once ledger + outbox) is taken only every
  ``checkpoint_every`` records, when a report was parked in the
  outbox, and at pause, finish or failure.  Each snapshot rotates the
  journal.

Resume loads the snapshot (or its ``.bak``, or starts cold) and replays
the journal into the ledger and the counters, so a crash replays at
most ``checkpoint_every`` records and re-emits none of their reports.

The runtime is built to outlive the failures it watches for:

* transient source/sink ``OSError``s are retried with seeded-jitter
  exponential backoff; consecutive failures drive an explicit
  ``HEALTHY → DEGRADED → FAILED`` health state machine (a
  :class:`~repro.stream.resilience.CircuitBreaker`), surfaced in
  :class:`RuntimeStats` and via the ``on_health`` callback — on FAILED
  the loop stops at the last checkpoint instead of crashing;
* each closed session's report is identified by a content hash
  (:func:`~repro.stream.resilience.finalization_id`); recently emitted
  ids ride in the checkpoint and the journal, and replayed closures
  matching the ledger are suppressed — **no session report is ever
  emitted twice after a resume**;
* reports a failing sink would not accept land in a checkpointed
  outbox and are redelivered first on the next run — never lost;
* close-time detection errors on a (corrupt) session are quarantined,
  not raised.

Memory stays bounded by the tracker's session cap; wall-clock pacing
(`poll_interval`) only applies when the source has nothing to deliver.

Counters live in a :class:`~repro.obs.MetricsRegistry` (``stream_*``
series, see the README metric table) shared with the instrumented
detector/parser, so ``--metrics-out`` snapshots and the
``--metrics-port`` exposition endpoint see one consistent store.  The
runtime times its own stages: ``stream_stage_seconds{stage}`` gets one
observation per stage per batch (a poll batch that delivered records,
a close-out, a forced eviction) from plain ``perf_counter`` deltas, and
``stream_report_delay_seconds`` one per delivered report, from the
poll that handed over its closing record to its sink emit.  The
detector it instruments keeps its ``detect_*`` counters but records no
``detect.*`` spans, which cost more per session than the counters.
:class:`RuntimeStats` remains the stable operator surface: it is now a
point-in-time *view* assembled from the registry (``runtime.stats``
builds a fresh snapshot; the periodic ``stats_callback`` receives one
per emission).  Rates come from the runtime's monotonic clock, never
wall time.
"""

from __future__ import annotations

import logging
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, Iterable

from ..core.config import DurabilityConfig, ResilienceConfig
from ..core.errors import StreamFailedError
from ..core.fsio import REAL_FS, FileSystem
from ..core.killpoints import kill_point
from ..detection.detector import AnomalyDetector
from ..detection.report import SessionReport
from ..obs import Counter, MetricsRegistry
from ..parsing.records import Session
from .checkpoint import StreamCheckpoint
from .detector import LiveAlert, StreamingDetector
from .journal import DeliveryJournal, journal_line, snapshot_line
from .resilience import (
    DEGRADED,
    FAILED,
    HEALTHY,
    REASON_FINALIZE,
    CircuitBreaker,
    ListQuarantine,
    Quarantine,
    RetryPolicy,
    finalization_id,
)
from .sink import ListSink, ReportSink
from .source import LogSource
from .tracker import ClosedSession, SessionTracker, TrackerConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.intellog import IntelLog

__all__ = ["STAGES", "RuntimeStats", "StreamRuntime"]

log = logging.getLogger(__name__)

#: ``stream_stage_seconds`` label values, in pipeline order: the source
#: poll, the live match of the batch, the tracker, close-time detection
#: (``finalization_id`` and ``StreamingDetector.finalize``), delivery to
#: the sink, and the journal append or snapshot that commits the batch.
STAGES = ("poll", "match", "track", "finalize", "sink", "checkpoint")
_POLL, _MATCH, _TRACK, _FINALIZE, _SINK, _CHECKPOINT = range(len(STAGES))
#: A batch's stage seconds before any stage ran (None: did not run).
_NO_STAGES: tuple[None, ...] = (None,) * len(STAGES)

@dataclass(slots=True)
class RuntimeStats:
    """Point-in-time view of the runtime's registry-backed metrics.

    Historically this dataclass *was* the counter store; it is now a
    snapshot assembled by :meth:`StreamRuntime.stats` (and handed to the
    periodic ``stats_callback``) while the counts themselves live in the
    shared :class:`~repro.obs.MetricsRegistry`.  The field surface is
    unchanged so existing callers keep working.
    """

    records: int = 0
    live_alerts: int = 0
    reports: int = 0
    anomalous_sessions: int = 0
    open_sessions: int = 0
    peak_open_sessions: int = 0
    evictions: int = 0
    closed_by_reason: dict[str, int] = field(default_factory=dict)
    anomalies_by_kind: dict[str, int] = field(default_factory=dict)
    queue_depth: int | None = None
    elapsed_s: float = 0.0
    records_per_s: float = 0.0
    # -- resilience -------------------------------------------------------
    #: Current health state: "healthy" | "degraded" | "failed".
    health: str = HEALTHY
    #: Why the breaker opened (set when health == "failed").
    failure: str | None = None
    #: Cumulative seconds spent out of HEALTHY.
    degraded_s: float = 0.0
    #: Failed IO attempts (each consumes one retry).
    io_failures: int = 0
    #: Quarantined lines by reason code.
    quarantined: dict[str, int] = field(default_factory=dict)
    #: Replayed closures suppressed by the exactly-once ledger.
    deduped_reports: int = 0
    #: Reports parked in the outbox awaiting a recovered sink.
    undelivered_reports: int = 0
    #: Close-time detection errors routed to quarantine.
    finalize_errors: int = 0
    #: Log-rotation / truncation events the source recovered from.
    source_rotations: int = 0
    source_truncations: int = 0
    #: Checkpoint saves skipped because the disk refused the write
    #: (ENOSPC/EIO); the runtime keeps serving with a bounded-replay
    #: warning instead of crashing.
    deferred_checkpoints: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "records": self.records,
            "live_alerts": self.live_alerts,
            "reports": self.reports,
            "anomalous_sessions": self.anomalous_sessions,
            "open_sessions": self.open_sessions,
            "peak_open_sessions": self.peak_open_sessions,
            "evictions": self.evictions,
            "closed_by_reason": dict(self.closed_by_reason),
            "anomalies_by_kind": dict(self.anomalies_by_kind),
            "queue_depth": self.queue_depth,
            "elapsed_s": round(self.elapsed_s, 3),
            "records_per_s": round(self.records_per_s, 1),
            "health": self.health,
            "failure": self.failure,
            "degraded_s": round(self.degraded_s, 3),
            "io_failures": self.io_failures,
            "quarantined": dict(self.quarantined),
            "deduped_reports": self.deduped_reports,
            "undelivered_reports": self.undelivered_reports,
            "finalize_errors": self.finalize_errors,
            "source_rotations": self.source_rotations,
            "source_truncations": self.source_truncations,
            "deferred_checkpoints": self.deferred_checkpoints,
        }


class StreamRuntime:
    """Online ingestion + live anomaly detection against a trained model."""

    def __init__(
        self,
        model: "IntelLog | AnomalyDetector",
        source: LogSource,
        sink: ReportSink | None = None,
        tracker: SessionTracker | TrackerConfig | None = None,
        checkpoint_path: str | Path | None = None,
        on_alert: Callable[[LiveAlert], None] | None = None,
        stats_callback: Callable[[RuntimeStats], None] | None = None,
        stats_every: int = 1000,
        checkpoint_every: int = 5000,
        poll_batch: int = 512,
        poll_interval: float = 0.5,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        resilience: ResilienceConfig | None = None,
        quarantine: Quarantine | None = None,
        on_health: Callable[[str, str, str], None] | None = None,
        registry: MetricsRegistry | None = None,
        durability: DurabilityConfig | None = None,
        fs: FileSystem | None = None,
    ) -> None:
        if isinstance(model, AnomalyDetector):
            detector = model
        else:
            detector = model.detector()
        self.registry = registry if registry is not None else MetricsRegistry()
        detector.instrument(self.registry)
        self.detector = StreamingDetector(detector)
        self.source = source
        self.sink: ReportSink = sink if sink is not None else ListSink()
        if isinstance(tracker, SessionTracker):
            self.tracker = tracker
        else:
            self.tracker = SessionTracker(tracker)
        self.checkpoint_path = (
            Path(checkpoint_path) if checkpoint_path is not None else None
        )
        self.on_alert = on_alert
        self.stats_callback = stats_callback
        self.on_health = on_health
        self.stats_every = max(1, stats_every)
        self.checkpoint_every = max(1, checkpoint_every)
        self.poll_batch = max(1, poll_batch)
        self.poll_interval = poll_interval
        self._clock = clock
        self._sleep = sleep
        self.resilience = resilience or ResilienceConfig()
        self.resilience.validate()
        self.durability = durability or DurabilityConfig()
        self._fs = fs or REAL_FS
        self._policy = RetryPolicy(self.resilience)
        self._breaker = CircuitBreaker(
            degraded_after=self.resilience.degraded_after,
            failed_after=self.resilience.failed_after,
            clock=clock,
        )
        # Share the source's quarantine when it has one, so malformed
        # lines and runtime-level dead letters land in one channel.
        if quarantine is not None:
            self.quarantine: Quarantine = quarantine
        else:
            self.quarantine = getattr(
                source, "quarantine", None
            ) or ListQuarantine()
        self._init_metrics()
        #: Seconds each stage spent in the current batch, observed into
        #: ``stream_stage_seconds`` when the batch ends.
        self._stage_s: list[float | None] = list(_NO_STAGES)
        #: ``perf_counter`` at which the records (or the flush or
        #: eviction) closing the sessions now being finalized were
        #: handed over: the start of ``stream_report_delay_seconds``.
        self._handover = 0.0
        self._run_consumed = 0
        self._last_checkpoint_at = 0
        # True while checkpoint saves or journal appends are being
        # refused by the disk; gates the bounded-loss warning to once
        # per outage spell.
        self._checkpoint_deferred_spell = False
        self._journal = (
            DeliveryJournal(
                self.checkpoint_path,
                fs=self._fs,
                fsync=self.durability.fsync_checkpoints,
            )
            if self.checkpoint_path is not None else None
        )
        #: Encoded journal lines not yet appended, in order: delivered
        #: reports, and the marker of each snapshot taken since.
        self._journal_pending: list[bytes] = []
        #: A delivered report's line is among the pending ones.
        self._journal_due = False
        #: A report was parked since the last snapshot.
        self._outbox_dirty = False
        self._stats_emitted_at = -1
        # Non-metric snapshot state (owned by the loop, read by the view).
        self._health = HEALTHY
        self._failure: str | None = None
        self._queue_depth: int | None = None
        self._elapsed_s = 0.0
        self._records_per_s = 0.0
        #: Exactly-once ledger: recently finalized session content ids.
        self._finalized_ids: set[str] = set()
        self._finalized_order: deque[str] = deque()
        #: Finalized-but-undelivered reports (sink outage survivors).
        self._outbox: deque[dict[str, Any]] = deque()
        #: Finalization ids of parked reports — the O(1) companion index
        #: of ``_outbox`` so replayed closures dedup without scanning it.
        self._parked_fids: set[str] = set()
        self.resume_origin = "fresh"
        self.resume_notes: list[str] = []
        # Quantum-mode bookkeeping (step()/finish(), used by repro.serve):
        # lazily initialized on the first step so a runtime driven via
        # run() never pays for it.
        self._loop_start: float | None = None
        self._next_stats_at: int | None = None
        self._resumed = self._try_resume()

    def _init_metrics(self) -> None:
        reg = self.registry
        self._m_records = reg.counter(
            "stream_records_total", "Records consumed from the source."
        )
        self._m_live_alerts = reg.counter(
            "stream_live_alerts_total",
            "Immediate per-record unexpected-message alerts.",
        )
        self._m_reports = reg.counter(
            "stream_reports_total", "Session reports finalized."
        )
        self._m_anom_sessions = reg.counter(
            "stream_anomalous_sessions_total",
            "Finalized sessions carrying at least one anomaly.",
        )
        self._m_closed = reg.counter(
            "stream_closed_sessions_total",
            "Sessions closed by the tracker, by reason.",
        )
        self._m_session_anoms = reg.counter(
            "stream_session_anomalies_total",
            "Anomalies in finalized session reports, by kind.",
        )
        self._m_deduped = reg.counter(
            "stream_deduped_reports_total",
            "Replayed closures suppressed by the exactly-once ledger.",
        )
        self._m_finalize_errors = reg.counter(
            "stream_finalize_errors_total",
            "Close-time detection errors routed to quarantine.",
        )
        self._m_io_failures = reg.counter(
            "stream_io_failures_total",
            "Failed source/sink IO attempts (each consumed one retry).",
        )
        self._g_open = reg.gauge(
            "stream_open_sessions", "Sessions currently open in the tracker."
        )
        self._g_peak = reg.gauge(
            "stream_peak_open_sessions",
            "High-water mark of concurrently open sessions.",
        )
        self._g_evictions = reg.gauge(
            "stream_evictions", "Sessions force-closed by the LRU cap."
        )
        self._g_queue = reg.gauge(
            "stream_queue_depth",
            "Source backlog at the last probe (-1 when unknown).",
        )
        self._g_outbox = reg.gauge(
            "stream_outbox_reports",
            "Reports parked in the outbox awaiting a recovered sink.",
        )
        self._g_rps = reg.gauge(
            "stream_records_per_s",
            "Consumption rate over this run, from the monotonic clock.",
        )
        self._g_degraded = reg.gauge(
            "stream_degraded_seconds",
            "Cumulative seconds spent out of the HEALTHY state.",
        )
        self._m_ckpt_deferred = reg.counter(
            "stream_deferred_checkpoints_total",
            "Checkpoint saves or journal appends refused by the disk "
            "(kept serving).",
        )
        self._m_ckpt_saves = reg.counter(
            "stream_checkpoint_saves_total",
            "Full checkpoint snapshots written.",
        )
        self._m_journal_appends = reg.counter(
            "stream_journal_appends_total",
            "Delivery-journal appends (one per report-delivering batch).",
        )
        self._m_journal_bytes = reg.counter(
            "stream_journal_bytes_total",
            "Bytes appended to the delivery journal.",
        )
        stages = reg.histogram(
            "stream_stage_seconds",
            "Seconds one batch spent in each pipeline stage, observed "
            "once per batch that ran the stage.",
        )
        self._h_stages = [stages.labels(stage=stage) for stage in STAGES]
        self._h_delay = reg.histogram(
            "stream_report_delay_seconds",
            "Seconds from the poll that handed over a session's closing "
            "record to the sink emit of its report.",
        )

    # -- stats view -------------------------------------------------------

    @staticmethod
    def _labeled_counts(metric: Counter, label: str) -> dict[str, int]:
        return {
            labels[label]: int(value)
            for labels, value in metric.samples()
            if label in labels
        }

    def _quarantine_counts(self) -> dict[str, int]:
        """Consistent copy of the quarantine's per-reason counts.

        Prefers the sink's lock-guarded ``snapshot()``; a bare
        ``dict()`` of a dict another thread is inserting into can raise
        RuntimeError or observe it mid-resize.  Third-party sinks that
        predate ``snapshot()`` fall back to the raw copy.
        """
        snapshot = getattr(self.quarantine, "snapshot", None)
        if callable(snapshot):
            return dict(snapshot())
        return dict(self.quarantine.counts)

    @property
    def stats(self) -> RuntimeStats:
        """A fresh :class:`RuntimeStats` snapshot of the registry."""
        return RuntimeStats(
            records=int(self._m_records.value),
            live_alerts=int(self._m_live_alerts.value),
            reports=int(self._m_reports.value),
            anomalous_sessions=int(self._m_anom_sessions.value),
            open_sessions=self.tracker.open_count,
            peak_open_sessions=self.tracker.peak_open,
            evictions=self.tracker.evictions,
            closed_by_reason=self._labeled_counts(self._m_closed, "reason"),
            anomalies_by_kind=self._labeled_counts(
                self._m_session_anoms, "kind"
            ),
            queue_depth=self._queue_depth,
            elapsed_s=self._elapsed_s,
            records_per_s=self._records_per_s,
            health=self._health,
            failure=self._failure,
            degraded_s=self._breaker.degraded_seconds(),
            io_failures=int(self._m_io_failures.value),
            quarantined=self._quarantine_counts(),
            deduped_reports=int(self._m_deduped.value),
            undelivered_reports=len(self._outbox),
            finalize_errors=int(self._m_finalize_errors.value),
            source_rotations=getattr(self.source, "rotations", 0),
            source_truncations=getattr(self.source, "truncations", 0),
            deferred_checkpoints=int(self._m_ckpt_deferred.value),
        )

    # -- lifecycle --------------------------------------------------------

    @property
    def resumed(self) -> bool:
        """True when a checkpoint was found and restored on startup."""
        return self._resumed

    def _try_resume(self) -> bool:
        self._merge_sink_ledger()
        if self.checkpoint_path is None:
            return False
        checkpoint, origin, notes = StreamCheckpoint.recover(
            self.checkpoint_path
        )
        self.resume_origin = origin
        self.resume_notes = notes
        for note in notes:
            log.warning("%s", note)
        if checkpoint is not None:
            self._restore(checkpoint)
        self._replay_journal(
            checkpoint.checksum if checkpoint is not None else None
        )
        return checkpoint is not None

    def _restore(self, checkpoint: StreamCheckpoint) -> None:
        self.source.seek(checkpoint.source_position)
        self.tracker.load_state(checkpoint.tracker_state)
        counters = checkpoint.counters
        # The checkpoint continues the same logical run, so cumulative
        # counters are carried over via the restore() escape hatch.
        self._m_records.restore(int(counters.get("records", 0)))
        self._m_live_alerts.restore(int(counters.get("live_alerts", 0)))
        self._m_reports.restore(int(counters.get("reports", 0)))
        self._m_anom_sessions.restore(
            int(counters.get("anomalous_sessions", 0))
        )
        for reason, count in dict(
            counters.get("closed_by_reason", {})
        ).items():
            self._m_closed.labels(reason=reason).restore(int(count))
        for kind, count in dict(
            counters.get("anomalies_by_kind", {})
        ).items():
            self._m_session_anoms.labels(kind=kind).restore(int(count))
        self._m_deduped.restore(int(counters.get("deduped_reports", 0)))
        self._m_finalize_errors.restore(
            int(counters.get("finalize_errors", 0))
        )
        for fid in checkpoint.finalized:
            self._remember_finalized(fid)
        self._outbox = deque(
            entry for entry in checkpoint.outbox
            if isinstance(entry, dict) and entry.get("report")
        )
        self._last_checkpoint_at = int(self._m_records.value)

    def _replay_journal(self, snapshot: str | None) -> None:
        """Fold the journal into the ledger and the counters.

        Every id joins the ledger.  Counter deltas apply only to the
        entries delivered after the loaded snapshot, whose checksum is
        ``snapshot``: those after its first marker, or all of them on
        a cold start (``snapshot`` None).  An id already seen earlier
        in the journal (a torn append written again) counts once.
        Outbox entries delivered after the snapshot are dropped, not
        redelivered.
        """
        assert self._journal is not None
        try:
            entries = self._journal.replay()
        except OSError as exc:
            log.warning("delivery journal unreadable: %s", exc)
            entries = []
        counting = snapshot is None
        seen: set[str] = set()
        for entry in entries:
            if "snapshot" in entry:
                counting = counting or entry["snapshot"] == snapshot
                continue
            fid = entry["id"]
            if counting and "reason" in entry and fid not in seen:
                self._count_report(
                    entry["reason"],
                    entry.get("anomalous", False),
                    entry.get("kinds", ()),
                )
            seen.add(fid)
            self._remember_finalized(fid)
        if not counting:
            # Nothing was journaled after the loaded snapshot: what
            # this run delivers follows it.
            assert snapshot is not None
            self._journal_pending.append(snapshot_line(snapshot))
        self._outbox = deque(
            entry for entry in self._outbox
            if entry.get("finalization_id") not in self._finalized_ids
        )
        # Rebuild the parked-fid index so dedup stays O(1) and exactly
        # as consistent with the outbox as before the restart.
        self._parked_fids = {
            str(entry["finalization_id"])
            for entry in self._outbox
            if entry.get("finalization_id")
        }
        self._g_outbox.set(len(self._outbox))

    def _merge_sink_ledger(self) -> None:
        """Fold the sink's own delivery log into the exactly-once
        ledger — it survives even checkpoint loss (cold start)."""
        emitted = getattr(self.sink, "emitted_ids", None)
        if not callable(emitted):
            return
        try:
            ids = emitted()
        except OSError as exc:
            log.warning("sink delivery log unreadable: %s", exc)
            return
        for fid in ids:
            self._remember_finalized(fid)

    def checkpoint(self) -> None:
        """Snapshot source position + tracker state + counters + the
        exactly-once ledger and outbox to disk (atomic, with .bak).

        Pending journal lines are appended first and the journal is
        rotated after a successful save, so the previous journal spans
        the ``.bak`` to the live snapshot.

        Disk pressure degrades instead of crashing: an ``OSError``
        (ENOSPC, EIO, failed fsync) *defers* the checkpoint — the
        runtime keeps serving with a warning bounding the replay cost,
        and retries on the next checkpoint trigger (``_last_checkpoint_
        at`` is only advanced on success, so the overdue condition
        stays armed).  A crash during the outage replays at most the
        records since the last durable checkpoint; the exactly-once
        ledger, the journal and the sink delivery log still dedupe
        their reports.
        """
        if self.checkpoint_path is None:
            return
        self._append_journal()
        self._save_snapshot()

    def _save_snapshot(self) -> None:
        assert self.checkpoint_path is not None
        assert self._journal is not None
        snapshot = StreamCheckpoint(
            source_position=self.source.position(),
            tracker_state=self.tracker,
            counters={
                "records": int(self._m_records.value),
                "live_alerts": int(self._m_live_alerts.value),
                "reports": int(self._m_reports.value),
                "anomalous_sessions": int(self._m_anom_sessions.value),
                "closed_by_reason": self._labeled_counts(
                    self._m_closed, "reason"
                ),
                "anomalies_by_kind": self._labeled_counts(
                    self._m_session_anoms, "kind"
                ),
                "deduped_reports": int(self._m_deduped.value),
                "finalize_errors": int(self._m_finalize_errors.value),
            },
            finalized=list(self._finalized_order),
            outbox=list(self._outbox),
        )
        try:
            checksum = snapshot.save(
                self.checkpoint_path,
                fs=self._fs,
                fsync=self.durability.fsync_checkpoints,
            )
        except OSError as exc:
            self._defer(exc)
            return
        self._m_ckpt_saves.inc()
        self._outbox_dirty = False
        self._last_checkpoint_at = int(self._m_records.value)
        # Lines a failed append left pending were delivered before this
        # snapshot: journal them now, ahead of its marker, so the
        # rotated journal spans the .bak to this snapshot.  If the disk
        # refuses again they stay pending and the journal unrotated.
        if self._append_journal():
            self._rotate_journal()
            # Only unwritten markers are left; the last is the .bak's.
            del self._journal_pending[:-1]
            if self._checkpoint_deferred_spell:
                self._checkpoint_deferred_spell = False
                log.info(
                    "checkpoint recovered: durable again at %d records",
                    int(self._m_records.value),
                )
        self._journal_pending.append(snapshot_line(checksum))

    def _rotate_journal(self) -> None:
        assert self._journal is not None
        try:
            self._journal.rotate()
        except OSError as exc:
            # The snapshot is durable; an unrotated journal only makes
            # the next replay longer.
            log.warning("delivery journal not rotated: %s", exc)

    def _append_journal(self) -> bool:
        """Append the pending journal lines once a delivered report's
        line is among them; False if the disk refused (the lines stay
        pending)."""
        if not self._journal_due:
            return True
        assert self._journal is not None
        try:
            written = self._journal.append(self._journal_pending)
        except OSError as exc:
            self._defer(exc, "journal append: ")
            return False
        self._journal_pending.clear()
        self._journal_due = False
        self._m_journal_appends.inc()
        self._m_journal_bytes.inc(written)
        return True

    def _defer(self, exc: OSError, what: str = "") -> None:
        """Count a refused durable write; warn once per outage spell."""
        self._m_ckpt_deferred.inc()
        if self._checkpoint_deferred_spell:
            return
        self._checkpoint_deferred_spell = True
        log.warning(
            "checkpoint deferred (%s%s): serving continues; a crash now "
            "would replay up to %d records since the last durable "
            "checkpoint (reports stay exactly-once via the ledger)",
            what, exc,
            int(self._m_records.value) - self._last_checkpoint_at,
        )

    def _commit(self) -> None:
        """End of a poll batch: journal what it delivered, and take a
        snapshot when the record budget is spent, a report was parked or
        the journal append failed.  Timed as the batch's ``checkpoint``
        stage when it wrote (or tried to write) anything."""
        if self._journal is None:
            return
        t0 = perf_counter()
        overdue = (
            int(self._m_records.value) - self._last_checkpoint_at
            >= self.checkpoint_every
        )
        if overdue or self._outbox_dirty:
            self.checkpoint()
        elif not self._journal_due:
            return
        elif not self._append_journal():
            self._save_snapshot()
        self._stage_s[_CHECKPOINT] = perf_counter() - t0

    # -- guarded IO -------------------------------------------------------

    def _attempt(
        self, what: str, fn: Callable[[], Any]
    ) -> tuple[bool, Any]:
        """Run one IO operation with retry/backoff under the breaker.

        Returns ``(True, value)`` on success.  Returns ``(False, None)``
        when the retry budget for this cycle is spent or the breaker
        opened — the caller decides whether to park work (sink) or just
        poll again later (source).
        """
        attempt = 0
        while True:
            try:
                value = fn()
            except OSError as exc:
                attempt += 1
                self._m_io_failures.inc()
                state = self._breaker.record_failure()
                self._note_health(f"{what}: {exc}")
                log.warning(
                    "%s failed (attempt %d/%d, health %s): %s",
                    what, attempt, self._policy.max_attempts, state, exc,
                )
                if state == FAILED:
                    self._failure = f"{what}: {exc}"
                    return False, None
                if attempt >= self._policy.max_attempts:
                    return False, None
                self._sleep(self._policy.delay(attempt - 1))
                continue
            self._breaker.record_success()
            self._note_health(f"{what} recovered")
            return True, value

    def _note_health(self, why: str) -> None:
        new = self._breaker.state
        if new != self._health:
            old, self._health = self._health, new
            if self.on_health is not None:
                self.on_health(old, new, why)

    @property
    def failed(self) -> bool:
        return self._health == FAILED

    @property
    def owes_step(self) -> bool:
        """Whether a step has work that no new record brings: parked
        reports to redeliver, or a failed poll to retry (degraded)."""
        return bool(self._outbox) or self._health == DEGRADED

    def reset_health(self) -> None:
        """Supervisor restart without a rebuild: clear the breaker and
        failure note so a FAILED runtime can be pumped again.

        In-memory state (tracker, ledger, outbox) is untouched — this is
        the cheap restart for runtimes without a checkpoint path, where
        a full rebuild would *lose* open sessions rather than recover
        them.  Checkpointed tenants are restarted by rebuilding the
        runtime from disk instead (see ``Tenant.restart``).
        """
        self._breaker = CircuitBreaker(
            degraded_after=self.resilience.degraded_after,
            failed_after=self.resilience.failed_after,
            clock=self._clock,
        )
        self._failure = None
        self._note_health("supervisor restart")

    # -- main loop --------------------------------------------------------

    def run(
        self,
        once: bool = False,
        max_records: int | None = None,
    ) -> RuntimeStats:
        """Consume the source until exhausted (``once``) or forever.

        ``once`` finishes when the source has nothing left *right now*
        (backfill / tests); otherwise the loop sleeps ``poll_interval``
        between empty polls and keeps following.  At a natural end the
        tracker is flushed so every open session gets its report.

        ``max_records`` instead *pauses* after that many records: open
        sessions stay in the tracker and a checkpoint is written, so a
        later ``run()`` (or a new process resuming from the checkpoint)
        continues mid-job.

        When the circuit breaker opens (health FAILED) the loop stops
        at the last checkpoint and returns stats with
        ``health == "failed"`` — or raises
        :class:`~repro.core.errors.StreamFailedError` under
        ``ResilienceConfig.fail_fast``.
        """
        start = self._clock()
        self._run_consumed = 0
        self._next_stats_at = int(self._m_records.value) + self.stats_every
        consumed = 0
        paused = False
        while not self.failed:
            if max_records is not None and consumed >= max_records:
                paused = True
                break
            # Clamp the poll so a max_records pause never strands polled
            # but unobserved records (the source position moves with the
            # poll, so anything pulled must be consumed).
            want = self.poll_batch
            if max_records is not None:
                want = min(want, max_records - consumed)
            got = self._cycle(want, start)
            if got is None:
                if self.failed:
                    break
                # Transient outage: behave like an idle poll (never an
                # end-of-input, even in once mode) and try again.
                self._sleep(self.poll_interval)
                continue
            if not got:
                if once or self.source.exhausted():
                    break
                # One stats emission when the stream goes quiet, then
                # silence until records flow again — not one per poll.
                if int(self._m_records.value) != self._stats_emitted_at:
                    self._emit_stats(start)
                self._sleep(self.poll_interval)
                continue
            consumed += got
        return self._close_out(start, drain_tail=not paused)

    def drain(self) -> RuntimeStats:
        """Convenience: process everything currently available and stop."""
        return self.run(once=True)

    # -- quantum mode (serving layer) -------------------------------------

    def step(self, max_records: int | None = None) -> int:
        """Run one bounded scheduling quantum; return records consumed.

        The serving layer (:mod:`repro.serve`) multiplexes many runtimes
        on a shared scheduler, so it cannot call :meth:`run` — that loop
        only returns on exhaustion, pause, or failure.  ``step`` does
        exactly one cycle of the same pipeline: drain the outbox, poll
        the source once (retry/breaker-guarded), ingest the batch,
        journal the delivered reports, and snapshot when the record
        budget is spent or a report was parked.
        Returning ``0`` means the quantum was idle (nothing available,
        or the breaker is open — check :attr:`failed`); the caller owns
        pacing between quanta.  Semantics per record are identical to
        :meth:`run`, so stepped output matches a standalone run on the
        same stream.  Finish a stepped stream with :meth:`finish`.
        """
        start = self._quantum_start()
        if self.failed:
            return 0
        want = self.poll_batch
        if max_records is not None:
            want = min(want, max_records)
        got = self._cycle(want, start)
        if got == 0 and int(self._m_records.value) != self._stats_emitted_at:
            self._emit_stats(start)
        return got or 0

    def finish(self) -> RuntimeStats:
        """End-of-stream epilogue for a stepped runtime.

        Mirrors the natural end of :meth:`run`: collect the source's
        tail (``finalize``), flush the tracker so every open session
        gets its report, drain the outbox, checkpoint, and emit a final
        stats snapshot.
        """
        return self._close_out(self._quantum_start(), drain_tail=True)

    def force_evict(self, count: int) -> int:
        """Force-close ``count`` LRU sessions (global-budget pressure).

        Closures flow through the normal finalize path — exactly-once
        ledger, metrics, sink/outbox — exactly as a cap eviction would.
        Returns how many sessions were actually closed.
        """
        self._handover = perf_counter()
        closed = self.tracker.evict_lru(count)
        self._stage_s[_TRACK] = perf_counter() - self._handover
        for item in closed:
            self._finalize(item)
        self._commit()
        self._observe_stages()
        return len(closed)

    # -- internals --------------------------------------------------------

    def _quantum_start(self) -> float:
        """Start of a stepped stream: set on its first quantum."""
        if self._loop_start is None:
            self._loop_start = self._clock()
            self._run_consumed = 0
        if self._next_stats_at is None:
            self._next_stats_at = int(self._m_records.value) + self.stats_every
        return self._loop_start

    def _cycle(self, want: int, start: float) -> int | None:
        """One poll batch of :meth:`run` and :meth:`step` (see there),
        committed: journaled, and snapshotted when due.  Returns the
        records consumed, or ``None`` when nothing was polled: the
        outbox drain or the poll failed (check :attr:`failed`), or
        ``want`` is not positive.  Only a cycle that polled records
        observes its stages."""
        got = self._poll_batch(want, start)
        self._commit()
        if got:
            self._observe_stages()
        else:
            self._stage_s[:] = _NO_STAGES
        return got

    def _observe_stages(self) -> None:
        """End of a batch: observe each stage it ran, once, and clear."""
        stage_s = self._stage_s
        for histogram, seconds in zip(self._h_stages, stage_s):
            if seconds is not None:
                histogram.observe(seconds)
        stage_s[:] = _NO_STAGES

    def _poll_batch(self, want: int, start: float) -> int | None:
        if self._outbox:
            self._drain_outbox()
            if self.failed:
                return None
        if want <= 0:
            return None
        t0 = perf_counter()
        ok, batch = self._attempt(
            "source.poll", lambda: self.source.poll(want)
        )
        if not ok:
            return None
        if not batch:
            flush_pending = getattr(self.source, "flush_pending", None)
            if flush_pending is not None:
                batch = flush_pending()
        if not batch:
            return 0
        self._handover = perf_counter()
        self._stage_s[_POLL] = self._handover - t0
        self._ingest(batch, start)
        return len(batch)

    def _close_out(self, start: float, drain_tail: bool) -> RuntimeStats:
        """End of :meth:`run` / :meth:`finish`: unless paused or failed,
        drain the source's tail and flush the tracker; then checkpoint.
        Its stages are observed as one more batch."""
        stage_s = self._stage_s
        if drain_tail and not self.failed:
            finalize = getattr(self.source, "finalize", None)
            if finalize is not None:
                t0 = perf_counter()
                ok, tail = self._attempt("source.finalize", finalize)
                if tail:
                    self._handover = perf_counter()
                    stage_s[_POLL] = self._handover - t0
                    self._ingest(tail, start)
            self._handover = perf_counter()
            flushed = self.tracker.flush()
            stage_s[_TRACK] = (stage_s[_TRACK] or 0.0) + (
                perf_counter() - self._handover
            )
            for closed in flushed:
                self._finalize(closed)
            if self._outbox:
                self._drain_outbox()
        if self.checkpoint_path is not None:
            t0 = perf_counter()
            self.checkpoint()
            stage_s[_CHECKPOINT] = perf_counter() - t0
        self._observe_stages()
        self._emit_stats(start)
        if self.failed:
            log.error(
                "stream runtime FAILED (%s); stopped at last checkpoint",
                self._failure,
            )
            if self.resilience.fail_fast:
                raise StreamFailedError(
                    self._failure or "circuit breaker open"
                )
        return self.stats

    def _ingest(self, records: list, start: float) -> None:
        """Live-check a batch (one resolution per record) and feed it
        to the tracker, which carries each resolution to the session's
        close.

        The tracker takes the batch in slices that end at stats
        boundaries, one ``observe_batch`` call each.  Each slice's live
        alerts and closures are then replayed in record order (a
        record's alert before the sessions its arrival closed), and
        ``stream_records_total`` advances once per slice, so stats fire
        after the same records, with the same counts and tracker state,
        as with one tracker call and one increment per record.
        """
        assert self._next_stats_at is not None
        observe_batch = self.tracker.observe_batch
        t0 = perf_counter()
        live = self.detector.observe_batch(records)
        matches = [match for _, match in live]
        alerts = [
            (n, alert) for n, (alert, _) in enumerate(live)
            if alert is not None
        ]
        self._stage_s[_MATCH] = perf_counter() - t0
        track_s = 0.0
        next_alert = 0
        base = int(self._m_records.value)
        total = len(records)
        done = 0  # records of this batch fed, replayed and counted
        while done < total:
            end = min(total, max(done + 1, self._next_stats_at - base))
            t0 = perf_counter()
            closures = observe_batch(records[done:end], matches[done:end])
            track_s += perf_counter() - t0
            for i, closed in closures:
                next_alert = self._raise_alerts(alerts, next_alert, done + i)
                self._finalize(closed)
            next_alert = self._raise_alerts(alerts, next_alert, end - 1)
            self._count_records(end - done)
            done = end
            if base + end >= self._next_stats_at:
                self._next_stats_at += self.stats_every
                self._emit_stats(start)
        self._stage_s[_TRACK] = track_s

    def _raise_alerts(
        self, alerts: list[tuple[int, LiveAlert]], next_alert: int, upto: int
    ) -> int:
        """Raise ``alerts[next_alert:]`` up to batch index ``upto``;
        return the index of the first one not raised."""
        while next_alert < len(alerts) and alerts[next_alert][0] <= upto:
            self._m_live_alerts.inc()
            if self.on_alert is not None:
                self.on_alert(alerts[next_alert][1])
            next_alert += 1
        return next_alert

    def _count_records(self, count: int) -> None:
        self._m_records.inc(count)
        self._run_consumed += count

    def _finalize(self, closed: ClosedSession) -> None:
        """Detect a closed session and deliver its report, timed as the
        batch's ``finalize`` and ``sink`` stages."""
        stage_s = self._stage_s
        t0 = perf_counter()
        report = self._detect_closed(closed)
        t1 = perf_counter()
        stage_s[_FINALIZE] = (stage_s[_FINALIZE] or 0.0) + (t1 - t0)
        if report is None:
            return
        kinds = [anomaly.kind.value for anomaly in report.anomalies]
        self._count_report(closed.reason, report.anomalous, kinds)
        self._deliver(report, closed, kinds)
        stage_s[_SINK] = (stage_s[_SINK] or 0.0) + (perf_counter() - t1)

    def _detect_closed(self, closed: ClosedSession) -> SessionReport | None:
        """The closed session's report; None when the exactly-once
        ledger suppresses it or detection failed (quarantined)."""
        fid = finalization_id(closed.session)
        closed.finalization_id = fid
        if fid in self._finalized_ids or fid in self._parked_fids:
            # Replayed closure already emitted (or parked) — the
            # exactly-once ledger suppresses the duplicate.
            self._m_deduped.inc()
            return None
        try:
            return self.detector.finalize(closed)
        except Exception as exc:
            # One corrupt session must never take down the runtime:
            # dead-letter it with a reason and keep streaming.
            self._m_finalize_errors.inc()
            log.warning(
                "finalize failed for session %s: %s",
                closed.session.session_id, exc,
            )
            self.quarantine.put(
                REASON_FINALIZE,
                f"{closed.session.session_id}: {exc}",
                source="detector",
            )
            return None

    def _count_report(
        self, reason: str, anomalous: bool, kinds: Iterable[str]
    ) -> None:
        self._m_reports.inc()
        if anomalous:
            self._m_anom_sessions.inc()
        self._m_closed.labels(reason=reason).inc()
        for kind in kinds:
            self._m_session_anoms.labels(kind=kind).inc()

    def _deliver(
        self, report: SessionReport, closed: ClosedSession,
        kinds: list[str],
    ) -> None:
        ok, _ = self._attempt(
            "sink.emit", lambda: self.sink.emit(report, closed)
        )
        if ok:
            self._h_delay.observe(perf_counter() - self._handover)
            # The window between a durable sink emit and the journal
            # append of its id is exactly where a crash could
            # double-emit; the harness kills here to prove the sink's
            # own delivery log (_merge_sink_ledger) closes it.
            kill_point("finalize.emitted")
            self._remember_finalized(closed.finalization_id)
            if self._journal is not None:
                self._journal_pending.append(journal_line(
                    closed.finalization_id, closed.reason,
                    report.anomalous, kinds,
                ))
                self._journal_due = True
        else:
            # Park the report: it rides in the checkpoint and is
            # redelivered first once the sink recovers — never lost.
            self._outbox.append({
                "report": report.to_dict(),
                "reason": closed.reason,
                "finalization_id": closed.finalization_id,
            })
            if closed.finalization_id:
                self._parked_fids.add(closed.finalization_id)
            self._outbox_dirty = True
            self._g_outbox.set(len(self._outbox))

    def _drain_outbox(self) -> None:
        """Redeliver parked reports, timed as the ``sink`` stage.  They
        are not observed in ``stream_report_delay_seconds``: a report
        parked before a restart has no closing poll in this process."""
        t0 = perf_counter()
        while self._outbox and not self.failed:
            entry = self._outbox[0]
            report = SessionReport.from_dict(entry["report"])
            closed = ClosedSession(
                session=Session(session_id=report.session_id),
                reason=str(entry.get("reason", "flush")),
                finalization_id=str(entry.get("finalization_id", "")),
            )
            ok, _ = self._attempt(
                "sink.emit(outbox)",
                lambda: self.sink.emit(report, closed),
            )
            if not ok:
                break
            self._outbox.popleft()
            self._parked_fids.discard(closed.finalization_id)
            self._remember_finalized(closed.finalization_id)
            # The snapshot still holds the entry; the journal line
            # keeps resume from redelivering it.
            if self._journal is not None and closed.finalization_id:
                self._journal_pending.append(
                    journal_line(closed.finalization_id)
                )
                self._journal_due = True
        self._g_outbox.set(len(self._outbox))
        stage_s = self._stage_s
        stage_s[_SINK] = (stage_s[_SINK] or 0.0) + (perf_counter() - t0)

    def _remember_finalized(self, fid: str) -> None:
        if not fid or fid in self._finalized_ids:
            return
        self._finalized_ids.add(fid)
        self._finalized_order.append(fid)
        cap = self.resilience.finalized_cap
        while cap and len(self._finalized_order) > cap:
            old = self._finalized_order.popleft()
            self._finalized_ids.discard(old)

    def _emit_stats(self, start: float) -> None:
        self._stats_emitted_at = int(self._m_records.value)
        self._g_open.set(self.tracker.open_count)
        self._g_peak.set(self.tracker.peak_open)
        self._g_evictions.set(self.tracker.evictions)
        try:
            # Advisory gauge: a failed probe must not consume retry
            # budget or move the breaker, so it bypasses _attempt.
            self._queue_depth = self.source.backlog()
        except OSError:
            self._queue_depth = None
        self._g_queue.set(
            -1 if self._queue_depth is None else self._queue_depth
        )
        self._g_degraded.set(self._breaker.degraded_seconds())
        self._g_outbox.set(len(self._outbox))
        self._elapsed_s = max(self._clock() - start, 0.0)
        if self._elapsed_s > 0:
            # Rate over *this* run only (monotonic clock); cumulative
            # counts may include records consumed before a resume.
            self._records_per_s = self._run_consumed / self._elapsed_s
        self._g_rps.set(self._records_per_s)
        if self.stats_callback is not None:
            self.stats_callback(self.stats)
