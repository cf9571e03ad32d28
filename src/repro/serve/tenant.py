"""Per-tenant state: spec, bounded ingest queue, and the tenant handle.

A *tenant* is one log stream detected against one leased model version.
:class:`Tenant` owns everything the single-stream runtime owned —
:class:`~repro.stream.SessionTracker`, streaming detector, breaker,
quarantine, outbox, checkpoint — by simply *embedding* a
:class:`~repro.stream.StreamRuntime` per tenant; what the service layer
adds on top is

* a :class:`BoundedQueueSource` between the tenant's real source and
  its runtime, so a slow tenant sheds its *oldest* queued records
  (counted, surfaced in ``/tenants``) instead of growing without bound
  or stalling the poller;
* a tenant-namespaced checkpoint file
  (:func:`~repro.stream.checkpoint.default_checkpoint_path` with the
  tenant id), so tenants sharing one model artifact never clobber each
  other's state;
* a private :class:`~repro.obs.MetricsRegistry` per tenant, keeping the
  runtime's metric semantics identical to a standalone ``repro watch``
  (the fleet view re-labels per-tenant gauges separately);
* a ``pending lease`` slot for atomic model swaps: the control plane
  parks the new lease, and the scheduler applies it *between* quanta —
  every session is finalized wholly under one model version.

Every tenant is pumped by the service's one sweep thread, so tenant
internals need no locking of their own; the single ``_lock`` here
guards only the fields the control-plane thread touches concurrently
with the pump (pending lease, failure note).
"""

from __future__ import annotations

import logging
import threading
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any

import json

from ..core.fsio import REAL_FS, FileSystem
from ..core.killpoints import kill_point
from ..obs import MetricsRegistry
from ..stream.checkpoint import default_checkpoint_path
from ..stream.detector import StreamingDetector
from ..stream.runtime import StreamRuntime
from ..stream.sink import ReportSink
from ..stream.source import LogSource
from ..stream.tracker import (
    SessionTracker,
    TrackerConfig,
    _record_from_dict,
    _record_to_dict,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.config import DurabilityConfig, ResilienceConfig
    from .registry import LeasedModel

__all__ = ["BoundedQueueSource", "Tenant", "TenantSpec"]

log = logging.getLogger(__name__)


@dataclass(slots=True)
class TenantSpec:
    """Declarative description of one tenant (one tenants-file entry)."""

    tenant_id: str
    #: Model reference: registry name, optionally pinned ``name@version``.
    model: str
    version: int | None = None
    #: Log file to follow (optional: tests attach sources directly).
    log_path: str | None = None
    formatter: str = "generic"
    #: Reports file (JSON lines); None keeps reports in memory.
    reports_path: str | None = None
    #: Tracker tunables (None = stream defaults).
    idle_timeout: float | None = None
    max_open_sessions: int | None = None

    def tracker_config(self) -> TrackerConfig:
        config = TrackerConfig()
        if self.idle_timeout is not None:
            config.idle_timeout = self.idle_timeout
        if self.max_open_sessions is not None:
            config.max_open_sessions = self.max_open_sessions
        return config

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "TenantSpec":
        tenant_id = str(data.get("id", "") or data.get("tenant_id", ""))
        if not tenant_id:
            raise ValueError("tenant entry missing 'id'")
        model = str(data.get("model", ""))
        if not model:
            raise ValueError(f"tenant {tenant_id!r} missing 'model'")
        version: int | None = None
        if "@" in model:
            model, _, tail = model.partition("@")
            version = int(tail)
        if data.get("version") is not None:
            version = int(data["version"])
        spec = cls(
            tenant_id=tenant_id,
            model=model,
            version=version,
            log_path=(
                str(data["log"]) if data.get("log") is not None else None
            ),
            formatter=str(data.get("formatter", "generic")),
            reports_path=(
                str(data["reports"])
                if data.get("reports") is not None else None
            ),
        )
        if data.get("idle_timeout") is not None:
            spec.idle_timeout = float(data["idle_timeout"])
        if data.get("max_open_sessions") is not None:
            spec.max_open_sessions = int(data["max_open_sessions"])
        return spec


class BoundedQueueSource:
    """Backpressure adapter between a tenant's source and its runtime.

    ``poll`` refills from the inner source in large gulps
    (``ingest_batch``) and hands out at most the asked-for records from
    a bounded deque.  When the deque would exceed ``capacity`` the
    *oldest* queued records are shed (newest data wins — stale records
    would close sessions late anyway) and counted in :attr:`shed`.

    The queue participates in checkpoints: ``position()`` embeds the
    inner source's position plus every queued-but-unprocessed record,
    so a restart neither drops nor re-reads them.  Inner-source
    ``OSError``s propagate to the runtime's retry/breaker machinery
    untouched.  Only the service's sweep thread touches it, so no
    locking here.
    """

    def __init__(
        self,
        inner: LogSource,
        capacity: int = 8192,
        ingest_batch: int = 1024,
    ) -> None:
        self.inner = inner
        self.capacity = max(1, capacity)
        self.ingest_batch = max(1, ingest_batch)
        self._queue: deque = deque()
        self.shed = 0

    def _refill(self) -> None:
        if len(self._queue) >= self.capacity:
            return
        batch = self.inner.poll(self.ingest_batch)
        if batch:
            self._queue.extend(batch)
        while len(self._queue) > self.capacity:
            self._queue.popleft()
            self.shed += 1

    def poll(self, max_records: int) -> list:
        self._refill()
        out = []
        while self._queue and len(out) < max_records:
            out.append(self._queue.popleft())
        return out

    def flush_pending(self) -> list:
        flush = getattr(self.inner, "flush_pending", None)
        if flush is None:
            return []
        batch = flush()
        if batch:
            self._queue.extend(batch)
            out = []
            while self._queue:
                out.append(self._queue.popleft())
            return out
        return []

    def finalize(self) -> list:
        out = list(self._queue)
        self._queue.clear()
        finalize = getattr(self.inner, "finalize", None)
        if finalize is not None:
            out.extend(finalize())
        return out

    def exhausted(self) -> bool:
        return not self._queue and self.inner.exhausted()

    def backlog(self) -> int | None:
        inner = self.inner.backlog()
        if inner is None:
            return len(self._queue) or None
        return inner + len(self._queue)

    def position(self) -> dict[str, Any]:
        return {
            "kind": "bounded_queue",
            "inner": self.inner.position(),
            "queued": [_record_to_dict(r) for r in self._queue],
            "shed": self.shed,
        }

    def seek(self, position: dict[str, Any]) -> None:
        if position.get("kind") != "bounded_queue":
            # Pre-serve checkpoint (plain inner position): delegate.
            self.inner.seek(position)
            self._queue.clear()
            return
        self.inner.seek(dict(position.get("inner", {})))
        self._queue = deque(
            _record_from_dict(r) for r in position.get("queued", ())
        )
        self.shed = int(position.get("shed", 0))

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    def __getattr__(self, name: str):
        # Pass through informational attributes (quarantine, rotations,
        # truncations, io_errors, ...) so RuntimeStats sees the real
        # source's counters.
        return getattr(self.inner, name)


@dataclass(slots=True)
class _Shared:
    """Fields touched by both the pump and the control plane."""

    pending_lease: "LeasedModel | None" = None
    detached: bool = False
    failure: str | None = None
    #: Traceback tail of the failure (why, not just what).
    failure_trace: str | None = None
    #: Permanent parking reason once the restart budget is exhausted.
    quarantined: str | None = None
    quarantine_trace: str | None = None


class Tenant:
    """One attached tenant: leased model + embedded stream runtime."""

    def __init__(
        self,
        spec: TenantSpec,
        lease: "LeasedModel",
        source: LogSource,
        sink: ReportSink,
        checkpoint_dir: str | Path | None = None,
        queue_capacity: int = 8192,
        ingest_batch: int = 1024,
        resilience: "ResilienceConfig | None" = None,
        durability: "DurabilityConfig | None" = None,
        fs: FileSystem | None = None,
    ) -> None:
        self.spec = spec
        self.tenant_id = spec.tenant_id
        self.lease = lease
        self.queue = BoundedQueueSource(
            source, capacity=queue_capacity, ingest_batch=ingest_batch
        )
        self.registry = MetricsRegistry()
        checkpoint_path = None
        if checkpoint_dir is not None:
            checkpoint_dir = Path(checkpoint_dir)
            checkpoint_dir.mkdir(parents=True, exist_ok=True)
            checkpoint_path = default_checkpoint_path(
                checkpoint_dir / "model.json", spec.tenant_id
            )
        # Kept for supervisor restarts (rebuild from checkpoint) and
        # the journaled swap path.
        self._sink = sink
        self._checkpoint_path = checkpoint_path
        self._resilience = resilience
        self._durability = durability
        self._fs = fs or REAL_FS
        self.runtime = self._build_runtime()
        self._lock = threading.Lock()
        self._shared = _Shared()
        #: Model swaps applied (pump-side only).
        self.swaps = 0
        #: Supervisor restarts applied to this tenant handle.
        self.restarts = 0

    def _build_runtime(self) -> StreamRuntime:
        """A fresh runtime over the current lease, queue and sink.

        When a checkpoint path is set the constructor auto-resumes:
        source position (including queued-but-unprocessed records),
        tracker state, cumulative counters, the exactly-once ledger and
        the outbox all come back — which is exactly what a supervisor
        restart needs.
        """
        return StreamRuntime(
            self.lease.detector_view(),
            source=self.queue,
            sink=self._sink,
            tracker=SessionTracker(self.spec.tracker_config()),
            checkpoint_path=self._checkpoint_path,
            registry=self.registry,
            resilience=self._resilience,
            durability=self._durability,
            fs=self._fs,
        )

    # -- control plane (any thread) ---------------------------------------

    def request_swap(self, lease: "LeasedModel") -> None:
        """Park a new lease; the pump applies it between quanta."""
        with self._lock:
            previous, self._shared.pending_lease = (
                self._shared.pending_lease, lease
            )
        if previous is not None:
            # Two swaps raced before a quantum ran; only the newest
            # target matters, drop the superseded lease.
            previous.release()

    def request_detach(self) -> None:
        with self._lock:
            self._shared.detached = True

    @property
    def detach_requested(self) -> bool:
        with self._lock:
            return self._shared.detached

    @property
    def swap_pending(self) -> bool:
        """True while a requested swap is parked but not yet applied."""
        with self._lock:
            return self._shared.pending_lease is not None

    @property
    def failure(self) -> str | None:
        with self._lock:
            return self._shared.failure

    @property
    def failure_trace(self) -> str | None:
        with self._lock:
            return self._shared.failure_trace

    @property
    def quarantined(self) -> str | None:
        with self._lock:
            return self._shared.quarantined

    @property
    def quarantine_trace(self) -> str | None:
        with self._lock:
            return self._shared.quarantine_trace

    def mark_failed(self, why: str, trace: str | None = None) -> None:
        with self._lock:
            self._shared.failure = why
            self._shared.failure_trace = trace

    def mark_quarantined(
        self, reason: str, trace: str | None = None
    ) -> None:
        """Permanent parking: restart budget exhausted (or policy says
        never restart).  Cleared only by detach or a changed spec."""
        with self._lock:
            self._shared.quarantined = reason
            self._shared.quarantine_trace = trace

    # -- supervisor side (sweep loop, between pump barriers) ---------------

    def restart(self) -> None:
        """Bring a failed tenant back: clear the failure note and give
        it a healthy runtime.

        Tenants with a durable checkpoint on disk get a full rebuild —
        the fresh runtime resumes from it (plus the sink's own delivery
        log), exactly like a process crash-restart: records since the
        checkpoint replay and reports dedupe through the exactly-once
        ledger.  The possibly-poisoned in-memory state of the dead
        runtime is deliberately *not* checkpointed first — the failure
        may have left it mid-record.  Tenants with no checkpoint yet
        keep their in-memory runtime (a rebuild would lose every open
        session) and only have their breaker/health reset.
        """
        with self._lock:
            self._shared.failure = None
            self._shared.failure_trace = None
        ckpt = self._checkpoint_path
        has_durable = ckpt is not None and (
            ckpt.exists()
            or ckpt.with_name(ckpt.name + ".bak").exists()
        )
        if has_durable:
            self.runtime = self._build_runtime()
        else:
            self.runtime.reset_health()
        self.restarts += 1

    # -- pump side (the sweep thread) --------------------------------------

    def _swap_intent_path(self) -> Path | None:
        if self._checkpoint_path is None:
            return None
        name = self._checkpoint_path.name
        if name.endswith(".stream-ckpt.json"):
            name = name[: -len(".stream-ckpt.json")]
        return self._checkpoint_path.with_name(
            name + ".swap-intent.json"
        )

    def apply_pending_swap(self) -> bool:
        """Install a parked lease, if any.  Runs between quanta only.

        The runtime's source position and tracker state are untouched —
        no record is lost — and the detector is replaced wholesale, so
        every report is finalized entirely under one model version.

        For checkpointed tenants the swap is journaled: a *swap intent*
        is written first, the checkpoint is rewritten under the new
        model once the lease is installed, and the intent is cleared
        last.  A crash anywhere in between is recoverable — a restarted
        tenant leases whatever its spec (the control plane) says, the
        checkpoint carries the stream state forward, and a leftover
        intent only tells fsck that a swap was in flight and may need
        re-issuing (recovery never replays one on its own).
        """
        with self._lock:
            lease, self._shared.pending_lease = (
                self._shared.pending_lease, None
            )
        if lease is None:
            return False
        old = self.lease
        intent = self._swap_intent_path()
        if intent is not None:
            try:
                self._fs.write_text(intent, json.dumps({
                    "op": "swap",
                    "tenant": self.tenant_id,
                    "from": old.ref,
                    "to": lease.ref,
                    "to_digest": lease.digest,
                }, sort_keys=True))
                durability = self._durability
                if durability is not None and durability.fsync_index:
                    self._fs.fsync_file(intent)
            except OSError as exc:
                # Journal is advisory; a full disk must not veto the
                # swap (the checkpoint still records the outcome).
                log.warning(
                    "tenant %s: swap intent not journaled: %s",
                    self.tenant_id, exc,
                )
                intent = None
            kill_point("swap.intent")
        detector = lease.detector_view()
        detector.instrument(self.registry)
        self.runtime.detector = StreamingDetector(detector)
        self.runtime.tracker.forget_matches()
        self.lease = lease
        self.swaps += 1
        old.release()
        if self._checkpoint_path is not None:
            # Make the swap durable: the checkpoint written under the
            # new model is the commit point a restart observes.
            self.runtime.checkpoint()
            kill_point("swap.applied")
        if intent is not None:
            try:
                self._fs.remove(intent)
            except OSError as exc:  # pragma: no cover - disk flaking
                log.warning(
                    "tenant %s: swap intent not cleared (%s); fsck will",
                    self.tenant_id, exc,
                )
        log.info(
            "tenant %s swapped %s -> %s",
            self.tenant_id, old.ref, lease.ref,
        )
        return True

    def pump(self, quantum: int) -> int:
        """One scheduling turn: apply swaps, then one runtime step."""
        self.apply_pending_swap()
        return self.runtime.step(max_records=quantum)

    def finish(self) -> None:
        """Flush everything (detach / drain epilogue)."""
        self.apply_pending_swap()
        self.runtime.finish()

    def close(self) -> None:
        self.lease.release()
        with self._lock:
            pending, self._shared.pending_lease = (
                self._shared.pending_lease, None
            )
        if pending is not None:
            pending.release()

    # -- introspection -----------------------------------------------------

    @property
    def open_sessions(self) -> int:
        return self.runtime.tracker.open_count

    def _match_paths(self) -> dict[str, int]:
        """Per-tenant ``spell_index_hits_total`` by path (exact/lcs/miss).

        Reads this tenant's private registry, so the counts describe
        exactly this stream's traffic: a tenant whose ``lcs`` or
        ``miss`` share grows is drifting away from its leased model.
        """
        metric = self.registry.get("spell_index_hits_total")
        if metric is None:
            return {}
        return {
            labels["path"]: int(value)
            for labels, value in metric.samples()
            if "path" in labels
        }

    def status(self) -> dict[str, Any]:
        stats = self.runtime.stats
        return {
            "tenant": self.tenant_id,
            "model": self.lease.ref,
            "digest": self.lease.digest,
            "health": (
                "quarantined" if self.quarantined is not None
                else stats.health
            ),
            "failure": self.quarantined
            or self.failure
            or stats.failure,
            "failure_trace": self.quarantine_trace
            or self.failure_trace,
            "restarts": self.restarts,
            "deferred_checkpoints": stats.deferred_checkpoints,
            "records": stats.records,
            "reports": stats.reports,
            "anomalous_sessions": stats.anomalous_sessions,
            "open_sessions": stats.open_sessions,
            "evictions": stats.evictions,
            "queue_depth": self.queue.queue_depth,
            "shed_records": self.queue.shed,
            "swaps": self.swaps,
            "undelivered_reports": stats.undelivered_reports,
            "match_paths": self._match_paths(),
        }
