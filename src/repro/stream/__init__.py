"""Online streaming ingestion and live anomaly detection.

The batch pipeline (:class:`repro.IntelLog`) materializes every session
before detecting; this subsystem consumes logs as an unbounded stream
with bounded memory:

* :mod:`~repro.stream.source` — ``LogSource`` protocol with a file
  follower (rotation/truncation aware) and an in-memory replay source;
* :mod:`~repro.stream.tracker` — incremental per-container session
  assembly with idle timeouts, end markers and an LRU session cap;
* :mod:`~repro.stream.detector` — per-record live alerts plus
  batch-exact session finalization;
* :mod:`~repro.stream.sink` — pluggable report delivery;
* :mod:`~repro.stream.checkpoint` — crash/restart persistence
  (versioned, checksummed, atomic with a rolling ``.bak``);
* :mod:`~repro.stream.journal` — the append-only delivery journal that
  carries the exactly-once ledger between checkpoint snapshots;
* :mod:`~repro.stream.resilience` — retry/backoff, the
  HEALTHY → DEGRADED → FAILED circuit breaker, dead-letter quarantines
  and the exactly-once finalization ledger;
* :mod:`~repro.stream.chaos` — seeded fault injectors for testing the
  above (torn writes, flaky IO, checkpoint corruption);
* :mod:`~repro.stream.runtime` — the event loop tying it together
  (surfaced on the command line as ``repro watch``).
"""

from .chaos import (
    ChaosLogWriter,
    FlakySink,
    FlakySource,
    corrupt_checkpoint,
)
from .checkpoint import (
    StreamCheckpoint,
    backup_checkpoint_path,
    default_checkpoint_path,
    tenant_checkpoint_name,
)
from .detector import LiveAlert, StreamingDetector
from .resilience import (
    DEGRADED,
    FAILED,
    HEALTHY,
    QUARANTINE_REASONS,
    CircuitBreaker,
    JsonLinesQuarantine,
    ListQuarantine,
    Quarantine,
    RetryPolicy,
    finalization_id,
)
from .runtime import RuntimeStats, StreamRuntime
from .sink import CallbackSink, JsonLinesSink, ListSink, ReportSink
from .source import (
    FileFollowSource,
    IterableSource,
    LogSource,
    yarn_session_key,
)
from .tracker import ClosedSession, SessionTracker, TrackerConfig

__all__ = [
    "CallbackSink",
    "ChaosLogWriter",
    "CircuitBreaker",
    "ClosedSession",
    "DEGRADED",
    "FAILED",
    "FileFollowSource",
    "FlakySink",
    "FlakySource",
    "HEALTHY",
    "IterableSource",
    "JsonLinesQuarantine",
    "JsonLinesSink",
    "ListQuarantine",
    "ListSink",
    "LiveAlert",
    "LogSource",
    "QUARANTINE_REASONS",
    "Quarantine",
    "ReportSink",
    "RetryPolicy",
    "RuntimeStats",
    "SessionTracker",
    "StreamCheckpoint",
    "StreamRuntime",
    "StreamingDetector",
    "TrackerConfig",
    "backup_checkpoint_path",
    "corrupt_checkpoint",
    "default_checkpoint_path",
    "finalization_id",
    "tenant_checkpoint_name",
    "yarn_session_key",
]
