"""Configuration for the IntelLog pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..detection.detector import DetectorConfig
from .errors import ConfigurationError


@dataclass(slots=True)
class ResilienceConfig:
    """Fault-tolerance knobs for the streaming runtime.

    Transient source/sink IO errors are retried with seeded-jitter
    exponential backoff (``retry_attempts`` tries per operation, delays
    growing from ``retry_base_delay`` to ``retry_max_delay``).  A
    circuit breaker counts *consecutive* failed attempts across
    operations: after ``degraded_after`` the runtime's health drops to
    DEGRADED (it keeps polling), after ``failed_after`` it goes FAILED
    and the run stops at the last checkpoint.  Any success snaps health
    back to HEALTHY.

    ``finalized_cap`` bounds the exactly-once ledger carried in the
    checkpoint (content hashes of recently finalized sessions); only
    sessions whose records could replay after a crash need to be in it,
    so a few thousand entries cover any realistic replay window.
    """

    retry_attempts: int = 4
    retry_base_delay: float = 0.05
    retry_max_delay: float = 2.0
    #: Jitter fraction applied to each delay (+/-), from a seeded rng.
    retry_jitter: float = 0.25
    retry_seed: int = 20190622
    degraded_after: int = 1
    failed_after: int = 12
    finalized_cap: int = 4096
    #: Raise StreamFailedError instead of returning failed stats.
    fail_fast: bool = False

    def validate(self) -> None:
        if self.retry_attempts < 1:
            raise ConfigurationError(
                f"retry_attempts must be >= 1, got {self.retry_attempts}"
            )
        if self.retry_base_delay < 0 or self.retry_max_delay < 0:
            raise ConfigurationError("retry delays must be >= 0")
        if not (0.0 <= self.retry_jitter < 1.0):
            raise ConfigurationError(
                f"retry_jitter must be in [0, 1), got {self.retry_jitter}"
            )
        if self.degraded_after < 1 or self.failed_after < 1:
            raise ConfigurationError(
                "degraded_after and failed_after must be >= 1"
            )
        if self.failed_after < self.degraded_after:
            raise ConfigurationError(
                "failed_after must be >= degraded_after"
            )
        if self.finalized_cap < 0:
            raise ConfigurationError(
                f"finalized_cap must be >= 0, got {self.finalized_cap}"
            )


@dataclass(slots=True)
class DurabilityConfig:
    """Crash-durability knobs for the storage paths.

    Every durable write in the registry/checkpoint layer is already
    *atomic* (temp sibling + ``os.replace``), which protects readers
    from torn files regardless of these flags.  What the flags add is
    ``fsync`` — the guarantee that acknowledged data survives power
    loss, at a per-write syscall cost.  The default is everything off:
    tests and single-box runs care about process crashes (which rename
    alone survives), while a production fleet turns on
    :meth:`durable` and pays the sync on the paths that matter —
    registry artifacts and the version index (model bytes are
    irreplaceable) and, optionally, streaming checkpoints (losing one
    only costs a bounded replay, so it is a separate knob).
    """

    #: fsync registry artifacts (model bytes) before acknowledging.
    fsync_artifacts: bool = False
    #: fsync the version index and publish/swap intent journals.
    fsync_index: bool = False
    #: fsync streaming checkpoints on every save.
    fsync_checkpoints: bool = False

    @classmethod
    def durable(cls) -> "DurabilityConfig":
        """Everything synced — the production profile."""
        return cls(
            fsync_artifacts=True,
            fsync_index=True,
            fsync_checkpoints=True,
        )


@dataclass(slots=True)
class SupervisorConfig:
    """Per-tenant restart policy for the serving fleet.

    A tenant whose pump raises (or whose circuit breaker opens) is not
    parked forever: the supervisor schedules a restart after an
    exponential-backoff delay (``backoff_base`` doubling up to
    ``backoff_max``, with seeded ``±backoff_jitter`` so a mass failure
    does not restart the whole fleet in lockstep).  Restarts are
    budgeted: more than ``restart_budget`` restarts within a rolling
    ``restart_window`` seconds escalates the tenant to a permanent
    ``quarantined`` state that keeps the reason and traceback visible
    on ``/tenants`` until an operator intervenes (detach/re-attach, or
    a changed tenants-file entry).  ``restart_budget=0`` disables
    restarts entirely — the first failure quarantines.
    """

    backoff_base: float = 0.5
    backoff_max: float = 30.0
    backoff_jitter: float = 0.25
    backoff_seed: int = 20190622
    #: Max restarts inside the rolling window before quarantine.
    restart_budget: int = 5
    #: Rolling window (seconds) the budget applies to.
    restart_window: float = 300.0
    #: Restart-history entries retained per tenant (for /tenants).
    history_cap: int = 20

    def validate(self) -> None:
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ConfigurationError("backoff delays must be >= 0")
        if self.backoff_max < self.backoff_base:
            raise ConfigurationError(
                "backoff_max must be >= backoff_base"
            )
        if not (0.0 <= self.backoff_jitter < 1.0):
            raise ConfigurationError(
                f"backoff_jitter must be in [0, 1), got "
                f"{self.backoff_jitter}"
            )
        if self.restart_budget < 0:
            raise ConfigurationError(
                f"restart_budget must be >= 0, got {self.restart_budget}"
            )
        if self.restart_window <= 0:
            raise ConfigurationError(
                f"restart_window must be > 0, got {self.restart_window}"
            )
        if self.history_cap < 1:
            raise ConfigurationError(
                f"history_cap must be >= 1, got {self.history_cap}"
            )


@dataclass(slots=True)
class ServeConfig:
    """Tunables for the multi-tenant serving layer (:mod:`repro.serve`).

    ``quantum`` bounds how many records one tenant may consume per
    scheduling turn, so a chatty tenant cannot monopolize a worker.
    ``queue_capacity`` bounds each tenant's ingest queue; overflow sheds
    the *oldest* queued records (surfaced as a per-tenant counter)
    rather than blocking the poller.  ``global_session_budget`` caps
    open sessions summed over all tenants — the fleet scheduler evicts
    LRU sessions from the largest tenants first until back under it.
    The scheduler pumps every tenant on one thread, in tenant-id order.
    ``poll_interval`` is the longest idle wait: after an empty sweep the
    scheduler sweeps again as soon as a tenant's source reports a
    backlog, and only sources that cannot tell (plus tenants-file
    reloads and supervised restarts) wait the whole interval.
    """

    #: Max records one tenant consumes per scheduling quantum.
    quantum: int = 512
    #: Records pulled from a tenant's underlying source per refill.
    ingest_batch: int = 1024
    #: Per-tenant bounded ingest queue (shed-oldest above this).
    queue_capacity: int = 8192
    #: Cap on open sessions summed across every tenant.
    global_session_budget: int = 100_000
    #: Pre-deserialized model artifacts kept warm for cold-start reuse.
    warm_capacity: int = 4
    #: Longest idle wait between scheduling sweeps (seconds).
    poll_interval: float = 0.2
    #: Seconds between tenants-file freshness checks (hot-reload).
    reload_every: float = 2.0

    def validate(self) -> None:
        if self.quantum < 1:
            raise ConfigurationError(
                f"quantum must be >= 1, got {self.quantum}"
            )
        if self.ingest_batch < 1:
            raise ConfigurationError(
                f"ingest_batch must be >= 1, got {self.ingest_batch}"
            )
        if self.queue_capacity < 1:
            raise ConfigurationError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}"
            )
        if self.global_session_budget < 1:
            raise ConfigurationError(
                "global_session_budget must be >= 1, got "
                f"{self.global_session_budget}"
            )
        if self.warm_capacity < 0:
            raise ConfigurationError(
                f"warm_capacity must be >= 0, got {self.warm_capacity}"
            )
        if self.poll_interval < 0 or self.reload_every < 0:
            raise ConfigurationError(
                "poll_interval and reload_every must be >= 0"
            )


@dataclass(slots=True)
class IntelLogConfig:
    """End-to-end configuration.

    ``spell_tau`` is the Spell matching threshold ``t`` (paper §5 sets it to
    1.7 empirically).  ``formatter`` names the log formatter used for raw
    line input ("hadoop", "spark", "tez", "generic", ...).

    ``validate_model`` runs the static artifact checks
    (:func:`repro.analysis.validate_graph`) on every freshly trained
    HW-graph; findings are raised as :class:`ModelValidationWarning`
    warnings, or as :class:`repro.core.errors.ModelValidationError` when
    ``strict_validation`` is set.
    """

    spell_tau: float = 1.7
    formatter: str = "generic"
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    validate_model: bool = True
    strict_validation: bool = False
    #: Streaming-runtime fault tolerance (``repro.stream``).
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)

    def validate(self) -> None:
        if self.spell_tau <= 1.0:
            raise ConfigurationError(
                f"spell_tau must be > 1, got {self.spell_tau}"
            )
        self.resilience.validate()
