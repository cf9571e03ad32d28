"""The sharded training pipeline with deterministic merge.

:func:`train_parallel` is the trainer behind
:meth:`repro.core.IntelLog.train`.  It learns the Spell table, Intel
Keys, HW-graph and detector of Figure 2 while running the per-record
work in a process pool, and the model it builds is byte-identical for
every worker count and every batch layout:

* **Batching** — per-session shards (the merge granularity) are grouped
  into size-targeted *shard batches* (the distribution granularity,
  :func:`~repro.parallel.shard.make_batches`); the batch partition is a
  pure function of the corpus, never of the worker count or the host.
* **Phase 1** — every batch is masked into per-shard distinct-form
  tables in a worker (:func:`~repro.parallel.worker.parse_batch`).
* **Merge** — the parent replays distinct forms in first-global-
  occurrence order to recover the exact key table and per-record
  assignment of one streaming Spell pass over the corpus
  (:func:`~repro.parallel.merge.merge_shards` — batching never reaches
  it: results are flattened back to per-shard parses in corpus order
  first), then extracts the canonical Intel Keys and builds the entity
  grouping.
* **Phase 2** — every batch rebuilds its Intel Messages and computes
  per-session HW-graph statistics in a worker
  (:func:`~repro.parallel.worker.compute_batch_stats`).
* **Apply** — the parent folds the statistics in corpus order (never
  completion order) through
  :meth:`~repro.graph.hwgraph.HWGraphBuilder.apply_session_stats`, then
  finalises the hierarchy.

One :class:`ProcessPoolExecutor` serves both phases: it is created once
with an initializer that pre-warms the per-process extraction cache
(:func:`~repro.parallel.worker.init_worker`), ``max_workers`` is clamped
to the number of batches (no idle processes), and batches are submitted
individually — the batch *is* the chunk, so no per-tiny-task round trips
remain for a chunksize to amortize.  Payload bytes shipped each way are
measured per batch and land in the :class:`ParallelReport`.

``workers=1`` (the default) or a single batch runs both phases inline
through the very same code path, with no subprocesses.
"""

from __future__ import annotations

import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Sequence, TypeVar

from ..detection.detector import AnomalyDetector
from ..extraction.intelkey import IntelKey
from ..graph.hwgraph import GroupSessionStats, HWGraphBuilder, SessionStats
from ..obs import MetricsRegistry, Tracer
from ..parsing.records import Session
from .cache import process_cache
from .merge import MergeError, MergeResult, merge_shards
from .shard import (
    Shard,
    ShardBatch,
    corpus_manifest,
    derive_batch_target,
    make_batches,
    make_shards,
)
from .worker import (
    BatchParse,
    BatchParseTask,
    BatchStats,
    BatchStatsTask,
    ParallelWorkerError,
    ParseSlice,
    ShardParse,
    ShardStats,
    StatsSlice,
    init_worker,
    compute_batch_stats,
    parse_batch,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.intellog import IntelLog, TrainingSummary

_T = TypeVar("_T")
_R = TypeVar("_R")


def lpt_makespan(durations: Sequence[float], bins: int) -> float:
    """Makespan of the longest-processing-time-first schedule.

    Models the critical path of running ``durations`` on ``bins`` equally
    fast workers — the standard greedy bound used to report achievable
    parallel speedup independently of how many cores the benchmark host
    actually has.
    """
    if bins < 1:
        raise ValueError("bins must be >= 1")
    if not durations:
        return 0.0
    loads = [0.0] * min(bins, len(durations))
    for duration in sorted(durations, reverse=True):
        slot = loads.index(min(loads))
        loads[slot] += duration
    return max(loads)


@dataclass(slots=True)
class ParallelReport:
    """Timings and accounting of one :func:`train_parallel` run."""

    workers: int
    shards: int
    records: int
    distinct_forms: int
    log_keys: int
    #: Hash over the ordered shard hashes: identifies the corpus
    #: (independent of the batch layout).
    manifest: str
    #: Worker processes actually used (``workers`` clamped to batches).
    pool_workers: int = 1
    #: Number of shard batches (the units submitted to workers).
    batches: int = 0
    #: Records-per-batch target the partition was cut with.
    batch_target_records: int = 0
    #: Wall-clock seconds per stage (parent's perspective).
    parse_wall: float = 0.0
    merge_wall: float = 0.0
    extract_wall: float = 0.0
    stats_wall: float = 0.0
    apply_wall: float = 0.0
    total_wall: float = 0.0
    #: CPU seconds each shard spent in phase 1 / phase 2 (corpus order).
    parse_shard_seconds: list[float] = field(default_factory=list)
    stats_shard_seconds: list[float] = field(default_factory=list)
    #: CPU seconds each *batch* spent per phase (corpus order) — the
    #: schedulable units the modeled speedup is computed from.
    parse_batch_seconds: list[float] = field(default_factory=list)
    stats_batch_seconds: list[float] = field(default_factory=list)
    #: Pickled bytes shipped per batch, parent -> worker (empty when the
    #: run was inline: nothing crossed a process boundary).
    parse_payload_bytes: list[int] = field(default_factory=list)
    stats_payload_bytes: list[int] = field(default_factory=list)
    #: Pickled bytes returned per batch, worker -> parent.
    parse_result_bytes: list[int] = field(default_factory=list)
    stats_result_bytes: list[int] = field(default_factory=list)
    #: Extraction memo traffic: parent canonical pass + all worker tasks.
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def serial_overhead(self) -> float:
        """Parent-side work that cannot be parallelised (critical path)."""
        return self.merge_wall + self.extract_wall + self.apply_wall

    @property
    def cache_lookups(self) -> int:
        """Total extraction-memo lookups (hits + misses).

        For a fixed corpus this is invariant across worker counts: the
        canonical pass looks up every log key once and every batch task
        looks up its batch key table once, and both the key table and
        the batch partition are pure functions of the corpus.
        """
        return self.cache_hits + self.cache_misses

    @property
    def payload_bytes_total(self) -> int:
        """Bytes on the wire, both phases, both directions."""
        return (
            sum(self.parse_payload_bytes)
            + sum(self.stats_payload_bytes)
            + sum(self.parse_result_bytes)
            + sum(self.stats_result_bytes)
        )

    def modeled_wall(self, workers: int) -> float:
        """Critical-path wall time on an ideal ``workers``-core host.

        LPT-schedules the measured per-batch CPU seconds onto
        ``workers`` bins and adds the parent's serial stages.
        ``modeled_wall(1) / modeled_wall(n)`` is the speedup the
        pipeline structure supports, reported alongside the measured
        wall speedup (which saturates at the benchmark host's physical
        core count).
        """
        return (
            self.serial_overhead
            + lpt_makespan(self.parse_batch_seconds, workers)
            + lpt_makespan(self.stats_batch_seconds, workers)
        )

    def modeled_speedup(self, workers: int) -> float:
        base = self.modeled_wall(1)
        top = self.modeled_wall(workers)
        return base / top if top > 0 else 1.0

    def to_dict(self) -> dict:
        """Full artifact form: every field needed to recompute the
        modeled speedup (and the payload accounting) offline."""
        return {
            "workers": self.workers,
            "pool_workers": self.pool_workers,
            "shards": self.shards,
            "batches": self.batches,
            "batch_target_records": self.batch_target_records,
            "records": self.records,
            "distinct_forms": self.distinct_forms,
            "log_keys": self.log_keys,
            "manifest": self.manifest,
            "parse_wall": self.parse_wall,
            "merge_wall": self.merge_wall,
            "extract_wall": self.extract_wall,
            "stats_wall": self.stats_wall,
            "apply_wall": self.apply_wall,
            "total_wall": self.total_wall,
            "serial_overhead": self.serial_overhead,
            "parse_shard_seconds": list(self.parse_shard_seconds),
            "stats_shard_seconds": list(self.stats_shard_seconds),
            "parse_batch_seconds": list(self.parse_batch_seconds),
            "stats_batch_seconds": list(self.stats_batch_seconds),
            "parse_payload_bytes": list(self.parse_payload_bytes),
            "stats_payload_bytes": list(self.stats_payload_bytes),
            "parse_result_bytes": list(self.parse_result_bytes),
            "stats_result_bytes": list(self.stats_result_bytes),
            "payload_bytes_total": self.payload_bytes_total,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_lookups": self.cache_lookups,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ParallelReport":
        """Rebuild a report from :meth:`to_dict` output (derived fields
        — ``serial_overhead``, totals — are recomputed, not trusted)."""
        return cls(
            workers=int(data["workers"]),
            shards=int(data["shards"]),
            records=int(data["records"]),
            distinct_forms=int(data["distinct_forms"]),
            log_keys=int(data["log_keys"]),
            manifest=str(data["manifest"]),
            pool_workers=int(data.get("pool_workers", 1)),
            batches=int(data.get("batches", 0)),
            batch_target_records=int(data.get("batch_target_records", 0)),
            parse_wall=float(data["parse_wall"]),
            merge_wall=float(data["merge_wall"]),
            extract_wall=float(data["extract_wall"]),
            stats_wall=float(data["stats_wall"]),
            apply_wall=float(data["apply_wall"]),
            total_wall=float(data["total_wall"]),
            parse_shard_seconds=[
                float(x) for x in data.get("parse_shard_seconds", ())
            ],
            stats_shard_seconds=[
                float(x) for x in data.get("stats_shard_seconds", ())
            ],
            parse_batch_seconds=[
                float(x) for x in data.get("parse_batch_seconds", ())
            ],
            stats_batch_seconds=[
                float(x) for x in data.get("stats_batch_seconds", ())
            ],
            parse_payload_bytes=[
                int(x) for x in data.get("parse_payload_bytes", ())
            ],
            stats_payload_bytes=[
                int(x) for x in data.get("stats_payload_bytes", ())
            ],
            parse_result_bytes=[
                int(x) for x in data.get("parse_result_bytes", ())
            ],
            stats_result_bytes=[
                int(x) for x in data.get("stats_result_bytes", ())
            ],
            cache_hits=int(data["cache_hits"]),
            cache_misses=int(data["cache_misses"]),
        )


def _payload_size(obj) -> int:
    try:
        return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:
        # An unpicklable task fails the same way inside the executor;
        # let the future surface it as a ParallelWorkerError with the
        # batch index attached instead of dying in the measurement.
        return 0


def _run_tasks(
    executor: ProcessPoolExecutor | None,
    fn: Callable[[_T], _R],
    tasks: Sequence[_T],
    *,
    phase: str,
    sent_bytes: list[int] | None = None,
    recv_bytes: list[int] | None = None,
) -> list[_R]:
    """Run batch tasks inline (no executor) or via per-batch submission.

    Results come back in *submission* order regardless of worker
    completion order; the merge layer re-verifies the pairing by content
    hash anyway, so completion order can never leak into the model.

    Any task failure — in the worker, or while pickling the task on the
    way out — is wrapped in :class:`ParallelWorkerError` carrying the
    phase and batch index, and every still-pending future is cancelled
    first: a phase-1 crash must not sit behind a full queue of doomed
    phase-1 tasks before surfacing.

    With an executor, ``sent_bytes``/``recv_bytes`` collect the pickled
    payload size per batch in each direction (left untouched inline:
    nothing crosses a process boundary).
    """
    if executor is None:
        results: list[_R] = []
        for task in tasks:
            try:
                results.append(fn(task))
            except Exception as exc:
                raise ParallelWorkerError(
                    phase, task.index, repr(exc)
                ) from exc
        return results

    futures = [executor.submit(fn, task) for task in tasks]
    if sent_bytes is not None:
        sent_bytes.extend(_payload_size(task) for task in tasks)
    results = []
    for task, future in zip(tasks, futures):
        try:
            result = future.result()
        except Exception as exc:
            for pending in futures:
                pending.cancel()
            raise ParallelWorkerError(
                phase, task.index, repr(exc)
            ) from exc
        if recv_bytes is not None:
            recv_bytes.append(_payload_size(result))
        results.append(result)
    return results


def _parse_tasks(batches: Sequence[ShardBatch]) -> list[BatchParseTask]:
    return [
        BatchParseTask(
            index=batch.index,
            batch_hash=batch.batch_hash,
            slices=[
                ParseSlice(
                    index=shard.index,
                    content_hash=shard.content_hash,
                    messages=tuple(
                        record.message for record in shard.session.records
                    ),
                )
                for shard in batch.shards
            ],
        )
        for batch in batches
    ]


def _flatten_batches(
    batches: Sequence[ShardBatch],
    results: Sequence[BatchParse] | Sequence[BatchStats],
    phase: str,
) -> list:
    """Verify batch echoes and flatten to per-shard results, corpus order."""
    by_index = {result.index: result for result in results}
    if len(by_index) != len(results):
        raise MergeError(f"duplicate batch indices in {phase} results")
    flat: list = []
    for batch in batches:
        result = by_index.get(batch.index)
        if result is None:
            raise MergeError(
                f"missing {phase} result for batch {batch.index}"
            )
        if result.batch_hash != batch.batch_hash:
            raise MergeError(
                f"batch {batch.index} {phase} hash mismatch: "
                f"submitted {batch.batch_hash[:12]}, "
                f"result {result.batch_hash[:12]}"
            )
        flat.extend(
            result.parses if isinstance(result, BatchParse)
            else result.stats
        )
    return flat


def train_parallel(
    intellog: "IntelLog",
    sessions: Iterable[Session],
    *,
    workers: int = 1,
    registry: MetricsRegistry | None = None,
) -> "TrainingSummary":
    """Train ``intellog`` on ``sessions`` using up to ``workers`` processes.

    Builds a fresh model from ``sessions`` alone and installs it on
    ``intellog``, replacing any earlier one.  The model is byte-identical
    for every ``workers >= 1``.  Stores a :class:`ParallelReport` on
    ``intellog.last_parallel_report``.

    The batch layout is :func:`~repro.parallel.shard.derive_batch_target`
    of the corpus size, computed once here; the model never depends on
    it.  The process-wide extraction memo is cleared first, so it only
    ever holds one run's keys.

    Stage walls come from nested ``train.*`` spans; passing a
    ``registry`` additionally feeds them into its
    ``trace_span_seconds`` histogram (``--metrics-out`` visibility).
    """
    from ..core.intellog import TrainingSummary

    if not isinstance(workers, int) or isinstance(workers, bool):
        raise ValueError(f"workers must be a positive integer, got {workers!r}")
    if workers < 1:
        raise ValueError(f"workers must be a positive integer, got {workers}")

    tracer = Tracer(registry=registry)
    total_span = tracer.span("train.parallel")
    with total_span:
        session_list = list(sessions)
        shards = make_shards(session_list)
        batch_target = derive_batch_target(
            sum(len(shard) for shard in shards)
        )
        batches = make_batches(shards, batch_target)
        config = intellog.config
        # Cleared before the pool forks, so workers start empty too.
        parent_cache = process_cache()
        parent_cache.clear()

        # Never spawn idle processes: more workers than batches would
        # only add fork/teardown cost with nothing to run.
        pool_workers = max(1, min(workers, len(batches)))
        executor = (
            ProcessPoolExecutor(
                max_workers=pool_workers, initializer=init_worker
            )
            if pool_workers > 1
            else None
        )
        report_bytes: dict[str, list[int]] = {
            "parse_sent": [], "parse_recv": [],
            "stats_sent": [], "stats_recv": [],
        }
        try:
            # Phase 1: mask batches into per-shard form tables.
            with tracer.span("train.parse") as parse_span:
                batch_parses: list[BatchParse] = _run_tasks(
                    executor,
                    parse_batch,
                    _parse_tasks(batches),
                    phase="parse",
                    sent_bytes=report_bytes["parse_sent"],
                    recv_bytes=report_bytes["parse_recv"],
                )
                parses: list[ShardParse] = _flatten_batches(
                    batches, batch_parses, "parse"
                )

            # Merge: replay distinct forms to the canonical Spell table.
            with tracer.span("train.merge") as merge_span:
                merged: MergeResult = merge_shards(
                    shards, parses, tau=config.spell_tau
                )

            # Canonical Intel Keys, in Spell key order (the order
            # ``InformationExtractor.build_all`` uses).  The memo was
            # cleared at the start and phase 1 never touches it, so its
            # counters after this pass are exactly the parent's traffic;
            # inline phase-2 lookups are counted by the batch tasks.
            with tracer.span("train.extract") as extract_span:
                intel_keys: dict[str, IntelKey] = {
                    key.key_id: parent_cache.extract(
                        key.key_id, tuple(key.tokens), key.sample
                    )
                    for key in merged.spell.keys()
                }
                parent_hits, parent_misses = parent_cache.stats()
                builder = HWGraphBuilder(intel_keys)
                key_labels = {
                    key_id: tuple(sorted(labels))
                    for key_id, labels in builder.graph.key_groups.items()
                }
                key_rows = {
                    key.key_id: (key.key_id, tuple(key.tokens), key.sample)
                    for key in merged.spell.keys()
                }

            # Phase 2: per-batch Intel Messages + session statistics,
            # with one batch-deduplicated key table per task.
            with tracer.span("train.stats") as stats_span:
                stats_tasks = []
                for batch in batches:
                    used = sorted(
                        {
                            key_id
                            for shard in batch.shards
                            for key_id in merged.record_keys[shard.index]
                        }
                    )
                    stats_tasks.append(
                        BatchStatsTask(
                            index=batch.index,
                            batch_hash=batch.batch_hash,
                            slices=[
                                StatsSlice(
                                    index=shard.index,
                                    content_hash=shard.content_hash,
                                    session_id=shard.session.session_id,
                                    rows=[
                                        (record.timestamp, record.message)
                                        for record in shard.session.records
                                    ],
                                    record_keys=merged.record_keys[
                                        shard.index
                                    ],
                                )
                                for shard in batch.shards
                            ],
                            key_table=[
                                key_rows[key_id] for key_id in used
                            ],
                            key_labels={
                                key_id: key_labels[key_id]
                                for key_id in used
                            },
                        )
                    )
                batch_stats: list[BatchStats] = _run_tasks(
                    executor,
                    compute_batch_stats,
                    stats_tasks,
                    phase="stats",
                    sent_bytes=report_bytes["stats_sent"],
                    recv_bytes=report_bytes["stats_recv"],
                )
                stats_flat: list[ShardStats] = _flatten_batches(
                    batches, batch_stats, "stats"
                )
        finally:
            if executor is not None:
                executor.shutdown(cancel_futures=True)

        # Apply statistics strictly in corpus order (shard index),
        # verifying each result still matches the shard it claims to be.
        with tracer.span("train.apply") as apply_span:
            by_index = {stats.index: stats for stats in stats_flat}
            for shard in shards:
                stats = by_index.get(shard.index)
                if stats is None:
                    raise MergeError(
                        f"missing stats for shard {shard.index}"
                    )
                if stats.content_hash != shard.content_hash:
                    raise MergeError(
                        f"shard {shard.index} stats content hash mismatch"
                    )
                builder.apply_session_stats(
                    SessionStats(
                        groups=[
                            GroupSessionStats.from_payload(payload)
                            for payload in stats.groups
                        ]
                    )
                )
            graph = builder.build()

        # Install the trained model on the façade.
        intellog.spell = merged.spell
        intellog.intel_keys = intel_keys
        intellog.graph = graph
        if config.validate_model:
            intellog._validate_graph()
        intellog._detector = AnomalyDetector(
            graph,
            merged.spell,
            intellog.extractor,
            config.detector,
        )

    parse_by_index = {parse.index: parse for parse in parses}
    report = ParallelReport(
        workers=workers,
        shards=len(shards),
        records=merged.total_records,
        distinct_forms=merged.distinct_forms,
        log_keys=len(merged.spell),
        manifest=corpus_manifest(shards),
        pool_workers=pool_workers,
        batches=len(batches),
        batch_target_records=batch_target,
        parse_wall=parse_span.duration_s,
        merge_wall=merge_span.duration_s,
        extract_wall=extract_span.duration_s,
        stats_wall=stats_span.duration_s,
        apply_wall=apply_span.duration_s,
        total_wall=total_span.duration_s,
        parse_shard_seconds=[
            parse_by_index[shard.index].duration for shard in shards
        ],
        stats_shard_seconds=[
            by_index[shard.index].duration for shard in shards
        ],
        parse_batch_seconds=[
            result.duration
            for result in sorted(batch_parses, key=lambda b: b.index)
        ],
        stats_batch_seconds=[
            result.duration
            for result in sorted(batch_stats, key=lambda b: b.index)
        ],
        parse_payload_bytes=report_bytes["parse_sent"],
        stats_payload_bytes=report_bytes["stats_sent"],
        parse_result_bytes=report_bytes["parse_recv"],
        stats_result_bytes=report_bytes["stats_recv"],
        cache_hits=parent_hits
        + sum(result.cache_hits for result in batch_stats),
        cache_misses=parent_misses
        + sum(result.cache_misses for result in batch_stats),
    )
    intellog.last_parallel_report = report

    return TrainingSummary(
        sessions=len(session_list),
        messages=merged.total_records,
        log_keys=len(merged.spell),
        intel_keys=len(intel_keys),
        entity_groups=len(graph.groups),
        critical_groups=len(graph.critical_groups()),
        ignored_keys=len(graph.ignored_keys),
    )


__all__ = [
    "ParallelReport",
    "ParallelWorkerError",
    "Shard",
    "lpt_makespan",
    "train_parallel",
]
