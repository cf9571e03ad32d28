"""Batch tasks executed in worker processes.

All tasks are pure functions of their arguments (plus the process-local
extraction memo, which memoises a pure function), so running them in any
process, in any order, at any concurrency yields identical results — the
merge layer only has to fix the *order* in which results are folded in.

The unit shipped to a worker is a **shard batch**
(:class:`~repro.parallel.shard.ShardBatch`), and payloads are kept lean
in both directions: tasks carry plain token/tuple rows (message strings
for phase 1; ``(timestamp, message)`` rows plus one batch-deduplicated
key table for phase 2) instead of pickled :class:`Session` /
:class:`LogRecord` dataclasses, and results carry only form tables
(phase 1) or ``GroupSessionStats`` payloads (phase 2) plus the echoed
content hashes — never the inputs.

Phase 1 (:func:`parse_batch`) masks every message and builds each member
shard's *form table*: the distinct masked token sequences with their
first local position, occurrence count and first raw message.  This is
the per-message half of Spell; the cross-shard half (template matching
and evolution) runs once in the parent over distinct forms only (see
:mod:`repro.parallel.merge`).

Phase 2 (:func:`compute_batch_stats`) receives the canonical per-record
key assignment back, rebuilds each shard's Intel Messages (extracting
the batch's Intel Keys once through the process-local memo cache) and
computes per-session HW-graph statistics via
:func:`~repro.graph.hwgraph.session_group_stats`, the same pure function
behind :meth:`~repro.graph.hwgraph.HWGraphBuilder.train_session`.

:func:`init_worker` runs once per pool process (executor initializer):
it pre-imports the parsing/extraction modules and warms the per-process
:class:`~repro.parallel.cache.ExtractionCache`'s extractor, so the
lexicon/POS-tagger setup happens off every task's critical path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..graph.hwgraph import session_group_stats
from ..parsing.spell import mask_message
from .cache import ExtractionCache, process_cache


class ParallelWorkerError(RuntimeError):
    """A worker task failed; carries the phase and the batch index."""

    def __init__(self, phase: str, batch_index: int, cause: str) -> None:
        super().__init__(
            f"parallel {phase} task for batch {batch_index} failed: "
            f"{cause}"
        )
        self.phase = phase
        self.batch_index = batch_index


def init_worker() -> None:
    """Pool-process initializer: pre-import and warm the hot path.

    Imports of the parsing/extraction modules are already paid by this
    module's own imports; what remains cold in a fresh process is the
    :class:`InformationExtractor` (lexicon + POS tagger construction),
    which :meth:`ExtractionCache.warm` builds eagerly so the first task
    does not pay for it.
    """
    process_cache().warm()


# -- phase 1: masking + form tables -----------------------------------------


@dataclass(slots=True)
class ShardParse:
    """Per-shard output of phase 1.

    ``forms[i] = (tokens, first_local_idx, count, sample)`` — the distinct
    masked forms in first-appearance order; ``record_forms[r]`` maps the
    shard's ``r``-th record to its form index.
    """

    index: int
    content_hash: str
    forms: list[tuple[tuple[str, ...], int, int, str]] = field(
        default_factory=list
    )
    record_forms: list[int] = field(default_factory=list)
    #: CPU seconds spent in this shard's masking (process time: immune
    #: to the timesharing noise of oversubscribed worker pools).
    duration: float = 0.0


@dataclass(slots=True)
class ParseSlice:
    """One shard's lean phase-1 payload inside a :class:`BatchParseTask`:
    the message texts are all that masking needs."""

    index: int
    content_hash: str
    messages: tuple[str, ...]


@dataclass(slots=True)
class BatchParseTask:
    """Input of :func:`parse_batch` (one per shard batch)."""

    index: int
    batch_hash: str
    slices: list[ParseSlice] = field(default_factory=list)


@dataclass(slots=True)
class BatchParse:
    """Output of :func:`parse_batch`: per-shard form tables."""

    index: int
    batch_hash: str
    parses: list[ShardParse] = field(default_factory=list)
    #: CPU seconds the whole batch took (the schedulable unit).
    duration: float = 0.0


def _mask_form_table(
    messages: tuple[str, ...] | list[str],
) -> tuple[list[tuple[tuple[str, ...], int, int, str]], list[int]]:
    """Mask messages into a distinct-form table + per-record form index."""
    form_index: dict[tuple[str, ...], int] = {}
    forms: list[list] = []  # [tokens, first_local_idx, count, sample]
    record_forms: list[int] = []
    for position, message in enumerate(messages):
        masked, _raw = mask_message(message)
        form = tuple(masked)
        idx = form_index.get(form)
        if idx is None:
            idx = len(forms)
            form_index[form] = idx
            forms.append([form, position, 1, message])
        else:
            forms[idx][2] += 1
        record_forms.append(idx)
    return [tuple(entry) for entry in forms], record_forms


def parse_batch(task: BatchParseTask) -> BatchParse:
    """Mask every shard of one batch (phase-1 worker entry point)."""
    batch_started = time.process_time()
    parses: list[ShardParse] = []
    for piece in task.slices:
        started = time.process_time()
        forms, record_forms = _mask_form_table(piece.messages)
        parses.append(
            ShardParse(
                index=piece.index,
                content_hash=piece.content_hash,
                forms=forms,
                record_forms=record_forms,
                duration=time.process_time() - started,
            )
        )
    return BatchParse(
        index=task.index,
        batch_hash=task.batch_hash,
        parses=parses,
        duration=time.process_time() - batch_started,
    )


# -- phase 2: Intel Messages + per-session HW-graph stats --------------------


@dataclass(slots=True)
class ShardStats:
    """Per-shard output of phase 2 (group payloads only, no input echo)."""

    index: int
    content_hash: str
    #: ``GroupSessionStats.to_payload()`` items, in computation order.
    groups: list = field(default_factory=list)
    messages: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    duration: float = 0.0


@dataclass(slots=True)
class StatsSlice:
    """One shard's lean phase-2 payload inside a :class:`BatchStatsTask`:
    ``rows`` are ``(timestamp, message)`` — the only record fields the
    statistics path reads."""

    index: int
    content_hash: str
    session_id: str
    rows: list[tuple[float, str]] = field(default_factory=list)
    record_keys: list[str] = field(default_factory=list)


@dataclass(slots=True)
class BatchStatsTask:
    """Input of :func:`compute_batch_stats` (one per shard batch).

    The key table / labels are deduplicated at batch level: the union of
    the member shards' used keys, shipped once per batch instead of once
    per shard.
    """

    index: int
    batch_hash: str
    slices: list[StatsSlice] = field(default_factory=list)
    key_table: list[tuple[str, tuple[str, ...], str]] = field(
        default_factory=list
    )
    key_labels: dict[str, tuple[str, ...]] = field(default_factory=dict)


@dataclass(slots=True)
class BatchStats:
    """Output of :func:`compute_batch_stats`."""

    index: int
    batch_hash: str
    stats: list[ShardStats] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    duration: float = 0.0


def _session_stats(
    piece: StatsSlice,
    intel_keys: dict,
    key_labels: dict[str, tuple[str, ...]],
    cache: ExtractionCache,
) -> ShardStats:
    """Rebuild one shard's Intel Messages and compute its session stats."""
    started = time.process_time()
    messages = []
    for (timestamp, text), key_id in zip(piece.rows, piece.record_keys):
        intel_key = intel_keys.get(key_id)
        if intel_key is None:
            continue
        message = cache.extractor.to_intel_message(
            intel_key,
            text,
            timestamp=timestamp,
            session_id=piece.session_id,
        )
        if message is not None:
            messages.append(message)
    stats = session_group_stats(messages, key_labels)
    return ShardStats(
        index=piece.index,
        content_hash=piece.content_hash,
        groups=[group.to_payload() for group in stats.groups],
        messages=len(messages),
        duration=time.process_time() - started,
    )


def compute_batch_stats(task: BatchStatsTask) -> BatchStats:
    """Phase-2 worker entry point: stats for every shard of one batch.

    The batch's Intel Keys are extracted once (through the per-process
    memo) and shared by all member shards; cache traffic is accounted at
    batch level so the parent can aggregate worker-side lookups exactly.
    """
    batch_started = time.process_time()
    cache = process_cache()
    hits0, misses0 = cache.stats()
    intel_keys = {
        key_id: cache.extract(key_id, tokens, sample)
        for key_id, tokens, sample in task.key_table
    }
    stats = [
        _session_stats(piece, intel_keys, task.key_labels, cache)
        for piece in task.slices
    ]
    hits1, misses1 = cache.stats()
    return BatchStats(
        index=task.index,
        batch_hash=task.batch_hash,
        stats=stats,
        cache_hits=hits1 - hits0,
        cache_misses=misses1 - misses0,
        duration=time.process_time() - batch_started,
    )
