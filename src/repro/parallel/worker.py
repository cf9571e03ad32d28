"""Batch tasks executed in worker processes.

All tasks are pure functions of their arguments (plus the process-local
chunk-tokenizer memo, which memoises a pure function), so running them
in any process, in any order, at any concurrency yields identical
results — the parent only has to fix the *order* in which results are
folded in.

The unit shipped to a worker is a **shard batch**
(:class:`~repro.parallel.shard.ShardBatch`), and payloads are kept lean
in both directions: tasks carry plain token/tuple rows (message strings
for phase 1; ``(timestamp, message)`` rows plus the batch's compiled
:class:`~repro.graph.subroutine.KeyPlan` table for phase 2) instead of
pickled :class:`Session` / :class:`LogRecord` dataclasses, and results
carry only form tables (phase 1) or one
:class:`~repro.graph.hwgraph.GraphPartial` (phase 2) plus the echoed
content hashes — never the inputs.

Phase 1 (:func:`parse_batch`) masks every message and builds each member
shard's *form table*: the distinct masked token sequences with their
first local position, occurrence count and first raw message.  This is
the per-message half of Spell; the cross-shard half (template matching
and evolution) runs once in the parent over distinct forms only (see
:mod:`repro.parallel.merge`).  Masking fills the process's chunk memo
(:func:`~repro.parsing.spell.mask_message`).

Phase 2 (:func:`compute_batch_stats`) receives the canonical per-record
key assignment back, with one plan per Intel Key the batch uses that
feeds an entity group — compiled in the parent from the parent's
canonical Intel Keys, so no worker extracts anything.  It aligns each
record's raw tokens (read from the chunk memo, so no record is
tokenized twice) against its key's template, scatters the captures into
one row with :meth:`KeyPlan.row` — the same compiled step detection
takes — and folds the batch's sessions, in corpus order, into one
:class:`~repro.graph.hwgraph.GraphPartial`: subroutines, lifespan
relations and group counters.  The parent only merges one partial per
batch.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..graph.hwgraph import GraphPartial
from ..graph.subroutine import KeyPlan
from ..parsing.spell import extract_parameters, mask_message


class ParallelWorkerError(RuntimeError):
    """A worker task failed; carries the phase and the batch index."""

    def __init__(self, phase: str, batch_index: int, cause: str) -> None:
        super().__init__(
            f"parallel {phase} task for batch {batch_index} failed: "
            f"{cause}"
        )
        self.phase = phase
        self.batch_index = batch_index


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


# -- phase 2: plan rows + the batch's HW-graph partial ----------------------


@dataclass(slots=True)
class StatsSlice:
    """One shard's lean phase-2 payload inside a :class:`BatchStatsTask`:
    ``rows`` are ``(timestamp, message)`` — the only record fields the
    statistics path reads."""

    index: int
    content_hash: str
    rows: list[tuple[float, str]] = field(default_factory=list)
    record_keys: list[str] = field(default_factory=list)


@dataclass(slots=True)
class BatchStatsTask:
    """Input of :func:`compute_batch_stats` (one per shard batch).

    ``plans`` holds one compiled plan per Intel Key the member shards
    use that feeds at least one entity group, with the group labels
    sorted; a record of any other key cannot reach the partial and is
    skipped.  Shipped once per batch, not once per shard.
    """

    index: int
    batch_hash: str
    slices: list[StatsSlice] = field(default_factory=list)
    plans: dict[str, KeyPlan] = field(default_factory=dict)


@dataclass(slots=True)
class BatchStats:
    """Output of :func:`compute_batch_stats`: one mergeable partial."""

    index: int
    batch_hash: str
    #: The batch's sessions folded in corpus order.
    partial: GraphPartial
    #: ``(index, content_hash)`` of every member shard, in batch order,
    #: echoed so the parent can verify the pairing before merging.
    shards: list[tuple[int, str]] = field(default_factory=list)
    #: CPU seconds each member shard took (rows + fold).
    shard_seconds: list[float] = field(default_factory=list)
    duration: float = 0.0


def _fold_shard(
    piece: StatsSlice,
    plans: dict[str, KeyPlan],
    key_groups: dict[str, tuple[str, ...]],
    partial: GraphPartial,
) -> float:
    """Turn one shard's records into rows and fold its session into
    ``partial``; returns the CPU seconds it took."""
    started = time.process_time()
    rows = []
    for (timestamp, text), key_id in zip(piece.rows, piece.record_keys):
        plan = plans.get(key_id)
        if plan is None:
            continue
        captures = extract_parameters(
            plan.intel_key.template, mask_message(text)[1]
        )
        if captures is not None:
            rows.append(plan.row(timestamp, captures))
    partial.add_session(rows, key_groups)
    return time.process_time() - started


def compute_batch_stats(task: BatchStatsTask) -> BatchStats:
    """Phase-2 worker entry point: fold every shard of one batch."""
    batch_started = time.process_time()
    key_groups = {key_id: plan.groups for key_id, plan in task.plans.items()}
    partial = GraphPartial()
    shard_seconds = [
        _fold_shard(piece, task.plans, key_groups, partial)
        for piece in task.slices
    ]
    return BatchStats(
        index=task.index,
        batch_hash=task.batch_hash,
        partial=partial,
        shards=[(piece.index, piece.content_hash) for piece in task.slices],
        shard_seconds=shard_seconds,
        duration=time.process_time() - batch_started,
    )
