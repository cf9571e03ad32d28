"""Batch tasks executed in worker processes.

All tasks are pure functions of their arguments (plus the process-local
chunk-tokenizer memo, which memoises a pure function), so running them
in any process, in any order, at any concurrency yields identical
results — the parent only has to fix the *order* in which results are
folded in.

The unit shipped to a worker is a **shard batch**
(:class:`~repro.parallel.shard.ShardBatch`), and payloads are kept lean
in both directions: tasks carry plain token/tuple rows (message strings
for phase 1; timestamps, per-record key ids and either raw tokens or
message strings for phase 2, plus the batch's compiled
:class:`~repro.graph.subroutine.KeyPlan` table) instead of pickled
:class:`Session` / :class:`LogRecord` dataclasses, and results carry
only form tables (phase 1) or one
:class:`~repro.graph.hwgraph.GraphPartial` (phase 2) plus the echoed
content hashes — never the inputs.

Phase 1 (:func:`parse_batch`) masks every message once and builds each
member shard's *form table*: the distinct masked token sequences with
their first local position, occurrence count and first raw message.
This is the per-message half of Spell; the cross-shard half (template
matching and evolution) runs once in the parent over distinct forms
only (see :mod:`repro.parallel.merge`).  When the task asks for them
(:attr:`BatchParseTask.keep_tokens`, set for inline runs), each
record's raw tokens — the other half of the same
:func:`~repro.parsing.spell.mask_message` call — are kept for phase 2.

Phase 2 (:func:`compute_batch_stats`) receives the canonical per-record
key assignment back, with one plan per Intel Key the batch uses that
feeds an entity group — compiled in the parent from the parent's
canonical Intel Keys, so no worker extracts anything.  It aligns each
record's raw tokens against its key's template, scatters the captures
into one row with :meth:`KeyPlan.row` — the same compiled step
detection takes — and folds the batch's sessions, in corpus order, into
one :class:`~repro.graph.hwgraph.GraphPartial`: subroutines, lifespan
relations and group counters.  Inline, the raw tokens are the ones
phase 1 kept, so no record is masked twice.  A pool worker gets the
message texts instead and masks the records that have a plan: shipping
phase 1's tokens back and forth would cost more bytes than the masking
costs CPU.  The parent only merges one partial per batch.
"""
from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from ..graph.hwgraph import GraphPartial
from ..graph.subroutine import KeyPlan
from ..parsing.spell import extract_parameters, mask_message

#: Seconds this process has spent in full (generation-2) collections,
#: and the start of the one running.  A full collection scans every
#: object alive in the process, so its length is set by the whole heap
#: (other models, the caller's data), not by the stage it interrupts;
#: stage timings leave it out so the modeled speedup measures the
#: pipeline alone.
_full_collections = [0.0, 0.0]


def _time_full_collections(phase: str, info: dict[str, Any]) -> None:
    if info["generation"] == 2:
        now = time.perf_counter()
        if phase == "start":
            _full_collections[1] = now
        else:
            _full_collections[0] += now - _full_collections[1]


gc.callbacks.append(_time_full_collections)


def full_collection_seconds() -> float:
    """Seconds this process has spent in full collections so far."""
    return _full_collections[0]


def cpu_seconds() -> float:
    """Process CPU seconds, less the time spent in full collections."""
    return time.process_time() - _full_collections[0]


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
    shard's ``r``-th record to its form index; ``tokens[r]``, when the
    task kept them, is the ``r``-th record's raw tokens.
    """

    index: int
    content_hash: str
    forms: list[tuple[tuple[str, ...], int, int, str]] = field(
        default_factory=list
    )
    record_forms: list[int] = field(default_factory=list)
    tokens: list[list[str]] | None = None
    #: CPU seconds spent in this shard's masking (process time: immune
    #: to the timesharing noise of oversubscribed worker pools), full
    #: collections left out (:func:`cpu_seconds`).
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
    #: Keep each record's raw tokens for phase 2 (inline runs only: a
    #: pool would ship them back and forth).
    keep_tokens: bool = False


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
    tokens: list[list[str]] | None = None,
) -> tuple[list[tuple[tuple[str, ...], int, int, str]], list[int]]:
    """Mask messages into a distinct-form table + per-record form index,
    appending each record's raw tokens to ``tokens`` when given."""
    form_index: dict[tuple[str, ...], int] = {}
    forms: list[list] = []  # [tokens, first_local_idx, count, sample]
    record_forms: list[int] = []
    for position, message in enumerate(messages):
        masked, raw = mask_message(message)
        if tokens is not None:
            tokens.append(raw)
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
    batch_started = cpu_seconds()
    parses: list[ShardParse] = []
    for piece in task.slices:
        started = cpu_seconds()
        tokens: list[list[str]] | None = [] if task.keep_tokens else None
        forms, record_forms = _mask_form_table(piece.messages, tokens)
        parses.append(
            ShardParse(
                index=piece.index,
                content_hash=piece.content_hash,
                forms=forms,
                record_forms=record_forms,
                tokens=tokens,
                duration=cpu_seconds() - started,
            )
        )
    return BatchParse(
        index=task.index,
        batch_hash=task.batch_hash,
        parses=parses,
        duration=cpu_seconds() - batch_started,
    )


# -- phase 2: plan rows + the batch's HW-graph partial ----------------------


@dataclass(slots=True)
class StatsSlice:
    """One shard's lean phase-2 payload inside a :class:`BatchStatsTask`:
    per record, its timestamp, its key id and its raw tokens — the only
    record fields the statistics path reads.

    ``tokens`` are phase 1's (inline runs); when they are ``None`` the
    worker masks ``messages`` for them (pool runs).
    """

    index: int
    content_hash: str
    timestamps: list[float] = field(default_factory=list)
    record_keys: list[str] = field(default_factory=list)
    tokens: list[list[str]] | None = None
    messages: tuple[str, ...] = ()


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
    #: CPU seconds each member shard took (rows + fold, plus masking
    #: on a pool).
    shard_seconds: list[float] = field(default_factory=list)
    duration: float = 0.0


def _fold_shard(
    records: Iterable[tuple[float, Sequence[str], str]],
    plans: dict[str, KeyPlan],
    key_groups: dict[str, tuple[str, ...]],
    partial: GraphPartial,
) -> None:
    """Turn one shard's ``(timestamp, raw tokens, key id)`` records into
    rows and fold its session into ``partial``."""
    rows = []
    for timestamp, tokens, key_id in records:
        plan = plans.get(key_id)
        if plan is None:
            continue
        captures = extract_parameters(plan.template, tokens)
        if captures is not None:
            rows.append(plan.row(timestamp, captures))
    partial.add_session(rows, key_groups)


def _slice_tokens(
    piece: StatsSlice, plans: dict[str, KeyPlan]
) -> list[Sequence[str]]:
    """The slice's raw tokens: phase 1's, or its messages masked here
    (only those of records that have a plan; the rest are skipped)."""
    if piece.tokens is not None:
        return piece.tokens
    return [
        mask_message(text)[1] if key_id in plans else ()
        for text, key_id in zip(piece.messages, piece.record_keys)
    ]


def compute_batch_stats(task: BatchStatsTask) -> BatchStats:
    """Phase-2 worker entry point: fold every shard of one batch."""
    batch_started = cpu_seconds()
    plans = task.plans
    key_groups = {key_id: plan.groups for key_id, plan in plans.items()}
    partial = GraphPartial()
    shard_seconds = []
    for piece in task.slices:
        started = cpu_seconds()
        _fold_shard(
            zip(
                piece.timestamps,
                _slice_tokens(piece, plans),
                piece.record_keys,
            ),
            plans,
            key_groups,
            partial,
        )
        shard_seconds.append(cpu_seconds() - started)
    return BatchStats(
        index=task.index,
        batch_hash=task.batch_hash,
        partial=partial,
        shards=[(piece.index, piece.content_hash) for piece in task.slices],
        shard_seconds=shard_seconds,
        duration=cpu_seconds() - batch_started,
    )
