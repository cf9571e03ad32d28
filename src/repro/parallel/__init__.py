"""Sharded, multi-process training with a deterministic merge.

This is IntelLog's only trainer: :meth:`repro.core.IntelLog.train` calls
:func:`train_parallel`.  The training corpus is split into per-session
shards (a pure function of the corpus, never of the worker count) which
are grouped into size-targeted *shard batches* — the units actually
shipped to worker processes, themselves a pure function of the corpus.
The per-record and per-session work runs in a process pool (or inline
at ``workers=1``): phase 1 masks messages into form tables, phase 2
turns each record into one compiled plan row and folds each batch's
sessions into one mergeable HW-graph partial.  The parent keeps only
the small serial steps — the Spell form replay, canonical Intel Key
extraction, and merging one partial per batch — and
folds results in an order fixed by corpus content, so
``IntelLog.train(sessions, workers=N)`` produces the same model bytes
for every ``N`` and every batch layout.  See ``DESIGN.md``
("Deterministic merge") for the invariant and why batching preserves it.
"""

from ..extraction.cache import ExtractionCache
from .merge import MergeError, MergeResult, merge_shards
from .pipeline import ParallelReport, lpt_makespan, train_parallel
from .shard import (
    MIN_BATCH_RECORDS,
    Shard,
    ShardBatch,
    batch_hash,
    corpus_manifest,
    derive_batch_target,
    make_batches,
    make_shards,
    shard_hash,
)
from .worker import (
    BatchParse,
    BatchParseTask,
    BatchStats,
    BatchStatsTask,
    ParallelWorkerError,
    ParseSlice,
    ShardParse,
    StatsSlice,
    compute_batch_stats,
    parse_batch,
)

__all__ = [
    "MIN_BATCH_RECORDS",
    "BatchParse",
    "BatchParseTask",
    "BatchStats",
    "BatchStatsTask",
    "ExtractionCache",
    "MergeError",
    "MergeResult",
    "ParallelReport",
    "ParallelWorkerError",
    "ParseSlice",
    "Shard",
    "ShardBatch",
    "ShardParse",
    "StatsSlice",
    "batch_hash",
    "compute_batch_stats",
    "corpus_manifest",
    "derive_batch_target",
    "lpt_makespan",
    "make_batches",
    "make_shards",
    "merge_shards",
    "parse_batch",
    "shard_hash",
    "train_parallel",
]
