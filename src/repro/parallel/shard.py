"""Corpus sharding and batch grouping for parallel training.

The unit of *merge granularity* is the session (one YARN container's
records, paper §5): per-session shards make the shard partition a pure
function of the corpus — it never depends on the worker count — which is
what lets the deterministic merge produce byte-identical models for any
``workers=N``.

The unit of *distribution* is the **shard batch**: per-session shards are
far too fine to ship individually (154 one-session shards for 4060
records means pickling/IPC dominates compute), so :func:`make_batches`
greedily fills size-targeted groups of consecutive shards, in corpus
order, and those batches are what worker processes receive.  The batch
partition is itself a pure function of the corpus: the records-per-batch
target (:func:`derive_batch_target`) depends only on the corpus size and
on fixed design constants — never on ``workers``, ``os.cpu_count()`` or
any other host property — so the manifest, the merge order and the golden
digests are identical on every machine.

Every shard carries a content hash (over its session id and records) and
every batch a hash over its member shard hashes.  Worker results echo the
hashes back, the merge/apply steps verify them against what was
submitted, and the per-corpus *manifest* (hash over the ordered shard
hashes, batching-independent) is stamped into the
:class:`~repro.parallel.pipeline.ParallelReport` so two training runs can
be compared at a glance.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..parsing.records import Session

#: Upper bound on worker processes the batch layout is designed for.
#: This is a *design constant*, deliberately not ``os.cpu_count()`` —
#: the partition must be a pure function of the corpus.
WORKER_BOUND = 8

#: Batches per worker slot at the bound: enough slices that LPT
#: scheduling balances uneven batches, few enough that per-batch
#: round-trip overhead stays amortized.
SLICES_PER_WORKER = 4

#: Never cut batches smaller than this many records (except when the
#: whole corpus is smaller): below it, pickling/IPC per round trip
#: rivals the compute being shipped.
MIN_BATCH_RECORDS = 256


@dataclass(slots=True)
class Shard:
    """One unit of parallel work: a session plus its corpus position."""

    index: int  # position in corpus order (merge order; never completion)
    session_id: str
    base_offset: int  # global 0-based index of the shard's first record
    content_hash: str
    session: Session

    def __len__(self) -> int:
        return len(self.session.records)


def shard_hash(session: Session) -> str:
    """Content hash of one session: ids, timestamps and message texts."""
    digest = hashlib.sha256()
    digest.update(session.session_id.encode())
    digest.update(b"\x00")
    digest.update(session.app_id.encode())
    for record in session.records:
        digest.update(b"\x1e")
        digest.update(repr(record.timestamp).encode())
        digest.update(b"\x1f")
        digest.update(record.message.encode())
    return digest.hexdigest()


def make_shards(sessions: Iterable[Session]) -> list[Shard]:
    """Split a training corpus into per-session shards, in corpus order."""
    shards: list[Shard] = []
    offset = 0
    for index, session in enumerate(sessions):
        shards.append(
            Shard(
                index=index,
                session_id=session.session_id,
                base_offset=offset,
                content_hash=shard_hash(session),
                session=session,
            )
        )
        offset += len(session.records)
    return shards


def corpus_manifest(shards: Sequence[Shard]) -> str:
    """Hash of the ordered shard hashes: identifies the training corpus."""
    digest = hashlib.sha256()
    for shard in shards:
        digest.update(shard.content_hash.encode())
        digest.update(b"\n")
    return digest.hexdigest()


# -- shard batches: the unit of distribution ----------------------------------


@dataclass(slots=True)
class ShardBatch:
    """A group of consecutive shards shipped to a worker as one task."""

    index: int  # position in corpus order (== submission order)
    batch_hash: str
    shards: list[Shard]

    @property
    def records(self) -> int:
        return sum(len(shard) for shard in self.shards)

    def __len__(self) -> int:
        return len(self.shards)


def batch_hash(shards: Sequence[Shard]) -> str:
    """Content hash of a batch: the ordered member shard hashes."""
    digest = hashlib.sha256()
    for shard in shards:
        digest.update(shard.content_hash.encode())
        digest.update(b"\x1e")
    return digest.hexdigest()


def derive_batch_target(total_records: int) -> int:
    """Records-per-batch target for a corpus of ``total_records``.

    Aims for ``WORKER_BOUND * SLICES_PER_WORKER`` batches so LPT
    scheduling balances them across any worker count up to the bound,
    but never cuts below :data:`MIN_BATCH_RECORDS` — tiny batches make
    IPC dominate again.  A pure function of the corpus size: no host
    property (core count, requested workers) may enter, or the batch
    layout would differ between machines.
    """
    slices = WORKER_BOUND * SLICES_PER_WORKER
    return max(MIN_BATCH_RECORDS, -(-total_records // slices))


def make_batches(
    shards: Sequence[Shard], target_records: int
) -> list[ShardBatch]:
    """Greedily fill size-targeted batches of consecutive shards.

    Walks the shards in corpus order and closes a batch as soon as it
    holds ``target_records`` records (a single over-sized session still
    forms one batch — sessions are never split, they are the merge
    granularity).  The training pipeline passes
    :func:`derive_batch_target` of the corpus size, keeping the
    partition a pure function of the corpus.
    """
    if target_records < 1:
        raise ValueError(
            f"target_records must be a positive integer, "
            f"got {target_records}"
        )
    batches: list[ShardBatch] = []
    fill: list[Shard] = []
    filled = 0
    for shard in shards:
        fill.append(shard)
        filled += len(shard)
        if filled >= target_records:
            batches.append(
                ShardBatch(
                    index=len(batches),
                    batch_hash=batch_hash(fill),
                    shards=fill,
                )
            )
            fill, filled = [], 0
    if fill:
        batches.append(
            ShardBatch(
                index=len(batches), batch_hash=batch_hash(fill),
                shards=fill,
            )
        )
    return batches
