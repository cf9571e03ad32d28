"""Deterministic merge of per-shard parse results.

Spell is a streaming algorithm: the key table it produces depends on the
order messages arrive.  The merge reproduces the table of one streaming
pass over every record exactly by replaying the corpus's **distinct
masked forms** — in first-global-occurrence order — through a fresh
:class:`SpellParser`:

* Every record with the same masked form takes the same path through
  ``consume`` (matching, merging and evolution all operate on the masked
  tokens), so replaying each form once yields the same key table and the
  same form → key assignment as consuming every record.
* First-global-occurrence order of the distinct forms is exactly the
  order in which the streaming pass encounters *new* information, so
  template evolution happens in the same sequence.
* The shard partition is per-session and the global occurrence index is
  ``shard.base_offset + local position`` — pure functions of the corpus —
  so the result is identical for any worker count and any completion
  order.  Per-key counts and line ids are rebuilt afterwards from the
  per-record assignment (:meth:`SpellParser.rebuild_bookkeeping`).

The merge order is fixed by corpus content (positions and content hashes),
never by worker completion order; :exc:`MergeError` is raised if a result
does not match the shard it claims to be.

Batching never reaches this layer: workers process *shard batches* for
IPC efficiency, but the pipeline flattens batch results back to
per-shard :class:`ShardParse` objects in corpus order before calling
:func:`merge_shards` — which is why the batch layout cannot influence
the merged model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..parsing.spell import SpellParser
from .shard import Shard
from .worker import ShardParse


class MergeError(RuntimeError):
    """A shard result does not correspond to the submitted shard."""


@dataclass(slots=True)
class MergeResult:
    """Canonical parser state recovered from the shard parses."""

    spell: SpellParser
    #: Per shard (corpus order), the canonical key id of every record.
    record_keys: list[list[str]] = field(default_factory=list)
    distinct_forms: int = 0
    total_records: int = 0


def _check_pairing(
    shards: Sequence[Shard], parses: Sequence[ShardParse]
) -> list[ShardParse]:
    """Pair parses with shards by index and verify content hashes."""
    if len(parses) != len(shards):
        raise MergeError(
            f"expected {len(shards)} shard results, got {len(parses)}"
        )
    by_index = {parse.index: parse for parse in parses}
    if len(by_index) != len(parses):
        raise MergeError("duplicate shard indices in results")
    ordered: list[ShardParse] = []
    for shard in shards:
        parse = by_index.get(shard.index)
        if parse is None:
            raise MergeError(f"missing result for shard {shard.index}")
        if parse.content_hash != shard.content_hash:
            raise MergeError(
                f"shard {shard.index} content hash mismatch: "
                f"submitted {shard.content_hash[:12]}, "
                f"result {parse.content_hash[:12]}"
            )
        ordered.append(parse)
    return ordered


def merge_shards(
    shards: Sequence[Shard],
    parses: Sequence[ShardParse],
    tau: float = 1.7,
) -> MergeResult:
    """Fold shard form tables into the canonical streaming parser state."""
    ordered = _check_pairing(shards, parses)

    # Global form table: form -> [first global index, count, sample].
    # Shards are visited in corpus order, so the first contributor of a
    # form also holds its globally-first occurrence (and its sample, the
    # raw message Spell would have seen first); the min() keeps that
    # property explicit rather than implied.
    table: dict[tuple[str, ...], list] = {}
    for shard, parse in zip(shards, ordered):
        for form, first_local, count, sample in parse.forms:
            first_global = shard.base_offset + first_local
            entry = table.get(form)
            if entry is None:
                table[form] = [first_global, count, sample]
            else:
                entry[1] += count
                if first_global < entry[0]:
                    entry[0] = first_global
                    entry[2] = sample

    # Replay distinct forms in first-occurrence order: this drives the
    # exact sequence of template creations and LCS merges the streaming
    # pass performs, producing the same keys with the same samples.
    spell = SpellParser(tau=tau)
    assignment: dict[tuple[str, ...], str] = {}
    for form, (_first, _count, sample) in sorted(
        table.items(), key=lambda item: item[1][0]
    ):
        assignment[form] = spell.consume(sample).key_id

    # Project the assignment back onto every record and rebuild the
    # per-key occurrence bookkeeping (1-based global line numbers).
    record_keys: list[list[str]] = []
    line_ids_by_key: dict[str, list[int]] = {}
    total_records = 0
    for shard, parse in zip(shards, ordered):
        keys = [
            assignment[parse.forms[form_idx][0]]
            for form_idx in parse.record_forms
        ]
        record_keys.append(keys)
        for position, key_id in enumerate(keys):
            line_ids_by_key.setdefault(key_id, []).append(
                shard.base_offset + position + 1
            )
        total_records += len(keys)
    spell.rebuild_bookkeeping(line_ids_by_key, total_records)

    return MergeResult(
        spell=spell,
        record_keys=record_keys,
        distinct_forms=len(table),
        total_records=total_records,
    )
