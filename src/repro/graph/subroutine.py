"""Subroutine construction inside entity groups (paper §4.1, Algorithm 2).

A *subroutine* is an ordered set of Intel Keys that execute together,
distinguished at runtime by identifier values: all messages whose identifier
value sets overlap (subset in either direction) belong to the same
*subroutine instance*.  Messages without identifiers fall into the special
``NONE`` instance.

Per identifier-type *signature* (e.g. ``{ID_1, ID_2}``), ``UpdateSubroutine``
maintains:

* BEFORE relations between Intel Keys — kept only while every observed
  instance agrees on the order (Figure 5: once B and C appear interchanged,
  they become parallel);
* *critical* Intel Keys — keys present in every observed instance; a missed
  critical key at detection time is an anomaly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from ..extraction.idvalue import FieldRole
from ..extraction.intelkey import IntelKey, IntelMessage
from ..extraction.pipeline import to_number


#: One log message as Algorithm 2 reads it: ``(timestamp, Intel Key id,
#: identifier values, identifier types)``.  Training scatters each
#: record's captures straight into a row through the record's
#: :class:`KeyPlan`; detection reads it through a row recipe compiled
#: from the plan per chunk-level form
#: (:meth:`~repro.detection.detector.AnomalyDetector.resolve`);
#: :func:`message_row` adapts an Intel Message.
Row = tuple[float, str, frozenset[str], tuple[str, ...]]


def message_row(message: IntelMessage) -> Row:
    """The row of one Intel Message."""
    return (
        message.timestamp,
        message.key_id,
        frozenset(message.identifier_values),
        tuple(message.identifiers),
    )


@dataclass(frozen=True, slots=True)
class KeyPlan:
    """What a row needs of one Intel Key, compiled once per key.

    ``template`` is the key's template, which a record's raw tokens
    are aligned against.  ``slots`` has one entry per
    :class:`~repro.extraction.intelkey.FieldSpec`, in field order:
    ``(name, False)`` for an identifier, ``(NAME, True)`` for a value —
    an identifier of type ``NAME`` (the upper-cased field name) whenever
    its capture is not a number, as
    :meth:`InformationExtractor.to_intel_message` files it — and
    ``None`` for a locality, which no row carries.  Nothing else of the
    Intel Key is kept.
    """

    key_id: str
    template: tuple[str, ...]
    #: Labels of the groups the key feeds, sorted (in detection, the
    #: order of a report's subroutine anomalies).
    groups: tuple[str, ...]
    slots: tuple[tuple[str, bool] | None, ...]

    @classmethod
    def compile(
        cls, intel_key: IntelKey, groups: tuple[str, ...]
    ) -> "KeyPlan":
        slots: list[tuple[str, bool] | None] = []
        for spec in intel_key.fields:
            if spec.role == FieldRole.IDENTIFIER:
                slots.append((spec.name, False))
            elif spec.role == FieldRole.VALUE:
                slots.append((spec.name.upper(), True))
            else:
                slots.append(None)
        return cls(
            intel_key.key_id, tuple(intel_key.template), groups,
            tuple(slots),
        )

    def row(self, timestamp: float, captures: Sequence[str]) -> Row:
        """One matched record's row, scattered from its captures."""
        values: list[str] = []
        types: list[str] = []
        for slot, capture in zip(self.slots, captures):
            if slot is None:
                continue
            name, is_value = slot
            if is_value and to_number(capture) is not None:
                continue
            values.append(capture)
            types.append(name)
        return (timestamp, self.key_id, frozenset(values), tuple(types))


#: One subroutine instance as :func:`split_instances` returns it: the
#: Intel Key ids of its rows in row order, and the identifier types
#: they carry.
Instance = tuple[tuple[str, ...], frozenset[str]]


def split_instances(rows: Iterable[Row]) -> list[Instance]:
    """Algorithm 2's main loop: split one session's group rows into
    subroutine instances by identifier-value overlap.

    A row joins the first instance, in creation order, whose values are
    a subset or a superset of the row's (a superset row grows the
    instance's values); a row that fits none starts a new instance.
    Rows without identifier values form the ``NONE`` instance, which is
    returned first when present.  Each instance's key ids and types are
    gathered as its rows are assigned.
    """
    none: tuple[list[str], list[str]] | None = None
    # Per instance, in creation order: [values, key ids, types].
    instances: list[list] = []
    for _timestamp, key_id, value_set, types in rows:
        if not value_set:
            if none is None:
                none = [key_id], list(types)
            else:
                none[0].append(key_id)
                none[1].extend(types)
            continue
        for instance in instances:
            values = instance[0]
            if value_set <= values:
                break
            if values <= value_set:
                instance[0] = value_set
                break
        else:
            instances.append([value_set, [key_id], list(types)])
            continue
        # ``instance`` is the one the loop broke at.
        instance[1].append(key_id)
        instance[2].extend(types)
    result: list[Instance] = []
    if none is not None:
        result.append((tuple(none[0]), frozenset(none[1])))
    for _values, keys, type_list in instances:
        result.append((tuple(keys), frozenset(type_list)))
    return result


@dataclass(slots=True)
class Subroutine:
    """The learned model for one identifier-type signature."""

    signature: tuple[str, ...]
    #: Keys ever observed, in first-seen order.
    keys: list[str] = field(default_factory=list)
    #: Pairs (a, b) for which a preceded b in every instance so far.
    before: set[tuple[str, str]] = field(default_factory=set)
    #: Pairs observed in *some* order at least once (to distinguish a
    #: never-compared pair from a parallel one).
    compared: set[tuple[str, str]] = field(default_factory=set)
    #: Number of instances each key appeared in.
    key_counts: dict[str, int] = field(default_factory=dict)
    #: Total instances consumed.
    instance_count: int = 0
    #: Observed instance lengths in log messages (Table 5 statistics).
    instance_lengths: list[int] = field(default_factory=list)
    #: First-seen key orders already consumed by :meth:`update` — a
    #: memo, not model state: it is not serialized or compared, and any
    #: subset of the consumed orders (none, after a merge or a load) is
    #: a valid memo.
    orders: set[tuple[str, ...]] = field(
        default_factory=set, compare=False, repr=False
    )

    @property
    def critical_keys(self) -> set[str]:
        """Keys present in every observed instance (bold in Figure 5)."""
        if self.instance_count == 0:
            return set()
        return {
            key
            for key, count in self.key_counts.items()
            if count == self.instance_count
        }

    def relation(self, a: str, b: str) -> str:
        """BEFORE / AFTER / PARALLEL / UNKNOWN between two keys."""
        if (a, b) in self.before:
            return "BEFORE"
        if (b, a) in self.before:
            return "AFTER"
        if (a, b) in self.compared or (b, a) in self.compared:
            return "PARALLEL"
        return "UNKNOWN"

    def ordered_keys(self) -> list[str]:
        """Keys in a topological order consistent with BEFORE relations."""
        remaining = list(self.keys)
        ordered: list[str] = []
        placed: set[str] = set()
        while remaining:
            progressed = False
            for key in list(remaining):
                preds = {
                    a for (a, b) in self.before if b == key and a not in
                    placed and a in remaining
                }
                if not preds:
                    ordered.append(key)
                    placed.add(key)
                    remaining.remove(key)
                    progressed = True
            if not progressed:  # cycle safety; should not happen
                ordered.extend(remaining)
                break
        return ordered

    # -- training ------------------------------------------------------------

    def update(self, key_sequence: Sequence[str]) -> None:
        """Consume one instance's Intel Key sequence (UpdateSubroutine)."""
        self.instance_count += 1
        self.instance_lengths.append(len(key_sequence))
        # Distinct keys in first-seen order: for i < j, observed[i]
        # first appeared before observed[j].
        observed = tuple(dict.fromkeys(key_sequence))
        key_counts = self.key_counts
        if observed in self.orders:
            # A repeat order: its first pass compared all its pairs and
            # dropped every BEFORE it contradicts, and a compared pair
            # is never added to ``before`` again, so only counts move.
            for key in observed:
                key_counts[key] += 1
            return
        self.orders.add(observed)

        for key in observed:
            count = key_counts.get(key)
            if count is None:
                self.keys.append(key)
                # A key first seen now was missing from earlier instances.
                key_counts[key] = 1
            else:
                key_counts[key] = count + 1

        # Update pairwise order relations among co-occurring keys.
        before = self.before
        compared = self.compared
        for i, a in enumerate(observed):
            for b in observed[i + 1:]:
                pair = (a, b)
                reverse = (b, a)
                if pair in compared or reverse in compared:
                    # Seen before: keep BEFORE only if consistent.
                    before.discard(reverse)
                else:
                    compared.add(pair)
                    before.add(pair)

    # -- detection -------------------------------------------------------------

    def check_instance(
        self, key_sequence: Sequence[str], complete: bool = True
    ) -> list[str]:
        """Validate an instance against the model; returns problem strings.

        ``complete`` indicates the session has ended, so missing critical
        keys are reportable.
        """
        problems: list[str] = []
        first_pos: dict[str, int] = {}
        for pos, key in enumerate(key_sequence):
            first_pos.setdefault(key, pos)
        present = set(first_pos)

        # Iterate sets in sorted order so the problem list (and any report
        # serialization built from it) is byte-stable across interpreter
        # runs regardless of PYTHONHASHSEED.
        for key in sorted(present):
            if key not in self.key_counts:
                problems.append(f"unexpected key {key} in subroutine "
                                f"{self.signature}")
        if complete:
            for key in sorted(self.critical_keys):
                if key not in present:
                    problems.append(
                        f"missing critical key {key} in subroutine "
                        f"{self.signature}"
                    )
        for a, b in sorted(self.before):
            if a in present and b in present and first_pos[a] > first_pos[b]:
                problems.append(
                    f"order violation: {b} before {a} in subroutine "
                    f"{self.signature}"
                )
        return problems


class SubroutineModel:
    """All subroutines of one entity group, keyed by signature (D_ti)."""

    def __init__(self) -> None:
        self.subroutines: dict[tuple[str, ...], Subroutine] = {}

    def train_session(self, rows: Iterable[Row]) -> None:
        """Consume one session's rows for this group (Algorithm 2)."""
        subroutines = self.subroutines
        for keys, types in split_instances(rows):
            signature = tuple(sorted(types))
            sub = subroutines.get(signature)
            if sub is None:
                sub = subroutines[signature] = Subroutine(signature=signature)
            sub.update(keys)

    def best_match(self, signature: tuple[str, ...]) -> Subroutine | None:
        """The trained subroutine whose signature best matches ``signature``.

        Exact match preferred; otherwise the largest-overlap signature whose
        types are a superset or subset (an instance may terminate before all
        identifier types appear).  Ties go to the candidate with fewer
        types outside ``signature``, then to the smallest sorted signature,
        so the choice never depends on the order subroutines were filed in
        (training order, or sorted order after a reload).
        """
        exact = self.subroutines.get(signature)
        if exact is not None:
            return exact
        sig_set = set(signature)
        best: Subroutine | None = None
        best_rank: tuple[int, int, tuple[str, ...]] | None = None
        for key, sub in self.subroutines.items():
            other = set(key)
            if sig_set <= other or other <= sig_set:
                overlap = len(sig_set & other)
                rank = (-overlap, len(other) - overlap, tuple(sorted(key)))
                if best_rank is None or rank < best_rank:
                    best, best_rank = sub, rank
        return best

    def stats(self) -> Mapping[str, float]:
        """Length statistics over subroutine instances (Table 5)."""
        lengths = [
            length
            for sub in self.subroutines.values()
            for length in sub.instance_lengths
        ]
        if not lengths:
            return {"max": 0, "avg": 0.0, "count": 0}
        return {
            "max": max(lengths),
            "avg": sum(lengths) / len(lengths),
            "count": len(lengths),
        }
