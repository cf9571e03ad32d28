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

from ..extraction.intelkey import IntelMessage


@dataclass(slots=True)
class SubroutineInstance:
    """One runtime instance: accumulated identifier values + messages."""

    values: frozenset[str]
    messages: list[IntelMessage] = field(default_factory=list)

    @property
    def key_sequence(self) -> list[str]:
        return [m.key_id for m in self.messages]

    @property
    def signature(self) -> tuple[str, ...]:
        types: set[str] = set()
        for message in self.messages:
            types.update(message.identifiers.keys())
        return tuple(sorted(types))

    def __len__(self) -> int:
        return len(self.messages)


def assign_instances(
    messages: Iterable[IntelMessage],
) -> list[SubroutineInstance]:
    """Algorithm 2's main loop: split one session's group messages into
    subroutine instances by identifier-value overlap.

    The ``NONE`` instance (no identifiers) is returned first when present.
    """
    none_instance = SubroutineInstance(values=frozenset())
    instances: list[SubroutineInstance] = []
    for message in messages:
        value_set = frozenset(message.identifier_values)
        if not value_set:
            none_instance.messages.append(message)
            continue
        placed = False
        for instance in instances:
            if value_set <= instance.values or instance.values <= value_set:
                instance.values = frozenset(instance.values | value_set)
                instance.messages.append(message)
                placed = True
                break
        if not placed:
            instances.append(
                SubroutineInstance(values=value_set, messages=[message])
            )
    result: list[SubroutineInstance] = []
    if none_instance.messages:
        result.append(none_instance)
    result.extend(instances)
    return result


#: One subroutine observation: ``(signature, key sequence)`` of a single
#: instance.  The unit exchanged between the per-session stats pass and
#: the model update pass (and therefore what parallel training shards
#: ship back to the merge step).
SubroutineUpdate = tuple[tuple[str, ...], list[str]]


def session_updates(
    messages: Iterable[IntelMessage],
) -> list[SubroutineUpdate]:
    """Pure per-session pass of Algorithm 2: the ``(signature, key
    sequence)`` updates one session's group messages contribute.

    Splitting this from :meth:`SubroutineModel.train_session` lets the
    observation (parallelisable, per session) and the model mutation
    (serial, order-sensitive) run in different processes while remaining
    byte-identical to :meth:`SubroutineModel.train_session`.
    """
    return [
        (instance.signature, instance.key_sequence)
        for instance in assign_instances(messages)
    ]


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
        first_pos: dict[str, int] = {}
        for pos, key in enumerate(key_sequence):
            first_pos.setdefault(key, pos)
        observed = list(first_pos)

        for key in observed:
            if key not in self.key_counts:
                self.keys.append(key)
                # A key first seen now was missing from earlier instances.
                self.key_counts[key] = 0
            self.key_counts[key] += 1

        # Update pairwise order relations among co-occurring keys.
        for i, a in enumerate(observed):
            for b in observed[i + 1:]:
                pa, pb = first_pos[a], first_pos[b]
                earlier, later = (a, b) if pa < pb else (b, a)
                pair = (earlier, later)
                reverse = (later, earlier)
                if pair in self.compared or reverse in self.compared:
                    # Seen before: keep BEFORE only if consistent.
                    if reverse in self.before:
                        self.before.discard(reverse)
                    # pair in before stays; pair order matches.
                else:
                    self.compared.add(pair)
                    self.before.add(pair)

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

    def train_session(self, messages: Iterable[IntelMessage]) -> None:
        """Consume one session's messages for this group (Algorithm 2)."""
        self.apply_updates(session_updates(messages))

    def apply_updates(self, updates: Iterable[SubroutineUpdate]) -> None:
        """Apply pre-computed per-session updates (see
        :func:`session_updates`) in their recorded order."""
        for signature, key_sequence in updates:
            self._subroutine_for(signature).update(key_sequence)

    def _subroutine_for(self, signature: tuple[str, ...]) -> Subroutine:
        sub = self.subroutines.get(signature)
        if sub is None:
            sub = Subroutine(signature=signature)
            self.subroutines[signature] = sub
        return sub

    def get(self, signature: tuple[str, ...]) -> Subroutine | None:
        return self.subroutines.get(signature)

    def best_match(self, signature: tuple[str, ...]) -> Subroutine | None:
        """The trained subroutine whose signature best matches ``signature``.

        Exact match preferred; otherwise the largest-overlap signature whose
        types are a superset or subset (an instance may terminate before all
        identifier types appear).
        """
        exact = self.subroutines.get(signature)
        if exact is not None:
            return exact
        sig_set = set(signature)
        best: Subroutine | None = None
        best_overlap = -1
        for key, sub in self.subroutines.items():
            other = set(key)
            if sig_set <= other or other <= sig_set:
                overlap = len(sig_set & other)
                if overlap > best_overlap:
                    best, best_overlap = sub, overlap
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
