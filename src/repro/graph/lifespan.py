"""Lifespan analysis and entity-group relations (paper §4.1, Figure 6).

The lifespan of an entity group in a session is the interval between its
first and last log message.  Two groups are related by:

* ``PARENT`` — a's lifespan contains b's in *every* session where both
  appear (b depends on a);
* ``BEFORE`` — a ends before b starts in every such session;
* ``PARALLEL`` — otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

PARENT = "PARENT"
CHILD = "CHILD"
BEFORE = "BEFORE"
AFTER = "AFTER"
PARALLEL = "PARALLEL"


@dataclass(frozen=True, slots=True)
class Lifespan:
    """Closed time interval ``[start, end]`` of a group's activity.

    Both endpoints are inclusive: they are the timestamps of the group's
    first and last log message in the session, and both messages belong
    to the group.  Boundary semantics (shared by training-side
    :meth:`RelationMatrix.observe_session` and detection-side
    ``_check_hierarchy``, which both inline them as float comparisons —
    they must agree, or relations learned in training are unenforceable
    at detection time):

    * :meth:`contains` is closed on both ends — a group whose first/last
      messages coincide with its parent's is still contained;
    * :meth:`precedes` accepts touching intervals (``end <= start``) — a
      handoff logged at the same timestamp still orders the groups.
    """

    start: float
    end: float

    def contains(self, other: "Lifespan") -> bool:
        return self.start <= other.start and other.end <= self.end

    def strictly_contains(self, other: "Lifespan") -> bool:
        return self.contains(other) and (
            self.start < other.start or other.end < self.end
        )

    def precedes(self, other: "Lifespan") -> bool:
        return self.end <= other.start


class RelationMatrix:
    """Pairwise relations between entity groups, aggregated over sessions.

    Feed one session at a time via :meth:`observe_session`; query final
    relations via :meth:`relation`.
    """

    def __init__(self, min_support: int = 5) -> None:
        # (a, b) -> per-relation observation counts across sessions, with
        # a, b in lexicographic order and the relation one of PARENT /
        # CHILD / BEFORE / AFTER / PARALLEL / EQUAL.
        self._observations: dict[tuple[str, str], dict[str, int]] = {}
        self._groups: set[str] = set()
        #: Minimum co-occurring sessions before a directional relation
        #: (PARENT/BEFORE) is trusted; fewer observations give PARALLEL.
        #: Guards against spurious orderings learned from scarce training
        #: data (the paper's own false-positive analysis, §6.4).
        self.min_support = min_support

    def observe_session(self, lifespans: Mapping[str, Lifespan]) -> None:
        """Record the pairwise relations implied by one session.

        Each pair is classified with the :class:`Lifespan` boundary
        semantics, inlined as plain float comparisons (this runs once
        per pair of groups per training session):

        * a contains b and b contains a — identical lifespans, including
          zero-width ones — is ``EQUAL``, a dedicated mark that does not
          break a consistent PARENT vote from other sessions and keeps
          zero-width intervals from reading as orderings;
        * otherwise one containing the other is PARENT / CHILD
          (containment that is not identity is strict);
        * otherwise ``a.precedes(b)`` (touching spans count, as in
          detection-side ``_check_hierarchy``) is BEFORE, the converse
          AFTER, and anything else PARALLEL.
        """
        names = sorted(lifespans)
        self._groups.update(names)
        spans = [(lifespans[n].start, lifespans[n].end) for n in names]
        observations = self._observations
        for i, a in enumerate(names):
            a_start, a_end = spans[i]
            for j in range(i + 1, len(names)):
                b_start, b_end = spans[j]
                if a_start <= b_start and b_end <= a_end:
                    if a_start == b_start and a_end == b_end:
                        rel = "EQUAL"
                    else:
                        rel = PARENT
                elif b_start <= a_start and a_end <= b_end:
                    rel = CHILD
                elif a_end <= b_start:
                    rel = BEFORE
                elif b_end <= a_start:
                    rel = AFTER
                else:
                    rel = PARALLEL
                pair = (a, names[j])
                counts = observations.get(pair)
                if counts is None:
                    observations[pair] = {rel: 1}
                else:
                    counts[rel] = counts.get(rel, 0) + 1

    @property
    def groups(self) -> set[str]:
        return set(self._groups)

    def relation(self, a: str, b: str) -> str:
        """Final relation of ``a`` towards ``b`` (Figure 6 semantics).

        PARENT/BEFORE require agreement in every co-occurring session
        (EQUAL observations are compatible with either); any disagreement
        collapses to PARALLEL.
        """
        if a == b:
            return "SELF"
        swap = a > b
        key = (b, a) if swap else (a, b)
        observed = self._observations.get(key)
        if not observed:
            return PARALLEL
        if sum(observed.values()) < self.min_support:
            return PARALLEL
        effective = {rel for rel in observed if rel != "EQUAL"}
        if not effective:
            return PARALLEL
        if len(effective) == 1:
            rel = next(iter(effective))
            if swap:
                rel = {PARENT: CHILD, CHILD: PARENT,
                       BEFORE: AFTER, AFTER: BEFORE,
                       PARALLEL: PARALLEL}[rel]
            return rel
        return PARALLEL

    def verdicts(self) -> list[tuple[str, str, str]]:
        """``(a, b, relation(a, b))`` for every observed pair, ``a < b``,
        in sorted order; every other pair of distinct groups is
        PARALLEL."""
        return [
            (a, b, self.relation(a, b))
            for a, b in sorted(self._observations)
        ]

    def relations_of(self, group: str) -> dict[str, str]:
        """Relations from ``group`` to every other observed group."""
        return {
            other: self.relation(group, other)
            for other in sorted(self._groups)
            if other != group
        }

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        """Round-trippable form (see :meth:`from_dict`)."""
        return {
            "min_support": self.min_support,
            "groups": sorted(self._groups),
            "observations": [
                [a, b, {rel: count for rel, count in sorted(
                    counts.items()
                )}]
                for (a, b), counts in sorted(self._observations.items())
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "RelationMatrix":
        matrix = cls(min_support=int(data.get("min_support", 5)))
        matrix._groups.update(data.get("groups", ()))
        for a, b, counts in data.get("observations", ()):
            matrix._observations[(a, b)] = {
                rel: int(count) for rel, count in counts.items()
            }
        return matrix


def session_lifespans(
    group_messages: Mapping[str, Iterable[float]],
) -> dict[str, Lifespan]:
    """Compute lifespans from per-group message timestamps of one session."""
    spans: dict[str, Lifespan] = {}
    for group, stamps in group_messages.items():
        times = list(stamps)
        if times:
            spans[group] = Lifespan(min(times), max(times))
    return spans
