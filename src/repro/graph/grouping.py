"""Entity grouping by nomenclature (paper §4.1, Algorithm 1).

Correlated entities usually share a common sub-phrase in their names
("block", "block manager", "block manager endpoint" share "block"), *except*
when the shared part is only the last few words, which tend to have generic
meanings ("block manager" vs "security manager" share "manager" but are not
tightly correlated).

Algorithm 1 is implemented line-for-line: entities are processed in
ascending word-count order; each entity joins every existing group with a
non-empty ``LongestCommonPhrase`` (shrinking that group's name to the common
phrase), and starts its own group when none matches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence


def longest_common_word_substring(
    a: Sequence[str], b: Sequence[str]
) -> tuple[str, ...]:
    """Longest common *contiguous* word subsequence of two phrases."""
    best: tuple[str, ...] = ()
    for i in range(len(a)):
        for j in range(len(b)):
            k = 0
            while (
                i + k < len(a)
                and j + k < len(b)
                and a[i + k] == b[j + k]
            ):
                k += 1
            if k > len(best):
                best = tuple(a[i:i + k])
    return best


#: Function words that cannot anchor a nomenclature correlation on their
#: own ("output of map" vs "of task" must not group under "of").
_FUNCTION_WORDS = frozenset({
    "of", "in", "on", "at", "by", "for", "with", "from", "to", "the",
    "a", "an", "and", "or", "is", "be",
})


def longest_common_phrase(
    group: Sequence[str], entity: Sequence[str]
) -> tuple[str, ...]:
    """The paper's ``LongestCommonPhrase`` (Algorithm 1, lines 23-30).

    * If either operand has one word, return their longest common string —
      a one-word phrase that is part of the other phrase is correlated
      with it.
    * If both are multi-word and they share only their last few words
      (generic tails like "manager", "file", "output"), return empty.
    * Otherwise return the longest common contiguous phrase.
    """
    common = longest_common_word_substring(group, entity)
    if not common:
        return ()
    # A common phrase made of function words only is not a correlation.
    if all(word in _FUNCTION_WORDS for word in common):
        return ()
    if len(group) == 1 or len(entity) == 1:
        return common
    # Reject matches that are purely a shared suffix of both phrases.
    if (
        tuple(group[-len(common):]) == common
        and tuple(entity[-len(common):]) == common
        and group[0] != entity[0]
    ):
        return ()
    return common


@dataclass(slots=True)
class EntityGroup:
    """A nomenclature group: its (possibly shrunk) name and member
    entities."""

    name: tuple[str, ...]
    entities: set[tuple[str, ...]] = field(default_factory=set)

    @property
    def label(self) -> str:
        return " ".join(self.name)

    def __contains__(self, entity: tuple[str, ...]) -> bool:
        return entity in self.entities


@dataclass(slots=True)
class GroupingResult:
    """Output of Algorithm 1: the groups plus the reverse entity index."""

    groups: list[EntityGroup]
    #: Reverse index D_r: entity phrase -> indices of containing groups.
    reverse: dict[tuple[str, ...], set[int]]

    def groups_for(self, entity: tuple[str, ...] | str) -> list[EntityGroup]:
        if isinstance(entity, str):
            entity = tuple(entity.split())
        return [self.groups[i] for i in sorted(self.reverse.get(entity, ()))]

    def labels(self) -> list[str]:
        return [g.label for g in self.groups]


def group_entities(entities: Iterable[str | Sequence[str]]) -> GroupingResult:
    """Run Algorithm 1 over the extracted entity phrases.

    ``entities`` may be strings ("block manager") or word sequences; they
    are de-duplicated and sorted ascending by word count (Algorithm 1's
    input precondition) with an alphabetical tiebreak for determinism.
    """
    phrases: set[tuple[str, ...]] = set()
    for entity in entities:
        if isinstance(entity, str):
            phrase = tuple(entity.split())
        else:
            phrase = tuple(entity)
        if phrase:
            phrases.add(phrase)

    ordered = sorted(phrases, key=lambda p: (len(p), p))
    groups: list[EntityGroup] = []

    for phrase in ordered:
        grouped = False
        words = set(phrase)
        for group in groups:
            # Most groups share no word with the phrase.
            if words.isdisjoint(group.name):
                continue
            common = longest_common_phrase(group.name, phrase)
            if common:
                group.entities.add(phrase)
                group.name = common
                grouped = True
        if not grouped:
            groups.append(EntityGroup(name=phrase, entities={phrase}))

    # Merge groups whose names collapsed to the same phrase.
    merged: dict[tuple[str, ...], EntityGroup] = {}
    for group in groups:
        existing = merged.get(group.name)
        if existing is None:
            merged[group.name] = group
        else:
            existing.entities |= group.entities
    final = list(merged.values())

    reverse: dict[tuple[str, ...], set[int]] = {}
    for idx, group in enumerate(final):
        for entity in group.entities:
            reverse.setdefault(entity, set()).add(idx)
    return GroupingResult(groups=final, reverse=reverse)
