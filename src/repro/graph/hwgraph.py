"""The Hierarchical Workflow graph (HW-graph) (paper §4.1, Figures 7-8).

A HW-graph abstracts a system's workflow as a hierarchy of entity groups:
``PARENT`` containment edges derived from lifespans, ``BEFORE`` ordering
edges between siblings, and per-group subroutines over Intel Keys.  It is
built once from normal-execution training sessions and later instantiated
per incoming session for anomaly detection (§4.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

import networkx as nx

from ..extraction.intelkey import IntelKey, IntelMessage
from .grouping import GroupingResult, group_entities
from .lifespan import BEFORE, PARENT, Lifespan, RelationMatrix
from .subroutine import (
    Subroutine,
    SubroutineModel,
    SubroutineUpdate,
    session_updates,
)


@dataclass(slots=True)
class GroupSessionStats:
    """What one session contributes to one entity group's model."""

    label: str
    updates: list[SubroutineUpdate]
    lifespan: tuple[float, float]
    max_key_repeat: int

    def to_payload(self) -> list:
        """Compact picklable form (used by ``repro.parallel`` shards)."""
        return [
            self.label,
            [[list(sig), list(seq)] for sig, seq in self.updates],
            list(self.lifespan),
            self.max_key_repeat,
        ]

    @classmethod
    def from_payload(cls, data: list) -> "GroupSessionStats":
        label, updates, lifespan, max_key_repeat = data
        return cls(
            label=label,
            updates=[(tuple(sig), list(seq)) for sig, seq in updates],
            lifespan=(lifespan[0], lifespan[1]),
            max_key_repeat=int(max_key_repeat),
        )


@dataclass(slots=True)
class SessionStats:
    """One session's full contribution to the HW-graph model.

    Produced by :func:`session_group_stats` (a pure function of the
    session's Intel Messages), applied by
    :meth:`HWGraphBuilder.apply_session_stats`.
    :meth:`HWGraphBuilder.train_session` fuses the two; the trainer
    (:mod:`repro.parallel`) computes stats in worker processes and
    applies them in deterministic corpus order.
    """

    groups: list[GroupSessionStats] = field(default_factory=list)


def session_group_stats(
    messages: Iterable[IntelMessage],
    key_groups: Mapping[str, set[str]],
) -> SessionStats:
    """Compute one session's per-group statistics (pure, picklable).

    Group labels are visited in sorted order so the result — and
    everything downstream of it — is independent of set iteration order
    (PYTHONHASHSEED).
    """
    ordered = sorted(messages, key=lambda m: m.timestamp)
    per_group: dict[str, list[IntelMessage]] = {}
    for message in ordered:
        for label in sorted(key_groups.get(message.key_id, ())):
            per_group.setdefault(label, []).append(message)

    stats = SessionStats()
    for label, group_msgs in per_group.items():
        key_repeats: dict[str, int] = {}
        for message in group_msgs:
            key_repeats[message.key_id] = (
                key_repeats.get(message.key_id, 0) + 1
            )
        stats.groups.append(
            GroupSessionStats(
                label=label,
                updates=session_updates(group_msgs),
                lifespan=(
                    group_msgs[0].timestamp, group_msgs[-1].timestamp
                ),
                max_key_repeat=max(key_repeats.values()),
            )
        )
    return stats


@dataclass(slots=True)
class GroupNode:
    """One entity group in the HW-graph."""

    label: str
    entities: set[tuple[str, ...]] = field(default_factory=set)
    key_ids: set[str] = field(default_factory=set)
    model: SubroutineModel = field(default_factory=SubroutineModel)
    parent: str | None = None
    children: list[str] = field(default_factory=list)
    #: Sibling groups that must come after this one.
    before: set[str] = field(default_factory=set)
    #: Max number of messages one Intel Key of this group produced within a
    #: single session (criterion 2 for critical groups, §6.3).
    max_key_repeat: int = 0
    #: Sessions in which the group appeared / total training sessions.
    session_count: int = 0

    @property
    def critical(self) -> bool:
        """§6.3: critical iff multiple Intel Keys, or one key that repeats
        within a single session."""
        return len(self.key_ids) > 1 or self.max_key_repeat > 1


@dataclass(slots=True)
class HWGraph:
    """The trained hierarchical workflow graph of a targeted system."""

    groups: dict[str, GroupNode] = field(default_factory=dict)
    #: Intel Keys by key id (the vocabulary of the model).
    intel_keys: dict[str, IntelKey] = field(default_factory=dict)
    #: key id -> labels of groups containing the key.
    key_groups: dict[str, set[str]] = field(default_factory=dict)
    relations: RelationMatrix = field(default_factory=RelationMatrix)
    #: Keys observed during training that are key-value dumps; ignored by
    #: detection instead of reported (paper §5).
    ignored_keys: set[str] = field(default_factory=set)
    training_sessions: int = 0

    # -- structure queries ------------------------------------------------------

    @property
    def roots(self) -> list[str]:
        return sorted(
            label for label, node in self.groups.items()
            if node.parent is None
        )

    def critical_groups(self) -> list[str]:
        return sorted(
            label for label, node in self.groups.items() if node.critical
        )

    def descendants(self, label: str) -> set[str]:
        out: set[str] = set()
        stack = list(self.groups[label].children)
        while stack:
            child = stack.pop()
            if child not in out:
                out.add(child)
                stack.extend(self.groups[child].children)
        return out

    def groups_of_message(self, message: IntelMessage) -> set[str]:
        return self.key_groups.get(message.key_id, set())

    def to_networkx(self) -> "nx.DiGraph":
        """Export hierarchy + ordering as a networkx DiGraph.

        PARENT edges carry ``relation='PARENT'``; sibling ordering edges
        carry ``relation='BEFORE'``.
        """
        graph = nx.DiGraph()
        for label, node in self.groups.items():
            graph.add_node(label, critical=node.critical,
                           keys=sorted(node.key_ids))
        for label, node in self.groups.items():
            for child in node.children:
                graph.add_edge(label, child, relation=PARENT)
            for later in node.before:
                graph.add_edge(label, later, relation=BEFORE)
        return graph

    def to_dict(self) -> dict[str, Any]:
        """Serialize the full trained model.

        The payload is round-trippable through :meth:`from_dict`
        (``repro.analysis.validate.validate_round_trip`` enforces this):
        per-group statistics (``session_count``, ``max_key_repeat``) and
        the subroutines' order/occurrence state are all preserved, not
        just the derived summaries.
        """
        return {
            "training_sessions": self.training_sessions,
            "groups": {
                label: {
                    "entities": sorted(" ".join(e) for e in node.entities),
                    "keys": sorted(node.key_ids),
                    "parent": node.parent,
                    "children": sorted(node.children),
                    "before": sorted(node.before),
                    "critical": node.critical,
                    "session_count": node.session_count,
                    "max_key_repeat": node.max_key_repeat,
                    "subroutines": {
                        "|".join(sig) or "NONE": {
                            "keys": sub.ordered_keys(),
                            "critical_keys": sorted(sub.critical_keys),
                            "instances": sub.instance_count,
                            "key_counts": dict(sorted(
                                sub.key_counts.items()
                            )),
                            "before_pairs": sorted(
                                list(pair) for pair in sub.before
                            ),
                            "compared_pairs": sorted(
                                list(pair) for pair in sub.compared
                            ),
                            "instance_lengths": list(
                                sub.instance_lengths
                            ),
                        }
                        for sig, sub in node.model.subroutines.items()
                    },
                }
                for label, node in sorted(self.groups.items())
            },
            "intel_keys": {
                key_id: key.to_dict()
                for key_id, key in sorted(self.intel_keys.items())
            },
            "ignored_keys": sorted(self.ignored_keys),
            "relations": self.relations.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "HWGraph":
        """Reconstruct a trained graph from :meth:`to_dict` output."""
        intel_keys = {
            key_id: IntelKey.from_dict(entry)
            for key_id, entry in data.get("intel_keys", {}).items()
        }
        graph = cls(
            intel_keys=intel_keys,
            ignored_keys=set(data.get("ignored_keys", ())),
            training_sessions=int(data.get("training_sessions", 0)),
            relations=RelationMatrix.from_dict(data.get("relations", {})),
        )
        graph.key_groups = {key_id: set() for key_id in intel_keys}
        for label, entry in data.get("groups", {}).items():
            node = GroupNode(
                label=label,
                entities={
                    tuple(phrase.split())
                    for phrase in entry.get("entities", ())
                },
                key_ids=set(entry.get("keys", ())),
                parent=entry.get("parent"),
                children=list(entry.get("children", ())),
                before=set(entry.get("before", ())),
                max_key_repeat=int(entry.get("max_key_repeat", 0)),
                session_count=int(entry.get("session_count", 0)),
            )
            for sig_text, sub_entry in entry.get(
                "subroutines", {}
            ).items():
                signature = (
                    () if sig_text == "NONE"
                    else tuple(sig_text.split("|"))
                )
                sub = Subroutine(
                    signature=signature,
                    keys=list(sub_entry.get("keys", ())),
                    before={
                        tuple(pair)
                        for pair in sub_entry.get("before_pairs", ())
                    },
                    compared={
                        tuple(pair)
                        for pair in sub_entry.get("compared_pairs", ())
                    },
                    key_counts=dict(sub_entry.get("key_counts", {})),
                    instance_count=int(sub_entry.get("instances", 0)),
                    instance_lengths=list(
                        sub_entry.get("instance_lengths", ())
                    ),
                )
                node.model.subroutines[signature] = sub
            graph.groups[label] = node
            for key_id in node.key_ids:
                graph.key_groups.setdefault(key_id, set()).add(label)
        return graph


class HWGraphBuilder:
    """Builds a :class:`HWGraph` from Intel Keys and training sessions."""

    def __init__(self, intel_keys: Mapping[str, IntelKey]) -> None:
        self.intel_keys = dict(intel_keys)
        # Key-value dumps (non-natural-language keys, §5) are learned but
        # excluded from workflow modelling; their tokens are not entities.
        self.grouping: GroupingResult = group_entities(
            entity
            for key in self.intel_keys.values()
            if key.natural_language
            for entity in key.entities
        )
        self.graph = HWGraph(intel_keys=self.intel_keys)
        self._init_groups()

    def _init_groups(self) -> None:
        for group in self.grouping.groups:
            self.graph.groups[group.label] = GroupNode(
                label=group.label, entities=set(group.entities)
            )
        for key_id, key in self.intel_keys.items():
            if not key.natural_language:
                self.graph.ignored_keys.add(key_id)
                self.graph.key_groups[key_id] = set()
                continue
            labels: set[str] = set()
            for entity in key.entities:
                phrase = tuple(entity.split())
                for group in self.grouping.groups_for(phrase):
                    labels.add(group.label)
            self.graph.key_groups[key_id] = labels
            for label in labels:
                self.graph.groups[label].key_ids.add(key_id)

    # -- training -----------------------------------------------------------------

    def train_session(self, messages: Iterable[IntelMessage]) -> None:
        """Consume one normal-execution session (time-ordered messages)."""
        self.apply_session_stats(
            session_group_stats(messages, self.graph.key_groups)
        )

    def apply_session_stats(self, stats: SessionStats) -> None:
        """Fold one session's pre-computed statistics into the model.

        This is the only mutating half of training; feeding sessions'
        stats in corpus order reproduces :meth:`train_session` over the
        same sessions exactly, which is what lets ``repro.parallel``
        compute the stats in worker processes.
        """
        lifespans: dict[str, Lifespan] = {}
        for group_stats in stats.groups:
            node = self.graph.groups[group_stats.label]
            node.session_count += 1
            node.model.apply_updates(group_stats.updates)
            lifespans[group_stats.label] = Lifespan(*group_stats.lifespan)
            node.max_key_repeat = max(
                node.max_key_repeat, group_stats.max_key_repeat
            )

        self.graph.relations.observe_session(lifespans)
        self.graph.training_sessions += 1

    # -- finalisation ---------------------------------------------------------------

    def build(self) -> HWGraph:
        """Derive the hierarchy from the relation matrix (Figure 7)."""
        graph = self.graph
        labels = sorted(
            label for label, node in graph.groups.items()
            if node.session_count > 0
        )
        # Drop groups never observed in training.
        for label in list(graph.groups):
            if graph.groups[label].session_count == 0:
                removed = graph.groups.pop(label)
                for key_id in removed.key_ids:
                    graph.key_groups.get(key_id, set()).discard(label)

        # Ancestor sets from PARENT relations.
        ancestors: dict[str, set[str]] = {label: set() for label in labels}
        for a in labels:
            for b in labels:
                if a != b and graph.relations.relation(a, b) == PARENT:
                    ancestors[b].add(a)

        # Parent of g = the ancestor that is itself a descendant of all of
        # g's other ancestors (the deepest one); ties break alphabetically.
        for label in labels:
            anc = ancestors[label]
            if not anc:
                continue
            deepest = max(
                sorted(anc),
                key=lambda a: len(ancestors[a] & anc),
            )
            node = graph.groups[label]
            node.parent = deepest
            graph.groups[deepest].children.append(label)
        for node in graph.groups.values():
            node.children.sort()

        # Sibling BEFORE edges.
        for label in labels:
            node = graph.groups[label]
            for other in labels:
                if other == label:
                    continue
                if graph.groups[other].parent != node.parent:
                    continue
                if graph.relations.relation(label, other) == BEFORE:
                    node.before.add(other)
        return graph
