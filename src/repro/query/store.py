"""Intel Message store (paper §3.3, §6.4).

Intel Messages are collections of key-value pairs that "naturally fit in
the storage structure of time series databases" and can be queried to
diagnose root causes — the paper's case study 1 applies successive GroupBy
operators on identifiers and locations to isolate 11 fetchers failing
against one host.  This module provides that queryable store.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, TYPE_CHECKING, Any, Callable, Iterable, Iterator

from ..extraction.intelkey import IntelMessage

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..analysis.diagnostics import DiagnosticReport
    from ..core.intellog import IntelLog


class MessageStore:
    """An in-memory, JSON-serialisable collection of Intel Messages.

    Point lookups (:meth:`with_key`, :meth:`with_entity`,
    :meth:`in_session`) are served from lazily built inverted indexes
    rather than linear scans; the indexes are invalidated whenever the
    store is mutated and rebuilt in one pass on the next lookup.
    """

    def __init__(self, messages: Iterable[IntelMessage] = ()) -> None:
        self._messages: list[IntelMessage] = list(messages)
        self._indexes: _Indexes | None = None

    def add(self, message: IntelMessage) -> None:
        self._messages.append(message)
        self._indexes = None

    def extend(self, messages: Iterable[IntelMessage]) -> None:
        self._messages.extend(messages)
        self._indexes = None

    def _index(self) -> "_Indexes":
        if self._indexes is None:
            self._indexes = _Indexes.build(self._messages)
        return self._indexes

    def __len__(self) -> int:
        return len(self._messages)

    def __iter__(self) -> Iterator[IntelMessage]:
        return iter(self._messages)

    def all(self) -> list[IntelMessage]:
        return list(self._messages)

    # -- filters ---------------------------------------------------------------

    def filter(
        self, predicate: Callable[[IntelMessage], bool]
    ) -> "MessageStore":
        return MessageStore(m for m in self._messages if predicate(m))

    def with_key(self, key_id: str) -> "MessageStore":
        return MessageStore(self._index().by_key.get(key_id, ()))

    def with_entity(self, entity: str) -> "MessageStore":
        return MessageStore(self._index().by_entity.get(entity, ()))

    def with_identifier_type(self, id_type: str) -> "MessageStore":
        return self.filter(lambda m: id_type in m.identifiers)

    def in_session(self, session_id: str) -> "MessageStore":
        return MessageStore(self._index().by_session.get(session_id, ()))

    def between(self, start: float, end: float) -> "MessageStore":
        return self.filter(lambda m: start <= m.timestamp <= end)

    # -- GroupBy operators (case study 1) --------------------------------------------

    def group_by(
        self, key_fn: Callable[[IntelMessage], Iterable[str]]
    ) -> dict[str, "MessageStore"]:
        """Group messages by (possibly multiple) string keys per message."""
        groups: dict[str, MessageStore] = {}
        for message in self._messages:
            for group_key in key_fn(message):
                groups.setdefault(group_key, MessageStore()).add(message)
        return groups

    def group_by_identifier(self, id_type: str) -> dict[str, "MessageStore"]:
        """GroupBy an identifier type's values ("GroupBy on the Intel
        Messages based on their identifiers")."""
        return self.group_by(
            lambda m: m.identifiers.get(id_type, ())
        )

    def group_by_locality(
        self, name: str | None = None
    ) -> dict[str, "MessageStore"]:
        """GroupBy location information ("another GroupBy based on the
        location information")."""

        def keys(message: IntelMessage) -> Iterable[str]:
            if name is not None:
                return message.localities.get(name, ())
            return (
                value
                for values in message.localities.values()
                for value in values
            )

        return self.group_by(keys)

    def group_by_session(self) -> dict[str, "MessageStore"]:
        return self.group_by(lambda m: (m.session_id,))

    # -- aggregates ---------------------------------------------------------------------

    def value_series(self, name: str) -> list[tuple[float, float]]:
        """(timestamp, value) series for a named value field."""
        series = [
            (m.timestamp, v)
            for m in self._messages
            for v in m.values.get(name, ())
        ]
        series.sort()
        return series

    def identifier_values(self, id_type: str) -> set[str]:
        return {
            v
            for m in self._messages
            for v in m.identifiers.get(id_type, ())
        }

    # -- JSON I/O ---------------------------------------------------------------------------

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(
            [m.to_dict() for m in self._messages], indent=indent
        )

    def dump(self, fp: IO[str]) -> None:
        fp.write(self.to_json())

    @classmethod
    def from_json(cls, text: str) -> "MessageStore":
        data = json.loads(text)
        return cls(IntelMessage.from_dict(item) for item in data)

    @classmethod
    def load(cls, fp: IO[str]) -> "MessageStore":
        return cls.from_json(fp.read())


@dataclass(slots=True)
class _Indexes:
    """Inverted indexes over a message list (insertion order preserved)."""

    by_key: dict[str, list[IntelMessage]]
    by_entity: dict[str, list[IntelMessage]]
    by_session: dict[str, list[IntelMessage]]

    @classmethod
    def build(cls, messages: list[IntelMessage]) -> "_Indexes":
        by_key: dict[str, list[IntelMessage]] = {}
        by_entity: dict[str, list[IntelMessage]] = {}
        by_session: dict[str, list[IntelMessage]] = {}
        for message in messages:
            by_key.setdefault(message.key_id, []).append(message)
            by_session.setdefault(message.session_id, []).append(message)
            for entity in dict.fromkeys(message.entities):
                by_entity.setdefault(entity, []).append(message)
        return cls(by_key=by_key, by_entity=by_entity,
                   by_session=by_session)


@dataclass(slots=True)
class ModelStore:
    """Persisted form of a trained IntelLog model.

    One JSON document carrying the pipeline config, the learned log keys
    (enough to rebuild the Spell parser) and the full ``HWGraph``
    serialization.  ``repro train`` writes it, ``repro detect`` /
    ``repro inspect`` / ``repro lint-model`` read it, and
    :meth:`validate` runs the static artifact checks over the payload.
    """

    config: dict[str, Any] = field(default_factory=dict)
    log_keys: list[dict[str, Any]] = field(default_factory=list)
    hw_graph: dict[str, Any] = field(default_factory=dict)

    # -- construction -------------------------------------------------------

    @classmethod
    def from_intellog(cls, intellog: "IntelLog") -> "ModelStore":
        """Snapshot a trained :class:`~repro.core.intellog.IntelLog`."""
        return cls(
            config={
                "spell_tau": intellog.config.spell_tau,
                "formatter": intellog.config.formatter,
            },
            log_keys=[
                {
                    "key_id": key.key_id,
                    "tokens": list(key.tokens),
                    "sample": key.sample,
                }
                for key in intellog.spell.keys()
            ],
            hw_graph=intellog.hw_graph().to_dict(),
        )

    def to_intellog(self) -> "IntelLog":
        """Full-fidelity restore: log keys, Intel Keys and the trained
        HW-graph (statistics included) are rebuilt from the payload."""
        from ..core.config import IntelLogConfig
        from ..core.intellog import IntelLog
        from ..detection.detector import AnomalyDetector
        from ..graph.hwgraph import HWGraph
        from ..parsing.spell import LogKey

        config = IntelLogConfig(
            spell_tau=float(self.config.get("spell_tau", 1.7)),
            formatter=str(self.config.get("formatter", "generic")),
        )
        intellog = IntelLog(config)
        for entry in self.log_keys:
            key = LogKey(
                key_id=entry["key_id"],
                tokens=list(entry["tokens"]),
                sample=entry["sample"],
            )
            intellog.spell._keys.append(key)  # restoring persisted state
            intellog.spell._next_id += 1
        intellog.spell._reindex()
        graph = HWGraph.from_dict(self.hw_graph)
        intellog.graph = graph
        intellog.intel_keys = dict(graph.intel_keys)
        intellog._detector = AnomalyDetector(
            graph, intellog.spell, intellog.extractor, config.detector,
        )
        return intellog

    # -- validation ---------------------------------------------------------

    def validate(self) -> "DiagnosticReport":
        """Static artifact checks over the serialized HW-graph."""
        from ..analysis.validate import validate_model_dict

        return validate_model_dict(self.hw_graph)

    # -- JSON I/O -----------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "config": self.config,
            "log_keys": self.log_keys,
            "hw_graph": self.hw_graph,
        }

    def canonical_bytes(self) -> bytes:
        """Canonical serialized form: sorted keys, tight separators.

        Two models are *the same model* iff their canonical bytes are
        equal; the golden-corpus regression suite and the trainer's
        equivalence tests compare models through
        :meth:`digest` rather than structurally.
        """
        return json.dumps(
            self.to_dict(),
            sort_keys=True,
            separators=(",", ":"),
            ensure_ascii=True,
        ).encode("ascii")

    def digest(self) -> str:
        """SHA-256 over :meth:`canonical_bytes`."""
        import hashlib

        return hashlib.sha256(self.canonical_bytes()).hexdigest()

    def to_json(self, indent: int | None = 2) -> str:
        """Indented JSON for readers; :meth:`save` writes the canonical
        form instead."""
        return json.dumps(self.to_dict(), indent=indent)

    def save(self, path: str | Path) -> None:
        """Write :meth:`canonical_bytes`: the bytes the registry
        publishes and :meth:`digest` hashes, so a saved file is its own
        digest's preimage."""
        Path(path).write_bytes(self.canonical_bytes())

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ModelStore":
        return cls(
            config=dict(data.get("config", {})),
            log_keys=list(data.get("log_keys", ())),
            hw_graph=dict(data.get("hw_graph", {})),
        )

    @classmethod
    def from_json(cls, text: str) -> "ModelStore":
        return cls.from_dict(json.loads(text))

    @classmethod
    def load_path(cls, path: str | Path) -> "ModelStore":
        return cls.from_json(Path(path).read_text())
