"""Intel Keys and Intel Messages (paper §2.1, §3.3).

An **Intel Key** is the enhanced representation of a log key: a key-value
structure recording the key's entities, the role and name of every variable
field (identifier / value / locality), and the operations extracted from its
sentence structure.

An **Intel Message** is a concrete log message matched against its Intel
Key: variable fields are replaced by the actual values, producing a
collection of key-value pairs that "naturally fits in the storage structure
of time series databases" — here serialisable to JSON and queryable through
:mod:`repro.query`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .idvalue import FieldRole
from .operations import Operation


@dataclass(frozen=True, slots=True)
class FieldSpec:
    """Specification of one variable (``*``) field of an Intel Key.

    ``position`` is the index of the star among the template's star fields
    (0-based, in template order).
    """

    position: int
    role: FieldRole
    name: str
    unit: str | None = None

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "position": self.position,
            "role": self.role.value,
            "name": self.name,
        }
        if self.unit:
            data["unit"] = self.unit
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FieldSpec":
        return cls(
            position=data["position"],
            role=FieldRole(data["role"]),
            name=data["name"],
            unit=data.get("unit"),
        )


@dataclass(slots=True)
class IntelKey:
    """Enhanced, structured representation of a log key."""

    key_id: str
    template: tuple[str, ...]
    sample: str
    entities: tuple[str, ...] = ()
    fields: tuple[FieldSpec, ...] = ()
    operations: tuple[Operation, ...] = ()
    #: True when the message is a key-value dump rather than natural
    #: language; such keys are learned but ignored by anomaly detection
    #: (paper §5).
    natural_language: bool = True

    @property
    def template_text(self) -> str:
        return " ".join(self.template)

    def fields_with_role(self, role: FieldRole) -> list[FieldSpec]:
        return [f for f in self.fields if f.role == role]

    @property
    def identifier_types(self) -> tuple[str, ...]:
        """The set of identifier type names this key mentions, sorted."""
        return tuple(
            sorted({f.name for f in self.fields_with_role(
                FieldRole.IDENTIFIER)})
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "key_id": self.key_id,
            "template": list(self.template),
            "sample": self.sample,
            "entities": list(self.entities),
            "fields": [f.to_dict() for f in self.fields],
            "operations": [
                {
                    "subject": op.subject,
                    "predicate": op.predicate,
                    "object": op.obj,
                    "surface": op.surface,
                }
                for op in self.operations
            ],
            "natural_language": self.natural_language,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "IntelKey":
        return cls(
            key_id=data["key_id"],
            template=tuple(data["template"]),
            sample=data["sample"],
            entities=tuple(data["entities"]),
            fields=tuple(
                FieldSpec.from_dict(f) for f in data["fields"]
            ),
            operations=tuple(
                Operation(
                    subject=op["subject"],
                    predicate=op["predicate"],
                    obj=op["object"],
                    surface=op.get("surface", ""),
                )
                for op in data["operations"]
            ),
            natural_language=data.get("natural_language", True),
        )


@dataclass(slots=True)
class IntelMessage:
    """A log message structured by its Intel Key.

    All maps are multi-valued because one key may carry several fields of
    the same name (e.g. two TASK identifiers).
    """

    key_id: str
    timestamp: float
    session_id: str
    message: str
    identifiers: dict[str, list[str]] = field(default_factory=dict)
    values: dict[str, list[float]] = field(default_factory=dict)
    localities: dict[str, list[str]] = field(default_factory=dict)
    entities: tuple[str, ...] = ()
    operations: tuple[Operation, ...] = ()

    @property
    def identifier_values(self) -> set[str]:
        """Flat set of all identifier values (Algorithm 2's ``log.S_v``)."""
        return {v for vals in self.identifiers.values() for v in vals}

    @property
    def identifier_signature(self) -> tuple[str, ...]:
        """Sorted identifier *types* present (UpdateSubroutine signature)."""
        return tuple(sorted(self.identifiers))

    def to_dict(self) -> dict[str, Any]:
        return {
            "key_id": self.key_id,
            "timestamp": self.timestamp,
            "session_id": self.session_id,
            "message": self.message,
            "identifiers": self.identifiers,
            "values": self.values,
            "localities": self.localities,
            "entities": list(self.entities),
            "operations": [
                {
                    "subject": op.subject,
                    "predicate": op.predicate,
                    "object": op.obj,
                }
                for op in self.operations
            ],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "IntelMessage":
        return cls(
            key_id=data["key_id"],
            timestamp=data["timestamp"],
            session_id=data["session_id"],
            message=data["message"],
            identifiers={k: list(v) for k, v in data["identifiers"].items()},
            values={k: [float(x) for x in v]
                    for k, v in data["values"].items()},
            localities={k: list(v) for k, v in data["localities"].items()},
            entities=tuple(data.get("entities", ())),
            operations=tuple(
                Operation(op["subject"], op["predicate"], op["object"])
                for op in data.get("operations", ())
            ),
        )
