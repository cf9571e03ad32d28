"""Log template DSL with ground-truth annotations.

The simulators stand in for the paper's physical cluster: every log line
they emit is rendered from a :class:`Template` — the analogue of a log
printing statement in the targeted system's source code.  Each template
declares the *true* semantic roles of its variable fields and its true
entities and operations, which is exactly the information the paper's
authors recovered by "manually comparing Intel Keys with the corresponding
logging statements in the source code" (§6.2).  The accuracy benchmarks
(Table 4) compare IntelLog's extraction against these annotations; the
analysis pipeline itself never sees them.

Template text uses ``{name}`` placeholders; ``roles`` maps each placeholder
to its true role.  Example::

    Template(
        "mr.fetcher.shuffle",
        "fetcher#{fid} about to shuffle output of map {attempt}",
        roles={"fid": Role.IDENTIFIER, "attempt": Role.IDENTIFIER},
        entities=("fetcher", "output of map"),
        operations=(("fetcher", "shuffle", "output"),),
        source="Fetcher",
    )
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Iterable

from ..parsing.records import GroundTruth


class Role(str, Enum):
    """True semantic role of a template placeholder."""

    IDENTIFIER = "identifier"
    VALUE = "value"
    LOCALITY = "locality"


_PLACEHOLDER_RE = re.compile(r"\{(\w+)\}")


@dataclass(frozen=True, slots=True)
class Template:
    """One logging statement of a simulated system."""

    template_id: str
    text: str
    roles: dict[str, Role] = field(default_factory=dict)
    entities: tuple[str, ...] = ()
    operations: tuple[tuple[str, str, str], ...] = ()
    source: str = "Component"
    level: str = "INFO"
    #: False for key-value dump statements (not natural language).
    natural: bool = True
    #: True for statements only emitted on injected fault paths.
    anomalous: bool = False

    def placeholders(self) -> list[str]:
        return _PLACEHOLDER_RE.findall(self.text)

    def __post_init__(self) -> None:
        missing = [p for p in self.placeholders() if p not in self.roles]
        if missing:
            raise ValueError(
                f"template {self.template_id}: placeholders without "
                f"declared roles: {missing}"
            )

    def render(self, **values: Any) -> tuple[str, GroundTruth]:
        """Substitute placeholder values, returning message + truth."""
        fields: dict[str, str] = {}

        def sub(match: re.Match[str]) -> str:
            name = match.group(1)
            try:
                value = str(values[name])
            except KeyError:
                raise KeyError(
                    f"template {self.template_id}: missing value for "
                    f"placeholder {name!r}"
                ) from None
            fields[value] = self.roles[name].value
            return value

        message = _PLACEHOLDER_RE.sub(sub, self.text)
        truth = GroundTruth(
            template_id=self.template_id,
            fields=fields,
            entities=self.entities,
            operations=self.operations,
            anomalous=self.anomalous,
        )
        return message, truth


class TemplateCatalog:
    """All logging statements of one simulated system."""

    def __init__(self, system: str,
                 templates: Iterable[Template] = ()) -> None:
        self.system = system
        self._templates: dict[str, Template] = {}
        for template in templates:
            self.add(template)

    def add(self, template: Template) -> Template:
        if template.template_id in self._templates:
            raise ValueError(
                f"duplicate template id {template.template_id!r}"
            )
        self._templates[template.template_id] = template
        return template

    def get(self, template_id: str) -> Template:
        return self._templates[template_id]

    def __contains__(self, template_id: str) -> bool:
        return template_id in self._templates

    def __len__(self) -> int:
        return len(self._templates)

    def all(self) -> list[Template]:
        return list(self._templates.values())

    # -- aggregate ground truth (feeds Table 4) -----------------------------------

    def true_entities(self) -> set[str]:
        return {
            entity
            for template in self._templates.values()
            for entity in template.entities
        }

    def role_counts(self) -> dict[Role, int]:
        """Number of placeholder fields per role across all templates."""
        counts: dict[Role, int] = {role: 0 for role in Role}
        for template in self._templates.values():
            for role in template.roles.values():
                counts[role] += 1
        return counts
