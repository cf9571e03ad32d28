"""The trainer behind :meth:`repro.core.IntelLog.train` (Figure 2, stages 1-3).

Two passes over the training sessions, both in corpus order:

* **Parse** (:func:`parse`) — every record is masked once
  (:func:`mask_message`) and its raw tokens are kept.  The first record
  of each distinct masked form is consumed by Spell, and every record of
  the form takes the key that call returned.  All records of one form take the same path
  through ``consume`` (it matches and merges masked tokens), and forms
  reach Spell in first-occurrence order, so this is the key table and
  per-record assignment of consuming every record; the per-key counts
  and line ids are then set in bulk
  (:meth:`SpellParser.rebuild_bookkeeping`).
* Between the passes, each Intel Key is extracted once, in Spell key
  order, by the model's own extractor, the entity grouping is built,
  and one :class:`KeyPlan` is compiled per Intel Key that feeds a group.
* **Fold** — each record of a planned key is aligned against the key's
  template and scattered into one row (:meth:`KeyPlan.row`, the step
  detection takes), and each session's rows are folded into the
  builder's :class:`~repro.graph.hwgraph.GraphPartial`.

Nothing depends on set or dict iteration order, so the model bytes are
the same under any ``PYTHONHASHSEED``.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from ..detection.detector import AnomalyDetector
from ..graph.hwgraph import HWGraphBuilder
from ..graph.subroutine import KeyPlan
from ..parsing.records import Session
from ..parsing.spell import (
    LogKey,
    SpellParser,
    extract_parameters,
    mask_message,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs import MetricsRegistry
    from .intellog import IntelLog


@dataclass(slots=True)
class TrainingSummary:
    """What the training phase produced."""

    sessions: int
    messages: int
    log_keys: int
    intel_keys: int
    entity_groups: int
    critical_groups: int
    ignored_keys: int


def parse(
    sessions: Iterable[Session], tau: float
) -> tuple[SpellParser, list[tuple[list[list[str]], list[str]]]]:
    """Pass 1: the Spell table of ``sessions`` and, per session, each
    record's raw tokens and key id."""
    spell = SpellParser(tau=tau)
    form_keys: dict[tuple[str, ...], str] = {}
    line_ids: defaultdict[str, list[int]] = defaultdict(list)
    parsed: list[tuple[list[list[str]], list[str]]] = []
    lines = 0
    for session in sessions:
        tokens: list[list[str]] = []
        keys: list[str] = []
        for record in session.records:
            masked, raw = mask_message(record.message)
            form = tuple(masked)
            key_id = form_keys.get(form)
            if key_id is None:
                key_id = spell.consume(record.message).key_id
                form_keys[form] = key_id
            lines += 1
            line_ids[key_id].append(lines)
            tokens.append(raw)
            keys.append(key_id)
        parsed.append((tokens, keys))
    spell.rebuild_bookkeeping(line_ids, lines)
    return spell, parsed


def train(
    intellog: "IntelLog",
    sessions: Iterable[Session],
    *,
    registry: "MetricsRegistry | None" = None,
) -> TrainingSummary:
    """Build a fresh model from ``sessions`` and install it on ``intellog``.

    ``registry`` receives the ``train`` span and its ``train.parse``,
    ``train.extract``, ``train.fold`` and ``train.build`` children in
    its ``trace_span_seconds`` histogram.
    """
    # Imported here: ``import repro`` does not load ``repro.obs``, and a
    # module-level import would add about 10 ms and 0.2 MB to it.
    from ..obs import Tracer

    config = intellog.config
    tracer = Tracer(registry=registry)
    with tracer.span("train"):
        session_list = list(sessions)
        with tracer.span("train.parse"):
            spell, parsed = parse(session_list, config.spell_tau)

        with tracer.span("train.extract"):
            build_intel_key = intellog.extractor.build_intel_key
            intel_keys = {
                key.key_id: build_intel_key(LogKey(
                    key_id=key.key_id,
                    tokens=list(key.tokens),
                    sample=key.sample,
                ))
                for key in spell.keys()
            }
            builder = HWGraphBuilder(intel_keys)
            key_groups = builder.sorted_key_groups
            plans = {
                key_id: KeyPlan.compile(intel_keys[key_id], labels)
                for key_id, labels in key_groups.items()
                if labels
            }

        with tracer.span("train.fold"):
            add_session = builder.partial.add_session
            for session, (tokens, keys) in zip(session_list, parsed):
                rows = []
                for record, raw, key_id in zip(session.records, tokens, keys):
                    plan = plans.get(key_id)
                    if plan is None:
                        continue
                    captures = extract_parameters(plan.template, raw)
                    if captures is not None:
                        rows.append(plan.row(record.timestamp, captures))
                add_session(rows, key_groups)

        with tracer.span("train.build"):
            graph = builder.build()

        intellog.spell = spell
        intellog.intel_keys = intel_keys
        intellog.graph = graph
        if config.validate_model:
            intellog._validate_graph()
        intellog._detector = AnomalyDetector(
            graph, spell, intellog.extractor, config.detector
        )

    return TrainingSummary(
        sessions=len(session_list),
        messages=sum(len(keys) for _, keys in parsed),
        log_keys=len(spell),
        intel_keys=len(intel_keys),
        entity_groups=len(graph.groups),
        critical_groups=len(graph.critical_groups()),
        ignored_keys=len(graph.ignored_keys),
    )
