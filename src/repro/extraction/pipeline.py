"""The information-extraction pipeline: log key -> Intel Key (paper §3).

The pipeline implements Figure 3/Figure 4's process end to end:

1. POS-tag the key's *sample* log message (tagging the starred template
   directly would be inaccurate — §3) and copy tags onto the template by
   aligning sample tokens with template tokens;
2. extract entities from the constant tokens via the Table 2 POS patterns
   and the camel-case filter;
3. classify every variable field as identifier / value / locality with the
   four heuristics of §3.1;
4. extract operations by parsing the tagged sample sentence (§3.2);
5. assemble the :class:`~repro.extraction.intelkey.IntelKey`; incoming
   messages matched to the key become
   :class:`~repro.extraction.intelkey.IntelMessage` objects.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..nlp.camelcase import FilterChain, make_default_chain
from ..nlp.depparser import parse_tagged
from ..nlp.postagger import TaggedToken, tag
from ..parsing.spell import STAR, LogKey, extract_parameters, mask_message
from .entities import extract_entities
from .idvalue import FieldClassifier, FieldRole
from .intelkey import FieldSpec, IntelKey, IntelMessage
from .locality import LocalityExtractor
from .operations import extract_operations

_NUMBER_RE = re.compile(r"^-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?$")

# A message is a key-value dump (not natural language, paper §5) when it is
# dominated by "name=value" or "name: value" pairs.
_KV_PAIR_RE = re.compile(r"[\w.\-]+\s*[:=]\s*[\w.\-/]+")


@dataclass(slots=True)
class AlignedTemplate:
    """Template tokens aligned with the tagged sample message.

    ``slots[i]`` is either the index of the sample token matching constant
    template token ``i``, or the ``(start, end)`` sample span captured by a
    star.
    """

    template: list[str]
    sample_tokens: list[TaggedToken]
    slots: list[int | tuple[int, int]]


def align_template(
    template: list[str], sample_tokens: list[TaggedToken]
) -> AlignedTemplate | None:
    """Greedy alignment of template constants against the sample tokens."""
    slots: list[int | tuple[int, int]] = []
    sample_words = [t.text for t in sample_tokens]
    i = 0
    j = 0
    n, m = len(template), len(sample_words)
    while i < n:
        tok = template[i]
        if tok != STAR:
            if j < m and sample_words[j] == tok:
                slots.append(j)
                i += 1
                j += 1
                continue
            return None
        nxt = i + 1
        while nxt < n and template[nxt] == STAR:
            nxt += 1
        if nxt == n:
            slots.append((j, m))
            # Collapsed stars share the trailing span.
            for _ in range(nxt - i - 1):
                slots.append((m, m))
            i = nxt
            j = m
            break
        anchor = template[nxt]
        k = j
        while k < m and sample_words[k] != anchor:
            k += 1
        if k == m:
            return None
        slots.append((j, k))
        for _ in range(nxt - i - 1):
            slots.append((k, k))
        i = nxt
        j = k
    if i != n or j > m:
        return None
    return AlignedTemplate(template, sample_tokens, slots)


def is_key_value_dump(message: str) -> bool:
    """Heuristic for §5's "log messages that only consist of a set of
    key-value pairs"."""
    pairs = _KV_PAIR_RE.findall(message)
    if not pairs:
        return False
    pair_chars = sum(len(p) for p in pairs)
    return pair_chars >= 0.6 * max(len(message.strip()), 1)


class InformationExtractor:
    """Transforms log keys into Intel Keys and messages into Intel
    Messages."""

    def __init__(
        self,
        filters: FilterChain | None = None,
        locality: LocalityExtractor | None = None,
    ) -> None:
        self.filters = filters or make_default_chain()
        self.locality = locality or LocalityExtractor()
        self.classifier = FieldClassifier(self.locality)

    # -- key-level extraction ------------------------------------------------

    def build_intel_key(self, log_key: LogKey) -> IntelKey:
        """Run the full §3 pipeline on one log key."""
        sample_tokens = tag(log_key.sample)
        aligned = align_template(list(log_key.tokens), sample_tokens)
        natural = not is_key_value_dump(log_key.sample)

        if aligned is None:
            # The sample no longer aligns (template evolved after later
            # merges).  Fall back to tagging the template itself.
            template_tokens = tag(" ".join(log_key.tokens))
            entities = extract_entities(template_tokens, self.filters)
            operations = extract_operations(parse_tagged(template_tokens))
            return IntelKey(
                key_id=log_key.key_id,
                template=tuple(log_key.tokens),
                sample=log_key.sample,
                entities=tuple(e.phrase for e in entities),
                fields=(),
                operations=tuple(operations),
                natural_language=natural and any(
                    op for op in operations
                ),
            )

        # Build the tagged view of the template: constants carry the sample
        # token's tag; stars become SYM placeholders (entity patterns must
        # not bridge across variable fields).
        template_tagged: list[TaggedToken] = []
        star_spans: list[tuple[int, int]] = []
        for tmpl_tok, slot in zip(aligned.template, aligned.slots):
            if tmpl_tok == STAR:
                star_spans.append(slot)  # type: ignore[arg-type]
                template_tagged.append(
                    TaggedToken(STAR, "SYM", "star", -1)
                )
            else:
                sample_tok = sample_tokens[slot]  # type: ignore[index]
                template_tagged.append(sample_tok)

        entities = extract_entities(template_tagged, self.filters)

        # Classify variable fields using their sample captures and the
        # neighbouring constant tokens.
        fields: list[FieldSpec] = []
        star_positions = [
            idx for idx, tok in enumerate(aligned.template) if tok == STAR
        ]
        for pos, (tmpl_idx, span) in enumerate(
            zip(star_positions, star_spans)
        ):
            start, end = span
            captured = sample_tokens[start:end]
            prev_tok = self._neighbor(template_tagged, tmpl_idx, -1)
            next_tok = self._neighbor(template_tagged, tmpl_idx, +1)
            immediate = (
                template_tagged[tmpl_idx - 1] if tmpl_idx > 0 else None
            )
            result = self.classifier.classify(
                captured, prev_tok, next_tok,
                after_assignment=(
                    immediate is not None and immediate.tag == ":"
                ),
            )
            fields.append(
                FieldSpec(
                    position=pos,
                    role=result.role,
                    name=result.name,
                    unit=result.unit,
                )
            )

        # Operations are extracted from the starred template view so that
        # variable slots render as "*" in the triples (paper Figure 4); we
        # fall back to the sample parse when the template yields no clause.
        template_parse = parse_tagged(template_tagged)
        operations = extract_operations(template_parse)
        if not operations:
            sample_parse = parse_tagged(sample_tokens)
            operations = extract_operations(sample_parse)
            natural = natural and sample_parse.has_clause()
        else:
            natural = natural and template_parse.has_clause()

        return IntelKey(
            key_id=log_key.key_id,
            template=tuple(log_key.tokens),
            sample=log_key.sample,
            entities=tuple(e.phrase for e in entities),
            fields=tuple(fields),
            operations=tuple(operations),
            natural_language=natural,
        )

    def build_all(self, log_keys: list[LogKey]) -> dict[str, IntelKey]:
        return {k.key_id: self.build_intel_key(k) for k in log_keys}

    # -- message-level extraction ---------------------------------------------

    def to_intel_message(
        self,
        intel_key: IntelKey,
        message: str,
        timestamp: float = 0.0,
        session_id: str = "",
        captures: list[str] | None = None,
    ) -> IntelMessage | None:
        """Instantiate an Intel Message for a message matching the key.

        The captures come from aligning the key's template against the
        message's surface tokens, read from the chunk memo behind
        :func:`~repro.parsing.spell.mask_message`, which already holds
        every chunk of a message that was masked or matched before (all
        of them, in training), so the regex tokenizer runs at most once
        per distinct chunk.  ``captures`` skips the alignment — pass it
        only when it is exactly what that alignment would return (see
        :func:`repro.detection.detector.match_captures`).
        """
        if captures is None:
            captures = extract_parameters(
                list(intel_key.template), mask_message(message)[1]
            )
        if captures is None:
            return None
        msg = IntelMessage(
            key_id=intel_key.key_id,
            timestamp=timestamp,
            session_id=session_id,
            message=message,
            entities=intel_key.entities,
            operations=intel_key.operations,
        )
        for spec, value in zip(intel_key.fields, captures):
            if spec.role == FieldRole.IDENTIFIER:
                msg.identifiers.setdefault(spec.name, []).append(value)
            elif spec.role == FieldRole.VALUE:
                number = to_number(value)
                if number is not None:
                    msg.values.setdefault(spec.name, []).append(number)
                else:
                    msg.identifiers.setdefault(spec.name.upper(), []).append(
                        value
                    )
            elif spec.role == FieldRole.LOCALITY:
                msg.localities.setdefault(spec.name, []).append(value)
        return msg

    @staticmethod
    def _neighbor(
        tokens: list[TaggedToken], idx: int, step: int
    ) -> TaggedToken | None:
        """Nearest non-star, non-bracket neighbour of template position."""
        j = idx + step
        while 0 <= j < len(tokens):
            tok = tokens[j]
            # Punctuation ("loss = 2.3", "fetcher # 1", brackets) does not
            # separate a field from its naming noun.
            if tok.kind != "star" and tok.tag not in (
                "-LRB-", "-RRB-", "#", ":", ",",
            ):
                return tok
            j += step
        return None


def to_number(text: str) -> float | None:
    """The number a VALUE capture reads as, or ``None`` when it is not
    one (the capture then files as an identifier)."""
    text = text.strip()
    if _NUMBER_RE.match(text):
        return float(text)
    parts = text.split()
    if parts and _NUMBER_RE.match(parts[0]):
        return float(parts[0])
    return None
