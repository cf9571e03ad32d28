"""Entity extraction via POS patterns and the camel-case filter (paper §3.1).

Entities are terminological noun phrases.  Following Justeson & Katz (1995),
the paper matches seven multi-word POS patterns plus single-word nouns
(Table 2), then applies a camel-case word filter for class-name entities
("MapTask" -> "map task"), and finally lemmatizes phrases to singular form.

Unit words are excluded as standalone entities (Figure 4 "omit 'bytes' since
it is a unit") and so are bare abbreviation-like tokens without vowels.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..nlp.camelcase import FilterChain, make_default_chain
from ..nlp.lemmatizer import lemmatize_phrase
from ..nlp.lexicon import is_measure_unit
from ..nlp.postagger import TaggedToken
from ..nlp.tags import coarse

#: Table 2 patterns over the coarse tag alphabet, longest first so the
#: matcher is maximal-munch.  'NN' covers NN/NNS/NNP/NNPS, 'JJ' covers
#: JJ/JJR/JJS, 'IN' is the preposition tag.
POS_PATTERNS: tuple[tuple[str, ...], ...] = (
    ("JJ", "JJ", "NN"),
    ("JJ", "NN", "NN"),
    ("NN", "JJ", "NN"),
    ("NN", "NN", "NN"),
    ("NN", "IN", "NN"),
    ("JJ", "NN"),
    ("NN", "NN"),
    ("NN",),
)

#: POS_PATTERNS by first tag, in order: a position whose tag heads no
#: pattern cannot start an entity.
_PATTERNS_BY_HEAD: dict[str, tuple[tuple[str, ...], ...]] = {
    head: tuple(p for p in POS_PATTERNS if p[0] == head)
    for head in dict.fromkeys(p[0] for p in POS_PATTERNS)
}


@dataclass(frozen=True, slots=True)
class Entity:
    """An extracted entity phrase.

    ``words`` is the lemmatized phrase; ``span`` is the (start, end)
    token-index range in the source token list; ``pattern`` records which
    Table 2 pattern (or ``camel``) produced it.
    """

    words: tuple[str, ...]
    span: tuple[int, int]
    pattern: str

    @property
    def phrase(self) -> str:
        return " ".join(self.words)

    def __str__(self) -> str:  # pragma: no cover
        return self.phrase


def _has_vowel(word: str) -> bool:
    return any(c in "aeiouy" for c in word.lower())


def _eligible_single(token: TaggedToken) -> bool:
    """Is this noun token a valid standalone entity?"""
    word = token.text
    if is_measure_unit(word):
        return False
    if len(word) < 2:
        return False
    if not _has_vowel(word):
        # voweless tokens ("tid", "rpc") are abbreviations; the paper counts
        # those extracted as entities among its false positives, so we skip
        # the clearly opaque ones but keep common acronyms tagged as nouns.
        return False
    return True


def _value_unit_positions(tokens: list[TaggedToken]) -> set[int]:
    """Indices of unit nouns directly after a number/star ("2264 bytes")."""
    positions: set[int] = set()
    for i in range(1, len(tokens)):
        if is_measure_unit(tokens[i].text) and tokens[i - 1].tag in ("CD", "SYM"):
            positions.add(i)
    return positions


def extract_entities(
    tokens: list[TaggedToken],
    filters: FilterChain | None = None,
) -> list[Entity]:
    """Extract entity phrases from a tagged token sequence.

    Pattern matching is maximal-munch left-to-right: at each position the
    longest Table 2 pattern that fits is taken and matching resumes after
    it.  Camel-case nouns additionally yield their split phrase.
    """
    if filters is None:
        filters = make_default_chain()

    coarse_tags = tuple(coarse(t.tag) for t in tokens)
    unit_positions = _value_unit_positions(tokens)
    entities: list[Entity] = []

    i = 0
    n = len(tokens)
    while i < n:
        # Camel-case class names are self-contained entities ("BlockManager"
        # -> "block manager"); they never join a multi-word POS pattern.
        if tokens[i].kind == "word":
            parts = filters.split(tokens[i].text)
            if parts:
                lemma = lemmatize_phrase(parts, ["NN"] * len(parts))
                entities.append(
                    Entity(
                        words=tuple(lemma),
                        span=(i, i + 1),
                        pattern="camel",
                    )
                )
                i += 1
                continue
        matched = False
        for pattern in _PATTERNS_BY_HEAD.get(coarse_tags[i], ()):
            end = i + len(pattern)
            if end > n:
                continue
            if coarse_tags[i:end] != pattern:
                continue
            # Head of the phrase must not be a measurement unit of a value,
            # and prepositional patterns must not bridge units.
            span_tokens = tokens[i:end]
            if any(
                idx in unit_positions for idx in range(i, end)
            ):
                break  # the number's unit starts a value, not an entity
            if len(pattern) == 1 and not _eligible_single(span_tokens[0]):
                break
            if any(t.kind != "word" for t in span_tokens):
                break
            # Reject phrases whose last word is a unit ("output of bytes").
            if is_measure_unit(span_tokens[-1].text) and len(pattern) > 1:
                break
            words = [t.text for t in span_tokens]
            tags = [t.tag for t in span_tokens]
            # Split any camel-case member in place.
            flat_words: list[str] = []
            flat_tags: list[str] = []
            for w, tg in zip(words, tags):
                parts = filters.split(w)
                if parts:
                    flat_words.extend(parts)
                    flat_tags.extend(["NN"] * len(parts))
                else:
                    flat_words.append(w)
                    flat_tags.append(tg)
            lemma = lemmatize_phrase(flat_words, flat_tags)
            entities.append(
                Entity(
                    words=tuple(lemma),
                    span=(i, end),
                    pattern=" ".join(pattern),
                )
            )
            i = end
            matched = True
            break
        if not matched:
            # A camel-case word was taken above, before the patterns.
            i += 1
    return _dedupe(entities)


def _dedupe(entities: list[Entity]) -> list[Entity]:
    seen: set[tuple[str, ...]] = set()
    out: list[Entity] = []
    for entity in entities:
        if entity.words not in seen:
            seen.add(entity.words)
            out.append(entity)
    return out
