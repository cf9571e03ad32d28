"""Rule-and-lexicon Penn Treebank POS tagger for log text.

The tagger follows the classic two-stage design (lexical assignment followed
by contextual patch rules, after Brill 1992), specialised for the log genre:

* token *kinds* from the log-aware tokenizer pin down numerals (``CD``),
  identifiers and variable fields (``SYM``) and localities before any
  lexical lookup happens;
* unknown open-class words are resolved by morphological suffix rules;
* a small set of contextual rules disambiguates noun/verb homographs that
  are rampant in system logs ("map", "block", "store", "fetch", ...).

IntelLog feeds the tagger a *sample log message* for each log key and copies
the resulting tags back onto the key (paper §3, Figure 3); that logic lives
in :mod:`repro.extraction.pipeline` — this module only tags token sequences.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lexicon import build_lexicon
from .tags import is_adjective, is_noun
from .tokenizer import Token, tokenize

_BE_FORMS = frozenset({"be", "am", "is", "are", "was", "were", "been",
                       "being"})
_HAVE_FORMS = frozenset({"have", "has", "had", "having"})

_NOUN_SUFFIXES = (
    "tion", "sion", "ment", "ness", "ance", "ence", "ship", "hood",
    "ism", "ist", "ure", "age", "cy", "ery", "ory",
)
_ADJ_SUFFIXES = (
    "able", "ible", "ous", "ive", "ful", "less", "ish", "ary", "ic",
    "ical", "ual", "ant", "ent",
)


@dataclass(frozen=True, slots=True)
class TaggedToken:
    """A token with its assigned Penn Treebank tag."""

    text: str
    tag: str
    kind: str
    start: int

    @property
    def lower(self) -> str:
        return self.text.lower()


def _is_camel(word: str) -> bool:
    return any(c.isupper() for c in word[1:]) and any(
        c.islower() for c in word
    )


def _lexical_candidates(token: Token) -> tuple[str, ...]:
    """Candidate tags for one token, most likely first."""
    if token.kind == "number":
        return ("CD",)
    if token.kind in ("ident", "star"):
        return ("SYM",)
    if token.kind in ("hostport", "path"):
        return ("SYM",)
    if token.kind == "punct":
        ch = token.text
        if ch in "([{":
            return ("-LRB-",)
        if ch in ")]}":
            return ("-RRB-",)
        if ch in ".!?;":
            return (".",)
        if ch == ",":
            return (",",)
        if ch in ":/\\|=<>@&+~^%'\"`":
            return (":",)
        if ch == "#":
            return ("#",)
        if ch == "$":
            return ("$",)
        return ("SYM",)

    word = token.text
    lexicon = build_lexicon()
    entry = lexicon.get(word.lower())
    if entry:
        return entry

    # Unknown word: morphological back-off.
    lower = word.lower()
    if _is_camel(word):
        return ("NNP",)
    if lower.endswith("ly"):
        return ("RB",)
    if lower.endswith("ing"):
        return ("VBG", "NN")
    if lower.endswith("ed"):
        return ("VBN", "VBD", "JJ")
    for suffix in _ADJ_SUFFIXES:
        if lower.endswith(suffix) and len(lower) > len(suffix) + 2:
            return ("JJ", "NN")
    for suffix in _NOUN_SUFFIXES:
        if lower.endswith(suffix) and len(lower) > len(suffix) + 1:
            return ("NN",)
    if word[0].isupper():
        if lower.endswith("s"):
            return ("NNPS", "NNP")
        return ("NNP",)
    if lower.endswith("s") and len(lower) > 3:
        return ("NNS", "NN", "VBZ")
    return ("NN",)


def _pick(candidates: tuple[str, ...], *preferred: str) -> str | None:
    """Return the first candidate matching any preferred tag prefix."""
    for pref in preferred:
        for cand in candidates:
            if cand == pref or cand.startswith(pref):
                return cand
    return None


def tag_tokens(tokens: list[Token]) -> list[TaggedToken]:
    """Assign a Penn tag to every token with contextual disambiguation."""
    candidate_sets = [_lexical_candidates(tok) for tok in tokens]
    tags: list[str] = [cands[0] for cands in candidate_sets]

    for i, (tok, cands) in enumerate(zip(tokens, candidate_sets)):
        if len(cands) == 1:
            continue
        prev_tag = tags[i - 1] if i > 0 else None
        prev_word = tokens[i - 1].text.lower() if i > 0 else None
        next_cands = candidate_sets[i + 1] if i + 1 < len(tokens) else ()

        chosen: str | None = None

        # Rule 1: after "to" use the base verb reading if one exists.
        if prev_tag == "TO":
            chosen = _pick(cands, "VB")
        # Rule 2: after a modal use the base verb reading.
        elif prev_tag == "MD":
            chosen = _pick(cands, "VB")
        # Rule 3: after a form of "be", prefer gerund/participle/adjective.
        elif prev_word in _BE_FORMS:
            chosen = _pick(cands, "VBG", "VBN", "JJ")
        # Rule 4: after a form of "have", prefer past participle.
        elif prev_word in _HAVE_FORMS:
            chosen = _pick(cands, "VBN")
        # Rule 5: after a determiner/adjective/possessive the word is
        # nominal ("the map output", "a failed fetch").
        elif prev_tag is not None and (
            prev_tag in ("DT", "PDT", "PRP$") or is_adjective(prev_tag)
        ):
            chosen = _pick(cands, "NN", "JJ")
        # Rule 6: after a preposition the head is nominal
        # ("of map output", "for attempt").
        elif prev_tag in ("IN",):
            chosen = _pick(cands, "NN", "JJ", "CD")
        # Rule 7: noun-noun compounds — if the next token is clearly nominal
        # and this word could be a noun, keep the noun reading
        # ("map(NN) output", "event(NN) fetcher").
        elif _pick(cands, "NN") and next_cands and all(
            is_noun(c) for c in next_cands[:1]
        ):
            chosen = _pick(cands, "NN")
        # Rule 8: sentence-initial gerunds/participles are verbal in logs
        # ("Starting ...", "Registered ...") — but a word whose primary
        # reading is nominal ("Block ...") keeps it.
        elif i == 0:
            chosen = _pick(cands, "VBG", "VBN") or cands[0]
        # Rule 9: a VBZ candidate after a nominal subject is the predicate
        # ("fetcher reads ...", "driver requested ...").
        elif prev_tag is not None and (
            is_noun(prev_tag) or prev_tag in ("SYM", "CD", "PRP")
        ):
            chosen = _pick(cands, "VBZ", "VBD", "VBP", "VBN", "VBG")

        if chosen:
            tags[i] = chosen

    return [
        TaggedToken(tok.text, tag, tok.kind, tok.start)
        for tok, tag in zip(tokens, tags)
    ]


def tag(text: str) -> list[TaggedToken]:
    """Tokenize and POS-tag ``text``."""
    return tag_tokens(tokenize(text))
