"""Shallow Universal Dependencies parser for log sentences.

IntelLog's operation extraction (paper §3.2, Table 3) needs seven UD
relations: ``ROOT``, ``xcomp``, ``nsubj``, ``nsubjpass``, ``dobj``, ``iobj``
and ``nmod``.  Log keys are overwhelmingly simple single-clause sentences
("fetcher #1 about to shuffle output of map *", "* freed by fetcher #1 in
*"), so a deterministic shallow parser recovers these relations reliably:

1. locate the clausal predicate (finite verb; sentence-initial participle or
   gerund; or an infinitive after "about to"/"ready to" patterns);
2. detect the passive voice (participle predicate with a *by*-phrase or a
   preceding form of "be");
3. attach the noun-phrase head left of the predicate as ``nsubj`` (or
   ``nsubjpass``), the bare NP right of it as ``dobj``, a second bare NP as
   ``iobj``, and prepositional NPs as ``nmod``;
4. attach chained infinitives/participles as ``xcomp`` of the main verb.

The parser also reports whether the sentence contains at least one clause —
the paper's working definition of a "natural language" log message (§2.2,
Table 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .postagger import TaggedToken, tag
from .tags import is_noun, is_verb

#: The seven UD relations used by operation extraction (Table 3).
RELATIONS = ("ROOT", "xcomp", "nsubj", "nsubjpass", "dobj", "iobj", "nmod")

_BE_FORMS = frozenset({"be", "am", "is", "are", "was", "were", "been",
                       "being"})
_NP_TAGS_HEAD = is_noun  # head of an NP must be a noun


@dataclass(frozen=True, slots=True)
class Arc:
    """One dependency arc: ``relation(head -> dependent)`` by token index.

    ``head`` is -1 for the ROOT arc.
    """

    head: int
    dep: int
    relation: str


@dataclass(slots=True)
class Parse:
    """Parse result: tagged tokens plus dependency arcs."""

    tokens: list[TaggedToken]
    arcs: list[Arc] = field(default_factory=list)

    @property
    def root(self) -> int | None:
        for arc in self.arcs:
            if arc.relation == "ROOT":
                return arc.dep
        return None

    def dependents(self, head: int, relation: str | None = None) -> list[int]:
        return [
            arc.dep
            for arc in self.arcs
            if arc.head == head
            and (relation is None or arc.relation == relation)
        ]

    def has_clause(self) -> bool:
        """True if the sentence contains at least one clause (a predicate)."""
        return self.root is not None


def _np_spans(tokens: list[TaggedToken]) -> list[tuple[int, int]]:
    """Maximal noun-phrase spans as (start, end_exclusive) index pairs.

    A span is a contiguous run of DT/JJ/NN/CD/SYM/#-tokens containing at
    least one noun or SYM/CD token.
    """
    spans: list[tuple[int, int]] = []
    i = 0
    n = len(tokens)
    while i < n:
        t = tokens[i]
        if (
            is_noun(t.tag)
            or t.tag in ("DT", "PDT", "PRP$", "CD", "SYM", "#")
            or t.tag in ("JJ", "JJR", "JJS")
        ):
            j = i
            has_head = False
            while j < n:
                tj = tokens[j]
                if is_noun(tj.tag) or tj.tag in ("CD", "SYM"):
                    has_head = True
                    j += 1
                elif tj.tag in ("DT", "PDT", "PRP$", "JJ", "JJR", "JJS", "#"):
                    j += 1
                else:
                    break
            if has_head and j > i:
                spans.append((i, j))
                i = j
                continue
        i += 1
    return spans


def _np_head(tokens: list[TaggedToken], span: tuple[int, int]) -> int:
    """Index of the head of an NP span: the last noun, else last SYM/CD."""
    start, end = span
    for i in range(end - 1, start - 1, -1):
        if is_noun(tokens[i].tag):
            return i
    for i in range(end - 1, start - 1, -1):
        if tokens[i].tag in ("SYM", "CD"):
            return i
    return end - 1


def _find_predicates(tokens: list[TaggedToken]) -> list[int]:
    """Indices of verbal tokens, in surface order."""
    return [i for i, t in enumerate(tokens) if is_verb(t.tag)]


def _main_predicate(tokens: list[TaggedToken],
                    verbs: list[int]) -> tuple[int | None, bool]:
    """Pick the main predicate index and whether the clause is passive."""
    if not verbs:
        return None, False

    # Prefer a finite verb that is not a bare auxiliary.
    finite = [
        i for i in verbs
        if tokens[i].tag in ("VBZ", "VBD", "VBP", "VB", "MD")
    ]
    content_finite = [
        i for i in finite
        if tokens[i].lower not in _BE_FORMS
        and tokens[i].lower not in ("have", "has", "had", "do", "does",
                                    "did")
        and tokens[i].tag != "MD"
    ]
    candidates = content_finite or finite or verbs
    pred = candidates[0]

    # "be" + participle => the participle is the (passive) predicate.
    if tokens[pred].lower in _BE_FORMS:
        for j in verbs:
            if j > pred and tokens[j].tag == "VBN":
                return j, True
        for j in verbs:
            if j > pred and tokens[j].tag == "VBG":
                return j, False
        return pred, False

    # Any predicate immediately followed by a "by"-agent phrase is passive
    # ("* freed by fetcher # 1 in 4ms").
    k = pred + 1
    while k < len(tokens) and tokens[k].tag in ("RB",):
        k += 1
    if k < len(tokens) and tokens[k].lower == "by" and tokens[k].tag == "IN":
        return pred, True
    return pred, False


def parse_tagged(tokens: list[TaggedToken]) -> Parse:
    """Parse a tagged token sequence into UD arcs.

    Multi-sentence log keys (e.g. Figure 4's "Finished task ... . 2010 bytes
    result sent to driver") are split on sentence-final punctuation and each
    clause is parsed independently; every clause contributes its own ROOT.
    """
    parse = Parse(tokens=tokens)
    start = 0
    for i, tok in enumerate(tokens):
        if tok.tag == ".":
            _parse_clause(tokens, start, i, parse)
            start = i + 1
    _parse_clause(tokens, start, len(tokens), parse)
    return parse


def _parse_clause(all_tokens: list[TaggedToken], lo: int, hi: int,
                  out: Parse) -> None:
    """Parse ``all_tokens[lo:hi]`` and append offset arcs to ``out``."""
    if hi <= lo:
        return
    clause = _parse_single(all_tokens[lo:hi])
    for arc in clause.arcs:
        head = arc.head if arc.head == -1 else arc.head + lo
        out.arcs.append(Arc(head, arc.dep + lo, arc.relation))


def _parse_single(tokens: list[TaggedToken]) -> Parse:
    """Parse a single clause into UD arcs."""
    parse = Parse(tokens=tokens)
    verbs = _find_predicates(tokens)
    pred, passive = _main_predicate(tokens, verbs)
    if pred is None:
        # Zero-copula predicate adjective, pervasive in log text
        # ("Claim successful", "authentication disabled"): the adjective
        # after a noun phrase is the clausal predicate.
        for i in range(1, len(tokens)):
            if tokens[i].tag in ("JJ", "JJR", "JJS") and is_noun(
                tokens[i - 1].tag
            ):
                parse.arcs.append(Arc(-1, i, "ROOT"))
                spans = _np_spans(tokens[:i])
                if spans:
                    head = _np_head(tokens, spans[-1])
                    parse.arcs.append(Arc(i, head, "nsubj"))
                return parse
        return parse

    parse.arcs.append(Arc(-1, pred, "ROOT"))

    # xcomp: chained "to VB" or adjacent secondary verbs after the root
    # ("about to shuffle", "finished. Closing").
    for j in verbs:
        if j == pred:
            continue
        if j > pred and tokens[j].tag in ("VB", "VBG"):
            between = tokens[pred + 1:j]
            if all(t.tag in ("TO", "IN", "RB") for t in between) or not between:
                parse.arcs.append(Arc(pred, j, "xcomp"))
                break

    spans = _np_spans(tokens)

    # Subject: last NP that ends before the predicate (and before any
    # auxiliary directly preceding it).
    subj_span = None
    for span in spans:
        if span[1] <= pred:
            subj_span = span
    if subj_span is not None:
        head = _np_head(tokens, subj_span)
        parse.arcs.append(
            Arc(pred, head, "nsubjpass" if passive else "nsubj")
        )

    # Objects and nominal modifiers to the right of the predicate.  An NP
    # immediately after the verb (no preposition in between) is dobj; a
    # second bare NP is iobj; NPs after a preposition are nmod.
    xcomp_idx = next(
        (a.dep for a in parse.arcs if a.relation == "xcomp"), None
    )
    attach_to = xcomp_idx if xcomp_idx is not None else pred
    right_edge = max(pred, attach_to)

    seen_dobj = False
    for span in spans:
        if span[0] <= right_edge:
            continue
        # Find the word immediately before the span start.
        k = span[0] - 1
        while k > right_edge and tokens[k].tag in ("RB", "#", "-LRB-"):
            k -= 1
        prep = tokens[k].tag in ("IN", "TO") if k > right_edge else False
        head = _np_head(tokens, span)
        if prep:
            parse.arcs.append(Arc(attach_to, head, "nmod"))
        elif not seen_dobj:
            parse.arcs.append(Arc(attach_to, head, "dobj"))
            seen_dobj = True
        else:
            parse.arcs.append(Arc(attach_to, head, "iobj"))

    return parse


def parse(text: str) -> Parse:
    """Tokenize, tag and parse ``text``."""
    return parse_tagged(tag(text))


def contains_clause(text: str) -> bool:
    """Paper §2.2 NL-log test: does the message contain at least one clause?

    A clause requires a predicate; we additionally accept imperative or
    participial one-liners ("Shutting down", "Registered").
    """
    return parse(text).has_clause()
