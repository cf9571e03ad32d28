"""Operation extraction via sentence-structure parsing (paper §3.2).

An operation is a 3-tuple ``{subj-entity, predicate, obj-entity}``.  The
predicate is the ROOT (or an xcomp chained to it) of the parsed log key;
the subject comes from ``nsubj``/``nsubjpass`` and the object from
``dobj``/``iobj``/``nmod`` (Table 3).  Predicates are lemmatized to their
base verb so "registering"/"registered" both canonicalise to "register".
"""

from __future__ import annotations

from dataclasses import dataclass

from ..nlp.depparser import Parse
from ..nlp.lemmatizer import singularize, verb_base
from ..nlp.lexicon import is_measure_unit
from ..nlp.tags import is_noun

_SUBJ_RELS = ("nsubj", "nsubjpass")
_OBJ_RELS = ("dobj", "iobj", "nmod")


@dataclass(frozen=True, slots=True)
class Operation:
    """One extracted operation triple.

    Empty strings mark missing slots (imperative/agentless clauses).
    ``surface`` preserves the inflected predicate for display.
    """

    subject: str
    predicate: str
    obj: str
    surface: str = ""

    def __str__(self) -> str:  # pragma: no cover
        subj = self.subject or "_"
        obj = self.obj or "_"
        return f"{{{subj}, {self.predicate}, {obj}}}"


def _slot_text(parse: Parse, index: int) -> str:
    token = parse.tokens[index]
    if token.kind != "word":
        return token.text
    if is_noun(token.tag):
        return singularize(token.text)
    return token.text.lower()


def _object_for(parse: Parse, pred: int) -> str:
    """Pick the object slot: dobj > iobj > nmod, skipping unit heads."""
    for relation in _OBJ_RELS:
        for dep in parse.dependents(pred, relation):
            token = parse.tokens[dep]
            if token.kind == "word" and is_measure_unit(token.text):
                continue
            return _slot_text(parse, dep)
    return ""


def _subject_for(parse: Parse, pred: int) -> str:
    for relation in _SUBJ_RELS:
        deps = parse.dependents(pred, relation)
        if deps:
            return _slot_text(parse, deps[0])
    return ""


def extract_operations(parse: Parse) -> list[Operation]:
    """Extract operation triples from a parsed log key.

    Each clause ROOT yields one operation; an ``xcomp`` chained to a root
    yields one more (its subject inherited from the root's subject, per the
    open-clausal-complement semantics).
    """
    operations: list[Operation] = []
    roots = [arc.dep for arc in parse.arcs if arc.relation == "ROOT"]
    for root in roots:
        subject = _subject_for(parse, root)
        xcomps = parse.dependents(root, "xcomp")
        if xcomps:
            # "fetcher about to shuffle output": the xcomp verb carries the
            # operation; the root's subject is its logical subject.
            for xcomp in xcomps:
                operations.append(
                    Operation(
                        subject=subject or _subject_for(parse, xcomp),
                        predicate=verb_base(parse.tokens[xcomp].text),
                        obj=_object_for(parse, xcomp) or _object_for(
                            parse, root
                        ),
                        surface=parse.tokens[xcomp].text.lower(),
                    )
                )
            continue
        predicate_token = parse.tokens[root]
        operations.append(
            Operation(
                subject=subject,
                predicate=verb_base(predicate_token.text),
                obj=_object_for(parse, root),
                surface=predicate_token.text.lower(),
            )
        )
    return operations
