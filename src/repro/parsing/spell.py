"""Spell: streaming structured log-key extraction (Du & Li, ICDM'17).

IntelLog's first stage (paper §2.1) uses Spell to abstract raw log messages
into *log keys*: the constant text of the printing statement with every
variable field replaced by an asterisk.  This module implements the
streaming algorithm — for each incoming message, find the existing key with
the longest common subsequence (LCS) above a threshold and merge, otherwise
create a new key.

The matching threshold follows the IntelLog implementation: a message of
``n`` tokens matches a key when ``|LCS| >= n / t`` with the empirically set
``t = 1.7`` (paper §5).  The original Spell paper uses ``t = 2``.

Matching is tiered (ROADMAP 2 — "as fast as the hardware allows"):

1. **exact** — the masked message aligns greedily against a known
   template; resolved by a :class:`~repro.parsing.index.TemplateIndex`
   trie walk in near-O(message length), with most-specific-wins
   (most constants, then lowest key index) tie-breaking;
2. **lcs** — drift fallback: an LCS similarity scan over the keys that
   share at least one constant token with the message;
3. **miss** — no key shares a constant token.  Because an LCS above the
   threshold needs at least one common constant, such messages provably
   cannot match and the scan is skipped entirely (the old code paid a
   full-key-set LCS scan here).

The tiers are observable via ``spell_index_hits_total{path=...}`` and the
per-path ``spell_match_seconds`` histogram.  The differential parity
harness (``tests/test_match_parity.py``) proves the tiered matcher
returns results identical to the original full scan.

Distinct messages collapse onto few masked forms (the variable fields
are exactly what varies), so each parser keeps one *form memo*, keyed
by the *chunk-level* masked form: the masked text of each whitespace
chunk, read from the chunk memo (``_CHUNK_MEMO``), so a form lookup
costs one ``split()`` and one chunk-memo hit per chunk.  An entry holds
the resolved key index, the match path and a *capture recipe*: where
each ``*`` of the key's template captures, as the index of a one-token
chunk (the capture is that chunk), a slice of one-token chunks, or
token pieces of chunks, joined by a space.  A matched record then costs the form lookup plus the
recipe's slices and joins; no per-record token list and no alignment
walk.  The memo lives as long as the model, not a batch:

* :meth:`SpellParser.match` and :meth:`SpellParser.match_batch` both
  resolve through it, so a form is walked (trie, LCS fallback or miss)
  and aligned once per model;
* it is cleared wherever a resolution could change — a new key or a
  merged template in :meth:`SpellParser.consume`, and
  :meth:`SpellParser._reindex` (model load);
* :meth:`SpellParser.view` aliases it like the key list and indexes, so
  the tenants of one loaded model share resolutions, while a new model
  version gets a new parser and a fresh memo;
* it is reset wholesale at ``_FORM_MEMO_CAP`` entries.

Every clear bumps the memo's ``epoch``.  Detection keeps its own memo
per chunk-level form, the *row recipe* of
:meth:`~repro.detection.detector.AnomalyDetector.resolve` (the form's
key, groups and which capture fills which identifier or value), built
from this memo's entry; a detector drops its row recipes when it sees
the epoch move, so they never outlive the resolutions they were built
from.  Detection therefore does not go through :meth:`SpellParser.match`
or :meth:`SpellParser.match_batch`: it reads the form memo itself and
counts through the same instruments (:meth:`SpellParser._count_batch`).

The recipe comes from aligning the template against the form's masked
tokens (:func:`_form_spans`), not a record's raw ones, and gives the
captures :func:`extract_parameters` gives on the raw tokens of every
message of the form.  The two alignments differ only where a raw token
masked to ``*`` equals a template constant.  A token's kind is a
function of its text (``tests/test_form_recipe_diff.py`` checks it),
and a learned template's constants are texts of unmasked tokens, so
none of them is the text of a masked one.  A constant that is (only a
hand-built or foreign model has one) is the guard: where the alignment
compares a ``*`` with such a constant, the entry's recipe is
``_PER_RECORD`` and each record of the form keeps the per-record
:func:`extract_parameters` on its raw tokens.

Matching never mutates keys and entries are immutable tuples, so an
entry stays valid until one of the clears above; under concurrent
matchers the worst case is a duplicate resolution, never a wrong one.
Misalignment notes and per-record path counters still run per message.
Memo use is counted by ``spell_form_memo_total{result="hit"|"miss"}``,
one per chunk-level form looked up (``tests/test_form_memo.py`` pins
hits, invalidation and the cap).
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

from ..nlp.tokenizer import tokenize
from .index import TemplateIndex

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs import MetricsRegistry

log = logging.getLogger(__name__)

STAR = "*"

#: Token kinds that are variable by construction and are masked to ``*``
#: before template matching (the standard log-parser preprocessing step:
#: identifiers, numerals and localities can never be template constants).
_VARIABLE_KINDS = frozenset({"ident", "number", "hostport", "path"})

#: Whitespace-delimited chunk -> (masked text, masked tokens, raw
#: tokens) memo; the masked text is the masked tokens joined by a space
#: (``*`` or the chunk itself for a one-token chunk), one element of a
#: chunk-level form.  No token pattern can span whitespace, so
#: tokenizing chunk-by-chunk is exactly equivalent to tokenizing the
#: whole message (proven by ``tests/test_match_parity.py``); log streams
#: draw their chunks from a small working vocabulary, so the memo turns
#: the regex tokenizer — the dominant cost of a match — into a few dict
#: hits per message.  Bounded by wholesale reset; worst case under races
#: is a duplicate tokenize, never a wrong one.
_CHUNK_MEMO: dict[str, tuple[str, tuple[str, ...], tuple[str, ...]]] = {}
_CHUNK_MEMO_CAP = 65536

#: Entries kept in one parser's form memo before it is reset wholesale
#: (the detector's memos use the same cap, ``_MEMO_CAP``).
_FORM_MEMO_CAP = 4096

_STAR_ONLY = (STAR,)

#: One capture of a recipe: the index of a one-token chunk (the capture
#: is that chunk), a slice of one-token chunks joined by a space (empty
#: for an empty capture), or ``(chunk index, first token, end token)``
#: pieces whose raw tokens are joined by a space.  Besides
#: :meth:`SpellParser._match_core`, detection's row build
#: (``repro.detection.detector._row``) reads captures, inline: a shared
#: helper call cost it about 0.35 µs per record on a 2-vCPU host.
_Capture = int | slice | tuple[tuple[int, int, int], ...]

#: Recipe marker leaving a form's captures to a per-record
#: :func:`extract_parameters` on the raw tokens (see the module
#: docstring: there the masked alignment could differ from the raw one).
_PER_RECORD = "per-record"

#: Form memo entry: (key index or None, match path, capture recipe,
#: ``_PER_RECORD``, or None when the form does not align against the
#: key's template).
_FormEntry = tuple[int | None, str, tuple[_Capture, ...] | str | None]


class _FormMemo(dict):
    """Chunk-level masked form -> :data:`_FormEntry`, with an ``epoch``
    that every :meth:`clear` advances, so memos built from its entries
    (the detector's row recipes) can tell that they are stale."""

    __slots__ = ("epoch",)

    def __init__(self) -> None:
        super().__init__()
        self.epoch = 0

    def clear(self) -> None:
        self.epoch += 1
        super().clear()


def _tokenize_chunk(
    chunk: str,
) -> tuple[str, tuple[str, ...], tuple[str, ...]]:
    tokens = tokenize(chunk)
    if len(tokens) == 1:
        # A chunk's tokens tile it, so its only token is the chunk.
        raw: tuple[str, ...] = (chunk,)
        if tokens[0].kind in _VARIABLE_KINDS:
            return STAR, _STAR_ONLY, raw
        return chunk, raw, raw
    raw = tuple([token.text for token in tokens])
    masked = tuple([
        STAR if token.kind in _VARIABLE_KINDS else token.text
        for token in tokens
    ])
    if masked == raw:
        masked = raw
    return " ".join(masked), masked, raw


def _chunk_entry(
    chunk: str,
) -> tuple[str, tuple[str, ...], tuple[str, ...]]:
    """Tokenize a chunk the memo does not hold, and memoise it."""
    entry = _tokenize_chunk(chunk)
    memo = _CHUNK_MEMO
    if len(memo) >= _CHUNK_MEMO_CAP:
        memo.clear()
    memo[chunk] = entry
    return entry


def chunk_form(chunks: list[str]) -> tuple[str, ...]:
    """The chunk-level masked form of a message's whitespace chunks:
    each chunk's masked text, read from the chunk memo."""
    get = _CHUNK_MEMO.get
    try:
        return tuple([get(chunk)[0] for chunk in chunks])
    except TypeError:  # a chunk the memo does not hold
        return tuple([
            (get(chunk) or _chunk_entry(chunk))[0] for chunk in chunks
        ])


def mask_message(message: str) -> tuple[list[str], list[str]]:
    """Tokenize ``message`` returning (masked tokens, raw tokens).

    Masked tokens replace identifier/number/locality tokens with ``*``.
    """
    masked: list[str] = []
    raw: list[str] = []
    memo = _CHUNK_MEMO
    for chunk in message.split():
        entry = memo.get(chunk)
        if entry is None:
            entry = _chunk_entry(chunk)
        masked.extend(entry[1])
        raw.extend(entry[2])
    return masked, raw


def lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """Length of the longest common subsequence of token lists ``a``, ``b``.

    Bit-parallel (Allison and Dix's recurrence in Hyyrö's form): bit
    ``j`` of ``row`` stands for ``b[j]``, and one integer add, subtract
    and two masks per token of ``a`` advance the whole DP row, where the
    textbook DP pays one Python step per cell.  The LCS length is the
    number of cleared bits.
    """
    if not a or not b:
        return 0
    positions: dict[str, int] = {}
    bit = 1
    for y in b:
        positions[y] = positions.get(y, 0) | bit
        bit <<= 1
    full = bit - 1
    row = full
    for x in a:
        match = positions.get(x)
        if match:
            low = row & match
            row = ((row + low) | (row - low)) & full
    return len(b) - row.bit_count()


def lcs_merge(a: Sequence[str], b: Sequence[str]) -> list[str]:
    """Merge two token sequences into a template.

    Tokens on the LCS are kept; any gap (tokens unique to either side)
    becomes a single ``*``.  Existing ``*`` tokens never participate in the
    LCS, so variable positions stay variable.
    """
    n, m = len(a), len(b)
    dp = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        for j in range(m - 1, -1, -1):
            if a[i] == b[j] and a[i] != STAR:
                dp[i][j] = dp[i + 1][j + 1] + 1
            else:
                dp[i][j] = max(dp[i + 1][j], dp[i][j + 1])
    result: list[str] = []
    i = j = 0

    def emit_star() -> None:
        if not result or result[-1] != STAR:
            result.append(STAR)

    while i < n and j < m:
        if a[i] == b[j] and a[i] != STAR:
            result.append(a[i])
            i += 1
            j += 1
        elif dp[i + 1][j] >= dp[i][j + 1]:
            emit_star()
            i += 1
        else:
            emit_star()
            j += 1
    if i < n or j < m:
        emit_star()
    return result


@dataclass(slots=True)
class LogKey:
    """A log key: template tokens plus bookkeeping.

    ``sample`` is the first raw message that created the key; IntelLog feeds
    the sample (not the starred template) to the POS tagger (§3, Figure 3).
    """

    key_id: str
    tokens: list[str]
    sample: str
    count: int = 0
    line_ids: list[int] = field(default_factory=list)

    @property
    def template(self) -> str:
        return " ".join(self.tokens)

    def constant_tokens(self) -> list[str]:
        return [t for t in self.tokens if t != STAR]

    def __str__(self) -> str:  # pragma: no cover
        return f"{self.key_id}: {self.template}"


@dataclass(slots=True)
class MatchResult:
    """Result of matching one message against the key set."""

    key: LogKey
    #: Values captured by each ``*`` position, in template order.  One star
    #: may capture several adjacent tokens (joined by a space).
    parameters: list[str]
    #: True when the message matched the key by LCS similarity but could
    #: not be aligned against its template, so ``parameters`` is empty
    #: despite the raw message carrying variable fields.  Callers that
    #: care about parameter-level checks should treat such matches as
    #: parameter-free rather than parameter-less-by-construction.
    misaligned: bool = False


#: Match-path labels (``spell_index_hits_total{path=...}``).
PATH_EXACT = "exact"
PATH_LCS = "lcs"
PATH_MISS = "miss"


class _SpellMetrics:
    """Registry handles for one instrumented :class:`SpellParser`."""

    __slots__ = (
        "match_attempts", "lcs_comparisons", "keys", "match_seconds",
        "param_misaligned", "index_hits", "form_memo",
    )

    def __init__(self, registry: "MetricsRegistry") -> None:
        self.match_attempts = registry.counter(
            "spell_match_attempts_total",
            "Detection-side match() calls by result (hit/miss).",
        )
        self.lcs_comparisons = registry.counter(
            "spell_lcs_comparisons_total",
            "LCS similarity computations performed while matching.",
        )
        self.keys = registry.gauge(
            "spell_keys",
            "Log keys currently known to the parser.",
        )
        self.match_seconds = registry.histogram(
            "spell_match_seconds",
            "Latency of one match() call, by path (exact/lcs/miss).",
        )
        self.param_misaligned = registry.counter(
            "spell_param_misaligned_total",
            "Matches whose raw message could not be aligned against the "
            "matched template (parameters dropped), by key.",
        )
        self.index_hits = registry.counter(
            "spell_index_hits_total",
            "Matches resolved per path: exact (trie walk), lcs (drift "
            "fallback scan), miss (no shared constant token).",
        )
        self.form_memo = registry.counter(
            "spell_form_memo_total",
            "Masked-form resolutions by result: hit (memoised for the "
            "loaded model) or miss (resolved by trie walk/LCS scan).",
        )


class SpellParser:
    """Streaming log-key extractor.

    Usage::

        parser = SpellParser()
        for message in stream:
            key = parser.consume(message)
        parser.keys()  # all discovered log keys
    """

    def __init__(self, tau: float = 1.7) -> None:
        if tau <= 1.0:
            raise ValueError("tau must be > 1 (match if |LCS| >= n/tau)")
        self.tau = tau
        self._keys: list[LogKey] = []
        self._next_id = 0
        self._line_counter = 0
        # Inverted index: constant token -> key indices.  Prunes the LCS
        # fallback and proves misses without scanning (an LCS match
        # needs at least one shared constant token).
        self._token_index: dict[str, set[int]] = {}
        # Exact-template trie: masked sequence -> aligned key indices.
        self._index = TemplateIndex()
        # Index of the reserved all-variable key, once created.
        self._reserved_idx: int | None = None
        # Masked form -> resolution, for the life of the key set (see
        # the module docstring); cleared in place, views alias it.
        self._form_memo = _FormMemo()
        self._metrics: _SpellMetrics | None = None
        # Keys already warned about for template/raw misalignment (the
        # log line fires once per key; the counter counts every event).
        self._misaligned_keys: set[str] = set()

    def instrument(self, registry: "MetricsRegistry") -> "SpellParser":
        """Attach metrics (idempotent); returns ``self`` for chaining."""
        self._metrics = _SpellMetrics(registry)
        self._metrics.keys.set(len(self._keys))
        return self

    def view(self) -> "SpellParser":
        """A detection-only view sharing this parser's learned keys.

        The view aliases ``_keys``, both match indexes (token postings
        and the exact-template trie) and the form memo — the structures
        that are immutable once training ends, so views of one model
        share resolutions — while owning its instrumentation
        and misalignment bookkeeping, so several tenants can
        :meth:`match` against one in-memory model without their metrics
        clobbering each other.  Views must never :meth:`consume` (that
        would mutate the shared key list under every other view's
        feet); the serving layer only calls ``match``.
        """
        clone = SpellParser.__new__(SpellParser)
        clone.tau = self.tau
        clone._keys = self._keys
        clone._token_index = self._token_index
        clone._index = self._index
        clone._reserved_idx = self._reserved_idx
        clone._form_memo = self._form_memo
        clone._next_id = self._next_id
        clone._line_counter = self._line_counter
        clone._metrics = None
        clone._misaligned_keys = set()
        return clone

    # -- training ----------------------------------------------------------

    def consume(self, message: str) -> LogKey:
        """Process one message, returning the (possibly new) log key."""
        seq, _ = mask_message(message)
        self._line_counter += 1
        if not [t for t in seq if t != STAR]:
            # Messages with no constant tokens (empty or all-variable)
            # share one reserved key; they carry no template information.
            best = self._reserved_key()
            if best is None:
                best = LogKey(
                    key_id=f"K{self._next_id}", tokens=list(seq),
                    sample=message,
                )
                self._next_id += 1
                self._keys.append(best)
                self._reserved_idx = len(self._keys) - 1
                self._form_memo.clear()
            best.count += 1
            best.line_ids.append(self._line_counter)
            return best
        best_idx, _path = self._find_best_idx(seq)
        if best_idx is None:
            key = LogKey(
                key_id=f"K{self._next_id}",
                tokens=list(seq),
                sample=message,
            )
            self._next_id += 1
            self._keys.append(key)
            self._index_key(len(self._keys) - 1, key)
            self._form_memo.clear()
        else:
            key = self._keys[best_idx]
            merged = lcs_merge(key.tokens, seq)
            if merged != key.tokens:
                old_tokens = key.tokens
                key.tokens = merged
                self._update_key_index(best_idx, old_tokens, merged)
                self._form_memo.clear()
        key.count += 1
        key.line_ids.append(self._line_counter)
        if self._metrics is not None:
            self._metrics.keys.set(len(self._keys))
        return key

    def consume_all(self, messages: Iterable[str]) -> list[LogKey]:
        return [self.consume(m) for m in messages]

    # -- lookup (detection phase; never creates keys) ------------------------

    def match(self, message: str) -> MatchResult | None:
        """Match a message against the learned keys without mutating them."""
        metrics = self._metrics
        if metrics is None:
            result, _path, _fresh = self._match_core(message)
            if result is not None and result.misaligned:
                self._note_misalignment(result.key)
            return result
        start = time.perf_counter()
        result, path, fresh = self._match_core(message)
        metrics.match_seconds.labels(path=path).observe(
            time.perf_counter() - start
        )
        metrics.index_hits.labels(path=path).inc()
        metrics.form_memo.labels(result="miss" if fresh else "hit").inc()
        metrics.match_attempts.labels(
            result="hit" if result is not None else "miss"
        ).inc()
        if result is not None and result.misaligned:
            self._note_misalignment(result.key)
        return result

    def match_batch(
        self, messages: Sequence[str]
    ) -> list[MatchResult | None]:
        """Match many messages in one call, amortizing per-record cost.

        Identical per-message results to :meth:`match` (the differential
        parity harness asserts this), with batch-level savings:
        duplicate messages within the batch are matched once (valid
        because matching never mutates the key set), and instrumentation
        is flushed once per batch instead of per record — counters are
        still advanced per *record*, and per-record latency is reported
        as the batch's amortized cost, so counter semantics are
        unchanged.  ``spell_form_memo_total`` counts the distinct
        messages of the batch, since only those consult the form memo.
        Must not run concurrently with :meth:`consume`.
        """
        metrics = self._metrics
        if metrics is None:
            memo: dict[str, MatchResult | None] = {}
            out: list[MatchResult | None] = []
            for message in messages:
                result = memo.get(message, _UNSEEN)
                if result is _UNSEEN:
                    result, _path, _fresh = self._match_core(message)
                    memo[message] = result
                if result is not None and result.misaligned:
                    self._note_misalignment(result.key)
                out.append(result)
            return out
        start = time.perf_counter()
        seen: dict[str, tuple[MatchResult | None, str, bool]] = {}
        out = []
        paths: dict[str, int] = {}
        hits = 0
        resolved = 0
        misaligned: list[LogKey] = []
        for message in messages:
            entry = seen.get(message)
            if entry is None:
                entry = self._match_core(message)
                seen[message] = entry
                if entry[2]:
                    resolved += 1
            result, path, _fresh = entry
            out.append(result)
            paths[path] = paths.get(path, 0) + 1
            if result is not None:
                hits += 1
                if result.misaligned:
                    misaligned.append(result.key)
        self._count_batch(
            time.perf_counter() - start, paths, hits, len(seen), resolved
        )
        for key in misaligned:
            self._note_misalignment(key)
        return out

    def _count_batch(
        self,
        elapsed: float,
        paths: dict[str, int],
        hits: int,
        distinct: int,
        resolved: int,
    ) -> None:
        """Advance the match instruments for one batch of messages:
        ``paths`` counts its messages per match path, ``hits`` those
        that matched a key, ``distinct`` its distinct messages (each
        consults the form memo once) and ``resolved`` those that had
        to resolve their form; ``elapsed`` is amortized over the
        messages.  Needs :meth:`instrument`."""
        metrics = self._metrics
        assert metrics is not None
        n = sum(paths.values())
        if n:
            amortized = elapsed / n
            for path, count in paths.items():
                metrics.match_seconds.labels(path=path).observe_many(
                    amortized, count
                )
                metrics.index_hits.labels(path=path).inc(count)
        if hits:
            metrics.match_attempts.labels(result="hit").inc(hits)
        if n - hits:
            metrics.match_attempts.labels(result="miss").inc(n - hits)
        if resolved:
            metrics.form_memo.labels(result="miss").inc(resolved)
        if distinct - resolved:
            metrics.form_memo.labels(result="hit").inc(distinct - resolved)

    def _match_core(
        self, message: str
    ) -> tuple[MatchResult | None, str, bool]:
        """Uninstrumented match returning ``(result, path, fresh)``.

        ``path`` labels how the match resolved: ``exact`` (trie walk,
        including the reserved all-variable key — a constant-time
        branch), ``lcs`` (drift fallback scan) or ``miss``.  The
        chunk-level masked form is resolved through the parser's form
        memo; ``fresh`` is True when this call had to resolve it (a memo
        miss).  The captures are the entry's recipe applied to the
        message's chunks.
        """
        chunks = message.split()
        (best_idx, path, recipe), fresh = self.form_entry(chunk_form(chunks))
        if best_idx is None:
            return None, path, fresh
        key = self._keys[best_idx]
        if recipe is _PER_RECORD:
            params = extract_parameters(key.tokens, mask_message(message)[1])
        elif recipe is None:
            params = None
        else:
            params = [
                chunks[capture] if capture.__class__ is int
                else " ".join(chunks[capture]) if capture.__class__ is slice
                else _join_pieces(capture, chunks)
                for capture in recipe
            ]
        if params is None:
            # The similarity scan said the message belongs to this key,
            # but the greedy aligner could not map its tokens onto the
            # template (usually a template that drifted during
            # training).  The parameters are unknowable, not absent —
            # flag it instead of silently pretending the message
            # carried none.
            return MatchResult(key, [], misaligned=True), path, fresh
        return MatchResult(key, params), path, fresh

    def form_entry(
        self, form: tuple[str, ...]
    ) -> tuple[_FormEntry, bool]:
        """The form memo's entry for a chunk-level masked form, and
        whether this call had to resolve it (a memo miss)."""
        memo = self._form_memo
        entry = memo.get(form)
        if entry is not None:
            return entry, False
        entry = self._resolve_form(form)
        if len(memo) >= _FORM_MEMO_CAP:
            memo.clear()
        memo[form] = entry
        return entry, True

    def _resolve_form(self, form: tuple[str, ...]) -> _FormEntry:
        """Form memo entry for a chunk-level masked form.

        A form with no constant token resolves to the reserved
        all-variable key (exact path; each raw token is a parameter) or
        misses; any other form goes through :meth:`_find_best_idx` and
        gets its captures by aligning the matched template against the
        masked tokens (:func:`_form_spans`).
        """
        sizes: list[int] = []
        masked: list[str] = []
        for text in form:
            tokens = text.split(" ")
            sizes.append(len(tokens))
            masked.extend(tokens)
        if any(t != STAR for t in masked):
            best_idx, path = self._find_best_idx(masked)
            if best_idx is None:
                return None, path, None
            spans = _form_spans(self._keys[best_idx].tokens, masked)
            if spans is None or spans is _PER_RECORD:
                return best_idx, path, spans
        elif self._reserved_key() is None:
            return None, PATH_MISS, None
        else:
            best_idx, path = self._reserved_idx, PATH_EXACT
            spans = [(j, j + 1) for j in range(len(masked))]
        return best_idx, path, _recipe(spans, sizes)

    def _note_misalignment(self, key: LogKey, count: int = 1) -> None:
        """Count ``count`` misaligned matches of ``key``; warn once."""
        if self._metrics is not None:
            self._metrics.param_misaligned.labels(key=key.key_id).inc(count)
        if key.key_id not in self._misaligned_keys:
            self._misaligned_keys.add(key.key_id)
            log.warning(
                "parameter extraction misaligned for key %s (template %r); "
                "parameters dropped for such messages",
                key.key_id, key.template,
            )

    def keys(self) -> list[LogKey]:
        return list(self._keys)

    def __len__(self) -> int:
        return len(self._keys)

    # -- bulk bookkeeping (training) -------------------------------------------

    def rebuild_bookkeeping(
        self, line_ids_by_key: dict[str, list[int]], total_lines: int
    ) -> None:
        """Overwrite per-key occurrence bookkeeping after a form replay.

        The trainer (:mod:`repro.core.train`) discovers log keys by
        consuming the first record of each *distinct masked form* only,
        then accounts for every occurrence in bulk: ``line_ids_by_key``
        maps each key to the 1-based global line numbers of every message
        it matched, in any order (they are sorted here, matching the
        streaming parser's consumption-order append).
        """
        for key in self._keys:
            ids = sorted(line_ids_by_key.get(key.key_id, ()))
            key.line_ids = list(ids)
            key.count = len(ids)
        self._line_counter = total_lines

    # -- internals -----------------------------------------------------------

    def _reserved_key(self) -> LogKey | None:
        """The all-variable key, if one exists.

        The cached index is authoritative once set; a linear scan only
        runs when keys were restored without going through consume()
        (model deserialization calls :meth:`_reindex`, which re-derives
        the cache).
        """
        if self._reserved_idx is not None:
            return self._keys[self._reserved_idx]
        for idx, key in enumerate(self._keys):
            if not key.constant_tokens():
                self._reserved_idx = idx
                return key
        return None

    def _threshold(self, seq_len: int, template_len: int) -> float:
        # Similarity is measured against the shorter of the two sequences:
        # a message whose constant backbone is fully explained by a shorter
        # template must still match it (e.g. state-transition keys whose
        # long variable tails differ), which is how the IntelLog Spell
        # deployment behaves with its empirical t = 1.7 (paper §5).
        return min(seq_len, template_len) / self.tau

    def _find_best_idx(
        self, seq: list[str]
    ) -> tuple[int | None, str]:
        """Best-matching key index for a masked sequence, plus the path.

        Tier 1: exact-template trie lookup; among aligned keys the most
        specific wins (most constants, then lowest key index — the same
        winner the old candidate scan produced).  Tier 2: LCS similarity
        scan over keys sharing at least one constant token, ascending by
        key index (first key reaching the maximal LCS wins).  No shared
        token means no key can reach the LCS threshold, so the miss path
        does no template work at all.
        """
        matches = self._index.lookup(seq)
        if matches:
            best_idx, best_consts = matches[0]
            for idx, n_consts in matches:
                if n_consts > best_consts:
                    best_idx, best_consts = idx, n_consts
            return best_idx, PATH_EXACT

        candidates: set[int] = set()
        for token in seq:
            postings = self._token_index.get(token)
            if postings:
                candidates |= postings
        if not candidates:
            return None, PATH_MISS
        best_idx = None
        best_len = 0
        lcs_calls = 0
        for idx in sorted(candidates):
            key = self._keys[idx]
            consts = key.constant_tokens()
            # Cheap upper bound prune.
            if min(len(consts), len(seq)) <= best_len:
                continue
            lcs_calls += 1
            common = lcs_length(consts, seq)
            if common >= self._threshold(len(seq), len(key.tokens)) and (
                common > best_len
            ):
                best_idx, best_len = idx, common
        if lcs_calls and self._metrics is not None:
            self._metrics.lcs_comparisons.inc(lcs_calls)
        if best_idx is None:
            return None, PATH_MISS
        return best_idx, PATH_LCS

    def _index_key(self, idx: int, key: LogKey) -> None:
        for token in key.constant_tokens():
            self._token_index.setdefault(token, set()).add(idx)
        self._index.insert(idx, key.tokens)

    def _update_key_index(
        self, idx: int, old_tokens: list[str], new_tokens: list[str]
    ) -> None:
        """Incremental maintenance after a training-time template merge.

        Replaces the historical full ``_reindex()`` per merge: only the
        drifted key's postings and trie path move.  A property test
        asserts interleaved consume/merge sequences leave both indexes
        equal to a from-scratch rebuild.
        """
        old_consts = set(old_tokens) - {STAR}
        new_consts = set(new_tokens) - {STAR}
        for token in old_consts - new_consts:
            postings = self._token_index.get(token)
            if postings is not None:
                postings.discard(idx)
                if not postings:
                    del self._token_index[token]
        for token in new_consts - old_consts:
            self._token_index.setdefault(token, set()).add(idx)
        self._index.update(idx, old_tokens, new_tokens)

    def _reindex(self) -> None:
        """Full rebuild of both match indexes (and the reserved-key
        cache) from the key list — model deserialization, and the
        oracle the incremental-maintenance property tests compare
        against."""
        self._token_index.clear()
        self._index.rebuild(key.tokens for key in self._keys)
        self._form_memo.clear()
        self._reserved_idx = None
        for idx, key in enumerate(self._keys):
            for token in key.constant_tokens():
                self._token_index.setdefault(token, set()).add(idx)
            if self._reserved_idx is None and not key.constant_tokens():
                self._reserved_idx = idx


#: Sentinel distinguishing "not yet matched" from a memoized None.
_UNSEEN: object = object()


def extract_parameters(
    template: Sequence[str], seq: Sequence[str]
) -> list[str] | None:
    """Align ``seq`` against ``template``, returning the ``*`` captures.

    Greedy alignment: constant template tokens must appear in order in the
    message; tokens between them are assigned to the interleaved stars.
    Returns None when the message cannot be aligned.
    """
    captures: list[str] = []
    i = 0  # template position
    j = 0  # sequence position
    n, m = len(template), len(seq)
    while i < n:
        tok = template[i]
        if tok != STAR:
            if j < m and seq[j] == tok:
                i += 1
                j += 1
                continue
            return None
        # A star: capture up to the next constant token.
        nxt = i + 1
        while nxt < n and template[nxt] == STAR:
            nxt += 1
        if nxt == n:
            captures.append(" ".join(seq[j:]))
            return captures
        anchor = template[nxt]
        k = j
        while k < m and seq[k] != anchor:
            k += 1
        if k == m:
            return None
        captures.append(" ".join(seq[j:k]))
        i = nxt
        j = k
    if j != m:
        return None
    return captures


def _variable_text(text: str) -> bool:
    """Whether ``text`` is the text a variable-kind token can have.

    A token's kind is a function of its text, so a raw token masked to
    ``*`` can equal a template constant only if this holds for it."""
    tokens = tokenize(text)
    return (
        len(tokens) == 1
        and tokens[0].text == text
        and tokens[0].kind in _VARIABLE_KINDS
    )


def _form_spans(
    template: Sequence[str], masked: Sequence[str]
) -> list[tuple[int, int]] | str | None:
    """The token spans :func:`extract_parameters` would capture, found
    by aligning the *masked* tokens of a form, step for step as it does.

    A masked ``*`` never equals a template constant; its raw token
    differs from every constant too unless that constant is a
    :func:`_variable_text` (only a hand-built or foreign model has
    one).  So wherever the walk compares a ``*`` with no such constant,
    the raw tokens of every message of the form take the same steps and
    the spans hold for all of them; where it compares a ``*`` with one,
    ``_PER_RECORD`` sends the form back to the raw alignment.  None when
    the form does not align.
    """
    spans: list[tuple[int, int]] = []
    i = 0  # template position
    j = 0  # masked position
    n, m = len(template), len(masked)
    while i < n:
        tok = template[i]
        if tok != STAR:
            if j < m and masked[j] == tok:
                i += 1
                j += 1
                continue
            if j < m and masked[j] == STAR and _variable_text(tok):
                return _PER_RECORD
            return None
        nxt = i + 1
        while nxt < n and template[nxt] == STAR:
            nxt += 1
        if nxt == n:
            spans.append((j, m))
            return spans
        anchor = template[nxt]
        k = j
        while k < m and masked[k] != anchor:
            k += 1
        if STAR in masked[j:k] and _variable_text(anchor):
            return _PER_RECORD
        if k == m:
            return None
        spans.append((j, k))
        i = nxt
        j = k
    if j != m:
        return None
    return spans


def _join_pieces(
    pieces: tuple[tuple[int, int, int], ...], chunks: Sequence[str]
) -> str:
    """One capture of a recipe: its pieces' raw tokens joined by a space.

    Reads the chunk memo again, so it may have been reset since the
    form was looked up."""
    get = _CHUNK_MEMO.get
    return " ".join([
        token
        for c, lo, hi in pieces
        for token in (get(chunks[c]) or _chunk_entry(chunks[c]))[2][lo:hi]
    ])


def _recipe(
    spans: list[tuple[int, int]], sizes: list[int]
) -> tuple[_Capture, ...]:
    """Token spans of a form as captures over its chunks, whose token
    counts are ``sizes``: a span of whole one-token chunks is that
    chunk's index, or the slice of them when it is not exactly one, and
    any other span its per-chunk token pieces."""
    chunk_of: list[int] = []
    first: list[int] = []
    for c, size in enumerate(sizes):
        first.append(len(chunk_of))
        chunk_of.extend([c] * size)
    recipe: list[_Capture] = []
    for j, k in spans:
        pieces = []
        while j < k:
            c = chunk_of[j]
            end = min(k, first[c] + sizes[c])
            pieces.append((c, j - first[c], end - first[c]))
            j = end
        if all(sizes[c] == 1 for c, _, _ in pieces):
            if len(pieces) == 1:
                recipe.append(pieces[0][0])
            else:
                start = pieces[0][0] if pieces else 0
                recipe.append(slice(start, start + len(pieces)))
        else:
            recipe.append(tuple(pieces))
    return tuple(recipe)
