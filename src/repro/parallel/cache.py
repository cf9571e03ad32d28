"""Intel Key extraction memo cache.

Extraction (§3: POS tagging the sample, aligning the template, classifying
fields, parsing operations) is a pure function of ``(template tokens,
sample message)`` — everything else in the :class:`IntelKey` derives from
those two.  The cache memoises that function per process: every worker
process keeps one instance alive across tasks, so a template that dozens
of shards rediscover is POS-tagged once per process and served from the
memo afterwards.  :func:`~repro.parallel.pipeline.train_parallel`
clears the parent's memo when it starts, so the memo holds at most one
training run's keys; pool workers are fresh processes for each run.

The cached value is stored key-id-agnostic (``key_id=""``) because the
same template can receive different canonical ids in different training
runs; :meth:`ExtractionCache.extract` stamps the requested id on the way
out.
"""

from __future__ import annotations

from dataclasses import replace

from ..extraction.intelkey import IntelKey
from ..extraction.pipeline import InformationExtractor
from ..parsing.spell import LogKey


class ExtractionCache:
    """Process-local memo for the log-key → Intel Key transformation."""

    def __init__(self) -> None:
        self._memo: dict[tuple[tuple[str, ...], str], IntelKey] = {}
        self._extractor: InformationExtractor | None = None
        self.hits = 0
        self.misses = 0

    @property
    def extractor(self) -> InformationExtractor:
        if self._extractor is None:
            self._extractor = InformationExtractor()
        return self._extractor

    def warm(self) -> None:
        """Eagerly build the extractor (lexicon + POS tagger).

        Called by the worker-pool initializer so a fresh process pays
        the construction cost once, up front, instead of inside its
        first task.
        """
        _ = self.extractor

    def __len__(self) -> int:
        return len(self._memo)

    def extract(
        self, key_id: str, tokens: tuple[str, ...], sample: str
    ) -> IntelKey:
        """The Intel Key for one log key, memoised on (tokens, sample)."""
        memo_key = (tuple(tokens), sample)
        cached = self._memo.get(memo_key)
        if cached is not None:
            self.hits += 1
            return replace(cached, key_id=key_id)
        self.misses += 1
        built = self.extractor.build_intel_key(
            LogKey(key_id=key_id, tokens=list(tokens), sample=sample)
        )
        self._memo[memo_key] = replace(built, key_id="")
        return built

    def stats(self) -> tuple[int, int]:
        return self.hits, self.misses

    def clear(self) -> None:
        """Drop every memoised key and zero the counters.

        The warm extractor is kept: it holds no corpus state.
        """
        self._memo.clear()
        self.hits = 0
        self.misses = 0


#: The per-process singleton used by worker tasks (and by the parent for
#: the canonical model's extraction pass).
_PROCESS_CACHE = ExtractionCache()


def process_cache() -> ExtractionCache:
    return _PROCESS_CACHE
