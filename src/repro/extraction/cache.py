"""Intel Key extraction memo cache.

Extraction (§3: POS tagging the sample, aligning the template, classifying
fields, parsing operations) is a pure function of ``(template tokens,
sample message)`` — everything else in the :class:`IntelKey` derives from
those two.  :class:`ExtractionCache` memoises that function.  Its one
owner is the detector: every
:class:`~repro.detection.detector.AnomalyDetector` owns one, built on
its own extractor and bounded by the detector's memo cap, so an
unexpected message that repeats (a retried fetch or connect line) is
extracted once.  Training keeps no memo: it extracts each log key once,
and a memo over the 59,873-line paper-scale corpus recorded 0 hits in
86 lookups.

The cached value is stored key-id-agnostic (``key_id=""``);
:meth:`ExtractionCache.extract` stamps the requested id on the way
out.  Intel Keys hold only tuples and frozen field specs, so the stamped
copy shares no mutable state with the memo.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from ..parsing.spell import LogKey
from .intelkey import IntelKey
from .pipeline import InformationExtractor


class ExtractionCache:
    """Memo for the log-key → Intel Key transformation.

    ``extractor`` is the :class:`InformationExtractor` to run on a miss;
    left out, one is built on first use.
    """

    def __init__(self, extractor: InformationExtractor | None = None) -> None:
        self._memo: dict[tuple[tuple[str, ...], str], IntelKey] = {}
        self._extractor = extractor
        self.hits = 0
        self.misses = 0

    @property
    def extractor(self) -> InformationExtractor:
        if self._extractor is None:
            self._extractor = InformationExtractor()
        return self._extractor

    def __len__(self) -> int:
        return len(self._memo)

    def extract(
        self,
        key_id: str,
        tokens: Sequence[str],
        sample: str,
        *,
        cap: int | None = None,
    ) -> IntelKey:
        """The Intel Key for one log key, memoised on (tokens, sample).

        With ``cap``, a miss that finds the memo holding ``cap`` entries
        resets it wholesale first; the hit/miss counters keep counting.
        """
        memo_key = (tuple(tokens), sample)
        cached = self._memo.get(memo_key)
        if cached is not None:
            self.hits += 1
            return replace(cached, key_id=key_id)
        self.misses += 1
        built = self.extractor.build_intel_key(
            LogKey(key_id=key_id, tokens=list(tokens), sample=sample)
        )
        if cap is not None and len(self._memo) >= cap:
            self._memo.clear()
        self._memo[memo_key] = replace(built, key_id="")
        return built

    def stats(self) -> tuple[int, int]:
        return self.hits, self.misses

    def clear(self) -> None:
        """Drop every memoised key and zero the counters.

        The extractor is kept: it holds no corpus state.
        """
        self._memo.clear()
        self.hits = 0
        self.misses = 0
