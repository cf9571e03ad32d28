"""The training process's Intel Key extraction memo.

Every worker process keeps one :class:`~repro.extraction.cache.ExtractionCache`
alive across tasks, so a template that dozens of shards rediscover is
POS-tagged once per process and served from the memo afterwards.
:func:`~repro.parallel.pipeline.train_parallel` clears the parent's memo
when it starts, so the memo holds at most one training run's keys; pool
workers are fresh processes for each run.  Detection never touches this
instance: each detector owns its own memo.
"""

from __future__ import annotations

from ..extraction.cache import ExtractionCache

#: The per-process singleton used by worker tasks (and by the parent for
#: the canonical model's extraction pass).
_PROCESS_CACHE = ExtractionCache()


def process_cache() -> ExtractionCache:
    return _PROCESS_CACHE
