"""Paths, names and small statistics shared by the benchmark scripts."""

from __future__ import annotations

import gc
import json
import math
import random
import re
import statistics
import sys
import time
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
#: Parent of each run's scratch directory.  It lies inside the checkout
#: because the benchmark writes nowhere else; git ignores it, and a run
#: removes its own directory when it ends.
WORK_ROOT = ROOT / ".bench_work"

WORKLOADS = ("train", "detect-batch", "stream-backfill", "serve-openloop")

#: The three log genres; each has one fixture model named after it.
GENRES = ("mapreduce", "spark", "tez")

#: Serve tenant id -> the genre (and published model name) it runs.
SERVE_TENANTS = (
    ("mr-a", "mapreduce"),
    ("mr-b", "mapreduce"),
    ("spark", "spark"),
    ("tez", "tez"),
)

#: A serve run replays its schedule this many times, each on a fresh
#: service, so that its rate and CPU come from the least-disturbed round.
SERVE_ROUNDS = 4


#: What one :class:`HostProbe` sample takes at the speed every scaled
#: time is reported at: about its time on a quiet 2-vCPU Xeon VM under
#: Python 3.11.
PROBE_REFERENCE_S = 0.006
#: Least time between two probe samples.
PROBE_INTERVAL_S = 0.2


class _Row:
    __slots__ = ("index", "name", "pair")

    def __init__(self, index: int, name: str, pair: tuple[int, int]) -> None:
        self.index = index
        self.name = name
        self.pair = pair


class HostProbe:
    """A fixed piece of Python work, timed next to each unit of a
    measured phase to scale the unit's time to one host speed.

    On a shared 2-vCPU Xeon VM, other tenants slowed all Python work
    together by up to 2x, in stretches of seconds to many minutes, and
    no run that fits the time budget averages that out.  The slowdown is
    not the same for every kind of work: in a 12-minute run of train
    and detection units back to back, their raw per-window times spread
    by 21% and 30% of their median over 20-s windows (interquartile
    range).  Scaled by a probe that only tokenizes lines and counts the
    tokens in a dict they spread by 6% and 6%; scaled by this probe,
    which also scans lines with a regular expression and builds and
    sorts small objects -- what the parsers, Spell and the extractors
    spend their time on -- by 3% and 1.4%.  The probe runs with the
    garbage collector off, so the program's heap does not change what
    it costs.
    """

    _PATTERN = re.compile(r"(\w+)=(\d+)|container_(\d+)_(\d+)")

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        rng = random.Random(0)
        words = [f"w{rng.randrange(20000)}" for _ in range(3600)]
        self._lines = [" ".join(words[i:i + 12])
                       for i in range(0, len(words), 12)]
        self._events = [
            f"task attempt_{i} container_{i}_{i * 7} size={i * 13} "
            f"took {i % 97} ms"
            for i in range(800)
        ]
        self._clock = clock
        self.last = self.sample()

    def _work(self) -> int:
        counts: dict[str, int] = {}
        for line in self._lines:
            for token in line.split():
                counts[token] = counts.get(token, 0) + 1
        found = sum(
            1 for event in self._events
            for _ in self._PATTERN.finditer(event)
        )
        rows = [_Row(i, str(i), (i, i)) for i in range(6000)]
        rows.sort(key=lambda row: row.name)
        return len(sorted(counts.items())) + found + len(rows)

    def sample(self) -> float:
        """Time the probe once; the sample is the next unit's "before"."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = self._clock()
            self._work()
            self._at = self._clock()
            self.last = self._at - start
        finally:
            if enabled:
                gc.enable()
        self._factor = PROBE_REFERENCE_S / self.last
        return self.last

    def factor(self) -> float:
        """Scale for a unit that has just ended: the reference time over
        the mean of the latest sample (taken before the unit) and a new
        one (taken now, and the next unit's "before").

        Within :data:`PROBE_INTERVAL_S` of the latest sample no new one
        is taken and the latest scale is returned again, so units of a
        few milliseconds (one detection job) are not slowed by probing.
        """
        if self._clock() - self._at >= PROBE_INTERVAL_S:
            before = self.last
            self.sample()
            self._factor = PROBE_REFERENCE_S / ((before + self.last) / 2)
        return self._factor


def use_src() -> None:
    """Put the repository's ``src`` first on ``sys.path``.

    Exits with status 2 when the package is missing, so a checkout that
    holds only the benchmark fails before printing any result.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            f"error: package not found at {SRC / 'repro'}; run from a "
            f"full checkout\n"
        )
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def model_path(work: Path, genre: str) -> Path:
    """Where a workload's fixture model artifact for ``genre`` lives."""
    return work / f"model-{genre}.json"


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        only = values[0] if values else 0.0
        return only, only, only
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3
