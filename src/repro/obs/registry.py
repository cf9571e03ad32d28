"""Metric primitives: counters, gauges, fixed-bucket histograms.

The registry is the single mutable store behind the runtime
observability layer (ISSUE 5): hot paths increment metric objects they
obtained once at instrumentation time, exporters walk the registry to
produce the Prometheus text exposition or the canonical JSON snapshot
(:mod:`repro.obs.export`).

Design constraints, in priority order:

* **dependency-free** — stdlib only, so every subsystem (parsing,
  detection, stream, serve) can depend on it without import cycles;
* **cheap when idle** — an uninstrumented ``SpellParser.match`` pays one
  ``is None`` check and nothing else; an instrumented one pays a couple
  of lock-guarded float adds;
* **thread-safe** — the stream runtime's stats can be scraped from the
  ``--metrics-port`` exporter thread while the event loop increments;
  one :class:`threading.RLock` per registry is shared by all its metric
  children (contention is negligible at the rates involved);
* **deterministic exports** — metric and label ordering is sorted, so
  snapshot output is canonical and diffable (the same property the
  model store relies on).

Naming follows the Prometheus conventions: ``*_total`` counters,
``*_seconds`` histograms, bare nouns for gauges.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from typing import Any, Callable, Iterator, Mapping, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram bucket upper bounds, log-spaced from 1µs to 10s —
#: sized for per-message match/extraction latencies (paper §6.5 measures
#: parsing overhead in this range) while still resolving whole-phase
#: spans at the top end.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    1e-6, 2.5e-6, 5e-6,
    1e-5, 2.5e-5, 5e-5,
    1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0,
)

#: Canonical key for one label set: sorted (name, value) pairs.
_LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: Mapping[str, str]) -> _LabelKey:
    for name in labels:
        if not _LABEL_RE.match(name):
            raise ValueError(f"invalid label name {name!r}")
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class _Metric:
    """Common family behaviour: identity, labeled children, samples.

    A metric object is both the *family* (what the registry hands out)
    and its own unlabeled child; :meth:`labels` returns (creating on
    first use) the child for one label set.  Children share the
    family's lock and never register themselves — the family owns them.
    """

    kind = "untyped"

    def __init__(
        self, name: str, help: str, lock: threading.RLock
    ) -> None:
        self.name = name
        self.help = help
        self._lock = lock
        self._children: dict[_LabelKey, "_Metric"] = {}
        # Children by the caller's raw ``labelvalues.items()``, so a
        # repeated label set skips validation and sorting.  Only
        # all-``str`` label sets are entered: ``1``, ``1.0`` and
        # ``True`` compare equal but name different children.
        self._by_raw: dict[tuple[tuple[str, Any], ...], "_Metric"] = {}
        self._labels: _LabelKey = ()
        self._touched = False

    def labels(self, **labelvalues: str) -> Any:
        """The child metric for one label set (created on first use)."""
        raw = tuple(labelvalues.items())
        try:
            child = self._by_raw.get(raw)
        except TypeError:  # an unhashable label value
            child = None
        if child is not None:
            return child
        key = _label_key(labelvalues)
        if not key:
            return self
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = type(self)(self.name, self.help, self._lock)
                self._copy_config(child)
                child._labels = key
                self._children[key] = child
            if all(type(value) is str for _, value in raw):
                self._by_raw[raw] = child
            return child

    def remove(self, **labelvalues: str) -> None:
        """Drop the child for one label set, so its series leaves every
        later read; a no-op when there is none.  A later
        :meth:`labels` call for the set creates a fresh child."""
        key = _label_key(labelvalues)
        with self._lock:
            child = self._children.pop(key, None)
            if child is None:
                return
            for raw in [r for r, c in self._by_raw.items() if c is child]:
                del self._by_raw[raw]

    def _copy_config(self, child: "_Metric") -> None:
        """Propagate construction parameters to a new child."""

    def samples(self) -> list[tuple[dict[str, str], Any]]:
        """``(labels, value)`` pairs: unlabeled first, children sorted."""
        with self._lock:
            out: list[tuple[dict[str, str], Any]] = []
            if self._touched or not self._children:
                out.append((dict(self._labels), self._sample_value()))
            for key in sorted(self._children):
                child = self._children[key]
                out.append((dict(key), child._sample_value()))
            return out

    def _sample_value(self) -> Any:
        raise NotImplementedError


class Counter(_Metric):
    """Monotonically increasing count (events, records, failures)."""

    kind = "counter"

    def __init__(
        self, name: str, help: str, lock: threading.RLock
    ) -> None:
        super().__init__(name, help, lock)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(
                f"counter {self.name} cannot decrease (inc {amount})"
            )
        with self._lock:
            self._value += amount
            self._touched = True

    def restore(self, value: float) -> None:
        """Overwrite the count — **checkpoint resume only**.

        Counters are monotonic in normal operation; the stream runtime
        uses this single escape hatch to carry cumulative counts across
        a process restart (the checkpoint is the continuation of the
        same logical run).
        """
        if value < 0:
            raise ValueError(f"counter {self.name} cannot go negative")
        with self._lock:
            self._value = float(value)
            self._touched = True

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def _sample_value(self) -> float:
        return self._value


class Gauge(_Metric):
    """Point-in-time value that can go up and down (depths, sizes)."""

    kind = "gauge"

    def __init__(
        self, name: str, help: str, lock: threading.RLock
    ) -> None:
        super().__init__(name, help, lock)
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)
            self._touched = True

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount
            self._touched = True

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def _sample_value(self) -> float:
        return self._value


class Histogram(_Metric):
    """Fixed-bucket histogram with cumulative (Prometheus-style) counts.

    Buckets are upper bounds (``le``); every observation lands in each
    bucket whose bound is >= the value, plus the implicit ``+Inf``
    bucket.  Quantiles are estimated from the bucket counts the same
    way ``histogram_quantile`` does: linear interpolation within the
    bucket that crosses the target rank.
    """

    kind = "histogram"

    def __init__(
        self, name: str, help: str, lock: threading.RLock
    ) -> None:
        super().__init__(name, help, lock)
        self._bounds: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS
        self._counts = [0] * (len(self._bounds) + 1)
        self._sum = 0.0
        self._count = 0

    def _configure(self, buckets: Sequence[float]) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("histogram buckets must be strictly increasing")
        # _bounds/_counts must swap atomically w.r.t. observe(): a
        # concurrent observer indexing new bounds against old counts
        # would write out of range.  The family RLock is reentrant, so
        # callers already holding it (registry, labels()) are fine.
        with self._lock:
            self._bounds = bounds
            self._counts = [0] * (len(bounds) + 1)

    def _copy_config(self, child: "_Metric") -> None:
        assert isinstance(child, Histogram)
        child._configure(self._bounds)

    def _bucket(self, value: float) -> int:
        """Index into ``_counts`` of the first bound >= ``value``; the
        ``+Inf`` slot for values above every bound and for NaN (which
        compares false against every bound, so ``bisect_left`` alone
        would file it under the first)."""
        if value != value:
            return len(self._bounds)
        return bisect_left(self._bounds, value)

    def observe(self, value: float) -> None:
        with self._lock:
            self._sum += value
            self._count += 1
            self._touched = True
            self._counts[self._bucket(value)] += 1

    def observe_many(self, value: float, count: int) -> None:
        """Record ``count`` observations of ``value`` in one update.

        Equivalent to ``count`` calls to :meth:`observe` (same bucket,
        sum and count movement) at one lock acquisition and one bucket
        search — the batched match path reports its amortized
        per-record latency this way.
        """
        if count <= 0:
            return
        with self._lock:
            self._sum += value * count
            self._count += count
            self._touched = True
            self._counts[self._bucket(value)] += count

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def bucket_counts(self) -> list[tuple[float, int]]:
        """Cumulative ``(le, count)`` pairs, ending with ``(inf, count)``."""
        with self._lock:
            out: list[tuple[float, int]] = []
            running = 0
            for bound, n in zip(self._bounds, self._counts):
                running += n
                out.append((bound, running))
            out.append((math.inf, self._count))
            return out

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (0 <= q <= 1); 0.0 when empty.

        Interpolates linearly inside the crossing bucket; observations
        beyond the last finite bound report that bound (the estimate is
        clamped, exactly like PromQL's ``histogram_quantile``).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            if self._count == 0:
                return 0.0
            rank = q * self._count
            running = 0
            lower = 0.0
            for bound, n in zip(self._bounds, self._counts):
                if n and running + n >= rank:
                    fraction = (rank - running) / n
                    return lower + (bound - lower) * fraction
                running += n
                lower = bound
            return self._bounds[-1]

    def _sample_value(self) -> dict[str, Any]:
        return {
            "count": self._count,
            "sum": self._sum,
            "buckets": [
                ["+Inf" if math.isinf(le) else le, n]
                for le, n in self._bucket_counts_locked()
            ],
        }

    def _bucket_counts_locked(self) -> list[tuple[float, int]]:
        out: list[tuple[float, int]] = []
        running = 0
        for bound, n in zip(self._bounds, self._counts):
            running += n
            out.append((bound, running))
        out.append((math.inf, self._count))
        return out


class MetricsRegistry:
    """Get-or-create store of named metrics.

    ``counter`` / ``gauge`` / ``histogram`` return the existing metric
    when the name is already registered (so independent call sites can
    share one series) and raise :class:`TypeError` when the name is
    registered under a different kind.

    Collectors (:meth:`add_collector`) set metrics whose value is cheap
    to compute on read but costly to keep current: :meth:`metrics`, the
    walk behind every export, runs them first.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._metrics: dict[str, _Metric] = {}
        self._collectors: list[Callable[[], None]] = []

    def _get_or_create(
        self, cls: type[_Metric], name: str, help: str
    ) -> _Metric:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise TypeError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {cls.kind}"
                    )
                return existing
            metric = cls(name, help, self._lock)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        metric = self._get_or_create(Counter, name, help)
        assert isinstance(metric, Counter)
        return metric

    def gauge(self, name: str, help: str = "") -> Gauge:
        metric = self._get_or_create(Gauge, name, help)
        assert isinstance(metric, Gauge)
        return metric

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] | None = None,
    ) -> Histogram:
        with self._lock:
            created = name not in self._metrics
            metric = self._get_or_create(Histogram, name, help)
            assert isinstance(metric, Histogram)
            if created and buckets is not None:
                metric._configure(buckets)
            return metric

    def add_collector(self, collect: Callable[[], None]) -> None:
        """Run ``collect`` whenever the registry is read as a whole."""
        with self._lock:
            self._collectors.append(collect)

    def collect(self) -> None:
        """Run every collector, in the order they were added."""
        with self._lock:
            collectors = tuple(self._collectors)
        for collect in collectors:
            collect()

    def metrics(self) -> Iterator[_Metric]:
        """Registered metrics in sorted name order, after
        :meth:`collect`."""
        self.collect()
        with self._lock:
            items = sorted(self._metrics.items())
        for _, metric in items:
            yield metric

    def get(self, name: str) -> _Metric | None:
        with self._lock:
            return self._metrics.get(name)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._metrics

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)
