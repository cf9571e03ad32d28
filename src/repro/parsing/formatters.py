"""Log formatters for the targeted systems.

Paper §5: "Since the formats of logs generated by different systems vary, we
implement two log formatters for the targeted systems ... The formatters
simply recognize the log formats such as timestamps, output classes and log
contents by pattern matching.  Note that for new systems, users need to
customize and implement their own formatters."

We provide formatters for the Hadoop family (MapReduce, Tez, YARN — one
shared log4j layout) and for Spark, plus a generic fallback, and a registry
through which users plug in their own.

A line the formatter does not recognize continues the record before it
(a stack trace, a wrapped message).  :class:`LineFolder` is the one place
that folds such lines: :meth:`Formatter.parse_lines` runs it over a line
stream, and the streaming file follower
(:class:`repro.stream.FileFollowSource`) runs it over each block of lines
it reads, holding the last record open across polls.

A log writes many lines per second, so the Hadoop and Spark formatters
each remember the epoch seconds of the timestamp texts they have decoded,
up to ``_TS_MEMO_CAP`` entries, then start afresh.
:meth:`FormatterRegistry.get` builds a new formatter per call, so each
source has a memo of its own.
"""

from __future__ import annotations

import functools
import re
from abc import ABC, abstractmethod
from datetime import datetime, timezone
from itertools import islice
from typing import Callable, Iterable, Iterator

from .records import LogRecord

__all__ = [
    "Formatter",
    "LineFolder",
    "HadoopFormatter",
    "SparkFormatter",
    "GenericFormatter",
    "FormatterRegistry",
    "default_registry",
    "format_lines",
]


class Formatter(ABC):
    """Parses raw log lines into :class:`LogRecord` objects."""

    name: str = "abstract"

    @abstractmethod
    def try_parse(self, line: str) -> LogRecord | None:
        """Parse one raw line; None if the line does not match the format
        (a timestamp that names no real instant does not match)."""

    def parse_lines(self, lines: Iterable[str]) -> Iterator[LogRecord]:
        """Parse a line stream, folding continuation lines (stack traces)
        into the preceding record's message."""
        folder = LineFolder(self)
        lines = iter(lines)
        while chunk := [
            line.rstrip("\n") for line in islice(lines, _CHUNK_LINES)
        ]:
            out: list[LogRecord] = []
            folder.fold(chunk, out)
            yield from out
        if folder.pending is not None:
            yield folder.pending


#: Lines :meth:`Formatter.parse_lines` folds per call.
_CHUNK_LINES = 4096


class LineFolder:
    """Turns lines into records, folding each continuation line into the
    record before it.

    The newest record stays :attr:`pending` until a later header line or
    the caller releases it, since more continuation lines may follow.
    A blank or whitespace-only line is skipped.  A line that is neither a
    header nor has a record to continue is an *orphan*.
    """

    __slots__ = ("_parse", "pending", "pending_line")

    def __init__(self, formatter: Formatter) -> None:
        self._parse = formatter.try_parse
        #: The newest record, still open to continuation lines.
        self.pending: LogRecord | None = None
        #: Index, in the last :meth:`fold` call's lines, of the header
        #: line of :attr:`pending`; -1 if it came from an earlier call.
        self.pending_line = -1

    def fold(
        self,
        lines: list[str],
        out: list[LogRecord],
        limit: int | None = None,
        orphans: list[int] | None = None,
    ) -> int:
        """Fold ``lines`` (without line ends), appending each completed
        record to ``out``; return how many lines were consumed.

        With ``limit`` (above ``len(out)`` on entry), stop after the line
        whose record brought ``len(out)`` to ``limit``.  Orphan lines are
        dropped, or their indices appended to ``orphans`` when given.
        """
        parse = self._parse
        pending = self.pending
        pending_line = -1
        consumed = len(lines)
        for i, line in enumerate(lines):
            if not line or line.isspace():
                continue
            record = parse(line)
            if record is not None:
                if pending is not None:
                    out.append(pending)
                pending, pending_line = record, i
                if limit is not None and len(out) >= limit:
                    consumed = i + 1
                    break
            elif pending is not None:
                pending.message += "\n" + line.strip()
                pending.raw += "\n" + line
            elif orphans is not None:
                orphans.append(i)
        self.pending = pending
        self.pending_line = pending_line
        return consumed


# 2019-06-22 10:15:32,123 INFO [fetcher#1] org.apache...reduce.Fetcher: msg
_HADOOP_RE = re.compile(
    r"^(?P<ts>\d{4}-\d{2}-\d{2} \d{2}:\d{2}:\d{2})(?:,(?P<ms>\d{3}))?"
    r"\s+(?P<level>[A-Z]+)"
    r"\s+(?:\[(?P<thread>[^\]]*)\]\s+)?"
    r"(?P<source>[\w.$]+):\s"
    r"(?P<msg>.*)$"
)

# 19/06/22 10:15:32 INFO BlockManager: msg
_SPARK_RE = re.compile(
    r"^(?P<ts>\d{2}/\d{2}/\d{2} \d{2}:\d{2}:\d{2})"
    r"\s+(?P<level>[A-Z]+)"
    r"\s+(?P<source>[\w.$]+):\s"
    r"(?P<msg>.*)$"
)


def _epoch(dt: datetime) -> float:
    return dt.replace(tzinfo=timezone.utc).timestamp()


def _strptime_epoch(text: str, fmt: str) -> float | None:
    """UTC epoch seconds of ``text``, or None if ``strptime`` rejects it
    (an impossible date or time such as Feb 30, hour 24 or second 60)."""
    try:
        return _epoch(datetime.strptime(text, fmt))
    except ValueError:
        return None


@functools.lru_cache(maxsize=4096)
def _day_start(date: str, fmt: str) -> int | None:
    """Epoch seconds of midnight UTC on ``date``; None if no such day.

    ``strptime`` still decides calendar validity and Spark's two-digit
    year pivot; a log spans few days, so the cache almost always hits.
    """
    seconds = _strptime_epoch(date, fmt)
    return None if seconds is None else int(seconds)


def _decode_ts(ts: str, date_fmt: str) -> float | None:
    """Epoch seconds of ``<date> HH:MM:SS``: the date from the day
    cache, the time from fixed slices.  The integer sum converts to the
    same float ``_epoch`` gives; anything off the fast path goes through
    the full ``strptime`` instead."""
    day = _day_start(ts[:-9], date_fmt)
    hour, minute, second = int(ts[-8:-6]), int(ts[-5:-3]), int(ts[-2:])
    if day is None or hour > 23 or minute > 59 or second > 59:
        return _strptime_epoch(ts, f"{date_fmt} %H:%M:%S")
    return float(day + hour * 3600 + minute * 60 + second)


#: Entries a formatter's timestamp memo holds before it is reset
#: wholesale, the bound of the repo's other memos.
_TS_MEMO_CAP = 4096


def _decode_into(
    memo: dict[str, float], ts: str, date_fmt: str
) -> float | None:
    """:func:`_decode_ts`, remembered in ``memo`` when it names a real
    instant.  A rejected timestamp is not stored, so a memo miss is
    never mistaken for a rejection; it is decoded again each time."""
    seconds = _decode_ts(ts, date_fmt)
    if seconds is not None:
        if len(memo) >= _TS_MEMO_CAP:
            memo.clear()
        memo[ts] = seconds
    return seconds


class HadoopFormatter(Formatter):
    """Hadoop-family log4j layout (MapReduce, Tez, YARN daemons)."""

    name = "hadoop"

    def __init__(self) -> None:
        #: Timestamp text → epoch seconds (see :func:`_decode_into`).
        self._ts_memo: dict[str, float] = {}

    def try_parse(self, line: str) -> LogRecord | None:
        match = _HADOOP_RE.match(line)
        if not match:
            return None
        ts, ms, level, thread, source, message = match.groups()
        seconds = self._ts_memo.get(ts)
        if seconds is None:
            seconds = _decode_into(self._ts_memo, ts, "%Y-%m-%d")
            if seconds is None:
                return None
        return LogRecord(
            timestamp=seconds + (int(ms) / 1000.0 if ms else 0.0),
            level=level,
            source=source.rsplit(".", 1)[-1],
            message=message,
            raw=line,
            meta={"thread": thread or ""},
        )


class SparkFormatter(Formatter):
    """Spark's default console layout (``yy/MM/dd HH:mm:ss LEVEL Class``)."""

    name = "spark"

    def __init__(self) -> None:
        #: Timestamp text → epoch seconds (see :func:`_decode_into`).
        self._ts_memo: dict[str, float] = {}

    def try_parse(self, line: str) -> LogRecord | None:
        match = _SPARK_RE.match(line)
        if not match:
            return None
        ts, level, source, message = match.groups()
        seconds = self._ts_memo.get(ts)
        if seconds is None:
            seconds = _decode_into(self._ts_memo, ts, "%y/%m/%d")
            if seconds is None:
                return None
        return LogRecord(
            timestamp=seconds,
            level=level,
            source=source.rsplit(".", 1)[-1],
            message=message,
            raw=line,
        )


class GenericFormatter(Formatter):
    """Fallback: the whole line is the message, with a running timestamp."""

    name = "generic"

    def __init__(self) -> None:
        self._counter = 0

    def try_parse(self, line: str) -> LogRecord | None:
        self._counter += 1
        return LogRecord(
            timestamp=float(self._counter),
            level="INFO",
            source="",
            message=line,
            raw=line,
        )


class FormatterRegistry:
    """Named formatter registry with auto-detection.

    Auto-detection samples the first lines of a stream and picks the
    formatter that successfully parses the most of them.
    """

    def __init__(self) -> None:
        self._formatters: dict[str, Callable[[], Formatter]] = {}

    def register(self, name: str, factory: Callable[[], Formatter]) -> None:
        self._formatters[name] = factory

    def get(self, name: str) -> Formatter:
        try:
            return self._formatters[name]()
        except KeyError:
            raise KeyError(
                f"unknown formatter {name!r}; registered: "
                f"{sorted(self._formatters)}"
            ) from None

    def names(self) -> list[str]:
        return sorted(self._formatters)

    def detect(self, sample_lines: list[str]) -> Formatter:
        best: Formatter | None = None
        best_hits = -1
        for name in self._formatters:
            if name == "generic":
                continue
            formatter = self.get(name)
            hits = sum(
                1 for line in sample_lines if formatter.try_parse(line)
            )
            if hits > best_hits:
                best, best_hits = formatter, hits
        if best is None or best_hits == 0:
            return self.get("generic")
        return best


def default_registry() -> FormatterRegistry:
    registry = FormatterRegistry()
    registry.register("hadoop", HadoopFormatter)
    registry.register("mapreduce", HadoopFormatter)
    registry.register("tez", HadoopFormatter)
    registry.register("yarn", HadoopFormatter)
    registry.register("spark", SparkFormatter)
    registry.register("generic", GenericFormatter)
    return registry


def format_lines(
    lines: Iterable[str], formatter: Formatter | str = "generic"
) -> list[LogRecord]:
    """Convenience wrapper: parse ``lines`` with a formatter (by name)."""
    if isinstance(formatter, str):
        formatter = default_registry().get(formatter)
    return list(formatter.parse_lines(lines))
