"""Timestamp decoding in the Hadoop and Spark formatters.

The formatters decode ``<date> HH:MM:SS`` from fixed slices, with the
date's midnight from a small cache filled by ``strptime``.  These tests
pin the decoder to a frozen copy of the earlier per-line
``datetime.strptime`` path (:func:`strptime_timestamp`), float bits
included, and check that a well-formed line with an impossible
timestamp (Feb 30, hour 24, second 60) is "not this format" rather than
an exception that takes ingest down.
"""

from __future__ import annotations

import re
from datetime import datetime, timezone

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.parsing.formatters import (
    HadoopFormatter,
    SparkFormatter,
    default_registry,
)
from repro.parsing.records import LogRecord
from repro.simulators import WorkloadGenerator
from repro.stream import FileFollowSource

HADOOP_FMT = "%Y-%m-%d %H:%M:%S"
SPARK_FMT = "%y/%m/%d %H:%M:%S"


def strptime_timestamp(ts: str, fmt: str, ms: str | None = None):
    """The earlier decoder, frozen: one ``strptime`` per line, epoch via
    an aware datetime, milliseconds added as a float.  ``None`` where
    ``strptime`` raised."""
    try:
        parsed = datetime.strptime(ts, fmt)
    except ValueError:
        return None
    seconds = parsed.replace(tzinfo=timezone.utc).timestamp()
    return seconds + int(ms or 0) / 1000.0 if fmt == HADOOP_FMT else seconds


# Frozen copies of the earlier formatters, for whole-record comparison.
_HADOOP_RE = re.compile(
    r"^(?P<ts>\d{4}-\d{2}-\d{2} \d{2}:\d{2}:\d{2})(?:,(?P<ms>\d{3}))?"
    r"\s+(?P<level>[A-Z]+)"
    r"\s+(?:\[(?P<thread>[^\]]*)\]\s+)?"
    r"(?P<source>[\w.$]+):\s"
    r"(?P<msg>.*)$"
)
_SPARK_RE = re.compile(
    r"^(?P<ts>\d{2}/\d{2}/\d{2} \d{2}:\d{2}:\d{2})"
    r"\s+(?P<level>[A-Z]+)"
    r"\s+(?P<source>[\w.$]+):\s"
    r"(?P<msg>.*)$"
)


def strptime_hadoop(line: str) -> LogRecord | None:
    match = _HADOOP_RE.match(line)
    if not match:
        return None
    return LogRecord(
        timestamp=strptime_timestamp(
            match.group("ts"), HADOOP_FMT, match.group("ms")
        ),
        level=match.group("level"),
        source=match.group("source").rsplit(".", 1)[-1],
        message=match.group("msg"),
        raw=line,
        meta={"thread": match.group("thread") or ""},
    )


def strptime_spark(line: str) -> LogRecord | None:
    match = _SPARK_RE.match(line)
    if not match:
        return None
    return LogRecord(
        timestamp=strptime_timestamp(match.group("ts"), SPARK_FMT),
        level=match.group("level"),
        source=match.group("source").rsplit(".", 1)[-1],
        message=match.group("msg"),
        raw=line,
    )


def same_float(a: float | None, b: float | None) -> bool:
    """``==`` plus equal bits (``0.0 == -0.0`` would otherwise pass)."""
    if a is None or b is None:
        return a is b
    return a == b and a.hex() == b.hex()


def decoded(formatter, line: str) -> float | None:
    record = formatter.try_parse(line)
    return None if record is None else record.timestamp


# Two-digit fields biased to the edges of their ranges, plus any value.
_EDGES = {
    "month": [0, 1, 2, 12, 13],
    "day": [0, 1, 28, 29, 30, 31, 32],
    "hour": [0, 23, 24],
    "minute": [0, 59, 60],
    "second": [0, 59, 60, 61],
}


def _field(name: str):
    return st.one_of(st.sampled_from(_EDGES[name]), st.integers(0, 99))


def _hms():
    return st.tuples(_field("hour"), _field("minute"), _field("second"))


# -- differential: hadoop ----------------------------------------------------


@settings(max_examples=1500, deadline=None)
@given(
    year=st.integers(1970, 2100),
    month=_field("month"),
    day=_field("day"),
    hms=_hms(),
    ms=st.one_of(st.none(), st.integers(0, 999)),
)
@example(year=1972, month=2, day=29, hms=(0, 0, 0), ms=None)  # leap
@example(year=1973, month=2, day=29, hms=(0, 0, 0), ms=None)  # not leap
@example(year=2000, month=2, day=29, hms=(12, 30, 45), ms=1)  # 400-year
@example(year=2100, month=2, day=29, hms=(12, 30, 45), ms=1)  # century
@example(year=2019, month=2, day=30, hms=(1, 2, 3), ms=None)
@example(year=2019, month=6, day=22, hms=(24, 0, 0), ms=0)
@example(year=2019, month=6, day=22, hms=(23, 59, 60), ms=999)
@example(year=1970, month=1, day=1, hms=(0, 0, 0), ms=None)
def test_hadoop_matches_strptime(year, month, day, hms, ms):
    hour, minute, second = hms
    ts = (f"{year:04d}-{month:02d}-{day:02d} "
          f"{hour:02d}:{minute:02d}:{second:02d}")
    ms_text = None if ms is None else f"{ms:03d}"
    line = ts + ("" if ms is None else f",{ms_text}") + " INFO C: m"
    want = strptime_timestamp(ts, HADOOP_FMT, ms_text)
    assert same_float(decoded(HadoopFormatter(), line), want)


# -- differential: spark -----------------------------------------------------


@settings(max_examples=1000, deadline=None)
@given(
    year=st.integers(0, 99),
    month=_field("month"),
    day=_field("day"),
    hms=_hms(),
)
def test_spark_matches_strptime(year, month, day, hms):
    hour, minute, second = hms
    ts = (f"{year:02d}/{month:02d}/{day:02d} "
          f"{hour:02d}:{minute:02d}:{second:02d}")
    want = strptime_timestamp(ts, SPARK_FMT)
    assert same_float(decoded(SparkFormatter(), ts + " INFO C: m"), want)


@pytest.mark.parametrize("year", range(100))
def test_spark_every_two_digit_year(year):
    """The 68/69 pivot (2068 vs 1969) and leap days come from strptime."""
    for date, time in [("01/01", "00:00:00"), ("02/28", "23:59:59"),
                       ("02/29", "12:00:00"), ("12/31", "23:59:59")]:
        ts = f"{year:02d}/{date} {time}"
        want = strptime_timestamp(ts, SPARK_FMT)
        assert same_float(decoded(SparkFormatter(), ts + " INFO C: m"), want)
    pivot = {68: 2068, 69: 1969}.get(year)
    if pivot is not None:
        record = SparkFormatter().try_parse(f"{year}/01/01 00:00:00 INFO C: m")
        expect = datetime(pivot, 1, 1, tzinfo=timezone.utc).timestamp()
        assert record.timestamp == expect


# -- whole records -----------------------------------------------------------


def _hadoop_lines(jobs) -> list[str]:
    lines = []
    for job in jobs:
        for record in job.records:
            stamp = datetime.fromtimestamp(
                record.timestamp + 1_500_000_000, tz=timezone.utc
            )
            ms = int((record.timestamp % 1) * 1000)
            lines.append(
                f"{stamp:%Y-%m-%d %H:%M:%S},{ms:03d} {record.level} "
                f"[{record.session_id}] "
                f"org.apache.hadoop.{record.source}: {record.message}"
            )
    return lines


def _spark_lines(jobs) -> list[str]:
    lines = []
    for job in jobs:
        for record in job.records:
            stamp = datetime.fromtimestamp(
                record.timestamp + 1_500_000_000, tz=timezone.utc
            )
            lines.append(
                f"{stamp:%y/%m/%d %H:%M:%S} {record.level} "
                f"org.apache.spark.{record.source}: {record.message}"
            )
    return lines


@pytest.mark.parametrize("genre, render, formatter, frozen", [
    ("mapreduce", _hadoop_lines, HadoopFormatter, strptime_hadoop),
    ("spark", _spark_lines, SparkFormatter, strptime_spark),
])
def test_records_identical_to_strptime_path(genre, render, formatter, frozen):
    lines = render(WorkloadGenerator(seed=3).run_batch(genre, 2))
    lines += [lines[0][:20] + "continuation", "not a log line"]
    parser = formatter()
    for line in lines:
        got, want = parser.try_parse(line), frozen(line)
        assert got == want
        if got is not None:
            assert got.timestamp.hex() == want.timestamp.hex()


# -- impossible timestamps do not match (one test per caller) ----------------

IMPOSSIBLE = [
    "2019-02-30 10:15:32,000 INFO [t] org.x.Task: bad day",
    "2019-06-22 24:00:00,000 INFO [t] org.x.Task: bad hour",
    "2019-06-22 10:15:60,000 INFO [t] org.x.Task: bad second",
]


def _good(n: int, message: str) -> str:
    return f"2019-06-22 10:15:3{n},000 INFO [t] org.x.Task: {message}"


@pytest.mark.parametrize("bad", IMPOSSIBLE)
def test_try_parse_rejects_impossible_timestamp(bad):
    assert HadoopFormatter().try_parse(bad) is None


@pytest.mark.parametrize("bad", IMPOSSIBLE)
def test_parse_lines_folds_impossible_timestamp_line(bad):
    lines = [_good(1, "one"), bad, _good(2, "two")]
    records = list(HadoopFormatter().parse_lines(lines))
    assert [r.message for r in records] == [f"one\n{bad}", "two"]


@pytest.mark.parametrize("bad", IMPOSSIBLE)
def test_registry_detect_survives_impossible_timestamp(bad):
    sample = [_good(1, "one"), bad, _good(2, "two")]
    assert isinstance(default_registry().detect(sample), HadoopFormatter)


@pytest.mark.parametrize("bad", IMPOSSIBLE)
def test_file_poll_keeps_every_record_around_impossible_line(bad, tmp_path):
    path = tmp_path / "app.log"
    lines = [_good(1, "one"), _good(2, "two"), bad, _good(3, "three")]
    path.write_text("\n".join(lines) + "\n")
    source = FileFollowSource(path, formatter="hadoop")
    records = source.poll(100) + source.flush_pending()
    assert [r.message for r in records] == ["one", f"two\n{bad}", "three"]
    assert source.quarantine.snapshot() == {}
