"""The file follower, against a frozen copy of the per-line reader.

:class:`LineFollower` below is a frozen copy of the follower's reading
path as it was when records were read one ``readline()`` at a time:
``tell()`` gave each line's offset, and ``_consume_line`` decoded,
NUL-checked, parsed and folded one line per call.  A hypothesis test
writes the same file contents for both readers in random byte-sized
pieces, polls both with random ``max_records`` after each piece, and
requires, after every poll:

* the same records, compared on every field;
* the same quarantine entries (reason, text, offset);
* the same ``position()``.

The generated files mix header lines, continuations (also orphaned ones
at the start), blank and whitespace-only lines, NUL lines, invalid
UTF-8, valid non-ASCII text (U+FFFD included, which the follower has
always quarantined as a decode error), lines longer than a read block
and ``\\r\\n`` line ends.  They are read at the default block size and
at block sizes small enough that most files span many blocks.  Every
``position()`` seen along the way is then resumed from with ``seek()``
by a fresh pair, and ``finalize()`` must release the same tail.

``REPRO_CHAOS_SEED`` seeds the examples, as in the chaos suite.
"""

from __future__ import annotations

import os
from typing import Any

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from repro.parsing.formatters import default_registry
from repro.parsing.records import LogRecord, yarn_session_key
from repro.stream import FileFollowSource, ListQuarantine
from repro.stream import source as source_module
from repro.stream.resilience import (
    REASON_BINARY,
    REASON_DECODE,
    REASON_TRUNCATED,
    REASON_UNPARSEABLE,
)

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "1"))

#: Longer than the follower's default read block.
LONG = source_module.BLOCK_SIZE + 3


class LineFollower:
    """Frozen copy of ``FileFollowSource``'s per-line reading path."""

    def __init__(self, path, formatter) -> None:
        self.path = os.fspath(path)
        self.formatter = default_registry().get(formatter)
        self.session_key = yarn_session_key
        self.quarantine = ListQuarantine()
        self._offset = 0
        self._pending: LogRecord | None = None
        self._pending_offset = 0
        self._inode: int | None = None

    def poll(self, max_records: int) -> list[LogRecord]:
        out: list[LogRecord] = []
        try:
            fp = open(self.path, "rb")
        except FileNotFoundError:
            return out
        with fp:
            self._detect_regression(fp, out)
            fp.seek(self._offset)
            while len(out) < max_records:
                line_start = fp.tell()
                raw = fp.readline()
                if not raw.endswith(b"\n"):
                    break
                self._offset = fp.tell()
                self._consume_line(raw, line_start, out)
        return out

    def _detect_regression(self, fp, out: list[LogRecord]) -> None:
        stat = os.fstat(fp.fileno())
        inode = stat.st_ino or None
        if (
            self._inode is not None
            and inode is not None
            and inode != self._inode
        ) or stat.st_size < self._offset:
            self._reset_to_start(out)
        self._inode = inode

    def _reset_to_start(self, out: list[LogRecord]) -> None:
        if self._pending is not None:
            out.append(self.session_key(self._pending))
            self._pending = None
        self._offset = 0
        self._pending_offset = 0

    def _consume_line(
        self, raw: bytes, line_start: int, out: list[LogRecord]
    ) -> None:
        if b"\x00" in raw:
            self._quarantine(REASON_BINARY, raw, line_start)
            return
        line = raw.decode("utf-8", errors="replace").rstrip("\n")
        if "�" in line:
            self._quarantine(REASON_DECODE, raw, line_start)
            return
        if not line.strip():
            return
        record = self.formatter.try_parse(line)
        if record is not None:
            if self._pending is not None:
                out.append(self.session_key(self._pending))
            self._pending = record
            self._pending_offset = line_start
        elif self._pending is not None:
            self._pending.message += "\n" + line.strip()
            self._pending.raw += "\n" + line
        else:
            self._quarantine(REASON_UNPARSEABLE, raw, line_start)

    def _quarantine(self, reason: str, raw: bytes, offset: int) -> None:
        self.quarantine.put(
            reason,
            raw.decode("utf-8", errors="replace").rstrip("\n"),
            source=self.path,
            offset=offset,
        )

    def flush_pending(self) -> list[LogRecord]:
        if self._pending is None:
            return []
        record, self._pending = self._pending, None
        self._pending_offset = self._offset
        return [self.session_key(record)]

    def finalize(self) -> list[LogRecord]:
        size = os.path.getsize(self.path)
        if size > self._offset:
            with open(self.path, "rb") as fp:
                fp.seek(self._offset)
                tail = fp.read()
            if tail.strip() and not tail.endswith(b"\n"):
                self._quarantine(REASON_TRUNCATED, tail, self._offset)
                self._offset = size
        return self.flush_pending()

    def position(self) -> dict[str, Any]:
        offset = (
            self._pending_offset if self._pending is not None
            else self._offset
        )
        return {"kind": "file", "path": self.path, "offset": offset}

    def seek(self, position: dict[str, Any]) -> None:
        self._offset = int(position.get("offset", 0))
        self._pending = None
        self._pending_offset = self._offset
        self._inode = None


# -- generated file contents ------------------------------------------------

_TEXT = st.text(
    alphabet=st.sampled_from(
        list("abcXYZ019 :_.#=-\t\r\x0c\x1c")
        + ["é", "ß", "✓", "中", "�", " ", "\x85", "\U0001f600"]
    ),
    max_size=24,
)


@st.composite
def _header(draw) -> bytes:
    second, milli = draw(st.integers(0, 59)), draw(st.integers(0, 999))
    container = draw(st.sampled_from(
        ["", " container_1_0001_01_000001", " container_1_0002_01_000007",
         " application_1_0003"]
    ))
    text = f"2019-06-22 10:15:{second:02d},{milli:03d} INFO [main] " \
           f"org.apache.hadoop.Worker: {draw(_TEXT)}{container}"
    return text.encode("utf-8")


_LINE = st.one_of(
    _header(),
    _header(),
    _TEXT.map(lambda t: ("\tat org.x.Y.z(Y.java:1) " + t).encode("utf-8")),
    _TEXT.map(lambda t: t.encode("utf-8")),
    st.sampled_from([b"", b" ", b"\t", b"  \t ", b"\r", b"\x0c", b"\xc2\xa0"]),
    st.sampled_from([b"\x00", b"bin\x00ary", b"\x00\xff\xfe"]),
    st.sampled_from([b"bad \xff utf8", b"\xc3", b"tail \xe2\x9c", b"\xed\xa0\x80"]),
    st.integers(0, 40).map(
        lambda n: b"2019-06-22 10:16:00,000 INFO [main] org.Long: "
        + b"x" * (LONG + n)
    ),
    st.integers(0, 40).map(lambda n: b"\tat " + "é".encode() * (LONG // 2 + n)),
)

_FILES = st.lists(
    st.tuples(_LINE, st.sampled_from([b"\n", b"\n", b"\r\n"])),
    max_size=30,
).map(lambda lines: b"".join(line + end for line, end in lines))


@st.composite
def _script(draw):
    """File bytes, an unterminated tail, cut points and poll sizes."""
    body = draw(_FILES)
    tail = draw(st.sampled_from([b"", b"2019-06-22 10:17", b"partial \xff"]))
    data = body + tail
    cuts = sorted(draw(st.lists(st.integers(0, len(data)), max_size=12)))
    pieces = [data[a:b] for a, b in zip([0] + cuts, cuts + [len(data)])]
    polls = draw(st.lists(
        st.integers(0, 9), min_size=len(pieces), max_size=len(pieces),
    ))
    flush = draw(st.lists(
        st.booleans(), min_size=len(pieces), max_size=len(pieces),
    ))
    return data, pieces, polls, flush


# -- the comparison --------------------------------------------------------


def _pair(path, formatter):
    return (
        LineFollower(path, formatter),
        FileFollowSource(path, formatter=formatter),
    )


def _same(oracle, follower, got, want) -> None:
    assert got == want  # LogRecord equality compares every field
    assert follower.quarantine.entries == oracle.quarantine.entries
    assert follower.position() == oracle.position()


def _poll_until_quiet(oracle, follower, size: int, flush: bool,
                      positions: list[dict]) -> None:
    """Poll both until they return nothing, comparing each poll; then
    maybe release the held-back record, as the runtime does on a quiet
    poll."""
    while True:
        want = oracle.poll(size)
        got = follower.poll(size)
        _same(oracle, follower, got, want)
        positions.append(follower.position())
        if not want:
            break
        if size == 0:
            return
    if flush:
        _same(oracle, follower, follower.flush_pending(),
              oracle.flush_pending())
        positions.append(follower.position())


def _drain(oracle, follower) -> None:
    _poll_until_quiet(oracle, follower, 5, flush=False, positions=[])
    _same(oracle, follower, follower.finalize(), oracle.finalize())


@pytest.mark.parametrize("block", [5, 100, source_module.BLOCK_SIZE])
@pytest.mark.parametrize("formatter", ["hadoop", "generic"])
@seed(CHAOS_SEED)
@settings(
    max_examples=120, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture,
                           HealthCheck.too_slow],
)
@given(script=_script())
def test_follower_matches_per_line_reader(tmp_path, monkeypatch, block,
                                          formatter, script):
    # Small blocks put block boundaries inside most files, and every
    # line is longer than a 5-byte block.
    monkeypatch.setattr(source_module, "BLOCK_SIZE", block)
    data, pieces, polls, flushes = script
    path = tmp_path / "follow.log"
    path.write_bytes(b"")
    oracle, follower = _pair(path, formatter)
    positions: list[dict] = [follower.position()]
    for piece, size, flush in zip(pieces, polls, flushes):
        with open(path, "ab") as fp:
            fp.write(piece)
        _poll_until_quiet(oracle, follower, size, flush, positions)
    _drain(oracle, follower)
    assert path.read_bytes() == data
    # Resume a fresh pair from every position taken along the way.
    for offset in sorted({p["offset"] for p in positions}):
        oracle, follower = _pair(path, formatter)
        position = {"kind": "file", "path": str(path), "offset": offset}
        oracle.seek(position)
        follower.seek(position)
        _drain(oracle, follower)


def test_truncation_releases_pending_like_the_per_line_reader(tmp_path):
    """A file cut below the consumed offset is read again from its
    start, with the held-back record released first."""
    path = tmp_path / "follow.log"
    header = b"2019-06-22 10:15:00,000 INFO [main] org.apache.X: m%d\n"
    path.write_bytes(b"".join(header % i for i in range(4)))
    oracle, follower = _pair(path, "hadoop")
    _same(oracle, follower, follower.poll(10), oracle.poll(10))
    path.write_bytes(header % 9 + b"\tat continuation\n")
    for size in (1, 10, 10):
        _same(oracle, follower, follower.poll(size), oracle.poll(size))
    _same(oracle, follower, follower.finalize(), oracle.finalize())
