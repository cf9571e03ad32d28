"""Log sources for the streaming runtime.

A :class:`LogSource` hands the runtime batches of :class:`LogRecord`s as
they become available.  Two implementations ship:

* :class:`IterableSource` — replays an in-memory record sequence
  (benchmarks, tests, backfill of already-collected logs);
* :class:`FileFollowSource` — tails a growing log file ``tail -f`` style,
  parsing new complete lines through a :mod:`repro.parsing.formatters`
  formatter and attributing records to sessions via a pluggable
  ``session_key`` callable (the default recognizes YARN container and
  application ids anywhere in the raw line).

Both support checkpointing through ``position()`` / ``seek()`` so a
restarted runtime resumes exactly where the previous one stopped.

The file follower treats ingest-side faults as the common case:

* **rotation** (a new inode appears under the path) and **truncation**
  (the file shrinks below the consumed offset) are detected on every
  poll and re-seek to the start of the new content instead of tailing
  garbage from a stale offset;
* **malformed lines** — binary data, invalid UTF-8, text matching no
  format with nothing to fold into — are routed to a dead-letter
  :class:`~repro.stream.resilience.Quarantine` with a reason code,
  never raised and never silently dropped;
* **transient IO errors** on the stat path are counted and logged;
  errors opening/reading the file propagate as ``OSError`` so the
  runtime's retry/backoff/circuit-breaker path owns the policy.
"""

from __future__ import annotations

import logging
import os
from typing import Any, Callable, Iterator, Protocol, Sequence, runtime_checkable

from ..parsing.formatters import Formatter, default_registry
from ..parsing.records import LogRecord, yarn_session_key
from .resilience import (
    REASON_BINARY,
    REASON_DECODE,
    REASON_TRUNCATED,
    REASON_UNPARSEABLE,
    ListQuarantine,
    Quarantine,
)

__all__ = [
    "LogSource",
    "IterableSource",
    "FileFollowSource",
    "yarn_session_key",
]

log = logging.getLogger(__name__)


@runtime_checkable
class LogSource(Protocol):
    """Pull-based record source consumed by the runtime."""

    def poll(self, max_records: int) -> list[LogRecord]:
        """Return up to ``max_records`` newly available records.

        An empty list means nothing is available *right now*; the runtime
        decides whether to keep waiting (follow mode) or finish
        (``exhausted()``).
        """
        ...

    def exhausted(self) -> bool:
        """True when the source can never produce another record."""
        ...

    def backlog(self) -> int | None:
        """Records (or bytes, for file sources) known to be pending;
        ``None`` when unknowable."""
        ...

    def position(self) -> dict[str, Any]:
        """Checkpointable position token (JSON-serialisable)."""
        ...

    def seek(self, position: dict[str, Any]) -> None:
        """Resume from a previously checkpointed ``position()``."""
        ...


class IterableSource:
    """Replays an in-memory sequence of records.

    Sequences are seekable by index; arbitrary iterators are consumed
    once and report an index-only position (seeking into a fresh
    equivalent iterable is the caller's responsibility).
    """

    def __init__(self, records: Sequence[LogRecord] | Iterator[LogRecord]):
        if isinstance(records, Sequence):
            self._records: Sequence[LogRecord] | None = records
            self._iter: Iterator[LogRecord] | None = None
        else:
            self._records = None
            self._iter = iter(records)
        self._index = 0
        self._done = False

    def poll(self, max_records: int) -> list[LogRecord]:
        if self._records is not None:
            batch = list(
                self._records[self._index:self._index + max_records]
            )
            self._index += len(batch)
            if self._index >= len(self._records):
                self._done = True
            return batch
        assert self._iter is not None
        batch = []
        for record in self._iter:
            batch.append(record)
            self._index += 1
            if len(batch) >= max_records:
                break
        if not batch:
            self._done = True
        return batch

    def exhausted(self) -> bool:
        if self._records is not None:
            return self._index >= len(self._records)
        return self._done

    def backlog(self) -> int | None:
        if self._records is not None:
            return len(self._records) - self._index
        return None

    def position(self) -> dict[str, Any]:
        return {"kind": "iterable", "index": self._index}

    def seek(self, position: dict[str, Any]) -> None:
        index = int(position.get("index", 0))
        if self._records is None:
            # Iterator-backed: fast-forward by discarding records.
            while self._index < index and self.poll(1):
                pass
            return
        self._index = min(index, len(self._records))
        self._done = self._index >= len(self._records)


class FileFollowSource:
    """Tails a log file, yielding records parsed from new complete lines.

    Continuation lines (stack traces) must fold into the preceding
    record, so the most recent parsed record is held back until the next
    header line arrives; ``flush_pending`` (called by the runtime when
    the file has gone quiet or at end-of-input) releases it.  The
    checkpoint position is the byte offset of the *held-back* record, so
    resuming re-reads only that record and loses nothing.

    Rotation and truncation counters (``rotations`` / ``truncations``),
    IO-error counts (``io_errors``) and the dead-letter ``quarantine``
    are surfaced through :class:`~repro.stream.runtime.RuntimeStats`.
    """

    def __init__(
        self,
        path: str | os.PathLike[str],
        formatter: Formatter | str = "generic",
        session_key: Callable[[LogRecord], LogRecord] = yarn_session_key,
        quarantine: Quarantine | None = None,
    ) -> None:
        self.path = os.fspath(path)
        if isinstance(formatter, str):
            formatter = default_registry().get(formatter)
        self.formatter = formatter
        self.session_key = session_key
        self.quarantine: Quarantine = (
            quarantine if quarantine is not None else ListQuarantine()
        )
        self._offset = 0  # consumed-through byte offset
        self._pending: LogRecord | None = None
        self._pending_offset = 0  # offset of the pending record's line
        self._inode: int | None = None
        self.rotations = 0
        self.truncations = 0
        self.io_errors = 0

    # -- reading ----------------------------------------------------------

    def poll(self, max_records: int) -> list[LogRecord]:
        out: list[LogRecord] = []
        try:
            fp = open(self.path, "rb")
        except FileNotFoundError:
            # Not created yet, or mid-rotation: nothing to read *now*.
            return out
        with fp:
            self._detect_regression(fp, out)
            fp.seek(self._offset)
            while len(out) < max_records:
                line_start = fp.tell()
                raw = fp.readline()
                if not raw.endswith(b"\n"):
                    break  # partial line still being written
                self._offset = fp.tell()
                self._consume_line(raw, line_start, out)
        return out

    def _detect_regression(self, fp, out: list[LogRecord]) -> None:
        """Spot rotation (new inode) / truncation (size < offset) and
        re-seek to the start of the new content instead of tailing a
        stale offset into garbage."""
        try:
            stat = os.fstat(fp.fileno())
        except OSError as exc:  # extremely unusual; treat as no-op poll
            self._io_error("fstat", exc)
            return
        inode = stat.st_ino or None
        if (
            self._inode is not None
            and inode is not None
            and inode != self._inode
        ):
            self.rotations += 1
            log.warning(
                "%s: rotation detected (inode %s -> %s); re-reading "
                "from start of new file", self.path, self._inode, inode,
            )
            self._reset_to_start(out)
        elif stat.st_size < self._offset:
            self.truncations += 1
            log.warning(
                "%s: truncation detected (size %d < offset %d); "
                "re-reading from start", self.path, stat.st_size,
                self._offset,
            )
            self._reset_to_start(out)
        self._inode = inode

    def _reset_to_start(self, out: list[LogRecord]) -> None:
        # The held-back record came from the old content and is
        # complete — release it rather than lose it.
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
            # Nothing to fold an orphan continuation into: dead-letter
            # it with a reason instead of dropping it on the floor.
            self._quarantine(REASON_UNPARSEABLE, raw, line_start)

    def _quarantine(self, reason: str, raw: bytes, offset: int) -> None:
        self.quarantine.put(
            reason,
            raw.decode("utf-8", errors="replace").rstrip("\n"),
            source=self.path,
            offset=offset,
        )

    def _io_error(self, where: str, exc: OSError) -> None:
        self.io_errors += 1
        log.warning("%s: %s failed: %s", self.path, where, exc)

    def flush_pending(self) -> list[LogRecord]:
        """Release the held-back record (quiet file / end of input)."""
        if self._pending is None:
            return []
        record, self._pending = self._pending, None
        self._pending_offset = self._offset
        return [self.session_key(record)]

    def finalize(self) -> list[LogRecord]:
        """End-of-input: release the pending record and quarantine any
        unterminated trailing bytes (a record truncated mid-write)."""
        try:
            size = os.path.getsize(self.path)
        except OSError as exc:
            self._io_error("finalize", exc)
            return self.flush_pending()
        if size > self._offset:
            with open(self.path, "rb") as fp:
                fp.seek(self._offset)
                tail = fp.read()
            if tail.strip() and not tail.endswith(b"\n"):
                self._quarantine(REASON_TRUNCATED, tail, self._offset)
                self._offset = size
        return self.flush_pending()

    def exhausted(self) -> bool:
        return False  # a followed file may always grow

    def backlog(self) -> int | None:
        try:
            size = os.path.getsize(self.path)
        except FileNotFoundError:
            # Not created yet, or mid-rotation: nothing pending, as in
            # poll().  The serve loop probes this every few milliseconds
            # while idle, so a missing file must not log each time.
            return 0
        except OSError as exc:
            # Routed through the logged IO-error path (not swallowed):
            # the backlog gauge is advisory, so the poll/retry machinery
            # — not this probe — owns failure policy.
            self._io_error("backlog", exc)
            return None
        return max(0, size - self._offset)

    # -- checkpointing ----------------------------------------------------

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
        # Unknown inode after a restart; the first poll re-checks for
        # rotation/truncation that happened while we were down.
        self._inode = None
