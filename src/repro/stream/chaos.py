"""Chaos-injection harness for the streaming runtime.

Resilience claims are only worth what the tests that exercise them can
break.  This module provides seeded fault injectors that wrap the
normal streaming components, so the chaos suite
(``tests/test_stream_resilience.py``) can drive the runtime through
torn writes, duplicated flushes, binary garbage, flaky IO and corrupted
checkpoints and then assert the invariants hold: the runtime never
crashes, every malformed line is quarantined with a reason, no session
report is lost or duplicated, and sessions untouched by injected
faults match the batch pipeline byte-for-byte.

Everything is driven by a caller-supplied seeded
``numpy.random.Generator`` (or an explicit integer seed), so a failing
chaos run is reproducible from its seed alone.

* :class:`ChaosLogWriter` — writes rendered log lines to a file while
  injecting writer-side faults (torn writes that merge two lines,
  duplicated flushes, binary garbage, invalid UTF-8) and records which
  sessions each fault touched (``affected_sessions``) so tests know
  exactly which sessions must still match the batch pipeline;
* :class:`FlakySource` / :class:`FlakySink` — transparent wrappers
  that raise ``OSError`` on a seeded schedule before delegating,
  exercising the retry/backoff/circuit-breaker path;
* :func:`corrupt_checkpoint` — damages a checkpoint file in one of
  three ways (truncate, garble, shape) to exercise the
  checkpoint → ``.bak`` → cold-start recovery ladder.
"""

from __future__ import annotations

import os
import re
from pathlib import Path
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from numpy.random import Generator

__all__ = [
    "ChaosLogWriter",
    "FlakySource",
    "FlakySink",
    "corrupt_checkpoint",
    "CHECKPOINT_CORRUPTIONS",
]

_CONTAINER_RE = re.compile(r"container_\w+")

#: Bytes for an injected "binary data in a text log" line (contains NUL,
#: so the source quarantines it as ``binary``).
_BINARY_GARBAGE = b"\x00\x01\x07\x7f\x00BINARYGARBAGE\x00\n"
#: Bytes for an injected invalid-UTF-8 line (no NUL — decodes with
#: replacement characters, quarantined as ``decode_error``).
_ENCODING_GARBAGE = b"\xff\xfe mojibake \xc3\x28 tail\n"


def _as_generator(rng: Generator | int) -> Generator:
    """``rng`` itself when it is a generator, else one seeded with it.

    numpy is imported here rather than at module load because
    ``repro.stream`` re-exports this module and no production path
    injects faults.
    """
    from numpy.random import Generator, default_rng

    return rng if isinstance(rng, Generator) else default_rng(rng)


def _session_of(line: str) -> str:
    match = _CONTAINER_RE.search(line)
    return match.group(0) if match else ""


class ChaosLogWriter:
    """Writes log lines to a file, injecting writer-side corruption.

    Fault rates are probabilities per written line, decided by the
    seeded generator.  Faults mirror what crashing or buggy log writers
    actually produce:

    * **torn** — two consecutive lines fused into one physical line
      (a partial flush followed by another writer's append): the first
      line's prefix runs straight into the second line.  Both lines'
      sessions lose a record and the merged garbage folds into the
      previously parsed record as a continuation, so the previous
      line's session is tainted too — all three land in
      ``affected_sessions``;
    * **duplicate** — a line flushed twice (retrying appender);
    * **binary** — a NUL-bearing garbage line injected *between*
      records (log agent flushed a partial page);
    * **encoding** — an invalid-UTF-8 line injected between records.

    Binary/encoding garbage is injected as extra lines, so it must be
    quarantined rather than folded into any session — those faults do
    **not** taint sessions, and the chaos test asserts exactly that.
    """

    def __init__(
        self,
        path: str | os.PathLike[str],
        rng: Generator | int,
        torn_rate: float = 0.02,
        duplicate_rate: float = 0.02,
        binary_rate: float = 0.01,
        encoding_rate: float = 0.01,
    ) -> None:
        self.path = os.fspath(path)
        self._rng = _as_generator(rng)
        self.torn_rate = torn_rate
        self.duplicate_rate = duplicate_rate
        self.binary_rate = binary_rate
        self.encoding_rate = encoding_rate
        #: Sessions whose streamed content no longer matches the clean
        #: rendering (a record lost, merged, duplicated or truncated).
        self.affected_sessions: set[str] = set()
        #: Injected fault tally by kind.
        self.injected: dict[str, int] = {
            "torn": 0, "duplicate": 0, "binary": 0, "encoding": 0,
            "truncate_tail": 0,
        }
        self._prev_session = ""
        self._last_line = ""

    def write_lines(self, lines: list[str]) -> None:
        """Append ``lines`` to the file, injecting faults per the rates."""
        with open(self.path, "ab") as fp:
            i = 0
            while i < len(lines):
                line = lines[i]
                roll = float(self._rng.uniform())
                threshold = self.torn_rate
                if roll < threshold and i + 1 < len(lines):
                    self._write_torn(fp, line, lines[i + 1])
                    i += 2
                    continue
                threshold += self.duplicate_rate
                if roll < threshold:
                    payload = line.encode("utf-8") + b"\n"
                    fp.write(payload)
                    fp.write(payload)
                    self.injected["duplicate"] += 1
                    self._taint(line)
                else:
                    threshold += self.binary_rate
                    if roll < threshold:
                        fp.write(_BINARY_GARBAGE)
                        self.injected["binary"] += 1
                    else:
                        threshold += self.encoding_rate
                        if roll < threshold:
                            fp.write(_ENCODING_GARBAGE)
                            self.injected["encoding"] += 1
                    fp.write(line.encode("utf-8") + b"\n")
                self._prev_session = _session_of(line)
                self._last_line = line
                i += 1

    def _write_torn(self, fp, line: str, nxt: str) -> None:
        """Fuse ``line``'s prefix with all of ``nxt`` on one physical
        line — a torn write interleaved with another append."""
        cut = int(self._rng.integers(1, max(2, min(10, len(line)))))
        fp.write(line[:cut].encode("utf-8"))
        fp.write(nxt.encode("utf-8") + b"\n")
        self.injected["torn"] += 1
        # The merged line parses as nothing and folds into the record
        # parsed from the previous physical line: three sessions lose
        # fidelity (previous polluted, both fused lines dropped).
        if self._prev_session:
            self.affected_sessions.add(self._prev_session)
        self._taint(line)
        self._taint(nxt)
        self._prev_session = _session_of(nxt)
        self._last_line = nxt

    def _taint(self, line: str) -> None:
        session = _session_of(line)
        if session:
            self.affected_sessions.add(session)

    def truncate_tail(self, nbytes: int = 24) -> None:
        """Chop the last ``nbytes`` off the file — a writer crash
        mid-record.  The last line's session is marked affected."""
        size = os.path.getsize(self.path)
        keep = max(0, size - max(1, nbytes))
        with open(self.path, "ab") as fp:
            fp.truncate(keep)
        self.injected["truncate_tail"] += 1
        if self._last_line:
            self._taint(self._last_line)


class FlakySource:
    """Wraps a :class:`~repro.stream.source.LogSource`; ``poll`` raises
    ``OSError`` on a seeded schedule before delegating.

    ``fail_first`` fails that many polls deterministically (outage at
    startup); ``fail_rate`` then fails each poll with that probability.
    Everything else (``exhausted``, ``position``, ``seek``,
    ``flush_pending``, ``finalize``, ``quarantine``, counters…)
    delegates to the wrapped source untouched.
    """

    def __init__(
        self,
        inner: Any,
        rng: Generator | int | None = None,
        fail_rate: float = 0.0,
        fail_first: int = 0,
    ) -> None:
        self.inner = inner
        self._rng: Generator | None = (
            None if rng is None else _as_generator(rng)
        )
        self.fail_rate = fail_rate
        self._fail_first = fail_first
        self.failures = 0

    def poll(self, max_records: int):
        if self._fail_first > 0:
            self._fail_first -= 1
            self.failures += 1
            raise OSError("chaos: injected source outage")
        if (
            self._rng is not None
            and self.fail_rate > 0.0
            and float(self._rng.uniform()) < self.fail_rate
        ):
            self.failures += 1
            raise OSError("chaos: injected transient poll failure")
        return self.inner.poll(max_records)

    def __getattr__(self, name: str):
        return getattr(self.inner, name)


class FlakySink:
    """Wraps a :class:`~repro.stream.sink.ReportSink`; ``emit`` raises
    ``OSError`` on a seeded schedule before delegating, so a report is
    either fully delivered or not delivered at all (the runtime's
    outbox owns redelivery)."""

    def __init__(
        self,
        inner: Any,
        rng: Generator | int | None = None,
        fail_rate: float = 0.0,
        fail_first: int = 0,
    ) -> None:
        self.inner = inner
        self._rng: Generator | None = (
            None if rng is None else _as_generator(rng)
        )
        self.fail_rate = fail_rate
        self._fail_first = fail_first
        self.failures = 0

    def emit(self, report, closed) -> None:
        if self._fail_first > 0:
            self._fail_first -= 1
            self.failures += 1
            raise OSError("chaos: injected sink outage")
        if (
            self._rng is not None
            and self.fail_rate > 0.0
            and float(self._rng.uniform()) < self.fail_rate
        ):
            self.failures += 1
            raise OSError("chaos: injected transient emit failure")
        self.inner.emit(report, closed)

    def __getattr__(self, name: str):
        return getattr(self.inner, name)


CHECKPOINT_CORRUPTIONS = ("truncate", "garble", "shape")


def corrupt_checkpoint(
    path: str | Path,
    rng: Generator | int,
    mode: str = "truncate",
) -> None:
    """Damage a checkpoint file the way real failures do.

    * ``truncate`` — keep only a prefix (crash mid-write on a
      filesystem without atomic rename, or a torn copy);
    * ``garble`` — flip bytes in the middle (bit rot, bad sector): the
      checksum check catches it even when the result is valid JSON;
    * ``shape`` — valid JSON of the wrong shape (hand-edited file):
      exercises the field-shape validation path.
    """
    path = Path(path)
    gen = _as_generator(rng)
    if mode == "truncate":
        data = path.read_bytes()
        path.write_bytes(data[: max(1, len(data) // 2)])
    elif mode == "garble":
        data = bytearray(path.read_bytes())
        if data:
            for _ in range(max(4, len(data) // 64)):
                pos = int(gen.integers(0, len(data)))
                data[pos] = int(gen.integers(32, 127))
            path.write_bytes(bytes(data))
    elif mode == "shape":
        path.write_text(
            '{"version": 1, "tracker_state": [], "counters": {}}'
        )
    else:
        raise ValueError(
            f"unknown corruption mode {mode!r} "
            f"(expected one of {CHECKPOINT_CORRUPTIONS})"
        )
