"""Append-only delivery journal beside a stream checkpoint.

The full :class:`~repro.stream.checkpoint.StreamCheckpoint` snapshot
(every open session, the ledger, the outbox) is the expensive half of
the runtime's durable state, so it is taken only on the record budget,
on an outbox change and at shutdown.  Between snapshots the
exactly-once ledger rides in this journal instead: after each poll
batch the runtime appends one JSON line per delivered report, tens of
bytes each::

    {"anomalous":false,"id":"<finalization id>","kinds":[],"reason":"end_marker"}

``id`` is the report's finalization id; ``reason``, ``anomalous`` and
``kinds`` are the counter deltas the report added (close reason,
anomalous flag, one kind per anomaly).  A report redelivered from the
outbox was counted when it was parked, so its line is ``{"id": ...}``
alone.

A marker line ``{"snapshot": "<checksum>"}`` names the snapshot the
entries after it follow, by the snapshot's SHA-256 checksum.  It is
written lazily, ahead of the first entry delivered after that
snapshot, so every entry delivered after a snapshot comes after its
marker.  Resume therefore adds the counter deltas only of entries
after the loaded snapshot's first marker (all of them on a cold start)
and replays every id into the ledger; it never has to ask the capped
ledger what the snapshot already counts.

Each successful snapshot rotates ``<checkpoint>.journal`` to
``<checkpoint>.journal.prev``, mirroring the snapshot's own ``.bak``:
the previous journal holds what happened between the ``.bak`` and the
live snapshot, the live journal what happened since.  Resume replays
both, oldest first, so whichever rung of the recovery ladder loaded
(snapshot, ``.bak``, cold start) gets every delivery made after it.

A crash mid-append leaves a trailing fragment with no newline.  The
reader skips it (a half-written line was never acknowledged) and the
writer starts a fresh line before its next append, so the fragment
never swallows a later entry.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from ..core.fsio import REAL_FS, FileSystem, ends_mid_line
from ..core.killpoints import kill_point

__all__ = [
    "DeliveryJournal",
    "JournalScan",
    "journal_line",
    "journal_paths",
    "scan_journal",
    "snapshot_line",
]


def journal_paths(checkpoint_path: str | Path) -> tuple[Path, Path]:
    """``(live, previous)`` journal siblings of a checkpoint path."""
    path = Path(checkpoint_path)
    return (
        path.with_name(path.name + ".journal"),
        path.with_name(path.name + ".journal.prev"),
    )


def journal_line(
    fid: str,
    reason: str | None = None,
    anomalous: bool = False,
    kinds: Iterable[str] = (),
) -> bytes:
    """One encoded journal entry; without ``reason`` it carries no
    counter deltas (an outbox redelivery)."""
    entry: dict[str, Any] = {"id": fid}
    if reason is not None:
        entry["reason"] = reason
        entry["anomalous"] = anomalous
        entry["kinds"] = list(kinds)
    return json.dumps(
        entry, sort_keys=True, separators=(",", ":")
    ).encode("utf-8") + b"\n"


def snapshot_line(checksum: str) -> bytes:
    """The marker that opens the entries delivered after the snapshot
    with this checksum."""
    return json.dumps({"snapshot": checksum}).encode("utf-8") + b"\n"


def _valid(entry: Any) -> bool:
    if isinstance(entry, dict) and set(entry) == {"snapshot"}:
        return isinstance(entry["snapshot"], str)
    if not isinstance(entry, dict) or not isinstance(entry.get("id"), str):
        return False
    if "reason" not in entry:
        return True
    kinds = entry.get("kinds", [])
    return (
        isinstance(entry["reason"], str)
        and isinstance(entry.get("anomalous", False), bool)
        and isinstance(kinds, list)
        and all(isinstance(k, str) for k in kinds)
    )


@dataclass(slots=True)
class JournalScan:
    """What one journal file holds."""

    #: Decoded entries, in file order.
    entries: list[dict[str, Any]] = field(default_factory=list)
    #: The raw bytes of those entries' lines.
    kept: bytes = b""
    #: Every complete line: the file up to its last newline.
    intact: bytes = b""
    #: A trailing fragment with no newline (a crash mid-append).
    torn: bool = False
    #: 1-based numbers of complete lines that are not a valid entry.
    bad_lines: list[int] = field(default_factory=list)


def scan_journal(
    path: str | Path, fs: FileSystem | None = None
) -> JournalScan:
    """Decode one journal file; a missing file is an empty journal.

    Blank lines are skipped silently: the writer's fresh-line rule
    leaves one after a torn append that never landed a byte.
    """
    fs = fs or REAL_FS
    scan = JournalScan()
    try:
        data = fs.read_bytes(path)
    except FileNotFoundError:
        return scan
    lines = data.split(b"\n")
    scan.torn = lines[-1] != b""
    scan.intact = data[: len(data) - len(lines[-1])]
    kept: list[bytes] = []
    for number, raw in enumerate(lines[:-1], start=1):
        if not raw.strip():
            continue
        try:
            entry = json.loads(raw)
        except ValueError:
            entry = None
        if _valid(entry):
            scan.entries.append(entry)
            kept.append(raw + b"\n")
        else:
            scan.bad_lines.append(number)
    scan.kept = b"".join(kept)
    return scan


class DeliveryJournal:
    """The journal pair of one checkpoint path: append, rotate, replay.

    ``fs`` is the durability seam (fault-injection tests substitute a
    :class:`~repro.core.fsio.FaultyFS`); ``fsync`` syncs each append,
    per ``DurabilityConfig.fsync_checkpoints``.
    """

    def __init__(
        self,
        checkpoint_path: str | Path,
        fs: FileSystem | None = None,
        fsync: bool = False,
    ) -> None:
        self.path, self.previous_path = journal_paths(checkpoint_path)
        self._fs = fs or REAL_FS
        self._fsync = fsync
        #: Whether the live file may end mid-line; None = not yet known.
        self._mid_line: bool | None = None

    def replay(self) -> list[dict[str, Any]]:
        """Every entry and marker of the previous then the live
        journal, in order."""
        entries = scan_journal(self.previous_path, self._fs).entries
        live = scan_journal(self.path, self._fs)
        self._mid_line = live.torn
        return entries + live.entries

    def append(self, lines: list[bytes]) -> int:
        """Append encoded entries in one write; returns bytes written.

        On ``OSError`` part of the data may have landed, so the next
        append starts a fresh line.
        """
        if self._mid_line is None:
            self._mid_line = ends_mid_line(self.path)
        data = b"".join(lines)
        if self._mid_line:
            data = b"\n" + data
        self._mid_line = True
        self._fs.append_bytes(self.path, data)
        if self._fsync:
            self._fs.fsync_file(self.path)
        self._mid_line = False
        kill_point("journal.append")
        return len(data)

    def rotate(self) -> None:
        """Retire the live journal once a snapshot covers it.

        Afterwards the previous journal holds exactly what happened
        between the ``.bak`` and the new snapshot: nothing, when no
        report was delivered in between.
        """
        kill_point("journal.rotate")
        if self.path.exists():
            self._fs.replace(self.path, self.previous_path)
        elif self.previous_path.exists():
            self._fs.remove(self.previous_path)
        self._mid_line = False
