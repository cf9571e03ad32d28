"""Filesystem seam for the durability layer, plus fault injection.

Every write the serving stack wants to survive a crash goes through a
:class:`FileSystem` instance instead of calling ``open``/``os.replace``
directly.  Production code uses the module-level :data:`REAL_FS`
singleton, whose methods are one-liners over the standard library; the
indirection exists so tests can substitute :class:`FaultyFS` and inject
ENOSPC, EIO, torn (short) writes, or fsync failures on exactly the Nth
call of an operation — deterministically, with no monkeypatching of
builtins.

:func:`atomic_replace_write` is the shared write idiom (temp sibling →
optional fsync → ``os.replace`` → optional directory fsync).  The
``fsync`` knob is threaded from :class:`~repro.core.config.
DurabilityConfig`: rename-only atomicity already guarantees a reader
never observes a torn file, while fsync additionally guarantees the
data survives power loss — a cost worth paying for registry artifacts
but not, by default, for every streaming checkpoint.

``FaultyFS`` raises *real* :class:`OSError` instances with real errno
values, so production error handling (retry policies, deferred
checkpoints, publish rollback) is exercised exactly as a full disk
would exercise it.
"""

from __future__ import annotations

import errno as _errno
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

__all__ = [
    "FaultRule",
    "FaultyFS",
    "FileSystem",
    "REAL_FS",
    "atomic_replace_write",
    "ends_mid_line",
]


class FileSystem:
    """Thin, overridable facade over the handful of syscalls the
    durability paths use.  Stateless; safe to share across threads."""

    def write_bytes(self, path: str | Path, data: bytes) -> int:
        with open(path, "wb") as fp:
            return fp.write(data)

    def write_text(self, path: str | Path, text: str) -> int:
        return self.write_bytes(path, text.encode("utf-8"))

    def append_bytes(self, path: str | Path, data: bytes) -> int:
        with open(path, "ab") as fp:
            return fp.write(data)

    def read_bytes(self, path: str | Path) -> bytes:
        with open(path, "rb") as fp:
            return fp.read()

    def read_text(self, path: str | Path) -> str:
        return self.read_bytes(path).decode("utf-8")

    def replace(self, src: str | Path, dst: str | Path) -> None:
        os.replace(src, dst)

    def remove(self, path: str | Path) -> None:
        os.remove(path)

    def fsync_file(self, path: str | Path) -> None:
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def fsync_dir(self, path: str | Path) -> None:
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


#: Default instance used everywhere a ``fs`` parameter is left as None.
REAL_FS = FileSystem()


def atomic_replace_write(
    path: str | Path,
    data: bytes | str,
    fs: FileSystem | None = None,
    fsync: bool = False,
) -> None:
    """Write ``data`` to ``path`` atomically via a temp sibling.

    With ``fsync`` the temp file is synced before the rename and the
    parent directory after it — the full crash-durable sequence.  The
    temp sibling uses a fixed ``.tmp`` suffix (one writer per path by
    construction in this codebase); a crash can strand it, and
    ``RegistryFsck`` sweeps strays.
    """
    fs = fs or REAL_FS
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    if isinstance(data, str):
        data = data.encode("utf-8")
    fs.write_bytes(tmp, data)
    if fsync:
        fs.fsync_file(tmp)
    fs.replace(tmp, path)
    if fsync:
        fs.fsync_dir(path.parent)


def ends_mid_line(path: str | Path) -> bool:
    """True when ``path`` is non-empty and its last byte is not ``\\n``.

    That is the mark a crash mid-append leaves on a line-oriented log;
    an appender must start a fresh line before writing, or its first
    record is glued onto the torn fragment and lost with it.
    """
    try:
        with open(path, "rb") as fp:
            if fp.seek(0, os.SEEK_END) == 0:
                return False
            fp.seek(-1, os.SEEK_END)
            return fp.read(1) != b"\n"
    except FileNotFoundError:
        return False


# -- fault injection --------------------------------------------------------

#: Operation kinds a FaultRule can target in an atomic publish.
#: ``append`` (the stream delivery journal) can be targeted too; it is
#: kept out of this tuple because publish never appends.
FAULT_OPS = ("write", "read", "replace", "remove", "fsync")


@dataclass(slots=True)
class FaultRule:
    """One injected failure: ``op`` calls number ``at .. at+count-1``
    (1-based, per-op counter) raise ``OSError(errno_code)``.

    ``keep`` turns a failing *write* or *append* into a torn (short)
    one: that fraction of the payload lands on disk before the error is
    raised — the shape a full disk or a crash mid-``write(2)`` leaves
    behind.
    """

    op: str
    at: int = 1
    count: int = 1
    errno_code: int = _errno.ENOSPC
    keep: float | None = None

    def hits(self, nth: int) -> bool:
        if self.count <= 0:
            return nth >= self.at
        return self.at <= nth < self.at + self.count


class FaultyFS(FileSystem):
    """A :class:`FileSystem` that fails deterministically on demand.

    Counters are per-operation (the 3rd ``fsync`` is independent of the
    3rd ``write``), so a test can script "first two checkpoint writes
    succeed, the third hits ENOSPC" without caring how many reads
    happened in between.  Not thread-safe by design — fault-injection
    tests drive the runtime single-threaded so the Nth call is
    well-defined.
    """

    def __init__(self, rules: list[FaultRule] | None = None) -> None:
        self.rules: list[FaultRule] = list(rules or ())
        self.calls: dict[str, int] = {
            op: 0 for op in (*FAULT_OPS, "append")
        }
        self.injected = 0

    # -- rule construction -------------------------------------------------

    def fail(
        self,
        op: str,
        at: int = 1,
        count: int = 1,
        errno_code: int = _errno.ENOSPC,
    ) -> "FaultyFS":
        """Schedule a plain failure; returns self for chaining."""
        self.rules.append(
            FaultRule(op=op, at=at, count=count, errno_code=errno_code)
        )
        return self

    def torn(
        self,
        at: int = 1,
        keep: float = 0.5,
        errno_code: int = _errno.EIO,
        op: str = "write",
    ) -> "FaultyFS":
        """Schedule a torn ``write`` or ``append``: ``keep`` of the
        bytes land, then EIO."""
        self.rules.append(
            FaultRule(
                op=op, at=at, count=1,
                errno_code=errno_code, keep=keep,
            )
        )
        return self

    # -- trigger -----------------------------------------------------------

    def _check(self, op: str) -> FaultRule | None:
        if op not in self.calls:
            self.calls[op] = 0
        self.calls[op] += 1
        nth = self.calls[op]
        for rule in self.rules:
            if rule.op == op and rule.hits(nth):
                self.injected += 1
                return rule
        return None

    @staticmethod
    def _raise(rule: FaultRule, path: str | Path) -> None:
        raise OSError(
            rule.errno_code,
            f"injected {_errno.errorcode.get(rule.errno_code, '?')}",
            str(path),
        )

    # -- FileSystem surface ------------------------------------------------

    def _faulted_write(
        self,
        op: str,
        write: Callable[[str | Path, bytes], int],
        path: str | Path,
        data: bytes,
    ) -> int:
        rule = self._check(op)
        if rule is not None:
            if rule.keep is not None:
                cut = int(len(data) * max(0.0, min(1.0, rule.keep)))
                write(path, data[:cut])
            self._raise(rule, path)
        return write(path, data)

    def write_bytes(self, path: str | Path, data: bytes) -> int:
        return self._faulted_write("write", super().write_bytes, path, data)

    def append_bytes(self, path: str | Path, data: bytes) -> int:
        return self._faulted_write(
            "append", super().append_bytes, path, data
        )

    def read_bytes(self, path: str | Path) -> bytes:
        rule = self._check("read")
        if rule is not None:
            self._raise(rule, path)
        return super().read_bytes(path)

    def replace(self, src: str | Path, dst: str | Path) -> None:
        rule = self._check("replace")
        if rule is not None:
            self._raise(rule, dst)
        super().replace(src, dst)

    def remove(self, path: str | Path) -> None:
        rule = self._check("remove")
        if rule is not None:
            self._raise(rule, path)
        super().remove(path)

    def fsync_file(self, path: str | Path) -> None:
        rule = self._check("fsync")
        if rule is not None:
            self._raise(rule, path)
        super().fsync_file(path)

    def fsync_dir(self, path: str | Path) -> None:
        rule = self._check("fsync")
        if rule is not None:
            self._raise(rule, path)
        super().fsync_dir(path)
