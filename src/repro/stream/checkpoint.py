"""Checkpoint/resume for the streaming runtime.

One JSON document captures everything needed to restart mid-job: the
source position (file byte offset or record index), the full
:class:`~repro.stream.tracker.SessionTracker` state (open sessions with
their buffered records), cumulative emission counters, the
exactly-once **finalized ledger** (content hashes of recently emitted
sessions — see :func:`repro.stream.resilience.finalization_id`), and an
**outbox** of reports that were finalized but not yet delivered to a
failing sink.  Position and tracker state are snapshotted together
between poll batches, so a runtime restarted from a checkpoint replays
no record it already fed the tracker and re-emits no report it already
delivered.

Corruption is treated as the common case, not the exception:

* the format carries a version and a SHA-256 content checksum; torn or
  garbled files fail loading with a typed
  :class:`~repro.core.errors.CheckpointCorruptError` instead of a
  traceback deep in ``json``;
* every save is atomic (temp file + rename) and rotates the previous
  good checkpoint to a ``.bak`` sibling;
* :meth:`StreamCheckpoint.recover` walks the ladder — checkpoint, then
  ``.bak``, then cold start — returning what it found plus
  human-readable notes for the operator.

The checkpoint lives next to the model artifact by default
(``model.json`` → ``model.stream-ckpt.json``), mirroring how
:class:`~repro.query.store.ModelStore` persists the trained model.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..core.errors import CheckpointCorruptError
from ..core.fsio import REAL_FS, FileSystem
from ..core.killpoints import kill_point
from .tracker import SessionTracker, object_parts, sorted_json

__all__ = [
    "StreamCheckpoint",
    "default_checkpoint_path",
    "backup_checkpoint_path",
    "tenant_checkpoint_name",
]

_VERSION = 2

_TENANT_SAFE = re.compile(r"[^A-Za-z0-9._-]")


def tenant_checkpoint_name(tenant: str) -> str:
    """Filesystem-safe checkpoint filename component for a tenant id.

    Unsafe characters are replaced with ``_``; when sanitization changed
    anything, a short content hash of the *original* id is appended so
    distinct tenant ids that sanitize identically (``"a/b"`` vs
    ``"a_b"``) still get distinct checkpoint files.
    """
    safe = _TENANT_SAFE.sub("_", tenant) or "_"
    if safe != tenant:
        digest = hashlib.sha256(tenant.encode("utf-8")).hexdigest()[:8]
        safe = f"{safe}-{digest}"
    return safe


def default_checkpoint_path(
    model_path: str | Path, tenant: str | None = None
) -> Path:
    """Sibling checkpoint path for a model artifact.

    With ``tenant`` the path is namespaced per tenant
    (``model.json`` → ``model.<tenant>.stream-ckpt.json``), so several
    tenants sharing one model artifact never clobber each other's
    checkpoints.
    """
    path = Path(model_path)
    if tenant is None:
        return path.with_name(path.stem + ".stream-ckpt.json")
    return path.with_name(
        f"{path.stem}.{tenant_checkpoint_name(tenant)}.stream-ckpt.json"
    )


def backup_checkpoint_path(path: str | Path) -> Path:
    """Rolling backup (`.bak`) sibling for a checkpoint path."""
    path = Path(path)
    return path.with_name(path.name + ".bak")


def _checksum(text: str) -> str:
    """SHA-256 of a checkpoint body serialised with sorted keys."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(slots=True)
class StreamCheckpoint:
    """Serializable snapshot of a running stream."""

    source_position: dict[str, Any] = field(default_factory=dict)
    #: Open sessions in ``SessionTracker.state_dict()`` form.  The
    #: runtime hands over its live tracker instead, which writes the same
    #: text from the records it has already encoded (``state_json_parts``).
    tracker_state: dict[str, Any] | SessionTracker = field(
        default_factory=dict
    )
    #: Cumulative counters carried across restarts (records consumed,
    #: reports emitted, closures by reason, anomalies by kind).
    counters: dict[str, Any] = field(default_factory=dict)
    #: Exactly-once ledger: finalization ids of recently emitted
    #: reports, oldest first (bounded by ResilienceConfig.finalized_cap).
    finalized: list[str] = field(default_factory=list)
    #: Reports finalized but not yet delivered to the sink:
    #: ``{"report": <SessionReport.to_dict()>, "reason": str,
    #:    "finalization_id": str}`` — re-emitted first on resume.
    outbox: list[dict[str, Any]] = field(default_factory=list)
    version: int = _VERSION
    #: SHA-256 of the body this snapshot was loaded from (not part of
    #: the file's body).  The runtime's delivery journal names the
    #: snapshot each run of entries follows by this digest.
    checksum: str | None = field(default=None, compare=False, repr=False)

    # -- JSON I/O ---------------------------------------------------------

    def _body(self) -> dict[str, Any]:
        return {
            "version": self.version,
            "source_position": self.source_position,
            "tracker_state": self.tracker_state,
            "counters": self.counters,
            "finalized": list(self.finalized),
            "outbox": list(self.outbox),
        }

    def _encoded(self) -> bytes:
        return self._encoded_and_checksum()[0]

    def _encoded_and_checksum(self) -> tuple[bytes, str]:
        """The file's bytes: the body exactly as ``json.dumps(body,
        sort_keys=True)`` writes it, with the SHA-256 of that text
        spliced in before the closing brace; and that SHA-256."""
        body = "".join(object_parts({
            name: (
                value.state_json_parts()
                if isinstance(value, SessionTracker)
                else [sorted_json(value)]
            )
            for name, value in self._body().items()
        })).encode("utf-8")
        digest = hashlib.sha256(body).hexdigest()
        return (
            body[:-1] + f', "checksum": "{digest}"}}'.encode("utf-8"),
            digest,
        )

    def to_dict(self) -> dict[str, Any]:
        return json.loads(self._encoded())

    def save(
        self,
        path: str | Path,
        fs: FileSystem | None = None,
        fsync: bool = False,
    ) -> str:
        """Atomic write with a rolling backup; returns the checksum.

        The previous checkpoint (if any) is renamed to ``.bak`` before
        the new one replaces the live path, so at every instant at
        least one intact checkpoint exists on disk; a crash mid-save
        leaves either the old file, or the ``.bak`` plus a temp file —
        never a torn live checkpoint.  ``fs`` is the durability seam
        (fault-injection tests substitute a
        :class:`~repro.core.fsio.FaultyFS`); ``fsync`` additionally
        syncs the temp file before the renames and the directory after,
        per ``DurabilityConfig.fsync_checkpoints``.
        """
        fs = fs or REAL_FS
        path = Path(path)
        tmp = path.with_name(path.name + ".tmp")
        encoded, checksum = self._encoded_and_checksum()
        fs.write_bytes(tmp, encoded)
        if fsync:
            fs.fsync_file(tmp)
        kill_point("checkpoint.tmp")
        if path.exists():
            fs.replace(path, backup_checkpoint_path(path))
            kill_point("checkpoint.bak")
        fs.replace(tmp, path)
        if fsync:
            fs.fsync_dir(path.parent)
        return checksum

    @classmethod
    def from_dict(cls, data: Any) -> "StreamCheckpoint":
        if not isinstance(data, dict):
            raise CheckpointCorruptError(
                f"checkpoint payload is {type(data).__name__}, "
                f"expected an object"
            )
        version = data.get("version")
        if version not in (1, _VERSION):
            raise CheckpointCorruptError(
                f"unsupported stream checkpoint version {version!r} "
                f"(expected 1 or {_VERSION})"
            )
        body = {k: v for k, v in data.items() if k != "checksum"}
        checksum = _checksum(json.dumps(body, sort_keys=True))
        if version == _VERSION and data.get("checksum") != checksum:
            raise CheckpointCorruptError(
                "checkpoint checksum mismatch (torn or edited file)"
            )
        shape = {
            "source_position": dict,
            "tracker_state": dict,
            "counters": dict,
            "finalized": list,
            "outbox": list,
        }
        for key, kind in shape.items():
            value = data.get(key, kind())
            if not isinstance(value, kind):
                raise CheckpointCorruptError(
                    f"checkpoint field {key!r} is "
                    f"{type(value).__name__}, expected {kind.__name__}"
                )
        return cls(
            source_position=dict(data.get("source_position", {})),
            tracker_state=dict(data.get("tracker_state", {})),
            counters=dict(data.get("counters", {})),
            finalized=[str(x) for x in data.get("finalized", [])],
            outbox=list(data.get("outbox", [])),
            version=_VERSION,
            checksum=checksum,
        )

    @classmethod
    def load(cls, path: str | Path) -> "StreamCheckpoint":
        path = Path(path)
        try:
            payload = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise CheckpointCorruptError(
                f"checkpoint is not valid JSON: {exc}", path=str(path)
            ) from exc
        except UnicodeDecodeError as exc:
            raise CheckpointCorruptError(
                f"checkpoint is not valid UTF-8: {exc}", path=str(path)
            ) from exc
        try:
            return cls.from_dict(payload)
        except CheckpointCorruptError as exc:
            exc.path = str(path)
            raise

    @classmethod
    def load_if_exists(
        cls, path: str | Path
    ) -> "StreamCheckpoint | None":
        path = Path(path)
        if not path.exists():
            return None
        return cls.load(path)

    @classmethod
    def recover(
        cls, path: str | Path
    ) -> tuple["StreamCheckpoint | None", str, list[str]]:
        """Load with fallback: checkpoint → ``.bak`` → cold start.

        Returns ``(checkpoint, origin, notes)`` where origin is one of
        ``"checkpoint"`` (live file loaded), ``"backup"`` (live file
        corrupt/missing, ``.bak`` loaded), ``"cold"`` (both unusable —
        the caller reprocesses from the beginning) or ``"fresh"`` (no
        checkpoint has ever been written).  ``notes`` are warnings an
        operator should see.

        On every rung the runtime then replays the delivery journal
        (:mod:`~repro.stream.journal`) beside the checkpoint.  A cold
        or fresh start thus still suppresses every report delivered
        since the snapshot before last — all of them, when no snapshot
        was ever rotated — while older deliveries are suppressed only
        by a sink that replays its own emitted ids.
        """
        path = Path(path)
        bak = backup_checkpoint_path(path)
        if not path.exists() and not bak.exists():
            return None, "fresh", []
        notes: list[str] = []
        if path.exists():
            try:
                return cls.load(path), "checkpoint", notes
            except (CheckpointCorruptError, OSError) as exc:
                notes.append(f"checkpoint {path} unusable: {exc}")
        else:
            notes.append(f"checkpoint {path} missing")
        if bak.exists():
            try:
                checkpoint = cls.load(bak)
                notes.append(
                    f"recovered from backup checkpoint {bak}"
                )
                return checkpoint, "backup", notes
            except (CheckpointCorruptError, OSError) as exc:
                notes.append(f"backup checkpoint {bak} unusable: {exc}")
        else:
            notes.append("no backup checkpoint")
        notes.append(
            "COLD START: no usable checkpoint — reprocessing from the "
            "beginning; already-delivered reports are suppressed when "
            "their ids are in the delivery journal or the sink can "
            "replay its emitted ids"
        )
        return None, "cold", notes
