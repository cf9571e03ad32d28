"""Offline consistency check & repair for a model-registry directory.

:class:`RegistryFsck` is the recovery half of the registry's journaled
publish protocol (see :mod:`repro.serve.registry`): publish writes an
*intent* record, then the artifact, then the index entry, then clears
the intent — so after a crash the on-disk state tells fsck exactly how
far the dead publisher got, and every state has a deterministic repair:

=====================  ==============================================
on-disk state          repair
=====================  ==============================================
intent + index entry   publish finished — clear the intent
intent + verified      roll **forward**: append the version the dead
artifact, no entry     publisher was about to write, clear the intent
intent, artifact       roll **back**: reclaim the intent and any
missing or torn        partial bytes — the publish never happened
torn intent            reclaim it (the journal write itself died)
orphan artifact        unreferenced, no intent — the pre-journal
                       crash legacy; reclaim the file
dangling version       index entry whose artifact is missing/torn —
                       drop the entry (loudly: model bytes are gone)
stray ``.tmp``         reclaim (atomic-write temp siblings)
=====================  ==============================================

A corrupt ``index.json`` is reported but never auto-repaired, and it
disables the orphan sweep for that run — with no index, "unreferenced"
cannot be distinguished from "referenced", and fsck must never delete
model bytes it cannot prove are garbage.

With a ``checkpoint_dir`` the sweep also covers the serving layer's
checkpoint directory: stray checkpoint temp files, leftover *swap
intents* (a tenant crashed mid-model-swap; the checkpoint already
decides which model version won, so the intent is cleared with a note),
and the delivery journals beside each checkpoint — a torn trailing line
(a crash mid-append) is truncated to the last newline, and undecodable
lines are dropped; neither was ever replayed.  A journal with no
snapshot beside it is fine: a cold start replays it.

Exposed as ``repro fsck [--repair]`` and run automatically at service
startup (:class:`~repro.serve.service.DetectionService`).  Single
writer assumed: run it before serving/publishing, never concurrently
with a live publisher.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..core.fsio import REAL_FS, FileSystem, atomic_replace_write
from ..stream.journal import scan_journal
from .registry import INDEX_FORMAT

__all__ = ["Finding", "FsckReport", "RegistryFsck", "run_fsck"]

log = logging.getLogger(__name__)

#: Finding kinds fsck knows how to repair automatically.
REPAIRABLE = (
    "intent_complete",
    "intent_rollforward",
    "intent_rollback",
    "intent_torn",
    "orphan_artifact",
    "dangling_version",
    "torn_artifact",
    "stray_tmp",
    "checkpoint_stray_tmp",
    "swap_intent",
    "checkpoint_journal_torn",
    "checkpoint_journal_corrupt",
)


@dataclass(slots=True)
class Finding:
    """One inconsistency, what it means, and what repair did about it."""

    kind: str
    path: str
    detail: str
    repaired: bool = False
    action: str | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "path": self.path,
            "detail": self.detail,
            "repaired": self.repaired,
            "action": self.action,
        }


@dataclass(slots=True)
class FsckReport:
    """Everything one fsck run found (and, with repair, fixed)."""

    root: str
    findings: list[Finding] = field(default_factory=list)
    repair: bool = False

    @property
    def clean(self) -> bool:
        """No findings at all — the registry was consistent."""
        return not self.findings

    @property
    def remaining(self) -> list[Finding]:
        """Findings still unresolved after this run."""
        return [f for f in self.findings if not f.repaired]

    @property
    def ok(self) -> bool:
        """Safe to serve: nothing found, or everything repaired."""
        return not self.remaining

    def to_dict(self) -> dict[str, Any]:
        return {
            "root": self.root,
            "repair": self.repair,
            "clean": self.clean,
            "ok": self.ok,
            "findings": [f.to_dict() for f in self.findings],
        }

    def render(self) -> str:
        if self.clean:
            return f"fsck {self.root}: clean"
        lines = [
            f"fsck {self.root}: {len(self.findings)} finding(s)"
            + (" (repair mode)" if self.repair else " (scan only)")
        ]
        for f in self.findings:
            status = (
                f"repaired: {f.action}" if f.repaired else "NOT repaired"
            )
            lines.append(f"  [{f.kind}] {f.path}: {f.detail} — {status}")
        return "\n".join(lines)


class RegistryFsck:
    """Detect and repair crash damage in a registry directory tree."""

    def __init__(
        self,
        root: str | Path,
        checkpoint_dir: str | Path | None = None,
        fs: FileSystem | None = None,
    ) -> None:
        self.root = Path(root)
        self.artifacts_dir = self.root / "artifacts"
        self.intents_dir = self.root / "intents"
        self.index_path = self.root / "index.json"
        self.checkpoint_dir = (
            Path(checkpoint_dir) if checkpoint_dir is not None else None
        )
        self.fs = fs or REAL_FS

    def scan(self) -> FsckReport:
        """Report inconsistencies without touching anything."""
        return self._run(repair=False)

    def repair(self) -> FsckReport:
        """Report and fix every automatically-repairable finding."""
        return self._run(repair=True)

    # -- sweep -------------------------------------------------------------

    def _run(self, repair: bool) -> FsckReport:
        report = FsckReport(root=str(self.root), repair=repair)
        index, index_ok = self._load_index(report)
        index_dirty = False
        if index_ok:
            index_dirty |= self._check_intents(report, index, repair)
            index_dirty |= self._check_versions(report, index, repair)
            self._check_orphans(report, index, repair)
        else:
            # Without a readable index fsck cannot prove any artifact
            # is unreferenced; only clearly-dead journal entries and
            # temp files are safe to touch.
            self._check_intents_conservative(report, repair)
        self._check_strays(report, repair)
        if self.checkpoint_dir is not None:
            self._check_checkpoints(report, repair)
        if repair and index_ok and index_dirty:
            self._write_index(index)
        for f in report.findings:
            level = logging.WARNING if f.repaired else logging.ERROR
            log.log(
                level, "fsck [%s] %s: %s%s",
                f.kind, f.path, f.detail,
                f" (repaired: {f.action})" if f.repaired else "",
            )
        return report

    # -- index -------------------------------------------------------------

    def _load_index(
        self, report: FsckReport
    ) -> tuple[dict[str, list[dict]], bool]:
        if not self.index_path.exists():
            return {}, True
        try:
            data = json.loads(self.fs.read_text(self.index_path))
            if data.get("format") != INDEX_FORMAT:
                raise ValueError(
                    f"format {data.get('format')!r}, "
                    f"expected {INDEX_FORMAT!r}"
                )
            index: dict[str, list[dict]] = {}
            for name, entries in data.get("models", {}).items():
                parsed = [
                    {
                        "version": int(e["version"]),
                        "digest": str(e["digest"]),
                    }
                    for e in entries
                ]
                parsed.sort(key=lambda e: e["version"])
                index[str(name)] = parsed
            return index, True
        except (OSError, ValueError, KeyError, TypeError) as exc:
            report.findings.append(Finding(
                kind="index_corrupt",
                path=str(self.index_path),
                detail=(
                    f"index unreadable ({exc}); not auto-repaired — "
                    f"restore it or rebuild from artifacts by hand"
                ),
            ))
            return {}, False

    def _write_index(self, index: dict[str, list[dict]]) -> None:
        payload = json.dumps(
            {"format": INDEX_FORMAT, "models": index},
            indent=2,
            sort_keys=True,
        )
        atomic_replace_write(
            self.index_path, payload, fs=self.fs, fsync=True
        )

    # -- intents -----------------------------------------------------------

    def _iter_intents(self) -> list[Path]:
        if not self.intents_dir.is_dir():
            return []
        return sorted(self.intents_dir.glob("*.intent.json"))

    def _check_intents(
        self,
        report: FsckReport,
        index: dict[str, list[dict]],
        repair: bool,
    ) -> bool:
        """Resolve every publish intent; returns True if index changed."""
        dirty = False
        for path in self._iter_intents():
            payload = self._read_intent(path)
            if payload is None:
                self._resolve(
                    report, repair, "intent_torn", path,
                    "unreadable publish intent (journal write died)",
                    lambda p=path: self.fs.remove(p),
                    "removed torn intent",
                )
                continue
            name = payload["name"]
            digest = payload["digest"]
            artifact = self.artifacts_dir / f"{digest}.json"
            entries = index.get(name, [])
            if any(e["digest"] == digest for e in entries):
                self._resolve(
                    report, repair, "intent_complete", path,
                    f"publish of {name!r} finished but the intent was "
                    f"not cleared",
                    lambda p=path: self.fs.remove(p),
                    "cleared intent",
                )
            elif self._verify_artifact(artifact, digest):
                def _forward(
                    p: Path = path, n: str = name, d: str = digest
                ) -> None:
                    versions = index.setdefault(n, [])
                    nxt = (
                        versions[-1]["version"] + 1 if versions else 1
                    )
                    versions.append({"version": nxt, "digest": d})
                    self.fs.remove(p)
                done = self._resolve(
                    report, repair, "intent_rollforward", path,
                    f"publish of {name!r} crashed after the artifact "
                    f"was durable; completing the version append",
                    _forward,
                    "appended version and cleared intent",
                )
                dirty |= done
            else:
                def _back(
                    p: Path = path, a: Path = artifact
                ) -> None:
                    tmp = a.with_name(a.name + ".tmp")
                    for stray in (a, tmp):
                        if stray.exists():
                            self.fs.remove(stray)
                    self.fs.remove(p)
                self._resolve(
                    report, repair, "intent_rollback", path,
                    f"publish of {name!r} crashed before the artifact "
                    f"was durable; rolling it back",
                    _back,
                    "reclaimed intent and partial artifact",
                )
        return dirty

    def _check_intents_conservative(
        self, report: FsckReport, repair: bool
    ) -> None:
        """Index unreadable: only torn intents are provably garbage."""
        for path in self._iter_intents():
            if self._read_intent(path) is None:
                self._resolve(
                    report, repair, "intent_torn", path,
                    "unreadable publish intent (journal write died)",
                    lambda p=path: self.fs.remove(p),
                    "removed torn intent",
                )
            else:
                report.findings.append(Finding(
                    kind="intent_unresolved",
                    path=str(path),
                    detail=(
                        "publish intent cannot be resolved while the "
                        "index is corrupt"
                    ),
                ))

    def _read_intent(self, path: Path) -> dict[str, str] | None:
        try:
            data = json.loads(self.fs.read_text(path))
            if data.get("op") != "publish":
                return None
            return {
                "name": str(data["name"]),
                "digest": str(data["digest"]),
            }
        except (OSError, ValueError, KeyError, TypeError):
            return None

    # -- versions & artifacts ----------------------------------------------

    def _check_versions(
        self,
        report: FsckReport,
        index: dict[str, list[dict]],
        repair: bool,
    ) -> bool:
        """Drop index entries whose artifact is missing or torn."""
        dirty = False
        for name in sorted(index):
            kept: list[dict] = []
            for entry in index[name]:
                digest = entry["digest"]
                artifact = self.artifacts_dir / f"{digest}.json"
                if self._verify_artifact(artifact, digest):
                    kept.append(entry)
                    continue
                kind = (
                    "dangling_version" if not artifact.exists()
                    else "torn_artifact"
                )
                def _drop(a: Path = artifact) -> None:
                    if a.exists():
                        self.fs.remove(a)
                done = self._resolve(
                    report, repair, kind, artifact,
                    f"{name}@{entry['version']} references digest "
                    f"{digest[:12]}… whose artifact is "
                    + (
                        "missing" if not artifact.exists()
                        else "torn (content hash mismatch)"
                    )
                    + " — MODEL BYTES ARE LOST; dropping the version",
                    _drop,
                    f"dropped {name}@{entry['version']} from the index",
                )
                if done:
                    dirty = True
                else:
                    kept.append(entry)
            if repair:
                if kept:
                    index[name] = kept
                elif name in index and not kept:
                    del index[name]
        return dirty

    def _check_orphans(
        self,
        report: FsckReport,
        index: dict[str, list[dict]],
        repair: bool,
    ) -> None:
        """Reclaim artifacts nothing references (the legacy orphan)."""
        if not self.artifacts_dir.is_dir():
            return
        referenced = {
            entry["digest"]
            for entries in index.values()
            for entry in entries
        }
        intents = {
            payload["digest"]
            for path in self._iter_intents()
            if (payload := self._read_intent(path)) is not None
        }
        for path in sorted(self.artifacts_dir.glob("*.json")):
            digest = path.stem
            if digest in referenced or digest in intents:
                continue
            self._resolve(
                report, repair, "orphan_artifact", path,
                "artifact is referenced by no version and no intent "
                "(pre-journal crash between artifact write and index "
                "append)",
                lambda p=path: self.fs.remove(p),
                "reclaimed orphaned artifact",
            )

    def _verify_artifact(self, path: Path, digest: str) -> bool:
        try:
            body = self.fs.read_bytes(path)
        except OSError:
            return False
        return hashlib.sha256(body).hexdigest() == digest

    # -- strays ------------------------------------------------------------

    def _check_strays(self, report: FsckReport, repair: bool) -> None:
        dirs = [self.root, self.artifacts_dir, self.intents_dir]
        for directory in dirs:
            if not directory.is_dir():
                continue
            for path in sorted(directory.glob("*.tmp")):
                self._resolve(
                    report, repair, "stray_tmp", path,
                    "temp sibling left by an interrupted atomic write",
                    lambda p=path: self.fs.remove(p),
                    "removed stray temp file",
                )

    def _check_checkpoints(
        self, report: FsckReport, repair: bool
    ) -> None:
        directory = self.checkpoint_dir
        if directory is None or not directory.is_dir():
            return
        for path in sorted(directory.glob("*.tmp")):
            self._resolve(
                report, repair, "checkpoint_stray_tmp", path,
                "temp sibling left by an interrupted checkpoint save",
                lambda p=path: self.fs.remove(p),
                "removed stray checkpoint temp file",
            )
        for path in sorted(directory.glob("*.swap-intent.json")):
            self._resolve(
                report, repair, "swap_intent", path,
                "tenant crashed mid-model-swap; the checkpoint decides "
                "which version won — a swap that missed its checkpoint "
                "must be re-requested",
                lambda p=path: self.fs.remove(p),
                "cleared swap intent",
            )
        journals = sorted(directory.glob("*.journal")) + sorted(
            directory.glob("*.journal.prev")
        )
        for path in journals:
            self._check_journal(report, repair, path)

    def _check_journal(
        self, report: FsckReport, repair: bool, path: Path
    ) -> None:
        try:
            scan = scan_journal(path, self.fs)
        except OSError as exc:
            report.findings.append(Finding(
                kind="checkpoint_journal_unreadable",
                path=str(path),
                detail=f"delivery journal unreadable: {exc}",
            ))
            return
        if scan.torn:
            self._resolve(
                report, repair, "checkpoint_journal_torn", path,
                "delivery journal ends in a torn line (a crash "
                "mid-append)",
                lambda p=path, d=scan.intact: atomic_replace_write(
                    p, d, fs=self.fs
                ),
                "truncated to the last newline",
            )
        if scan.bad_lines:
            self._resolve(
                report, repair, "checkpoint_journal_corrupt", path,
                f"delivery journal has {len(scan.bad_lines)} undecodable "
                f"line(s), first at line {scan.bad_lines[0]}",
                lambda p=path, d=scan.kept: atomic_replace_write(
                    p, d, fs=self.fs
                ),
                "dropped the undecodable lines",
            )

    # -- plumbing ----------------------------------------------------------

    def _resolve(
        self,
        report: FsckReport,
        repair: bool,
        kind: str,
        path: Path,
        detail: str,
        fix,
        action: str,
    ) -> bool:
        """Record a finding; in repair mode, attempt its fix."""
        finding = Finding(kind=kind, path=str(path), detail=detail)
        report.findings.append(finding)
        if not repair:
            return False
        try:
            fix()
        except OSError as exc:
            finding.detail += f" (repair failed: {exc})"
            return False
        finding.repaired = True
        finding.action = action
        return True


def run_fsck(
    root: str | Path,
    checkpoint_dir: str | Path | None = None,
    repair: bool = False,
    fs: FileSystem | None = None,
) -> FsckReport:
    """One-shot convenience wrapper around :class:`RegistryFsck`."""
    fsck = RegistryFsck(root, checkpoint_dir=checkpoint_dir, fs=fs)
    return fsck.repair() if repair else fsck.scan()
