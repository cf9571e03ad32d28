"""Tests for registry crash-consistency checking (``repro.serve.fsck``).

Each test crafts the exact debris a crash leaves at one point of the
journaled publish/swap protocol — intent with artifact but no index
entry, legacy orphaned artifact, dangling index version, torn intent,
corrupt index, stray temp files, torn or garbled delivery journals —
and asserts fsck's verdict and repair: roll *forward* when the artifact
is durable, roll *back* when it is not, and refuse to guess when the
index itself is unreadable.
Also covers the ``repro fsck`` CLI exit codes and the automatic
startup fsck in ``DetectionService``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.query.store import ModelStore
from repro.serve import (
    DetectionService,
    ModelRegistry,
    RegistryError,
    RegistryFsck,
    run_fsck,
)
from repro.stream.journal import journal_line


@pytest.fixture()
def store_v1(spark_model) -> ModelStore:
    return ModelStore.from_intellog(spark_model)


@pytest.fixture()
def store_v2(spark_training_jobs) -> ModelStore:
    from repro import IntelLog
    from repro.simulators import sessions_of

    intellog = IntelLog()
    intellog.train(sessions_of(spark_training_jobs[:6]))
    return ModelStore.from_intellog(intellog)


def _crash_after_artifact(root, reg, store, name="m") -> str:
    """Leave the debris of a crash between artifact write and index
    append: intent on disk, artifact on disk, no index entry."""
    digest = store.digest()
    reg.intent_path(name, digest).write_text(json.dumps(
        {"op": "publish", "name": name, "digest": digest},
        sort_keys=True,
    ))
    reg.artifact_path(digest).write_bytes(store.canonical_bytes())
    return digest


class TestFsckRepair:
    def test_clean_registry_scans_clean(self, tmp_path, store_v1):
        reg = ModelRegistry(tmp_path / "reg")
        reg.publish(store_v1, "m")
        report = run_fsck(tmp_path / "reg")
        assert report.clean and report.ok

    def test_crash_after_artifact_rolls_forward(
        self, tmp_path, store_v1, store_v2
    ):
        root = tmp_path / "reg"
        reg = ModelRegistry(root)
        reg.publish(store_v1, "m")
        digest2 = _crash_after_artifact(root, reg, store_v2)

        scan = run_fsck(root)
        assert [f.kind for f in scan.findings] == ["intent_rollforward"]
        assert not scan.ok  # found but not repaired

        repaired = run_fsck(root, repair=True)
        assert repaired.ok
        fresh = ModelRegistry(root)
        assert fresh.resolve("m") == (2, digest2)
        assert run_fsck(root).clean

    def test_crash_before_artifact_rolls_back(
        self, tmp_path, store_v1, store_v2
    ):
        root = tmp_path / "reg"
        reg = ModelRegistry(root)
        reg.publish(store_v1, "m")
        digest2 = store_v2.digest()
        intent = reg.intent_path("m", digest2)
        intent.write_text(json.dumps(
            {"op": "publish", "name": "m", "digest": digest2},
            sort_keys=True,
        ))  # crashed before the artifact landed
        repaired = run_fsck(root, repair=True)
        assert [f.kind for f in repaired.findings] == ["intent_rollback"]
        assert repaired.ok
        assert not intent.exists()
        fresh = ModelRegistry(root)
        assert fresh.resolve("m")[0] == 1  # v2 never happened

    def test_legacy_orphan_artifact_is_reclaimed(
        self, tmp_path, store_v1, store_v2
    ):
        # The known pre-journal bug: artifact written, crash before the
        # index append, no intent to witness it.  fsck must reclaim it
        # rather than leak it forever.
        root = tmp_path / "reg"
        reg = ModelRegistry(root)
        reg.publish(store_v1, "m")
        orphan = reg.artifact_path(store_v2.digest())
        orphan.write_bytes(store_v2.canonical_bytes())

        repaired = run_fsck(root, repair=True)
        assert [f.kind for f in repaired.findings] == ["orphan_artifact"]
        assert repaired.ok
        assert not orphan.exists()
        assert ModelRegistry(root).resolve("m")[0] == 1

    def test_dangling_version_is_dropped(self, tmp_path, store_v1, store_v2):
        root = tmp_path / "reg"
        reg = ModelRegistry(root)
        reg.publish(store_v1, "m")
        _, digest2 = reg.publish(store_v2, "m")
        reg.artifact_path(digest2).unlink()  # artifact lost

        repaired = run_fsck(root, repair=True)
        assert "dangling_version" in [f.kind for f in repaired.findings]
        assert repaired.ok
        fresh = ModelRegistry(root)
        assert fresh.resolve("m")[0] == 1
        with pytest.raises(RegistryError):
            fresh.resolve("m", 2)

    def test_torn_intent_is_removed(self, tmp_path, store_v1):
        root = tmp_path / "reg"
        reg = ModelRegistry(root)
        reg.publish(store_v1, "m")
        torn = root / "intents" / "deadbeef-0000.intent.json"
        torn.write_text('{"op": "publ')  # crash mid-journal-write
        repaired = run_fsck(root, repair=True)
        assert [f.kind for f in repaired.findings] == ["intent_torn"]
        assert repaired.ok
        assert not torn.exists()

    def test_stray_tmp_files_are_removed(self, tmp_path, store_v1):
        root = tmp_path / "reg"
        reg = ModelRegistry(root)
        reg.publish(store_v1, "m")
        stray = root / "artifacts" / "abc.json.tmp"
        stray.write_bytes(b"partial")
        repaired = run_fsck(root, repair=True)
        assert [f.kind for f in repaired.findings] == ["stray_tmp"]
        assert not stray.exists()

    def test_corrupt_index_disables_destructive_repair(
        self, tmp_path, store_v1, store_v2
    ):
        root = tmp_path / "reg"
        reg = ModelRegistry(root)
        reg.publish(store_v1, "m")
        _crash_after_artifact(root, reg, store_v2)
        (root / "index.json").write_text("{{{ not json")

        repaired = run_fsck(root, repair=True)
        kinds = {f.kind for f in repaired.findings}
        assert "index_corrupt" in kinds
        assert not repaired.ok  # needs a human: fsck refuses to guess
        # With no readable index nothing can be proven unreferenced:
        # the artifact survives, the intent stays as a witness.
        assert reg.artifact_path(store_v2.digest()).exists()
        assert "orphan_artifact" not in kinds

    def test_checkpoint_dir_scan_clears_swap_intent(
        self, tmp_path, store_v1
    ):
        root = tmp_path / "reg"
        ModelRegistry(root).publish(store_v1, "m")
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        (ckpt / "model.t1.stream-ckpt.json.tmp").write_text("torn")
        (ckpt / "model.t1.swap-intent.json").write_text(json.dumps(
            {"op": "swap", "tenant": "t1", "from": 1, "to": 2}
        ))
        repaired = run_fsck(root, checkpoint_dir=ckpt, repair=True)
        kinds = sorted(f.kind for f in repaired.findings)
        assert kinds == ["checkpoint_stray_tmp", "swap_intent"]
        assert repaired.ok
        assert list(ckpt.iterdir()) == []

    def test_checkpoint_journals_torn_and_undecodable_lines(
        self, tmp_path, store_v1
    ):
        root = tmp_path / "reg"
        ModelRegistry(root).publish(store_v1, "m")
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        good = journal_line("a" * 20, "end_marker", True, ["unexpected"])
        torn = ckpt / "model.t1.stream-ckpt.json.journal"
        torn.write_bytes(good + b'{"id": "bbbb')
        corrupt = ckpt / "model.t2.stream-ckpt.json.journal.prev"
        corrupt.write_bytes(b"not json\n" + good + b"\n" + b"[1]\n")

        scan = run_fsck(root, checkpoint_dir=ckpt)
        assert sorted((f.kind, Path(f.path).name) for f in scan.findings) == [
            ("checkpoint_journal_corrupt", corrupt.name),
            ("checkpoint_journal_torn", torn.name),
        ]
        assert not scan.ok
        assert torn.read_bytes() == good + b'{"id": "bbbb'

        repaired = run_fsck(root, checkpoint_dir=ckpt, repair=True)
        assert repaired.ok
        assert torn.read_bytes() == good
        assert corrupt.read_bytes() == good
        assert run_fsck(root, checkpoint_dir=ckpt).clean

    def test_journal_without_snapshot_is_not_a_finding(
        self, tmp_path, store_v1
    ):
        root = tmp_path / "reg"
        ModelRegistry(root).publish(store_v1, "m")
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        (ckpt / "model.t1.stream-ckpt.json.journal").write_bytes(
            journal_line("a" * 20) + journal_line("b" * 20, "flush")
        )
        assert run_fsck(root, checkpoint_dir=ckpt).clean

    def test_fsck_report_is_json_serialisable(self, tmp_path, store_v1):
        root = tmp_path / "reg"
        reg = ModelRegistry(root)
        reg.publish(store_v1, "m")
        (root / "artifacts" / "junk.json.tmp").write_text("x")
        report = RegistryFsck(root).scan()
        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["clean"] is False
        assert doc["findings"][0]["kind"] == "stray_tmp"


class TestStartupFsck:
    def test_service_repairs_crashed_publish_on_startup(
        self, tmp_path, store_v1, store_v2
    ):
        root = tmp_path / "reg"
        reg = ModelRegistry(root)
        reg.publish(store_v1, "m")
        digest2 = _crash_after_artifact(root, reg, store_v2)

        registry = ModelRegistry(root)  # reopens: index still at v1
        svc = DetectionService(registry, checkpoint_dir=tmp_path / "ck")
        assert svc.startup_fsck is not None
        assert not svc.startup_fsck.clean
        assert svc.startup_fsck.ok
        # The roll-forward is visible to the reopened registry.
        assert registry.resolve("m") == (2, digest2)
        assert svc.tenants_status()["startup_fsck"]["clean"] is False

    def test_fsck_on_start_can_be_disabled(self, tmp_path, store_v1):
        root = tmp_path / "reg"
        ModelRegistry(root).publish(store_v1, "m")
        svc = DetectionService(
            ModelRegistry(root), fsck_on_start=False
        )
        assert svc.startup_fsck is None
        assert "startup_fsck" not in svc.tenants_status()


class TestFsckCli:
    def test_scan_exits_1_on_findings_repair_exits_0(
        self, tmp_path, store_v1, store_v2, capsys
    ):
        root = tmp_path / "reg"
        reg = ModelRegistry(root)
        reg.publish(store_v1, "m")
        _crash_after_artifact(root, reg, store_v2)

        assert cli_main(["fsck", "--registry", str(root)]) == 1
        out = capsys.readouterr().out
        assert "intent_rollforward" in out and "NOT repaired" in out

        assert cli_main(
            ["fsck", "--registry", str(root), "--repair"]
        ) == 0
        assert cli_main(["fsck", "--registry", str(root)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_json_report(self, tmp_path, store_v1, capsys):
        root = tmp_path / "reg"
        ModelRegistry(root).publish(store_v1, "m")
        assert cli_main(
            ["fsck", "--registry", str(root), "--json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["clean"] is True and doc["ok"] is True
