"""Disk-fault injection tests (``repro.core.fsio.FaultyFS``).

``FaultyFS`` raises real ``OSError`` values (ENOSPC, EIO, fsync
failure, torn writes) on exactly the Nth call of an operation, so the
durability code paths are exercised the way a full disk would exercise
them — deterministically and without monkeypatching builtins.  Covers
the shim's own semantics, graceful degradation under disk pressure
(checkpoints defer with a bounded-loss warning while serving
continues), the journaled publish rolling back cleanly on a live
``OSError`` at every write step, and a seeded randomized leg
(``REPRO_FAULT_SEED``, CI runs seeds 1-3) asserting the global
invariant: whatever single fault is injected, a publish either
completes and resolves, or raises and leaves the registry fsck-clean.
"""

from __future__ import annotations

import errno
import os
import random

import pytest

from repro.core.fsio import FAULT_OPS, FaultRule, FaultyFS, atomic_replace_write
from repro.query.store import ModelStore
from repro.serve import ModelRegistry, RegistryError, run_fsck
from repro.simulators import WorkloadGenerator
from repro.stream import IterableSource, ListSink, StreamRuntime, TrackerConfig

UNBOUNDED = TrackerConfig(idle_timeout=1e12, max_open_sessions=10**9)


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


def stream_records(seed: int = 55):
    gen = WorkloadGenerator(seed=seed)
    batch = gen.run_batch("spark", 2)
    records = [r for job in batch for r in job.records]
    records.sort(key=lambda r: r.timestamp)
    return records


class TestFaultyFS:
    def test_fails_exactly_the_nth_call(self, tmp_path):
        fs = FaultyFS().fail("write", at=2)
        fs.write_bytes(tmp_path / "a", b"one")
        with pytest.raises(OSError) as err:
            fs.write_bytes(tmp_path / "b", b"two")
        assert err.value.errno == errno.ENOSPC
        fs.write_bytes(tmp_path / "c", b"three")  # window passed
        assert fs.injected == 1
        assert fs.calls["write"] == 3

    def test_count_zero_fails_forever_from_at(self, tmp_path):
        fs = FaultyFS([FaultRule(op="write", at=2, count=0)])
        fs.write_bytes(tmp_path / "a", b"x")
        for _ in range(3):
            with pytest.raises(OSError):
                fs.write_bytes(tmp_path / "a", b"x")

    def test_counters_are_per_operation(self, tmp_path):
        fs = FaultyFS().fail("fsync", at=1, errno_code=errno.EIO)
        path = tmp_path / "f"
        fs.write_bytes(path, b"data")  # write counter, untouched
        with pytest.raises(OSError) as err:
            fs.fsync_file(path)
        assert err.value.errno == errno.EIO

    def test_torn_write_keeps_a_prefix(self, tmp_path):
        fs = FaultyFS().torn(at=1, keep=0.5)
        path = tmp_path / "torn"
        with pytest.raises(OSError) as err:
            fs.write_bytes(path, b"0123456789")
        assert err.value.errno == errno.EIO
        assert path.read_bytes() == b"01234"  # half landed: torn

    def test_append_fails_and_tears_on_its_own_counter(self, tmp_path):
        fs = FaultyFS().fail("append", at=2).torn(at=3, keep=0.5,
                                                   op="append")
        path = tmp_path / "log"
        fs.write_bytes(path, b"")  # write counter, untouched
        fs.append_bytes(path, b"ab\n")
        with pytest.raises(OSError) as err:
            fs.append_bytes(path, b"cd\n")
        assert err.value.errno == errno.ENOSPC
        with pytest.raises(OSError):
            fs.append_bytes(path, b"efgh\n")
        assert path.read_bytes() == b"ab\nef"  # nothing, then a prefix
        assert fs.calls["append"] == 3 and fs.calls["write"] == 1

    def test_atomic_replace_write_never_tears_the_target(self, tmp_path):
        path = tmp_path / "doc.json"
        atomic_replace_write(path, b"v1")
        fs = FaultyFS().torn(at=1, keep=0.3)
        with pytest.raises(OSError):
            atomic_replace_write(path, b"v2-much-longer", fs=fs)
        # The torn bytes hit the temp sibling; the target is intact.
        assert path.read_bytes() == b"v1"


class TestPublishUnderDiskFaults:
    @pytest.mark.parametrize("write_at", [1, 2, 3])
    def test_enospc_at_each_write_step_rolls_back(
        self, tmp_path, store_v1, store_v2, write_at
    ):
        # Publish writes, in order: intent (1), artifact tmp (2),
        # index tmp (3).  A live OSError at any of them must roll back
        # completely: no journal entry, no orphan, v1 untouched.
        root = tmp_path / "reg"
        ModelRegistry(root).publish(store_v1, "m")
        faulty = FaultyFS().fail("write", at=write_at)
        reg = ModelRegistry(root, fs=faulty)
        with pytest.raises(RegistryError):
            reg.publish(store_v2, "m")
        assert faulty.injected == 1
        assert reg.resolve("m")[0] == 1
        report = run_fsck(root)
        assert report.clean, [f.kind for f in report.findings]
        # The failed publish retries cleanly once the disk recovers.
        assert ModelRegistry(root).publish(store_v2, "m")[0] == 2

    def test_fsync_failure_with_durability_rolls_back(
        self, tmp_path, store_v1, store_v2
    ):
        from repro.core import DurabilityConfig

        root = tmp_path / "reg"
        ModelRegistry(root).publish(store_v1, "m")
        faulty = FaultyFS().fail("fsync", at=1, errno_code=errno.EIO)
        reg = ModelRegistry(
            root, durability=DurabilityConfig.durable(), fs=faulty
        )
        with pytest.raises(RegistryError):
            reg.publish(store_v2, "m")
        assert reg.resolve("m")[0] == 1
        assert run_fsck(root).clean


class TestGracefulDegradation:
    def test_checkpoint_defers_under_enospc_and_recovers(
        self, tmp_path, spark_model, caplog
    ):
        records = stream_records()
        faulty = FaultyFS([FaultRule(op="write", at=1, count=0)])
        runtime = StreamRuntime(
            spark_model,
            IterableSource(records),
            sink=ListSink(),
            tracker=UNBOUNDED,
            checkpoint_path=tmp_path / "ckpt.json",
            fs=faulty,
        )
        with caplog.at_level("WARNING", logger="repro.stream.runtime"):
            runtime.drain()
            runtime.checkpoint()
            runtime.checkpoint()
        assert runtime.stats.deferred_checkpoints >= 2
        assert not (tmp_path / "ckpt.json").exists()
        # Serving continued: every session still reported.
        assert runtime.stats.reports > 0
        assert runtime.stats.health != "failed"
        warnings = [
            r for r in caplog.records if "checkpoint deferred" in r.message
        ]
        assert len(warnings) == 1  # once per outage spell, not per try
        assert "replay up to" in warnings[0].getMessage()
        # Disk recovers: the next checkpoint is durable again.
        faulty.rules.clear()
        runtime.checkpoint()
        assert (tmp_path / "ckpt.json").exists()

    def test_deferral_metric_is_exported(self, tmp_path, spark_model):
        faulty = FaultyFS([FaultRule(op="write", at=1, count=0)])
        runtime = StreamRuntime(
            spark_model,
            IterableSource(stream_records()),
            sink=ListSink(),
            tracker=UNBOUNDED,
            checkpoint_path=tmp_path / "c.json",
            fs=faulty,
        )
        runtime.checkpoint()
        [(_, value)] = runtime.registry.get(
            "stream_deferred_checkpoints_total"
        ).samples()
        assert value == 1


class TestSeededFaultSweep:
    def test_any_single_fault_leaves_a_consistent_registry(
        self, tmp_path, store_v1, store_v2
    ):
        """Randomized (seeded) leg: one fault anywhere in the publish
        protocol, invariant checked after every trial.  CI runs this
        under REPRO_FAULT_SEED=1..3."""
        seed = int(os.environ.get("REPRO_FAULT_SEED", "1"))
        rng = random.Random(seed)
        for trial in range(12):
            root = tmp_path / f"reg-{trial}"
            ModelRegistry(root).publish(store_v1, "m")
            op = rng.choice(FAULT_OPS)
            rule = FaultRule(
                op=op,
                at=rng.randint(1, 4),
                errno_code=rng.choice(
                    [errno.ENOSPC, errno.EIO, errno.EDQUOT]
                ),
                keep=(
                    rng.random() if op == "write" and rng.random() < 0.3
                    else None
                ),
            )
            faulty = FaultyFS([rule])
            reg = ModelRegistry(root, fs=faulty)
            try:
                version, digest = reg.publish(store_v2, "m")
                assert (version, digest) == reg.resolve("m")
            except RegistryError:
                assert reg.resolve("m")[0] == 1
                report = run_fsck(root)
                assert report.clean, (
                    trial, rule, [f.kind for f in report.findings],
                )
            # Either way the registry must accept the next publish.
            final = ModelRegistry(root).publish(store_v2, "m")
            assert final[0] == 2
