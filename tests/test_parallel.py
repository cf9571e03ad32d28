"""Tests for ``repro.parallel``: sharding, merge determinism, the memo
cache and the pipeline's equivalence with the fused serial trainer.

The hypothesis suites pin the deterministic-merge invariant directly:
the merged parser state is a pure function of the corpus — independent of
the order shard results arrive in and of how many workers produced them —
and the pipeline behind ``IntelLog.train`` is extensionally equal to the
original fused serial loop, kept below as :func:`fused_train`.
"""

from __future__ import annotations

import json
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import IntelLog
from repro.core.intellog import TrainingSummary
from repro.graph.hwgraph import HWGraphBuilder
from repro.parallel import (
    MIN_BATCH_RECORDS,
    BatchParseTask,
    BatchStatsTask,
    ExtractionCache,
    MergeError,
    ParallelReport,
    ParallelWorkerError,
    ParseSlice,
    StatsSlice,
    batch_hash,
    compute_batch_stats,
    corpus_manifest,
    derive_batch_target,
    init_worker,
    lpt_makespan,
    make_batches,
    make_shards,
    merge_shards,
    parse_batch,
    process_cache,
    shard_hash,
    train_parallel,
)
from repro.parallel import pipeline
from repro.parallel.pipeline import _run_tasks
from repro.parsing.records import LogRecord, Session
from repro.query.store import ModelStore

# -- reference trainer --------------------------------------------------------


def fused_train(intellog, sessions) -> TrainingSummary:
    """The original fused serial loop of ``IntelLog.train``, kept as the
    reference the sharded pipeline must reproduce byte-for-byte.

    Stage 1 streams every record through Spell, stage 2 builds the Intel
    Keys, stage 3 feeds each session's Intel Messages to the HW-graph
    builder.  Only the tracing spans were dropped.
    """
    from repro.detection.detector import AnomalyDetector

    sessions = list(sessions)
    message_count = 0

    # Stage 1: log keys via Spell (streaming over all sessions).
    session_keys: list[list[tuple[LogRecord, str]]] = []
    for session in sessions:
        pairs: list[tuple[LogRecord, str]] = []
        for record in session:
            key = intellog.spell.consume(record.message)
            pairs.append((record, key.key_id))
            message_count += 1
        session_keys.append(pairs)

    # Stage 2: Intel Keys.
    intellog.intel_keys = intellog.extractor.build_all(intellog.spell.keys())

    # Stage 3: HW-graph.
    builder = HWGraphBuilder(intellog.intel_keys)
    for session, pairs in zip(sessions, session_keys):
        messages = _to_messages(intellog, session, pairs)
        builder.train_session(messages)
    intellog.graph = builder.build()
    if intellog.config.validate_model:
        intellog._validate_graph()
    intellog._detector = AnomalyDetector(
        intellog.graph,
        intellog.spell,
        intellog.extractor,
        intellog.config.detector,
    )

    return TrainingSummary(
        sessions=len(sessions),
        messages=message_count,
        log_keys=len(intellog.spell),
        intel_keys=len(intellog.intel_keys),
        entity_groups=len(intellog.graph.groups),
        critical_groups=len(intellog.graph.critical_groups()),
        ignored_keys=len(intellog.graph.ignored_keys),
    )


def _to_messages(intellog, session, pairs):
    messages = []
    for record, key_id in pairs:
        intel_key = intellog.intel_keys.get(key_id)
        if intel_key is None:
            continue
        message = intellog.extractor.to_intel_message(
            intel_key,
            record.message,
            timestamp=record.timestamp,
            session_id=session.session_id,
        )
        if message is not None:
            messages.append(message)
    return messages


def force_batch_target(monkeypatch, target: int) -> None:
    """Make ``train_parallel`` cut batches of ``target`` records."""
    monkeypatch.setattr(
        pipeline, "derive_batch_target", lambda _records: target
    )


def default_batches(shards):
    """The layout ``train_parallel`` cuts for these shards."""
    return make_batches(
        shards, derive_batch_target(sum(len(s) for s in shards))
    )


def shard_parses(shards):
    """Phase 1 over ``shards`` as one batch, flattened to per-shard
    parses in corpus order."""
    task = BatchParseTask(
        index=0,
        batch_hash=batch_hash(shards),
        slices=[
            ParseSlice(
                index=s.index,
                content_hash=s.content_hash,
                messages=tuple(r.message for r in s.session.records),
            )
            for s in shards
        ],
    )
    return parse_batch(task).parses

# -- corpus strategies --------------------------------------------------------
#
# Messages are drawn from a pool of parametric templates: lowercase words
# are template constants (the tokenizer masks numerals, identifiers and
# localities), so drawn corpora exercise key creation, matching and LCS
# template evolution without degenerating into all-variable noise.

TEMPLATES = (
    "worker {a} started task {b}",
    "worker {a} finished task {b} in {c} ms",
    "read {a} bytes from stream part{b}",
    "connection to host{a}:{b} established",
    "committed output of attempt_{a} to final location",
    "shuffle fetch of segment {a} failed with code {b}",
)

message_st = st.builds(
    lambda idx, a, b, c: TEMPLATES[idx].format(a=a, b=b, c=c),
    st.integers(0, len(TEMPLATES) - 1),
    st.integers(0, 30),
    st.integers(0, 30),
    st.integers(0, 30),
)


@st.composite
def corpora(draw, max_sessions: int = 4, max_records: int = 10):
    sessions = []
    n_sessions = draw(st.integers(1, max_sessions))
    for sid in range(n_sessions):
        messages = draw(
            st.lists(message_st, min_size=1, max_size=max_records)
        )
        records = [
            LogRecord(
                timestamp=float(sid * 1000 + pos),
                level="INFO",
                source="Worker",
                message=message,
                session_id=f"container_{sid:04d}",
            )
            for pos, message in enumerate(messages)
        ]
        sessions.append(
            Session(
                session_id=f"container_{sid:04d}",
                app_id="app_1",
                records=records,
            )
        )
    return sessions


def spell_state(parser):
    """Full observable Spell state (table + bookkeeping)."""
    return [
        (k.key_id, tuple(k.tokens), k.sample, k.count, tuple(k.line_ids))
        for k in parser.keys()
    ]


def model_json(intellog) -> str:
    return json.dumps(intellog.hw_graph().to_dict(), sort_keys=True)


# -- property-based: the deterministic-merge invariant ------------------------


class TestMergeProperties:
    @given(corpora(), st.randoms(use_true_random=False))
    @settings(max_examples=30, deadline=None)
    def test_shard_result_order_invariance(self, sessions, rng):
        """The merge pairs results by shard index and content hash, so the
        arrival (completion) order of shard results cannot matter."""
        shards = make_shards(sessions)
        parses = shard_parses(shards)
        merged = merge_shards(shards, parses)
        shuffled = list(parses)
        rng.shuffle(shuffled)
        remerged = merge_shards(shards, shuffled)
        assert spell_state(remerged.spell) == spell_state(merged.spell)
        assert remerged.record_keys == merged.record_keys
        assert remerged.distinct_forms == merged.distinct_forms

    @given(corpora())
    @settings(max_examples=30, deadline=None)
    def test_merge_reproduces_streaming_spell(self, sessions):
        """Form replay == consuming every record serially: same table,
        same samples, same counts, same per-record assignment."""
        from repro.parsing.spell import SpellParser

        serial = SpellParser()
        serial_keys = [
            [serial.consume(r.message).key_id for r in session.records]
            for session in sessions
        ]
        shards = make_shards(sessions)
        merged = merge_shards(shards, shard_parses(shards))
        assert spell_state(merged.spell) == spell_state(serial)
        assert merged.record_keys == serial_keys

    @given(corpora())
    @settings(max_examples=15, deadline=None)
    def test_pipeline_equals_serial_trainer(self, sessions):
        """Key tables, Intel Keys, groups and subroutines all agree with
        the fused serial loop (inline path)."""
        serial = IntelLog()
        serial_summary = fused_train(serial, sessions)
        # workers>1 would spawn real processes per hypothesis example;
        # the inline path runs the identical shard/merge/apply code, and
        # the multiprocess leg is covered by
        # TestTrainParallel.test_multiprocess_equals_serial and the
        # golden suite.
        parallel = IntelLog()
        assert parallel.train(sessions, workers=1) == serial_summary
        assert spell_state(parallel.spell) == spell_state(serial.spell)
        assert {
            k: v.to_dict() for k, v in parallel.intel_keys.items()
        } == {k: v.to_dict() for k, v in serial.intel_keys.items()}
        assert model_json(parallel) == model_json(serial)


# -- sharding ----------------------------------------------------------------


class TestSharding:
    def _sessions(self):
        return [
            Session(
                session_id=f"c{i}",
                records=[
                    LogRecord(
                        timestamp=float(i * 10 + j),
                        level="INFO",
                        source="S",
                        message=f"worker {i} started task {j}",
                    )
                    for j in range(3)
                ],
            )
            for i in range(4)
        ]

    def test_shard_partition_is_per_session(self):
        sessions = self._sessions()
        shards = make_shards(sessions)
        assert [s.index for s in shards] == [0, 1, 2, 3]
        assert [s.base_offset for s in shards] == [0, 3, 6, 9]
        assert all(len(s) == 3 for s in shards)

    def test_content_hash_tracks_content(self):
        sessions = self._sessions()
        a = shard_hash(sessions[0])
        assert a == shard_hash(sessions[0])  # deterministic
        sessions[0].records[1].message += " extra"
        assert shard_hash(sessions[0]) != a

    def test_manifest_depends_on_order_and_content(self):
        sessions = self._sessions()
        manifest = corpus_manifest(make_shards(sessions))
        assert manifest == corpus_manifest(make_shards(sessions))
        reordered = corpus_manifest(
            make_shards(list(reversed(sessions)))
        )
        assert reordered != manifest

    def test_merge_rejects_foreign_results(self):
        sessions = self._sessions()
        shards = make_shards(sessions)
        parses = shard_parses(shards)
        with pytest.raises(MergeError, match="duplicate"):
            merge_shards(shards, parses[:-1] + [parses[0]])
        with pytest.raises(MergeError, match="hash mismatch"):
            bad = parses[0]
            bad.content_hash = "0" * 64
            merge_shards(shards, parses)

    def test_merge_rejects_wrong_count(self):
        shards = make_shards(self._sessions())
        with pytest.raises(MergeError, match="expected"):
            merge_shards(shards, [])


# -- extraction cache --------------------------------------------------------


class TestExtractionCache:
    KEY = ("worker", "*", "started", "task", "*")
    SAMPLE = "worker 3 started task 7"

    def test_hit_returns_equal_key_with_requested_id(self):
        cache = ExtractionCache()
        first = cache.extract("K0", self.KEY, self.SAMPLE)
        second = cache.extract("K9", self.KEY, self.SAMPLE)
        assert cache.stats() == (1, 1)
        assert second.key_id == "K9"
        assert first.key_id == "K0"
        # Identical apart from the stamped id.
        from dataclasses import replace

        assert replace(first, key_id="") == replace(second, key_id="")

    def test_cached_equals_cold(self):
        cache = ExtractionCache()
        cache.extract("K0", self.KEY, self.SAMPLE)
        warm = cache.extract("K0", self.KEY, self.SAMPLE)
        assert cache.stats() == (1, 1)
        cold = ExtractionCache().extract("K0", self.KEY, self.SAMPLE)
        assert warm == cold

    def test_clear_drops_memo_and_counters(self):
        cache = ExtractionCache()
        cache.extract("K0", self.KEY, self.SAMPLE)
        cache.extract("K0", self.KEY, self.SAMPLE)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats() == (0, 0)
        cache.extract("K0", self.KEY, self.SAMPLE)
        assert cache.stats() == (0, 1)

    def test_process_cache_is_a_singleton(self):
        assert process_cache() is process_cache()


# -- pipeline ----------------------------------------------------------------


class TestTrainParallel:
    def _sessions(self):
        return [
            Session(
                session_id=f"c{i}",
                records=[
                    LogRecord(
                        timestamp=float(i * 100 + j),
                        level="INFO",
                        source="S",
                        message=m.format(i=i, j=j),
                    )
                    for j, m in enumerate(
                        (
                            "worker {i} started task {j}",
                            "read {j} bytes from stream part{i}",
                            "worker {i} finished task {j} in 5 ms",
                        )
                    )
                ],
            )
            for i in range(5)
        ]

    @pytest.mark.parametrize("bad", [0, -1, 2.5, True, "2"])
    def test_rejects_invalid_workers(self, bad):
        with pytest.raises(ValueError, match="positive integer"):
            train_parallel(IntelLog(), self._sessions(), workers=bad)

    def test_train_workers_kwarg_routes_to_pipeline(self):
        intellog = IntelLog()
        summary = intellog.train(self._sessions(), workers=1)
        report = intellog.last_parallel_report
        assert report is not None
        assert report.workers == 1
        assert report.shards == 5
        assert report.records == summary.messages == 15
        assert len(report.parse_shard_seconds) == 5
        assert len(report.stats_shard_seconds) == 5
        # 15 records < MIN_BATCH_RECORDS: one batch, inline pool.
        assert report.batches == 1
        assert report.pool_workers == 1
        assert report.batch_target_records == MIN_BATCH_RECORDS
        assert len(report.parse_batch_seconds) == 1
        assert len(report.stats_batch_seconds) == 1
        # Inline runs ship nothing across a process boundary.
        assert report.payload_bytes_total == 0

    def test_multiprocess_equals_serial(self, monkeypatch):
        sessions = self._sessions()
        serial = IntelLog()
        serial_summary = fused_train(serial, sessions)
        parallel = IntelLog()
        # A 3-record target forces >1 batch so a real pool is exercised.
        force_batch_target(monkeypatch, 3)
        assert parallel.train(sessions, workers=2) == serial_summary
        report = parallel.last_parallel_report
        assert report.pool_workers == 2
        assert report.batches > 1
        assert report.payload_bytes_total > 0
        assert spell_state(parallel.spell) == spell_state(serial.spell)
        assert {
            k: v.to_dict() for k, v in parallel.intel_keys.items()
        } == {k: v.to_dict() for k, v in serial.intel_keys.items()}
        assert model_json(parallel) == model_json(serial)

    def test_retrain_builds_fresh_model(self):
        """A second ``train`` replaces the first model: training on A
        then B equals training a fresh instance on B alone."""
        corpus_a = self._sessions()
        corpus_b = TestBatching()._sessions()
        retrained = IntelLog()
        retrained.train(corpus_a)
        retrained.train(corpus_b)
        fresh = IntelLog()
        fresh.train(corpus_b)
        assert (
            ModelStore.from_intellog(retrained).digest()
            == ModelStore.from_intellog(fresh).digest()
        )

    def test_cache_holds_only_last_run(self):
        """The process-wide memo is cleared per run: after training A
        then B it holds exactly B's keys."""
        corpus_a = self._sessions()
        corpus_b = [
            Session(
                session_id=f"b{i}",
                records=[
                    LogRecord(
                        timestamp=float(i * 10 + j),
                        level="INFO",
                        source="S",
                        message=f"committed output of attempt_{i}{j}",
                    )
                    for j in range(3)
                ],
            )
            for i in range(3)
        ]
        model_a = IntelLog()
        model_a.train(corpus_a)
        model_b = IntelLog()
        model_b.train(corpus_b)
        keys_a = {(tuple(k.tokens), k.sample) for k in model_a.spell.keys()}
        keys_b = {(tuple(k.tokens), k.sample) for k in model_b.spell.keys()}
        assert keys_a and keys_b and not keys_a & keys_b
        assert set(process_cache()._memo) == keys_b

    def test_detector_works_after_parallel_training(self):
        sessions = self._sessions()
        intellog = IntelLog()
        intellog.train(sessions, workers=1)
        report = intellog.detect_job(sessions[:2], job_id="replay")
        assert report.sessions


class TestLptMakespan:
    def test_empty(self):
        assert lpt_makespan([], 4) == 0.0

    def test_single_bin_is_sum(self):
        assert lpt_makespan([3.0, 1.0, 2.0], 1) == pytest.approx(6.0)

    def test_perfect_split(self):
        assert lpt_makespan([2.0, 2.0, 2.0, 2.0], 2) == pytest.approx(4.0)

    def test_bounded_below_by_longest_task(self):
        assert lpt_makespan([5.0, 0.1, 0.1], 8) == pytest.approx(5.0)

    def test_rejects_zero_bins(self):
        with pytest.raises(ValueError):
            lpt_makespan([1.0], 0)

    def test_more_bins_never_slower(self):
        durations = [3.0, 2.5, 2.0, 1.0, 0.5, 0.5]
        spans = [lpt_makespan(durations, n) for n in range(1, 7)]
        assert spans == sorted(spans, reverse=True)


# -- shard stats task ---------------------------------------------------------


# -- shard batches ------------------------------------------------------------


def _flat(batches):
    return [
        (s.index, s.content_hash) for b in batches for s in b.shards
    ]


class TestBatching:
    def _sessions(self, n=6, records=4):
        return [
            Session(
                session_id=f"c{i}",
                records=[
                    LogRecord(
                        timestamp=float(i * 100 + j),
                        level="INFO",
                        source="S",
                        message=f"worker {i} started task {j}",
                    )
                    for j in range(records)
                ],
            )
            for i in range(n)
        ]

    def test_greedy_fill_in_corpus_order(self):
        shards = make_shards(self._sessions(n=6, records=4))
        batches = make_batches(shards, target_records=8)
        # 6 shards x 4 records, target 8: closed after every 2 shards.
        assert [len(b) for b in batches] == [2, 2, 2]
        assert [b.records for b in batches] == [8, 8, 8]
        assert [b.index for b in batches] == [0, 1, 2]
        assert _flat(batches) == [
            (s.index, s.content_hash) for s in shards
        ]

    def test_oversized_session_forms_its_own_batch(self):
        sessions = self._sessions(n=3, records=10)
        shards = make_shards(sessions)
        batches = make_batches(shards, target_records=5)
        # Sessions are never split: each 10-record shard overshoots the
        # 5-record target on its own.
        assert [len(b) for b in batches] == [1, 1, 1]

    def test_trailing_partial_batch_kept(self):
        shards = make_shards(self._sessions(n=5, records=4))
        batches = make_batches(shards, target_records=8)
        assert [b.records for b in batches] == [8, 8, 4]

    def test_derived_target_floors_at_min_batch_records(self):
        assert derive_batch_target(10) == MIN_BATCH_RECORDS
        assert derive_batch_target(32 * MIN_BATCH_RECORDS) == (
            MIN_BATCH_RECORDS
        )
        # Large corpora aim for 32 slices (8 workers x 4).
        assert derive_batch_target(3_200_000) == 100_000

    def test_rejects_invalid_target(self):
        shards = make_shards(self._sessions())
        with pytest.raises(ValueError, match="positive"):
            make_batches(shards, target_records=0)

    def test_batch_hash_tracks_members(self):
        shards = make_shards(self._sessions())
        assert batch_hash(shards[:2]) == batch_hash(shards[:2])
        assert batch_hash(shards[:2]) != batch_hash(shards[:3])
        assert batch_hash(shards[:2]) != batch_hash(
            [shards[1], shards[0]]
        )

    def test_partition_ignores_host_core_count(self):
        """The layout is a pure function of the corpus: a machine with a
        different core count must cut identical batches."""
        shards = make_shards(self._sessions())
        layouts = []
        for cores in (1, 2, 64, None):
            with mock.patch("os.cpu_count", return_value=cores):
                batches = default_batches(shards)
                layouts.append(
                    [(b.index, b.batch_hash, len(b)) for b in batches]
                )
        assert all(layout == layouts[0] for layout in layouts)

    def test_partition_ignores_worker_count(self, monkeypatch):
        """Reports from different worker counts agree on the layout."""
        sessions = self._sessions()
        force_batch_target(monkeypatch, 8)
        layouts = []
        for workers in (1, 2, 3):
            intellog = IntelLog()
            intellog.train(sessions, workers=workers)
            report = intellog.last_parallel_report
            layouts.append(
                (
                    report.batches,
                    report.batch_target_records,
                    report.manifest,
                    len(report.parse_batch_seconds),
                )
            )
        assert all(layout == layouts[0] for layout in layouts)

    def test_model_independent_of_batch_layout(self, monkeypatch):
        """Batching only distributes work: any layout, same bytes."""
        sessions = self._sessions()
        digests = set()
        for target in (1, 3, 7, None):
            with monkeypatch.context() as patch:
                if target is not None:
                    force_batch_target(patch, target)
                intellog = IntelLog()
                intellog.train(sessions, workers=1)
            digests.add(model_json(intellog))
        assert len(digests) == 1

    @given(corpora(max_sessions=6, max_records=8), st.integers(1, 20))
    @settings(max_examples=40, deadline=None)
    def test_partition_properties(self, sessions, target):
        """Every shard appears exactly once, in corpus order; every
        batch but the last reaches the target; repeated cuts agree."""
        shards = make_shards(sessions)
        batches = make_batches(shards, target_records=target)
        assert _flat(batches) == [
            (s.index, s.content_hash) for s in shards
        ]
        assert [b.index for b in batches] == list(range(len(batches)))
        for batch in batches[:-1]:
            assert batch.records >= target
        again = make_batches(shards, target_records=target)
        assert [(b.index, b.batch_hash) for b in again] == [
            (b.index, b.batch_hash) for b in batches
        ]

    @given(corpora(max_sessions=5, max_records=6))
    @settings(max_examples=25, deadline=None)
    def test_default_partition_is_pure(self, sessions):
        """The derived target never consults the host: cuts under
        wildly different advertised core counts are identical."""
        shards = make_shards(sessions)
        with mock.patch("os.cpu_count", return_value=1):
            one = default_batches(shards)
        with mock.patch("os.cpu_count", return_value=96):
            many = default_batches(shards)
        assert [(b.index, b.batch_hash) for b in one] == [
            (b.index, b.batch_hash) for b in many
        ]


# -- worker failures ----------------------------------------------------------


class _PoisonMessage(str):
    """A str that works in-parent but cannot be pickled to a worker."""

    def __reduce__(self):
        raise RuntimeError("poisoned shard payload")


class _CancelTask:
    """Task for the cancellation regression: poison or slow marker."""

    def __init__(self, index: int, path: str | None) -> None:
        self.index = index
        self.path = path


def _cancel_probe(task: _CancelTask):
    if task.path is None:
        raise RuntimeError("boom")
    Path(task.path).write_text("ran")
    time.sleep(0.05)
    return task.index


class TestWorkerFailure:
    def _sessions(self, n=5):
        return [
            Session(
                session_id=f"c{i}",
                records=[
                    LogRecord(
                        timestamp=float(i * 10 + j),
                        level="INFO",
                        source="S",
                        message=f"worker {i} started task {j}",
                    )
                    for j in range(3)
                ],
            )
            for i in range(n)
        ]

    def test_inline_failure_wrapped_with_batch_index(self, monkeypatch):
        from repro.parallel import worker as worker_mod

        real = worker_mod.mask_message

        def boom(message):
            if "task 1" in message:
                raise RuntimeError("injected parse failure")
            return real(message)

        monkeypatch.setattr(worker_mod, "mask_message", boom)
        with pytest.raises(ParallelWorkerError) as excinfo:
            train_parallel(IntelLog(), self._sessions(), workers=1)
        assert excinfo.value.phase == "parse"
        assert excinfo.value.batch_index == 0
        assert "injected parse failure" in str(excinfo.value)

    def test_poisoned_shard_surfaces_batch_index(self, monkeypatch):
        """A shard whose payload dies on the way to the pool fails the
        run with a typed error naming the poisoned batch."""
        sessions = self._sessions()
        sessions[3].records[1].message = _PoisonMessage(
            sessions[3].records[1].message
        )
        # A 3-record target -> one 3-record session per batch.
        force_batch_target(monkeypatch, 3)
        with pytest.raises(ParallelWorkerError) as excinfo:
            train_parallel(IntelLog(), sessions, workers=2)
        assert excinfo.value.phase == "parse"
        assert excinfo.value.batch_index == 3

    def test_failure_cancels_pending_tasks(self, tmp_path):
        """A poisoned first task must not let the queued tail run to
        completion before the error surfaces."""
        markers = [tmp_path / f"marker_{i}.txt" for i in range(12)]
        tasks = [_CancelTask(0, None)] + [
            _CancelTask(i + 1, str(path))
            for i, path in enumerate(markers)
        ]
        executor = ProcessPoolExecutor(
            max_workers=1,
            mp_context=multiprocessing.get_context("fork"),
        )
        try:
            with pytest.raises(ParallelWorkerError) as excinfo:
                _run_tasks(
                    executor, _cancel_probe, tasks, phase="parse"
                )
            assert excinfo.value.batch_index == 0
        finally:
            # Deliberately no cancel_futures here: if _run_tasks left
            # the queue intact, shutdown(wait=True) would run every
            # marker task and the assertion below would fail.
            executor.shutdown(wait=True)
        ran = sum(1 for path in markers if path.exists())
        assert ran < len(markers), (
            "pending tasks were not cancelled after a worker failure"
        )


# -- report serialization -----------------------------------------------------


class TestReportRoundTrip:
    def _report(self, monkeypatch, workers, batch_target=None):
        if batch_target is not None:
            force_batch_target(monkeypatch, batch_target)
        intellog = IntelLog()
        intellog.train(TestWorkerFailure()._sessions(), workers=workers)
        return intellog.last_parallel_report

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": 1},
            {"workers": 2, "batch_target": 3},
        ],
    )
    def test_to_dict_round_trips_through_json(self, kwargs, monkeypatch):
        report = self._report(monkeypatch, **kwargs)
        data = json.loads(json.dumps(report.to_dict()))
        restored = ParallelReport.from_dict(data)
        assert restored.to_dict() == report.to_dict()
        # The modeled speedup is recomputable from the artifact alone.
        for n in (1, 2, 4, 8):
            assert restored.modeled_speedup(n) == pytest.approx(
                report.modeled_speedup(n)
            )
        assert restored.serial_overhead == pytest.approx(
            report.serial_overhead
        )
        assert restored.payload_bytes_total == report.payload_bytes_total

    def test_artifact_carries_per_batch_series(self, monkeypatch):
        report = self._report(monkeypatch, workers=2, batch_target=3)
        data = report.to_dict()
        assert len(data["parse_batch_seconds"]) == report.batches
        assert len(data["stats_batch_seconds"]) == report.batches
        assert len(data["parse_payload_bytes"]) == report.batches
        assert len(data["stats_payload_bytes"]) == report.batches
        assert len(data["parse_result_bytes"]) == report.batches
        assert len(data["stats_result_bytes"]) == report.batches
        assert len(data["parse_shard_seconds"]) == report.shards
        assert len(data["stats_shard_seconds"]) == report.shards
        assert data["payload_bytes_total"] == report.payload_bytes_total
        assert data["cache_lookups"] == report.cache_lookups


# -- cache accounting ---------------------------------------------------------


class TestCacheConservation:
    def test_lookups_invariant_across_worker_counts(self, monkeypatch):
        """For a fixed corpus (and therefore a fixed batch layout),
        hits + misses is conserved no matter how many processes the
        lookups were spread over."""
        sessions = TestWorkerFailure()._sessions()
        force_batch_target(monkeypatch, 3)
        totals = {}
        for workers in (1, 2, 4):
            intellog = IntelLog()
            intellog.train(sessions, workers=workers)
            report = intellog.last_parallel_report
            totals[workers] = report.cache_lookups
            assert report.cache_lookups > 0
        assert len(set(totals.values())) == 1, totals

    def test_lookup_total_matches_structure(self, monkeypatch):
        """Total lookups = one canonical pass over the key table plus
        one batch-key-table pass per batch."""
        sessions = TestWorkerFailure()._sessions()
        force_batch_target(monkeypatch, 3)
        intellog = IntelLog()
        intellog.train(sessions, workers=1)
        report = intellog.last_parallel_report
        # Same key set in every session here, so each of the 5 batches
        # looks up the full table once, plus the canonical pass.
        assert report.cache_lookups == report.log_keys * (
            report.batches + 1
        )

    def test_init_worker_warms_extractor(self):
        cache = process_cache()
        init_worker()
        assert cache._extractor is not None


class TestShardStats:
    def test_stats_payload_matches_direct_computation(self):
        session = Session(
            session_id="c0",
            records=[
                LogRecord(
                    timestamp=float(j),
                    level="INFO",
                    source="S",
                    message=f"worker 1 started task {j}",
                )
                for j in range(3)
            ],
        )
        shards = make_shards([session])
        merged = merge_shards(shards, shard_parses(shards))
        key = merged.spell.keys()[0]
        task = BatchStatsTask(
            index=0,
            batch_hash=batch_hash(shards),
            slices=[
                StatsSlice(
                    index=0,
                    content_hash=shards[0].content_hash,
                    session_id=session.session_id,
                    rows=[(r.timestamp, r.message) for r in session.records],
                    record_keys=merged.record_keys[0],
                )
            ],
            key_table=[(key.key_id, tuple(key.tokens), key.sample)],
            key_labels={key.key_id: ("worker",)},
        )
        [stats] = compute_batch_stats(task).stats
        assert stats.content_hash == shards[0].content_hash
        assert stats.messages == 3
        [payload] = stats.groups
        assert payload[0] == "worker"  # label
        assert payload[2] == [0.0, 2.0]  # lifespan
        assert payload[3] == 3  # max_key_repeat
