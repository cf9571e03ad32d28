"""Tests for the trainer (:mod:`repro.core.train`): its equivalence with
streaming Spell and with the fused serial loop, the extraction memo
the detector keeps, how often training extracts, and what a training
run installs on the model.

The hypothesis suites pin the two invariants the two-pass trainer rests
on: consuming the first record of each distinct masked form gives the
key table and per-record assignment of consuming every record, and the
trainer behind ``IntelLog.train`` is extensionally equal to the original
fused serial loop, kept below as :func:`fused_train`.
"""

from __future__ import annotations

import json
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import IntelLog
from repro.core.train import TrainingSummary, parse
from repro.extraction.cache import ExtractionCache
from repro.extraction.pipeline import InformationExtractor
from repro.graph.hwgraph import HWGraphBuilder
from repro.nlp.camelcase import FilterChain, camel_filter
from repro.parsing.records import LogRecord, Session
from repro.parsing.spell import SpellParser
from repro.query.store import ModelStore

# -- reference trainer --------------------------------------------------------


def fused_train(intellog, sessions) -> TrainingSummary:
    """The original fused serial loop of ``IntelLog.train``, kept as the
    reference the trainer must reproduce byte-for-byte.

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


def sessions_of_templates(count: int = 5) -> list[Session]:
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
        for i in range(count)
    ]


# -- property-based: the trainer equals streaming Spell and the fused loop ----


class TestTrainerProperties:
    @given(corpora())
    @settings(max_examples=30, deadline=None)
    def test_form_replay_reproduces_streaming_spell(self, sessions):
        """Consuming the first record of each form == consuming every
        record serially: same table, same samples, same counts, same
        per-record assignment."""
        serial = SpellParser()
        serial_keys = [
            [serial.consume(r.message).key_id for r in session.records]
            for session in sessions
        ]
        spell, parsed = parse(sessions, serial.tau)
        assert spell_state(spell) == spell_state(serial)
        assert [keys for _tokens, keys in parsed] == serial_keys

    @given(corpora())
    @settings(max_examples=15, deadline=None)
    def test_trainer_equals_fused_serial_loop(self, sessions):
        """Key tables, Intel Keys, groups and subroutines all agree with
        the fused serial loop."""
        serial = IntelLog()
        serial_summary = fused_train(serial, sessions)
        trained = IntelLog()
        assert trained.train(sessions) == serial_summary
        assert spell_state(trained.spell) == spell_state(serial.spell)
        assert {
            k: v.to_dict() for k, v in trained.intel_keys.items()
        } == {k: v.to_dict() for k, v in serial.intel_keys.items()}
        assert model_json(trained) == model_json(serial)


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


# -- training runs ------------------------------------------------------------


def recording_extractions(monkeypatch) -> list[tuple[tuple[str, ...], str]]:
    """Record the (template tokens, sample) of every Intel Key built."""
    built: list[tuple[tuple[str, ...], str]] = []
    build_intel_key = InformationExtractor.build_intel_key

    def recording(self, key):
        built.append((tuple(key.tokens), key.sample))
        return build_intel_key(self, key)

    monkeypatch.setattr(InformationExtractor, "build_intel_key", recording)
    return built


class TestTrain:
    def test_retrain_builds_fresh_model(self):
        """A second ``train`` replaces the first model: training on A
        then B equals training a fresh instance on B alone."""
        corpus_a = sessions_of_templates()
        corpus_b = [
            Session(
                session_id=f"c{i}",
                records=[
                    LogRecord(
                        timestamp=float(i * 100 + j),
                        level="INFO",
                        source="S",
                        message=f"worker {i} started task {j}",
                    )
                    for j in range(4)
                ],
            )
            for i in range(6)
        ]
        retrained = IntelLog()
        retrained.train(corpus_a)
        retrained.train(corpus_b)
        fresh = IntelLog()
        fresh.train(corpus_b)
        assert (
            ModelStore.from_intellog(retrained).digest()
            == ModelStore.from_intellog(fresh).digest()
        )

    def test_retrain_extracts_only_its_own_keys(self, monkeypatch):
        """Training keeps nothing from an earlier run: training A then
        B on one instance extracts exactly B's log keys, the same as a
        fresh instance trained on B alone."""
        built = recording_extractions(monkeypatch)
        corpus_a = sessions_of_templates()
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
        keys_a = {(tuple(k.tokens), k.sample) for k in model_a.spell.keys()}
        first = len(built)
        model_a.train(corpus_b)
        keys_b = {(tuple(k.tokens), k.sample) for k in model_a.spell.keys()}
        assert keys_a and keys_b and not keys_a & keys_b
        retrained = built[first:]
        del built[:]
        fresh = IntelLog()
        fresh.train(corpus_b)
        assert sorted(retrained) == sorted(keys_b)
        assert retrained == built

    def test_extracts_each_log_key_once(self, monkeypatch):
        """One extraction per entry of the key table: the trainer
        extracts every log key once, and only there."""
        built = recording_extractions(monkeypatch)
        intellog = IntelLog()
        intellog.train(sessions_of_templates())
        assert built == [
            (tuple(key.tokens), key.sample) for key in intellog.spell.keys()
        ]

    def test_training_extracts_with_the_models_extractor(self):
        """A user's naming filter shapes the trained Intel Keys and
        groups (paper §3.1: systems extend the camel-case filter with
        their own naming conventions)."""

        def snake(word):
            parts = [p.lower() for p in word.split("_") if p]
            if len(parts) >= 2 and all(p.isalpha() for p in parts):
                return parts
            return None

        sessions = [
            Session(
                session_id=f"w{i}",
                records=[
                    LogRecord(
                        timestamp=float(i * 100 + j),
                        level="INFO",
                        source="Engine",
                        message=message,
                    )
                    for j, message in enumerate(
                        (
                            f"starting stream_pipeline pipeline_{i}",
                            f"flushed {100 + i} records to shard-{i}",
                            f"stream_pipeline pipeline_{i} completed "
                            f"cleanly",
                        )
                    )
                ],
            )
            for i in range(6)
        ]
        intellog = IntelLog()
        intellog.extractor = InformationExtractor(
            filters=FilterChain([camel_filter, snake])
        )
        intellog.train(sessions)
        entities = {
            entity
            for key in intellog.intel_keys.values()
            for entity in key.entities
        }
        assert "stream pipeline" in entities, entities
        assert "stream_pipeline" not in entities
        assert any(
            ("stream", "pipeline") in node.entities
            for node in intellog.graph.groups.values()
        )

    def test_detector_works_after_training(self):
        sessions = sessions_of_templates()
        intellog = IntelLog()
        intellog.train(sessions)
        report = intellog.detect_job(sessions[:2], job_id="replay")
        assert report.sessions
