"""Unexpected-message extraction through the detector's memo.

``AnomalyDetector._unexpected_message`` reads the message's Intel Key
from a per-detector :class:`~repro.extraction.cache.ExtractionCache`
instead of running the §3 pipeline per record.  The memo-free
implementation it replaced is kept below as the oracle
(:class:`OracleDetector`):

* on the golden corpora and on simulated faulty jobs, reports equal the
  oracle's byte for byte;
* novel messages sharing one masked form but differing in ids, numbers
  or hosts each get the oracle's extraction, which pins the memo key to
  (masked tokens, whole message) rather than the masked form alone;
* reports of one repeated message share no mutable state;
* detection's memo is the detector's own: training keeps none.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import IntelLog
from repro.detection.detector import AnomalyDetector, _extraction_summary
from repro.detection.report import Anomaly, AnomalyKind
from repro.obs import MetricsRegistry
from repro.parsing.records import LogRecord, Session
from repro.parsing.spell import LogKey, mask_message
from repro.simulators import FaultSpec, MapReduceConfig

GOLDEN_DIR = Path(__file__).parent / "golden" / "detect_reports"
GENRES = ["mapreduce", "spark", "tez", "tensorflow"]


class OracleDetector(AnomalyDetector):
    """The detector with the memo-free ``_unexpected_message`` it had
    before the extraction memo: one ``build_intel_key`` per record."""

    def _unexpected_message(self, record: LogRecord) -> Anomaly:
        ad_hoc = LogKey(
            key_id="<unexpected>",
            tokens=mask_message(record.message)[0],
            sample=record.message,
        )
        intel_key = self.extractor.build_intel_key(ad_hoc)
        extraction = _extraction_summary(intel_key, self.extractor)
        groups = sorted(
            {
                group.label
                for entity in intel_key.entities
                for group in self._groups_for_entity(entity)
            }
        )
        return Anomaly(
            kind=AnomalyKind.UNEXPECTED_MESSAGE,
            description=f"no Intel Key matches: {record.message[:120]}",
            group=groups[0] if groups else None,
            message=record.message,
            timestamp=record.timestamp,
            extraction=extraction,
        )


def _detectors(intellog: IntelLog) -> tuple[AnomalyDetector, OracleDetector]:
    """A fresh memoising detector and the oracle over one model."""
    args = (
        intellog.graph,
        intellog.spell,
        intellog.extractor,
        intellog.config.detector,
    )
    return AnomalyDetector(*args), OracleDetector(*args)


def _job_json(detector: AnomalyDetector, sessions, job_id: str) -> str:
    report = detector.detect_job(list(sessions), job_id=job_id)
    return json.dumps(report.to_dict(), indent=2, sort_keys=True)


# -- (a) reports equal the oracle's -------------------------------------------


@pytest.mark.parametrize("genre", GENRES)
def test_golden_reports_equal_oracle(genre):
    fixture = json.loads((GOLDEN_DIR / f"{genre}.json").read_text())
    train = [Session.from_dict(s) for s in fixture["train_sessions"]]
    detect = [Session.from_dict(s) for s in fixture["detect_sessions"]]
    intellog = IntelLog()
    intellog.train(train)
    memo, oracle = _detectors(intellog)
    want = _job_json(oracle, detect, f"golden-{genre}")
    # Twice through one detector: the second pass is served from the memo.
    assert _job_json(memo, detect, f"golden-{genre}") == want
    assert _job_json(memo, detect, f"golden-{genre}") == want
    hits, misses = memo._extraction_cache.stats()
    assert hits >= misses


@pytest.mark.parametrize("kind", ["network", "node_failure", "sigkill"])
def test_faulty_job_reports_equal_oracle(mr_model, mr_simulator, kind):
    jobs = [
        mr_simulator.run_job(
            "wordcount",
            MapReduceConfig(input_gb=3.0),
            fault=FaultSpec(kind, at_fraction=fraction),
            base_time=7e5 + i * 1e4,
        )
        for i, fraction in enumerate((0.3, 0.6))
    ]
    memo, oracle = _detectors(mr_model)
    for job in jobs:
        want = _job_json(oracle, job.sessions, job.app_id)
        assert _job_json(memo, job.sessions, job.app_id) == want
    if kind == "network":
        hits, misses = memo._extraction_cache.stats()
        assert misses, "network faults emit no unexpected message"
        assert hits, "no unexpected message repeated across the jobs"


# -- (b) the memo key is (masked tokens, whole message) -----------------------

_HOST = st.one_of(
    st.builds(
        "10.{}.{}.{}".format,
        st.integers(0, 255), st.integers(0, 255), st.integers(0, 255),
    ),
    st.builds("node{}.example.com".format, st.integers(1, 99)),
)
_MESSAGE = st.builds(
    "quux relay lost link to {}:{} after {} retries for "
    "attempt_{}_0001_m_{:06d}_0".format,
    _HOST,
    st.integers(1024, 65535),
    st.integers(0, 500),
    st.integers(1, 10**13),
    st.integers(0, 999),
)


@pytest.fixture(scope="module")
def relay_model():
    fixture = json.loads((GOLDEN_DIR / "mapreduce.json").read_text())
    intellog = IntelLog()
    intellog.train([Session.from_dict(s) for s in fixture["train_sessions"]])
    return intellog


@settings(max_examples=60, deadline=None)
@given(messages=st.lists(_MESSAGE, min_size=2, max_size=6))
def test_one_masked_form_keeps_each_messages_extraction(
    relay_model, messages
):
    memo, oracle = _detectors(relay_model)
    assert len({tuple(mask_message(m)[0]) for m in messages}) == 1
    for i, message in enumerate(messages + messages):
        record = LogRecord(
            timestamp=float(i), level="WARN", source="Relay", message=message
        )
        got = memo._unexpected_message(record)
        want = oracle._unexpected_message(record)
        assert got.extraction == want.extraction, message
        assert got.to_dict() == want.to_dict()
    assert memo._extraction_cache.stats() == (
        len(messages + messages) - len(set(messages)),
        len(set(messages)),
    )


# -- (c) reports share no mutable state ---------------------------------------


def test_mutating_one_report_leaves_a_repeat_unchanged(relay_model):
    memo, oracle = _detectors(relay_model)
    message = (
        "quux relay lost link to 10.0.0.7:50010 after 3 retries for "
        "attempt_1528077000001_0001_m_000003_0"
    )
    session = Session(session_id="repeat")
    for i in range(3):
        session.append(LogRecord(
            timestamp=float(i), level="WARN", source="Relay", message=message
        ))
    first, second, third = memo.detect_session(session).anomalies[:3]
    want = copy.deepcopy(second.extraction)
    assert first.extraction == want and third.extraction == want
    assert first.extraction["identifiers"] and first.extraction["values"]

    for field in ("identifiers", "values", "localities"):
        for values in first.extraction[field].values():
            values.append("mutated")
        first.extraction[field]["mutated"] = ["mutated"]
    first.extraction["entities"].append("mutated")
    first.extraction["operations"].clear()

    assert second.extraction == want
    assert third.extraction == want
    again = memo.detect_session(session).anomalies[0]
    assert again.extraction == want
    assert again.to_dict() == (
        oracle.detect_session(session).anomalies[0].to_dict()
    )


# -- isolation from training --------------------------------------------------


def test_detection_leaves_the_training_memo_alone(mr_model, mr_simulator):
    """Training keeps no extraction memo past its run, so the one a
    detector reads is its own: it starts empty, runs on the detector's
    extractor, and detecting leaves the trained Intel Keys as they
    were."""
    job = mr_simulator.run_job(
        "wordcount",
        MapReduceConfig(input_gb=3.0),
        fault=FaultSpec("network", at_fraction=0.4),
        base_time=9e5,
    )
    trained = {
        key_id: key.to_dict() for key_id, key in mr_model.intel_keys.items()
    }
    memo, _oracle = _detectors(mr_model)
    assert len(memo._extraction_cache) == 0
    memo.detect_job(job.sessions, job.app_id)
    assert memo._extraction_cache.misses > 0
    assert memo._extraction_cache.extractor is memo.extractor
    assert {
        key_id: key.to_dict() for key_id, key in mr_model.intel_keys.items()
    } == trained


# -- observability -------------------------------------------------------------


def test_extraction_memo_results_are_counted(relay_model):
    registry = MetricsRegistry()
    memo, _oracle = _detectors(relay_model)
    memo.instrument(registry)
    session = Session(session_id="counted")
    for i in range(5):
        session.append(LogRecord(
            timestamp=float(i), level="WARN", source="Relay",
            message="quux relay lost link to 10.0.0.7:50010 after 3 "
                    f"retries for attempt_1528077000001_0001_m_00000{i % 2}_0",
        ))
    memo.detect_session(session)
    counter = registry.counter("detect_unexpected_extractions_total")
    assert counter.labels(result="miss").value == 2
    assert counter.labels(result="hit").value == 3
