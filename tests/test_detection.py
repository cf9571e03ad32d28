"""Tests for anomaly detection (paper §4.2) using the MapReduce model."""

import pytest

from repro.detection.report import Anomaly, AnomalyKind, SessionReport
from repro.obs import MetricsRegistry, Tracer
from repro.parsing.records import LogRecord, Session, split_sessions
from repro.query.store import ModelStore
from repro.simulators import FaultSpec, MapReduceConfig, WorkloadGenerator
from repro.stream import IterableSource, StreamRuntime, TrackerConfig


def run_detection(model, job):
    return model.detect_job(job.sessions, job.app_id)


class TestCleanJobs:
    def test_clean_job_no_anomalies(self, mr_model, mr_simulator):
        job = mr_simulator.run_job(
            "wordcount", MapReduceConfig(input_gb=2.0), base_time=5e5
        )
        report = run_detection(mr_model, job)
        assert not report.anomalous

    def test_different_config_still_clean(self, mr_model, mr_simulator):
        # The paper varies input sizes and resources for detection jobs
        # that must still pass (§6.4).
        job = mr_simulator.run_job(
            "wordcount",
            MapReduceConfig(input_gb=6.0, reducers=3),
            base_time=6e5,
        )
        report = run_detection(mr_model, job)
        assert not report.anomalous


class TestInjectedFaults:
    @pytest.mark.parametrize(
        "kind", ["sigkill", "network", "node_failure"]
    )
    def test_fault_detected(self, mr_model, mr_simulator, kind):
        job = mr_simulator.run_job(
            "wordcount",
            MapReduceConfig(input_gb=3.0),
            fault=FaultSpec(kind, at_fraction=0.3),
            base_time=7e5,
        )
        report = run_detection(mr_model, job)
        assert report.anomalous

    def test_network_fault_pinpoints_unexpected_messages(
        self, mr_model, mr_simulator
    ):
        job = mr_simulator.run_job(
            "wordcount",
            MapReduceConfig(input_gb=3.0),
            fault=FaultSpec("network", at_fraction=0.4),
            base_time=8e5,
        )
        report = run_detection(mr_model, job)
        unexpected = [
            a
            for s in report.sessions
            for a in s.by_kind(AnomalyKind.UNEXPECTED_MESSAGE)
        ]
        assert unexpected
        # §4.2: IntelLog extracts the five fields from unexpected
        # messages; the connect-failure lines carry the failing address.
        with_locality = [
            a for a in unexpected if a.extraction.get("localities")
        ]
        assert with_locality

    def test_sigkill_truncation_breaks_subroutines(
        self, mr_model, mr_simulator
    ):
        job = mr_simulator.run_job(
            "wordcount",
            MapReduceConfig(input_gb=3.0),
            fault=FaultSpec("sigkill", at_fraction=0.35),
            base_time=9e5,
        )
        report = run_detection(mr_model, job)
        kinds = {a.kind for s in report.sessions for a in s.anomalies}
        assert kinds  # at least the AM-side diagnostics fire
        assert report.anomalous

    def test_problem_sessions_are_subset(self, mr_model, mr_simulator):
        job = mr_simulator.run_job(
            "wordcount",
            MapReduceConfig(input_gb=3.0),
            fault=FaultSpec("network", at_fraction=0.4),
            base_time=10e5,
        )
        report = run_detection(mr_model, job)
        # IntelLog "significantly reduces the log range for analysis":
        # only some sessions are problematic.
        assert 0 < len(report.problematic_sessions) < len(report.sessions)


class TestUnexpectedMessageExtraction:
    def test_foreign_message_reported_with_extraction(self, mr_model):
        session = Session(session_id="x")
        session.append(LogRecord(
            timestamp=1.0, level="ERROR", source="X",
            message="Zorkmid daemon failed to contact peer host9:1234 "
                    "after 3 attempts",
        ))
        report = mr_model.detect_session(session)
        assert report.anomalous
        anomaly = report.anomalies[0]
        assert anomaly.kind == AnomalyKind.UNEXPECTED_MESSAGE
        assert anomaly.extraction["localities"]

    def test_known_message_not_reported(self, mr_model):
        session = Session(session_id="y")
        session.append(LogRecord(
            timestamp=1.0, level="INFO", source="Fetcher",
            message="fetcher#9 about to shuffle output of map "
                    "attempt_1528077000001_0001_m_000000_0",
        ))
        report = mr_model.detect_session(session)
        unexpected = report.by_kind(AnomalyKind.UNEXPECTED_MESSAGE)
        assert not unexpected


class TestReports:
    def test_session_report_shape(self):
        report = SessionReport(session_id="s1")
        report.anomalies.append(Anomaly(
            kind=AnomalyKind.MISSING_GROUP,
            description="missing",
            group="task",
        ))
        data = report.to_dict()
        assert data["anomalous"] is True
        assert data["affected_groups"] == ["task"]

    def test_job_report_json(self, mr_model, mr_simulator):
        job = mr_simulator.run_job(
            "wordcount", MapReduceConfig(input_gb=1.0), base_time=11e5
        )
        report = run_detection(mr_model, job)
        import json

        data = json.loads(report.to_json())
        assert data["job_id"] == job.app_id
        assert len(data["sessions"]) == len(job.sessions)


class TestRegistryReplayParity:
    """An instrumented detector counts each replayed record exactly once:
    in ``detect_records_total``, in one ``spell_index_hits_total`` path
    (exact, lcs or miss) and in one ``spell_match_attempts_total``
    result (hit or miss)."""

    @pytest.mark.parametrize(
        "system, fixture",
        [("spark", "spark_model"), ("mapreduce", "mr_model")],
        ids=["spark", "mapreduce"],
    )
    def test_counts_equal_replayed_records(self, request, system, fixture):
        model = request.getfixturevalue(fixture)
        jobs = WorkloadGenerator(seed=77).run_batch(system, 3)
        records = sorted(
            (r for job in jobs for r in job.records),
            key=lambda r: r.timestamp,
        )
        # A reloaded copy, so the shared fixture model stays
        # uninstrumented.
        detector = ModelStore.from_intellog(model).to_intellog().detector()
        registry = MetricsRegistry()
        detector.instrument(registry)
        detector.detect_job(list(split_sessions(records)))

        def total(name):
            return sum(v for _, v in registry.get(name).samples())

        assert int(registry.get("detect_records_total").value) \
            == len(records)
        assert total("spell_index_hits_total") == len(records)
        assert total("spell_match_attempts_total") == len(records)


class TestMatchSpan:
    """A detector given a tracer records ``detect.*`` spans;
    ``detect.match`` times a match the detector ran itself: one span
    per ``detect_batch`` call (its cross-session batch) and one per
    session matched at close.  A stream runtime passes no tracer, so it
    records none of them and keeps only the ``detect_*`` counters."""

    @staticmethod
    def span_counts(registry) -> dict[str, int]:
        spans = registry.get("trace_span_seconds")
        return {
            name: spans.labels(span=name).count if spans is not None else 0
            for name in ("detect.session", "detect.match", "detect.extract",
                         "detect.subroutines", "detect.hierarchy")
        }

    @pytest.fixture
    def records(self):
        jobs = WorkloadGenerator(seed=77).run_batch("mapreduce", 2)
        return sorted(
            (r for job in jobs for r in job.records),
            key=lambda r: r.timestamp,
        )

    def test_detect_batch_records_one_match_span(self, mr_model, records):
        # A reloaded copy, so the shared fixture model stays
        # uninstrumented.
        detector = ModelStore.from_intellog(mr_model).to_intellog().detector()
        registry = MetricsRegistry()
        detector.instrument(registry, Tracer(registry=registry))
        sessions = list(split_sessions(records))
        detector.detect_job(sessions)
        n = len(sessions)
        assert self.span_counts(registry) == {
            "detect.session": n, "detect.match": 1, "detect.extract": n,
            "detect.subroutines": n, "detect.hierarchy": n,
        }
        detector.detect_session(sessions[0])
        assert self.span_counts(registry)["detect.match"] == 2

    def test_stream_records_no_match_span(self, mr_model, records):
        detector = ModelStore.from_intellog(mr_model).to_intellog().detector()
        runtime = StreamRuntime(
            detector, IterableSource(records),
            tracker=TrackerConfig(idle_timeout=1e12),
        )
        stats = runtime.run(once=True)
        n = stats.reports
        assert n == len(list(split_sessions(records)))
        assert self.span_counts(runtime.registry) == dict.fromkeys(
            ("detect.session", "detect.match", "detect.extract",
             "detect.subroutines", "detect.hierarchy"), 0,
        )
        assert runtime.registry.get("trace_span_seconds") is None
        assert runtime.registry.get("detect_sessions_total").value == n
        assert runtime.registry.get("detect_records_total").value \
            == len(records)
