"""Group-commit durability: the delivery journal plus budgeted snapshots.

After each poll batch the runtime appends the delivered reports' ids
and counter deltas to ``<checkpoint>.journal``; the full checkpoint
snapshot is taken only on the ``checkpoint_every`` record budget, an
outbox change and at close-out, and each snapshot rotates the journal
to ``.journal.prev``.  These tests pin the cadence, the rotation, the
append-failure degradation, and — with a hypothesis crash/resume sweep
seeded by ``REPRO_CHAOS_SEED`` (CI runs seeds 1-3) — that reports and
report counters stay exactly-once whether or not the sink keeps a
delivery log of its own.
"""

from __future__ import annotations

import json
import logging
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro import split_sessions
from repro.core import ResilienceConfig
from repro.core.fsio import FaultyFS
from repro.simulators import WorkloadGenerator
from repro.stream import (
    FlakySink,
    IterableSource,
    JsonLinesSink,
    ListSink,
    StreamCheckpoint,
    StreamRuntime,
    TrackerConfig,
    backup_checkpoint_path,
)
from repro.stream.journal import journal_line, journal_paths, scan_journal

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "1"))

#: Closes only on end markers and the final flush, so streamed reports
#: equal batch detection.
PARITY = TrackerConfig(idle_timeout=1e12, max_open_sessions=10**9)
FAST = ResilienceConfig(
    retry_attempts=1, failed_after=10**6,
    retry_base_delay=0.0, retry_max_delay=0.0, retry_jitter=0.0,
)

COUNTERS = ("reports", "anomalous_sessions", "closed_by_reason",
            "anomalies_by_kind")


@pytest.fixture(scope="module")
def mr_records():
    jobs = WorkloadGenerator(seed=31).run_batch("mapreduce", 3)
    return sorted((r for job in jobs for r in job.records),
                  key=lambda r: r.timestamp)


@pytest.fixture(scope="module")
def batch_reports(mr_model, mr_records):
    batch = mr_model.detect_job(split_sessions(mr_records))
    return {r.session_id: r.to_dict() for r in batch.sessions}


@pytest.fixture(scope="module")
def uncrashed(mr_model, mr_records):
    """Counters of one run with no crash."""
    stats = StreamRuntime(
        mr_model, IterableSource(mr_records), tracker=PARITY,
        poll_batch=25,
    ).run(once=True)
    return {name: getattr(stats, name) for name in COUNTERS}


def _runtime(model, records, path, sink, **kw):
    kw.setdefault("checkpoint_every", 10**6)
    return StreamRuntime(
        model, IterableSource(records), sink=sink, tracker=PARITY,
        checkpoint_path=path, poll_batch=25, **kw,
    )


def _metric(runtime, name) -> int:
    return int(runtime.registry.get(name).samples()[0][1])


# -- cadence and rotation -----------------------------------------------------


def test_snapshots_follow_the_budget_not_the_reports(mr_model, mr_records,
                                                     tmp_path):
    path = tmp_path / "ckpt.json"
    runtime = _runtime(mr_model, mr_records, path, ListSink(),
                       checkpoint_every=300)
    stats = runtime.run(once=True)
    assert stats.reports > 10
    # Budget saves at 300, 600 and 900 records plus the close-out.
    assert _metric(runtime, "stream_checkpoint_saves_total") == 4
    appends = _metric(runtime, "stream_journal_appends_total")
    assert 4 < appends <= stats.reports
    assert _metric(runtime, "stream_journal_bytes_total") > 0
    # The close-out snapshot rotated the journal away.
    live, previous = journal_paths(path)
    assert not live.exists()
    entries = scan_journal(previous).entries
    # It opens with the marker of the snapshot before the close-out.
    assert entries[0] == {
        "snapshot": StreamCheckpoint.load(
            backup_checkpoint_path(path)
        ).checksum
    }
    for entry in entries[1:]:
        assert entry["id"] in StreamCheckpoint.load(path).finalized


def test_journal_line_is_the_report_and_its_counter_deltas(
    mr_model, mr_records, tmp_path
):
    path = tmp_path / "ckpt.json"
    sink = ListSink()
    runtime = _runtime(mr_model, mr_records, path, sink)
    while runtime.stats.reports == 0:
        runtime.step()
    live, _ = journal_paths(path)
    [entry] = scan_journal(live).entries
    report, closed = sink.reports[0], sink.closures[0]
    assert entry == {
        "id": closed.finalization_id,
        "reason": closed.reason,
        "anomalous": report.anomalous,
        "kinds": [a.kind.value for a in report.anomalies],
    }
    assert live.read_bytes() == journal_line(
        closed.finalization_id, closed.reason, report.anomalous,
        [a.kind.value for a in report.anomalies],
    )


def test_backup_resume_replays_the_previous_journal(
    mr_model, mr_records, tmp_path, batch_reports
):
    path = tmp_path / "ckpt.json"
    first = ListSink()
    runtime = _runtime(mr_model, mr_records, path, first,
                       checkpoint_every=200)
    while _metric(runtime, "stream_checkpoint_saves_total") < 3:
        runtime.step()
    assert backup_checkpoint_path(path).exists()
    assert journal_paths(path)[1].exists()
    path.write_text("{ torn")  # lose the live snapshot
    second = ListSink()
    resumed = _runtime(mr_model, mr_records, path, second,
                       checkpoint_every=200)
    assert resumed.resume_origin == "backup"
    resumed.run(once=True)
    got = [r.session_id for r in first.reports + second.reports]
    assert len(got) == len(set(got))
    assert set(got) == set(batch_reports)


def test_crash_between_snapshot_and_rotation_counts_once(
    mr_model, mr_records, tmp_path, uncrashed
):
    path = tmp_path / "ckpt.json"
    runtime = _runtime(mr_model, mr_records, path, ListSink())
    for _ in range(20):
        runtime.step()
    # What a crash at the journal.rotate kill point leaves: a snapshot
    # that already counts every journaled report, journal unrotated.
    runtime._journal.rotate = lambda: None
    runtime.checkpoint()
    assert scan_journal(journal_paths(path)[0]).entries
    resumed = _runtime(mr_model, mr_records, path, ListSink())
    assert resumed.stats.reports == runtime.stats.reports > 0
    stats = resumed.run(once=True)
    assert {name: getattr(stats, name) for name in COUNTERS} == uncrashed


def test_redelivered_outbox_entry_is_not_redelivered_after_a_crash(
    mr_model, mr_records, tmp_path
):
    path = tmp_path / "ckpt.json"
    delivered = ListSink()
    flaky = FlakySink(delivered, fail_first=3)
    runtime = _runtime(mr_model, mr_records, path, flaky, resilience=FAST)
    while not runtime._outbox:
        runtime.step()
    parked = {e["finalization_id"] for e in runtime._outbox}
    # The snapshot holds the parked report; the next step redelivers it
    # and journals the id, and takes no snapshot of its own.
    saves = _metric(runtime, "stream_checkpoint_saves_total")
    while runtime._outbox:
        runtime.step()
    assert parked <= set(delivered.emitted_ids())
    assert _metric(runtime, "stream_checkpoint_saves_total") == saves
    assert [e["finalization_id"] for e in StreamCheckpoint.load(path).outbox]
    after = ListSink()
    resumed = _runtime(mr_model, mr_records, path, after)
    assert not resumed._outbox
    resumed.run(once=True)
    fids = delivered.emitted_ids() + after.emitted_ids()
    assert len(fids) == len(set(fids))


def test_small_ledger_cap_counts_each_report_once(
    mr_model, mr_records, tmp_path, uncrashed
):
    """The ledger keeps three ids, far fewer than the reports between
    two snapshots; resume must not take it for what the snapshot
    counts."""
    path = tmp_path / "ckpt.json"
    capped = ResilienceConfig(finalized_cap=3)
    runtime = _runtime(mr_model, mr_records, path, ListSink(),
                       checkpoint_every=250, resilience=capped)
    while _metric(runtime, "stream_checkpoint_saves_total") < 2:
        runtime.step()
    ids = [e for e in scan_journal(journal_paths(path)[1]).entries
           if "id" in e]
    assert len(ids) > 3
    resumed = _runtime(mr_model, mr_records, path, ListSink(),
                       checkpoint_every=250, resilience=capped)
    assert resumed.stats.reports == runtime.stats.reports
    stats = resumed.run(once=True)
    assert {name: getattr(stats, name) for name in COUNTERS} == uncrashed


def test_backup_marker_survives_snapshots_with_no_report_between(
    mr_model, mr_records, tmp_path, batch_reports, uncrashed
):
    path = tmp_path / "ckpt.json"
    first = ListSink()
    runtime = _runtime(mr_model, mr_records, path, first)
    while runtime.stats.reports == 0:
        runtime.step()
    runtime.checkpoint()
    reports = runtime.stats.reports
    runtime.step()
    assert runtime.stats.reports == reports
    runtime.checkpoint()  # the .bak: no report since the previous one
    while runtime.stats.reports < 5:
        runtime.step()
    path.write_text("{ torn")  # crash, and the live snapshot is lost
    second = ListSink()
    resumed = _runtime(mr_model, mr_records, path, second)
    assert resumed.resume_origin == "backup"
    assert resumed.stats.reports == runtime.stats.reports
    stats = resumed.run(once=True)
    got = [r.session_id for r in first.reports + second.reports]
    assert sorted(got) == sorted(batch_reports)
    assert {name: getattr(stats, name) for name in COUNTERS} == uncrashed


# -- journal append failures --------------------------------------------------


def test_append_failure_defers_and_forces_a_snapshot(
    mr_model, mr_records, tmp_path, batch_reports
):
    path = tmp_path / "ckpt.json"
    fs = FaultyFS().fail("append", at=1, count=3)
    sink = ListSink()
    runtime = _runtime(mr_model, mr_records, path, sink, fs=fs)
    while _metric(runtime, "stream_deferred_checkpoints_total") < 1:
        runtime.step()
    # The failed append forced a snapshot that covers its reports.
    assert _metric(runtime, "stream_checkpoint_saves_total") == 1
    assert set(StreamCheckpoint.load(path).finalized) == set(
        sink.emitted_ids()
    )
    runtime.run(once=True)
    assert _metric(runtime, "stream_deferred_checkpoints_total") == 3
    assert runtime.stats.health != "failed"
    assert {r.session_id: r.to_dict() for r in sink.reports} == batch_reports


@pytest.mark.parametrize("refusals", [1, 2])
def test_lines_of_a_failed_append_outlive_the_forced_snapshot(
    mr_model, mr_records, tmp_path, batch_reports, uncrashed, refusals
):
    """A failed append forces a snapshot.  Its lines must still reach
    the journal, ahead of that snapshot's marker, so a resume from the
    ``.bak`` re-emits none of them: appended again at once (one
    refusal) or on the next batch with the rotation held back (two)."""
    path = tmp_path / "ckpt.json"
    fs = FaultyFS()
    first = ListSink()
    runtime = _runtime(mr_model, mr_records, path, first, fs=fs)
    while runtime.stats.reports == 0:
        runtime.step()
    runtime.checkpoint()
    fs.fail("append", at=fs.calls["append"] + 1, count=refusals)
    reports = runtime.stats.reports
    while runtime.stats.reports == reports:
        runtime.step()
    assert _metric(runtime, "stream_deferred_checkpoints_total") == refusals
    assert _metric(runtime, "stream_checkpoint_saves_total") == 2
    for _ in range(3):
        runtime.step()
    assert not runtime._journal_due
    path.write_text("{ torn")  # crash, and the live snapshot is lost
    second = ListSink()
    resumed = _runtime(mr_model, mr_records, path, second)
    assert resumed.resume_origin == "backup"
    assert resumed.stats.reports == runtime.stats.reports
    stats = resumed.run(once=True)
    got = [r.session_id for r in first.reports + second.reports]
    assert sorted(got) == sorted(batch_reports)
    assert {name: getattr(stats, name) for name in COUNTERS} == uncrashed


def test_outage_warns_once_per_spell(mr_model, mr_records, tmp_path,
                                     caplog):
    path = tmp_path / "ckpt.json"
    fs = FaultyFS().fail("append", count=0).fail("write", count=0)
    runtime = _runtime(mr_model, mr_records, path, ListSink(), fs=fs)
    with caplog.at_level(logging.WARNING, logger="repro.stream.runtime"):
        for _ in range(20):
            runtime.step()
    assert _metric(runtime, "stream_deferred_checkpoints_total") > 4
    warnings = [r.getMessage() for r in caplog.records
                if "checkpoint deferred" in r.getMessage()]
    assert len(warnings) == 1
    assert "journal append" in warnings[0]
    # The disk recovers: everything delivered so far becomes durable.
    fs.rules.clear()
    runtime.step()
    assert not runtime._journal_pending
    assert set(runtime.sink.emitted_ids()) <= {
        e["id"] for e in scan_journal(journal_paths(path)[0]).entries
    }


def test_torn_append_is_sealed_and_retried(mr_model, mr_records, tmp_path):
    path = tmp_path / "ckpt.json"
    # The second append tears, and the snapshot it forces fails too.
    fs = FaultyFS().torn(at=2, keep=0.3, op="append").fail("write", at=1)
    sink = ListSink()
    runtime = _runtime(mr_model, mr_records, path, sink, fs=fs)
    while fs.calls["append"] < 3:
        runtime.step()
    assert not path.exists()
    scan = scan_journal(journal_paths(path)[0])
    assert not scan.torn and len(scan.bad_lines) == 1
    # The torn batch's lines were appended again on the next try.
    assert [e["id"] for e in scan.entries] == sink.emitted_ids()
    # Abandon without close-out: the journal alone keeps it exactly-once.
    resumed = _runtime(mr_model, mr_records, path, ListSink())
    resumed.run(once=True)
    fids = sink.emitted_ids() + resumed.sink.emitted_ids()
    assert len(fids) == len(set(fids))


def test_jsonl_sink_starts_a_fresh_line_after_a_torn_tail(
    mr_model, mr_records, tmp_path
):
    out = tmp_path / "reports.jsonl"
    first = JsonLinesSink(out)
    StreamRuntime(mr_model, IterableSource(mr_records[:300]), sink=first,
                  tracker=PARITY).run(once=True)
    first.close()
    delivered = first.emitted_ids()
    assert delivered
    with open(out, "ab") as fp:
        fp.write(b'{"session_id": "container_x", "finaliz')  # crash
    second = JsonLinesSink(out)
    sink = ListSink()
    StreamRuntime(mr_model, IterableSource(mr_records[300:]), sink=sink,
                  tracker=PARITY).run(once=True)
    report, closed = sink.reports[0], sink.closures[0]
    second.emit(report, closed)
    second.close()
    # The new report is a line of its own, not glued onto the fragment.
    assert JsonLinesSink(out).emitted_ids() == delivered + [
        closed.finalization_id
    ]


# -- crash/resume sweep -------------------------------------------------------


def _reports_of(sink_kind: str, sinks: list, out: Path) -> list[dict]:
    if sink_kind == "list":
        return [
            dict(r.to_dict(), finalization_id=c.finalization_id)
            for s in sinks for r, c in zip(s.reports, s.closures)
        ]
    return [json.loads(line) for line in out.read_text().splitlines()]


@seed(CHAOS_SEED)
@settings(max_examples=40, deadline=None)
@given(
    crashes=st.lists(st.integers(1, 45), max_size=3),
    every=st.sampled_from([60, 250, 10**6]),
)
@pytest.mark.parametrize("sink_kind", ["list", "jsonl"])
def test_crash_resume_is_exactly_once(mr_model, mr_records, batch_reports,
                                      uncrashed, sink_kind, crashes, every):
    """Crash = ``step()`` k times, then abandon the runtime with no
    close-out; a fresh runtime resumes on the same checkpoint path.
    With a fresh ``ListSink`` per incarnation the journal is the only
    delivery log; with a file ``JsonLinesSink`` the sink's own log
    backs it up.  Either way every report arrives exactly once, equal
    to batch detection, and the report counters equal an uncrashed
    run's."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ckpt.json"
        out = Path(tmp) / "reports.jsonl"
        sinks: list = []

        def incarnation() -> StreamRuntime:
            sink = ListSink() if sink_kind == "list" else JsonLinesSink(out)
            sinks.append(sink)
            return _runtime(mr_model, mr_records, path, sink,
                            checkpoint_every=every)

        for k in crashes:
            runtime = incarnation()
            for _ in range(k):
                runtime.step()
        runtime = incarnation()
        stats = runtime.run(once=True)
        if sink_kind == "jsonl":
            for sink in sinks:
                sink.close()
        reports = _reports_of(sink_kind, sinks, out)
        fids = [r.pop("finalization_id") for r in reports]
        assert len(fids) == len(set(fids))
        for r in reports:
            r.pop("closed_reason", None)
        by_session = {r["session_id"]: r for r in reports}
        assert len(by_session) == len(reports)
        assert by_session == batch_reports
        assert {name: getattr(stats, name) for name in COUNTERS} == uncrashed
