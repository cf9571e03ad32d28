"""Tests of the benchmark harness itself.

Run with ``python -m pytest bench -q``; they stay outside the tier-1
``testpaths`` because they exercise the benchmark, not the library.
"""

from __future__ import annotations

import json
import re

import pytest

from common import PROBE_REFERENCE_S, HostProbe, load_spec, use_src

use_src()

import compare  # noqa: E402
import corpus  # noqa: E402
from ledger import Ledger  # noqa: E402
from workloads import (  # noqa: E402
    Phase,
    ScheduledSource,
    check_reports,
    layer_metrics,
)


def _records(lines):
    from repro.parsing.formatters import HadoopFormatter
    from repro.stream import yarn_session_key

    return [
        yarn_session_key(r) for r in HadoopFormatter().parse_lines(lines)
    ]


def _sessions(lines):
    from repro.parsing.records import split_sessions

    return split_sessions(_records(lines))


def _small_corpora(seed):
    return {
        "train": corpus.train_corpus(seed, jobs_per_genre=2),
        "detect": corpus.detect_corpus(seed, campaigns=1),
        "stream": corpus.stream_corpus(seed, clusters=2, jobs=3),
        "serve": corpus.serve_corpus(seed, seconds=0.5, rate=400.0),
    }


@pytest.fixture(scope="module")
def corpora():
    return _small_corpora(5)


# -- corpora ---------------------------------------------------------------


def test_same_seed_gives_byte_identical_corpora(corpora):
    again = _small_corpora(5)
    other = _small_corpora(6)
    for name, value in corpora.items():
        text = json.dumps(value, sort_keys=True)
        assert text == json.dumps(again[name], sort_keys=True), name
        assert text != json.dumps(other[name], sort_keys=True), name


def test_sessions_equal_containers_and_never_default(corpora):
    inputs = list(corpora["train"].values()) + corpora["stream"]["clusters"]
    for corpus_ in inputs:
        sessions = _sessions(corpus_["lines"])
        assert len(sessions) == corpus_["containers"]
        assert not any(s.session_id.startswith("<default") for s in sessions)


def test_container_ids_are_unique_across_a_workload(corpora):
    detect = corpora["detect"]
    jobs = list(detect["fixtures"].values()) + [
        job["lines"] for job in detect["jobs"]
    ]
    serve = corpora["serve"]
    jobs_by_workload = {
        "train": [genre["lines"] for genre in corpora["train"].values()],
        "detect": jobs,
        "stream": [corpora["stream"]["fixture"]] + [
            cluster["lines"] for cluster in corpora["stream"]["clusters"]
        ],
        "serve": list(serve["fixtures"].values()) + [
            tenant["lines"] for tenant in serve["tenants"].values()
        ],
    }
    for name, groups in jobs_by_workload.items():
        ids = [s.session_id for lines in groups for s in _sessions(lines)]
        assert len(ids) == len(set(ids)), name
        assert not any(i.startswith("<default") for i in ids), name


def test_serve_schedule_replays_event_time_at_the_average_rate(corpora):
    pairs = []
    for tenant in corpora["serve"]["tenants"].values():
        stamps = [r.timestamp for r in _records(tenant["lines"])]
        assert len(stamps) == len(tenant["due"])
        assert stamps == sorted(stamps)
        pairs.extend(zip(stamps, tenant["due"]))
    pairs.sort()
    assert len(pairs) == 200  # 400 records/s for 0.5 s
    (first, first_due), (last, last_due) = pairs[0], pairs[-1]
    assert first_due == 0.0 and last_due == pytest.approx(0.5)
    for stamp, due in pairs:
        # One speed-up factor for every record (stamps are rendered to
        # the millisecond, the due times are not).
        assert due == pytest.approx(
            (stamp - first) * 0.5 / (last - first), abs=1e-3
        )


# -- scheduled source ------------------------------------------------------


class _Clock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


def test_scheduled_source_never_releases_early():
    clock = _Clock()
    source = ScheduledSource(list("abcdef"), [0.0, 0.1, 0.2, 0.3, 0.4, 0.5],
                             clock=clock)
    assert source.poll(10) == []  # not started
    source.start(clock.now)
    assert source.poll(10) == ["a"]
    clock.now += 0.25
    assert source.poll(10) == ["b", "c"]
    assert source.poll(10) == []
    assert source.backlog() == 0


def test_scheduled_source_does_not_drift_when_the_consumer_stalls():
    clock = _Clock()
    waits: list[float] = []
    source = ScheduledSource(list("abcd"), [0.0, 1.0, 2.0, 3.0],
                             clock=clock, on_release=waits.extend)
    source.start(clock.now)
    assert source.poll(10) == ["a"]
    clock.now += 2.5  # the consumer stalls past two due times
    assert source.backlog() == 2
    assert source.poll(1) == ["b"]
    assert source.poll(10) == ["c"]
    clock.now += 0.5  # "d" is due exactly now: the schedule did not move
    assert source.poll(10) == ["d"]
    assert source.exhausted()
    assert waits == pytest.approx([0.0, 1500.0, 500.0, 0.0])


# -- parity checker --------------------------------------------------------


def _report(sid, anomalous=False):
    return {"session_id": sid, "anomalous": anomalous, "message_count": 3,
            "matched_count": 3, "affected_groups": [], "anomalies": []}


def test_parity_checker_accepts_equal_reports_with_sink_fields():
    expected = {s: _report(s) for s in ("c1", "c2")}
    delivered = [dict(_report("c2"), closed_reason="flush",
                      finalization_id="f2"), _report("c1")]
    assert check_reports(expected, delivered) == (2, [])


@pytest.mark.parametrize("delivered, problem", [
    ([_report("c1", anomalous=True), _report("c2")], "differs"),
    ([_report("c1")], "missing report c2"),
    ([_report("c1"), _report("c2"), _report("c2")], "duplicate report c2"),
    ([_report("c1"), _report("c2"), _report("c3")], "unexpected report c3"),
])
def test_parity_checker_flags_each_bad_report(delivered, problem):
    expected = {s: _report(s) for s in ("c1", "c2")}
    attempted, problems = check_reports(expected, delivered)
    assert len(problems) == 1 and problem in problems[0]
    assert attempted >= len(problems)


# -- ledger ----------------------------------------------------------------


def test_self_time_subtracts_child_spans():
    ticks = iter([0.0, 2.0, 5.0, 6.0, 7.0, 10.0])
    ledger = Ledger(clock=lambda: next(ticks))
    with ledger.span("outer"):
        with ledger.span("inner"):
            pass
        with ledger.span("inner"):
            pass
    assert ledger.layers() == {"outer": (1, 10.0), "inner": (2, 4.0)}
    assert ledger.self_s == {"outer": 6.0, "inner": 4.0}
    parents = {(s["name"], s["parent"]) for s in ledger.span_dicts()}
    assert parents == {("inner", "outer"), ("outer", None)}


def test_a_layer_calling_itself_is_busy_once():
    ticks = iter([0.0, 4.0])
    ledger = Ledger(clock=lambda: next(ticks))
    with ledger.span("store"):
        with ledger.span("store"):
            pass
    assert ledger.layers() == {"store": (1, 4.0)}
    assert ledger.self_s == {"store": 4.0}


def test_wrapped_calls_only_call_through():
    class Thing:
        def double(self, x):
            return 2 * x

    ledger = Ledger()
    seen = []
    Thing.double = ledger.wrap(
        Thing.double, "thing", observe=lambda a, r: seen.append(r)
    )
    assert Thing().double(4) == 8
    assert seen == [8] and ledger.layers()["thing"][0] == 1


# -- BENCHMARK.json --------------------------------------------------------


_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_follows_its_schema():
    spec = load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["bench"]
    assert 2 <= len(spec["workloads"]) <= 8
    names = [w["name"] for w in spec["workloads"]]
    for entry in spec["end_to_end"] + spec["per_layer"]:
        names.append(entry["name"])
        assert _UNIT.match(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher")
    assert all(_NAME.match(n) for n in names)
    assert len(names) == len(set(names))
    assert all(0 < e["bound"] <= 0.25 for e in spec["end_to_end"])
    setup = next(e for e in spec["end_to_end"] if e["name"] == "setup_s")
    assert setup["bound"] == max(e["bound"] for e in spec["end_to_end"])


def test_benchmark_json_lists_what_the_harness_reports():
    spec = load_spec()
    phase = Phase(passes=[(0, 1000, 1.0, 0.5, 1.0)])
    computed = set(phase.end_to_end()) | {"peak_rss_mb", "setup_s"}
    assert {e["name"] for e in spec["end_to_end"]} == computed
    layers = layer_metrics(Ledger(), phase, overhead=0.0)
    assert [e["name"] for e in spec["per_layer"]] == list(layers)


def test_rates_come_from_each_units_median_scaled_run():
    phase = Phase()
    # Unit "a": scaled walls 2.0, 1.0, 1.5 (median 1.5); CPU 1.0, 0.5, 1.5.
    phase.add_round(1000, 2.0, 1.0, "a", scale=1.0)
    phase.add_round(1000, 2.0, 1.0, "a", scale=0.5)
    phase.add_round(1000, 1.5, 1.5, "a", scale=1.0)
    phase.add_round(3000, 3.0, 3.0, "b", scale=1.0)
    assert phase.end_to_end()["records_per_s"] == 4000 / (1.5 + 3.0)
    assert phase.cpu_ms_per_krec() == (1.0 + 3.0) * 1e6 / 4000
    assert phase.unscaled_records_per_s() == 4000 / (2.0 + 3.0)
    assert phase.records == 6000 and phase.wall == 8.5


def test_a_report_counts_its_median_delivery():
    phase = Phase(passes=[(0, 10, 1.0, 1.0, 1.0)])
    for report, ms in (("s1", 30.0), ("s2", 10.0), ("s1", 20.0),
                       ("s2", 40.0), ("s1", 90.0)):
        phase.delay(report, ms)
    assert phase.delays_ms == {"s1": [30.0, 20.0, 90.0], "s2": [10.0, 40.0]}
    assert phase.end_to_end()["report_delay_p90_ms"] == 30.0
    assert phase.delay_percentile(50) == 25.0


def test_host_probe_scales_by_the_samples_around_a_unit():
    ticks = iter([0.0, 0.001,            # construction: 1 ms
                  1.0, 1.0, 1.002,       # after unit 1: 2 ms
                  1.1,                   # after unit 2: too soon to probe
                  2.0, 2.0, 2.004])      # after unit 3: 4 ms
    probe = HostProbe(clock=lambda: next(ticks))
    assert probe.last == pytest.approx(0.001)
    first = PROBE_REFERENCE_S / ((0.001 + 0.002) / 2)
    assert probe.factor() == pytest.approx(first)
    assert probe.factor() == pytest.approx(first)
    assert probe.factor() == pytest.approx(
        PROBE_REFERENCE_S / ((0.002 + 0.004) / 2))
    assert probe.last == pytest.approx(0.004)


# -- compare.py ------------------------------------------------------------


def _runs(workload, values, failed=0, seed=1):
    spec = load_spec()
    return [
        {"workload": workload, "seed": seed, "trace": 0,
         "result": {"attempted": 10, "failed": failed, "metrics": {
             e["name"]: {"value": value, "unit": e["unit"]}
             for e in spec["end_to_end"]}}}
        for value in values
    ]


def _verdicts(parent, change):
    rows, regressed = compare.compare(
        {"train": parent}, {"train": change}, load_spec()
    )
    marks = {row.split()[1]: row.split()[-1] for row in rows[1:]}
    return marks, regressed


def test_compare_passes_equal_sets():
    marks, regressed = _verdicts(_runs("train", [100, 101, 99, 100, 102]),
                                 _runs("train", [101, 100, 99, 102, 100]))
    assert not regressed
    assert set(marks.values()) == {"ok"}


def test_compare_flags_a_regression_beyond_the_bound():
    # Every metric is 30% worse or better; the worse ones regress.
    marks, regressed = _verdicts(_runs("train", [100, 101, 99, 100, 102]),
                                 _runs("train", [130, 131, 129, 130, 132]))
    assert regressed
    assert marks["setup_s"] == compare.REGRESSION
    assert marks["records_per_s"] == "ok"  # higher is better


def test_compare_marks_a_noisy_parent_unresolved():
    marks, regressed = _verdicts(_runs("train", [60, 100, 140, 80, 120]),
                                 _runs("train", [70, 110, 150, 90, 130]))
    assert not regressed
    assert marks["setup_s"] == "unresolved"


def test_compare_flags_a_higher_failed_share():
    marks, regressed = _verdicts(_runs("train", [100] * 5),
                                 _runs("train", [100] * 5, failed=1))
    assert regressed
    assert marks["failed_share"] == compare.REGRESSION


def test_compare_refuses_sets_of_different_seeds(tmp_path, monkeypatch):
    same = {"train": _runs("train", [100] * 3, seed=1)}
    other = {"train": _runs("train", [100] * 3, seed=2)}
    assert compare.seed_mismatches(same, same) == []
    assert compare.seed_mismatches(same, other) == ["train"]
    for name, runs in (("a.json", same), ("b.json", other)):
        (tmp_path / name).write_text(json.dumps(runs["train"]))
    monkeypatch.chdir(tmp_path)
    assert compare.main(["a.json", "--", "b.json"]) == 2
    assert compare.main(["a.json", "--", "a.json"]) == 0
