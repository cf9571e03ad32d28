"""The Spell form memo: one resolution per masked form per loaded model.

``SpellParser`` resolves a masked form (trie walk, LCS drift fallback or
miss) once and keeps the answer for as long as its key set is unchanged.
These tests pin that the memo changes no result and what its lifetime
is:

* interleaved training and matching on one parser agree with the frozen
  scan reference of ``tests/test_match_parity.py`` (invalidation);
* views of one registry lease share resolutions, and a swap to a new
  model version starts from a fresh memo whose reports equal batch
  ``detect_job`` on that version;
* lowered caps keep results identical and bound the form and chunk
  memos, right after a wholesale reset too;
* a pass over the golden detect corpora resolves each distinct masked
  form exactly once.
"""

from __future__ import annotations

import json
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import IntelLog, split_sessions
from repro.core import ServeConfig
from repro.obs import MetricsRegistry
from repro.parsing import spell as spell_module
from repro.parsing.records import LogRecord, Session
from repro.parsing.spell import STAR, LogKey, SpellParser, mask_message
from repro.query.store import ModelStore
from repro.serve import DetectionService, ModelRegistry, TenantSpec
from repro.simulators import WorkloadGenerator, sessions_of
from repro.stream import IterableSource, ListSink
from test_match_parity import _as_tuple, _message, _reference_match, _tau

GOLDEN_DIR = Path(__file__).parent / "golden" / "detect_reports"
GENRES = ["mapreduce", "spark", "tez", "tensorflow"]

#: Tracker settings that never close early (as in ``tests/test_serve.py``).
UNBOUNDED = dict(idle_timeout=1e12, max_open_sessions=10**9)


def spark_records(seed: int, jobs: int = 2) -> list[LogRecord]:
    gen = WorkloadGenerator(seed=seed)
    records = [r for job in gen.run_batch("spark", jobs) for r in job.records]
    records.sort(key=lambda r: r.timestamp)
    return records


def memo_counts(registry: MetricsRegistry) -> dict[str, int]:
    metric = registry.get("spell_form_memo_total")
    if metric is None:
        return {}
    return {
        labels["result"]: int(value) for labels, value in metric.samples()
    }


def count_resolutions(parser: SpellParser) -> Counter:
    """Count ``_find_best_idx`` calls on ``parser``, by masked form."""
    calls: Counter = Counter()
    resolve = parser._find_best_idx

    def counted(seq):
        calls[tuple(seq)] += 1
        return resolve(seq)

    parser._find_best_idx = counted
    return calls


# -- invalidation: interleaved training and matching ---------------------

#: Short messages over a small vocabulary, so forms recur between
#: training steps; mixed with the parity harness's wider messages.
_short = st.lists(
    st.sampled_from(["alpha", "beta", "gamma", "delta", "17", "badger42"]),
    min_size=1, max_size=4,
).map(" ".join)
_msg = st.one_of(_short, _message)

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("consume"), _msg),
        st.tuples(st.just("match"), _msg),
        st.tuples(st.just("batch"), st.lists(_msg, min_size=1, max_size=6)),
        st.tuples(st.just("restore"), _msg),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(ops=_ops, tau=_tau)
# A merge generalises "alpha beta gamma" to "alpha beta *", which then
# out-ranks "* delta" for a form first resolved to the latter.
@example(ops=[
    ("consume", "alpha beta gamma"), ("consume", "17 delta"),
    ("match", "alpha beta delta"), ("consume", "alpha beta epsilon"),
    ("match", "alpha beta delta"),
], tau=1.7)
# An all-variable form misses until the reserved key exists.
@example(ops=[
    ("consume", "alpha"), ("batch", ["17 badger42"]), ("consume", "42"),
    ("batch", ["17 badger42"]),
], tau=1.7)
def test_interleaved_consume_and_match_equal_scan_reference(
    ops: list, tau: float
) -> None:
    """Every match after any prefix of training equals the scan
    reference, so no memo entry outlives a key or template change.
    ``restore`` appends a key and re-indexes, as a model load does."""
    parser = SpellParser(tau=tau)
    for op, arg in ops:
        if op == "consume":
            parser.consume(arg)
        elif op == "restore":
            parser._keys.append(LogKey(
                key_id=f"K{parser._next_id}",
                tokens=mask_message(arg)[0], sample=arg,
            ))
            parser._next_id += 1
            parser._reindex()
        elif op == "match":
            assert _as_tuple(parser.match(arg)) == _reference_match(
                parser, arg
            ), arg
        else:
            got = parser.match_batch(arg)
            for message, result in zip(arg, got):
                assert _as_tuple(result) == _reference_match(
                    parser, message
                ), message


def test_metric_counts_distinct_messages_once_per_batch() -> None:
    registry = MetricsRegistry()
    parser = SpellParser().instrument(registry)
    parser.consume("alpha beta 1 done")
    parser.consume("gamma delta 2 done")
    batch = ["alpha beta 7 done", "alpha beta 8 done", "alpha beta 7 done",
             "gamma delta 9 done", "17 18"]
    parser.match_batch(batch)
    # Four distinct messages, three distinct forms.
    assert memo_counts(registry) == {"miss": 3, "hit": 1}
    parser.match_batch(batch)
    assert memo_counts(registry) == {"miss": 3, "hit": 5}
    parser.match("gamma delta 10 done")
    assert memo_counts(registry) == {"miss": 3, "hit": 6}


# -- lifetime: views share, a new version starts fresh -------------------


@pytest.fixture(scope="module")
def spark_store_v2(spark_training_jobs) -> ModelStore:
    """A second, byte-distinct version of the spark model family."""
    intellog = IntelLog()
    intellog.train(sessions_of(spark_training_jobs[:6]))
    return ModelStore.from_intellog(intellog)


def test_views_of_one_lease_share_resolutions(tmp_path, spark_model) -> None:
    reg = ModelRegistry(tmp_path / "reg")
    reg.publish(ModelStore.from_intellog(spark_model), "m")
    lease = reg.acquire("m")
    first, second = lease.detector_view(), lease.detector_view()
    assert first.spell._form_memo is second.spell._form_memo
    messages = [r.message for r in spark_records(5, jobs=1)]
    first_reg, second_reg = MetricsRegistry(), MetricsRegistry()
    first.spell.instrument(first_reg)
    second.spell.instrument(second_reg)
    calls = count_resolutions(second.spell)

    expected = [_as_tuple(m) for m in first.spell.match_batch(messages)]
    got = [_as_tuple(m) for m in second.spell.match_batch(messages)]

    assert got == expected
    assert memo_counts(first_reg)["miss"] > 0
    # The second tenant resolves nothing: every form is a hit.
    assert not calls
    assert memo_counts(second_reg) == {"hit": len(set(messages))}
    lease.release()


def test_swap_to_a_new_version_starts_from_a_fresh_memo(
    tmp_path, spark_model, spark_store_v2
) -> None:
    reg = ModelRegistry(tmp_path / "reg")
    reg.publish(ModelStore.from_intellog(spark_model), "spark-prod")
    svc = DetectionService(reg, ServeConfig(quantum=25))
    records = spark_records(11)
    sink = ListSink()
    svc.attach(
        TenantSpec(tenant_id="t", model="spark-prod", **UNBOUNDED),
        source=IterableSource(list(records)), sink=sink,
    )
    for _ in range(3):
        assert svc.cycle() > 0
    old = svc.tenant("t").lease.intellog.spell
    old_memo = dict(old._form_memo)
    assert old_memo
    before = len(sink.reports)

    reg.publish(spark_store_v2, "spark-prod")
    svc.swap("t")
    svc.drain()
    tenant = svc.tenant("t")
    assert tenant.swaps == 1
    new = tenant.lease.intellog.spell
    assert new is not old and new._form_memo is not old._form_memo
    # Every entry the new version holds is its own resolution.
    fresh = ModelStore.from_intellog(tenant.lease.intellog).to_intellog()
    for form, entry in new._form_memo.items():
        assert entry == fresh.spell._resolve_form(list(form)), form
    assert old._form_memo == old_memo

    after = {r.session_id: r.to_dict() for r in sink.reports[before:]}
    expected = tenant.lease.detector_view().detect_job(
        split_sessions(records)
    )
    assert after and after == {
        r.session_id: r.to_dict()
        for r in expected.sessions if r.session_id in after
    }
    svc.close()


# -- bound ----------------------------------------------------------------


@pytest.mark.parametrize("cap", [1, 3])
def test_lowered_cap_keeps_results_and_bounds_the_memo(
    monkeypatch, spark_model, cap: int
) -> None:
    messages = [r.message for r in spark_records(7, jobs=1)]
    reference = spark_model.spell.view()
    expected = [_as_tuple(m) for m in reference.match_batch(messages)]

    monkeypatch.setattr(spell_module, "_FORM_MEMO_CAP", cap)
    parser = ModelStore.from_intellog(spark_model).to_intellog().spell
    got = []
    for start in range(0, len(messages), 16):
        for result in parser.match_batch(messages[start:start + 16]):
            got.append(_as_tuple(result))
        assert len(parser._form_memo) <= cap
    for message in messages[:50]:
        got_one = _as_tuple(parser.match(message))
        assert got_one == expected[messages.index(message)]
        assert len(parser._form_memo) <= cap
    assert got == expected


def test_capped_memos_stay_bounded_and_change_no_result(
    monkeypatch, spark_model
) -> None:
    """More distinct chunks and forms than both caps, fed through
    ``match_batch`` and ``match``: neither memo ever holds more than its
    cap, and every result, the ones right after a wholesale reset
    included, equals a run with uncapped memos."""
    messages = [r.message for r in spark_records(9, jobs=1)]
    reference = ModelStore.from_intellog(spark_model).to_intellog().spell
    expected = [_as_tuple(m) for m in reference.match_batch(messages)]
    assert any(result and result[1] for result in expected)

    chunk_cap, form_cap = 16, 3
    monkeypatch.setattr(spell_module, "_CHUNK_MEMO", {})
    monkeypatch.setattr(spell_module, "_CHUNK_MEMO_CAP", chunk_cap)
    monkeypatch.setattr(spell_module, "_FORM_MEMO_CAP", form_cap)
    parser = ModelStore.from_intellog(spark_model).to_intellog().spell
    distinct_chunks = {c for m in messages for c in m.split()}
    assert len(distinct_chunks) > 4 * chunk_cap

    resets = {"chunk": 0, "form": 0}
    sizes = {"chunk": 0, "form": 0}

    def check_sizes() -> bool:
        """Bounds hold; True when either memo was reset wholesale."""
        now = {
            "chunk": len(spell_module._CHUNK_MEMO),
            "form": len(parser._form_memo),
        }
        assert now["chunk"] <= chunk_cap and now["form"] <= form_cap
        reset = False
        for memo in now:
            if now[memo] < sizes[memo]:
                resets[memo] += 1
                reset = True
        sizes.update(now)
        return reset

    after_reset = 0
    for start in range(0, len(messages), 7):
        got = parser.match_batch(messages[start:start + 7])
        check_sizes()
        assert [_as_tuple(m) for m in got] == expected[start:start + 7]
    for i, message in enumerate(messages):
        got_one = _as_tuple(parser.match(message))
        if check_sizes():
            after_reset += 1
        assert got_one == expected[i], message
    assert resets["chunk"] and resets["form"] and after_reset


def test_views_matching_concurrently_under_a_tiny_cap(
    monkeypatch, spark_model
) -> None:
    """Eight threads match through views of one parser while a cap of
    two keeps the shared memo resetting; every result must still equal
    the single-threaded one (a torn entry or a stale hit would not)."""
    messages = [r.message for r in spark_records(3, jobs=1)][:300]
    expected = [
        _as_tuple(m) for m in spark_model.spell.view().match_batch(messages)
    ]
    monkeypatch.setattr(spell_module, "_FORM_MEMO_CAP", 2)
    shared = ModelStore.from_intellog(spark_model).to_intellog().spell
    barrier = threading.Barrier(8)
    failures: list[object] = []

    def worker(i: int) -> None:
        try:
            view = shared.view()
            barrier.wait(timeout=30)
            for round_ in range(3):
                if (i + round_) % 2:
                    got = [_as_tuple(view.match(m)) for m in messages]
                else:
                    got = [_as_tuple(m) for m in view.match_batch(messages)]
                if got != expected:
                    failures.append((i, round_))
        except BaseException as exc:  # noqa: PY002 - asserted below
            failures.append(exc)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures


# -- one resolution per distinct form over the golden corpora ------------


def _sessions(fixture: dict, name: str) -> list[Session]:
    return [Session.from_dict(s) for s in fixture[name]]


@pytest.mark.parametrize("genre", GENRES)
def test_golden_pass_resolves_each_form_once(genre: str) -> None:
    fixture = json.loads((GOLDEN_DIR / f"{genre}.json").read_text())
    detect = _sessions(fixture, "detect_sessions")
    intellog = IntelLog()
    intellog.train(_sessions(fixture, "train_sessions"))
    calls = count_resolutions(intellog.spell)

    report = intellog.detect_job(detect, job_id=f"golden-{genre}")

    forms = {
        tuple(mask_message(record.message)[0])
        for session in detect for record in session
    }
    resolvable = {form for form in forms if any(t != STAR for t in form)}
    assert set(calls) == resolvable
    assert all(n == 1 for n in calls.values())
    assert report.to_dict() == fixture["report"]
    # A second pass over the same corpus resolves nothing.
    calls.clear()
    intellog.detect_job(detect, job_id=f"golden-{genre}")
    assert not calls
