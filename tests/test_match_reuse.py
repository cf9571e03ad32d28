"""Detection-side reuse of match results, and the detector's memo bound.

* The unexpected-message pseudo key is the chunk-memoised masked form
  (:func:`repro.parsing.spell.mask_message`); the whole-message
  tokenizer pass it replaced is kept below as the oracle.
* ``IntelLog.intel_messages`` (the §6.4 query path) matches each
  session in one batch and reuses the match's tokens and captures; the
  record-at-a-time implementation it replaced is kept as the oracle.
* ``AnomalyDetector``'s subroutine verdict memo, its hierarchy-pair
  memo and its unexpected-message extraction memo are reset wholesale
  at ``_MEMO_CAP``: a lowered cap bounds them and moves no report.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import IntelLog
from repro.detection import detector as detector_mod
from repro.nlp.tokenizer import tokenize
from repro.parsing.records import LogRecord, Session
from repro.parsing.spell import mask_message

GOLDEN_DIR = Path(__file__).parent / "golden" / "detect_reports"
GENRES = ["mapreduce", "spark", "tez", "tensorflow"]


def _load(genre: str) -> tuple[list[Session], list[Session]]:
    fixture = json.loads((GOLDEN_DIR / f"{genre}.json").read_text())
    train = [Session.from_dict(s) for s in fixture["train_sessions"]]
    detect = [Session.from_dict(s) for s in fixture["detect_sessions"]]
    return train, detect


@pytest.fixture(scope="module", params=GENRES)
def genre_model(request):
    train, detect = _load(request.param)
    intellog = IntelLog()
    intellog.train(train)
    return request.param, intellog, train, detect


# -- the unexpected-message pseudo key ----------------------------------------


def starified_template_oracle(message: str) -> list[str]:
    """The removed ``detector._starified_template``: one tokenizer pass
    over the whole message, variable kinds replaced by ``*``."""
    return [
        "*" if t.kind in ("ident", "number", "hostport", "path") else t.text
        for t in tokenize(message)
    ]


@pytest.mark.parametrize("genre", GENRES)
def test_pseudo_key_equals_oracle_on_golden_corpora(genre):
    train, detect = _load(genre)
    for session in train + detect:
        for record in session:
            assert mask_message(record.message)[0] == (
                starified_template_oracle(record.message)
            ), record.message


_chunk = st.one_of(
    st.sampled_from([
        "attempt_01", "fetcher#1", "host1:13562", "10.0.0.7:8030",
        "/tmp/spill/part-0", "hdfs://nn:9000/user/x", "4ms", "2264",
        "1e9", "12.5", "[fetcher", "#1]", "block_manager", "on-disk",
        "don't", "*", "=", "a=1,b=2", "MapTask", "task000_1",
    ]),
    st.text(
        alphabet=st.sampled_from(
            "abcXYZ019_-.:/#*=,;[]()'é"
        ),
        min_size=1,
        max_size=12,
    ),
)
_separator = st.sampled_from([" ", "  ", "\t", " \t ", "\xa0"])


@settings(max_examples=300, deadline=None)
@given(
    chunks=st.lists(_chunk, max_size=10),
    separators=st.lists(_separator, min_size=11, max_size=11),
)
def test_pseudo_key_equals_oracle_on_random_messages(chunks, separators):
    message = separators[0] + "".join(
        chunk + sep for chunk, sep in zip(chunks, separators[1:])
    )
    assert mask_message(message)[0] == starified_template_oracle(message)


# -- the query path -----------------------------------------------------------


def intel_messages_oracle(intellog: IntelLog, sessions):
    """The record-at-a-time ``IntelLog.intel_messages`` it replaced."""
    out = []
    for session in sessions:
        for record in session:
            match = intellog.spell.match(record.message)
            if match is None:
                continue
            intel_key = intellog.intel_keys.get(match.key.key_id)
            if intel_key is None:
                continue
            message = intellog.extractor.to_intel_message(
                intel_key,
                record.message,
                timestamp=record.timestamp,
                session_id=session.session_id,
            )
            if message is not None:
                out.append(message)
    return out


def test_intel_messages_equal_record_at_a_time_oracle(genre_model):
    _genre, intellog, train, detect = genre_model
    for sessions in (train, detect):
        got = intellog.intel_messages(sessions)
        assert got, "corpus produced no Intel Messages"
        assert got == intel_messages_oracle(intellog, sessions)


# -- memo bound ---------------------------------------------------------------


class SizeProbe(dict):
    """A dict that records its largest size after every insert."""

    peak = 0

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.peak = max(self.peak, len(self))


def _reports(intellog: IntelLog, sessions) -> str:
    report = intellog.detector().detect_batch(list(sessions))
    return json.dumps([r.to_dict() for r in report], sort_keys=True)


def _foreign_session() -> Session:
    """Unexpected messages with more distinct texts than the lowered
    cap, each repeated, so the extraction memo both hits and overflows
    (the golden corpora hold at most two distinct ones)."""
    session = Session(session_id="foreign")
    for i in range(12):
        session.append(LogRecord(
            timestamp=float(i),
            level="WARN",
            source="Relay",
            message=(
                f"quux relay lost link to 10.0.0.{i % 4}:5001{i % 4} "
                f"after {i % 4} retries"
            ),
        ))
    return session


def _probe_memos(detector, monkeypatch) -> None:
    monkeypatch.setattr(detector, "_verdicts", SizeProbe())
    monkeypatch.setattr(detector, "_hierarchy", SizeProbe())
    monkeypatch.setattr(detector._extraction_cache, "_memo", SizeProbe())


def test_lowered_memo_cap_bounds_memos_and_keeps_reports(
    genre_model, monkeypatch
):
    _genre, intellog, _train, detect = genre_model
    detect = [*detect, _foreign_session()]
    detector = intellog.detector()
    _probe_memos(detector, monkeypatch)
    want = _reports(intellog, detect)
    cap = 2
    assert min(
        detector._verdicts.peak,
        detector._hierarchy.peak,
        detector._extraction_cache._memo.peak,
    ) > cap, "corpus too small to overflow the lowered cap"

    monkeypatch.setattr(detector_mod, "_MEMO_CAP", cap)
    _probe_memos(detector, monkeypatch)
    assert _reports(intellog, detect) == want
    assert detector._verdicts.peak == cap
    assert detector._hierarchy.peak == cap
    assert detector._extraction_cache._memo.peak == cap
