"""Golden detect-report regression: pinned per-genre ``SessionReport``s.

Each fixture in ``tests/golden/detect_reports/`` freezes one genre's
train + detect corpora (simulator output captured once — the regression
targets the detection pipeline, never simulator drift) together with
the byte-exact report JSON the pipeline produced on it.  The fixtures
were generated with the pre-index scan matcher and re-verified after
the trie rewrite, so they are the end-to-end proof that the index
changed *nothing* observable: matcher, extractor, HW-graph checks.

Regenerate deliberately with ``python tools/regen_golden.py
--detect-reports`` and review the report diff like a model-digest bump.
"""

from __future__ import annotations

import json
import random
from functools import lru_cache
from pathlib import Path
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import IntelLog
from repro.parsing.records import Session
from repro.query.store import ModelStore

GOLDEN_DIR = Path(__file__).parent / "golden" / "detect_reports"
GENRES = ["mapreduce", "spark", "tez", "tensorflow"]


def _load(genre: str) -> tuple[dict, list[Session], list[Session]]:
    fixture = json.loads((GOLDEN_DIR / f"{genre}.json").read_text())
    train = [Session.from_dict(s) for s in fixture["train_sessions"]]
    detect = [Session.from_dict(s) for s in fixture["detect_sessions"]]
    return fixture, train, detect


@pytest.mark.parametrize(
    ("genre", "reloaded"),
    [pytest.param(g, False, id=g) for g in GENRES]
    + [pytest.param(g, True, id=f"{g}-reloaded") for g in GENRES],
)
def test_detect_report_byte_identical(
    genre: str, reloaded: bool, tmp_path: Path
) -> None:
    """The trained model, and the same model saved and loaded back,
    both reproduce the pinned report."""
    fixture, train, detect = _load(genre)
    intellog = IntelLog()
    intellog.train(train)
    if reloaded:
        model_path = tmp_path / "model.json"
        ModelStore.from_intellog(intellog).save(str(model_path))
        intellog = ModelStore.load_path(str(model_path)).to_intellog()
    report = intellog.detect_job(detect, job_id=f"golden-{genre}")
    # Byte-level comparison of the canonical JSON encoding — any drift
    # in anomaly ordering, counts, extraction payloads or report shape
    # fails here, not just value-level equality.
    got = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    want = json.dumps(fixture["report"], indent=2, sort_keys=True)
    assert got == want, (
        f"{genre}: detect report drifted from the pinned golden fixture "
        f"(regenerate with tools/regen_golden.py --detect-reports and "
        f"review the diff)"
    )


@pytest.mark.parametrize("genre", ["spark", "tensorflow"])
def test_detect_batch_equals_per_session(genre: str) -> None:
    """The cross-session batch path must produce the same reports as
    one-session-at-a-time detection (same order, same content)."""
    _, train, detect = _load(genre)
    intellog = IntelLog()
    intellog.train(train)
    detector = intellog.detector()
    batched = [r.to_dict() for r in detector.detect_batch(detect)]
    serial = [detector.detect_session(s).to_dict() for s in detect]
    assert batched == serial


@lru_cache(maxsize=None)
def _saved_model(genre: str) -> str:
    """The genre's trained golden model as its saved JSON text."""
    _, train, _ = _load(genre)
    intellog = IntelLog()
    intellog.train(train)
    return json.dumps(ModelStore.from_intellog(intellog).to_dict())


def _permuted(value: Any, rng: random.Random) -> Any:
    """``value`` with the keys of every dict in it in a random order."""
    if isinstance(value, dict):
        items = list(value.items())
        rng.shuffle(items)
        return {key: _permuted(item, rng) for key, item in items}
    if isinstance(value, list):
        return [_permuted(item, rng) for item in value]
    return value


@settings(max_examples=6, deadline=None)
@given(permutation=st.integers(0, 2**32 - 1))
def test_reload_from_permuted_json_keeps_reports_byte_identical(
    permutation: int,
) -> None:
    """Each golden model, loaded through ``ModelStore.from_dict`` from
    its saved JSON with every dict's keys in a random order, gives the
    byte-identical report: in its own key order, as the in-order load
    gives it, and sorted, as pinned."""
    rng = random.Random(permutation)
    for genre in GENRES:
        fixture, _, detect = _load(genre)
        saved = json.loads(_saved_model(genre))
        runs = []
        for data in (saved, _permuted(saved, rng)):
            intellog = ModelStore.from_dict(data).to_intellog()
            report = intellog.detect_job(detect, job_id=f"golden-{genre}")
            runs.append(json.dumps(report.to_dict()))
        assert runs[0] == runs[1], genre
        got = json.dumps(json.loads(runs[1]), indent=2, sort_keys=True)
        assert got == json.dumps(fixture["report"], indent=2, sort_keys=True)
