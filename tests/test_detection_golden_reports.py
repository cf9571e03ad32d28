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
from pathlib import Path

import pytest

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
