"""Kill-point crash-recovery sweep (``repro.serve.harness``).

For every labeled kill point in the publish/checkpoint/swap/finalize
protocols, a victim subprocess arms the label and dies mid-write with
``os._exit(73)``; recovery then runs startup fsck, re-attaches, drains,
and the harness asserts the durability invariants (registry fsck-clean,
exactly-once reports, tenant healthy or explicitly quarantined); the
serve labels run again with a sink that keeps no delivery log.  These
are the slowest tests in the suite (one subprocess per label, each
training a model) — the full sweep also runs as the ``crash-recovery``
CI job via ``tools/crash_harness.py``.
"""

from __future__ import annotations

import json

import pytest

from repro.core.killpoints import KILL_EXIT_CODE, KILL_POINTS
from repro.serve.harness import (
    NO_LOG_LABELS,
    PUBLISH_LABELS,
    SERVE_LABELS,
    run_one,
    run_sweep,
    scenario_for,
)


def test_every_kill_point_has_a_scenario():
    assert set(KILL_POINTS) == set(PUBLISH_LABELS) | set(SERVE_LABELS)
    for label in KILL_POINTS:
        assert scenario_for(label) in ("publish", "serve")
    with pytest.raises(ValueError):
        scenario_for("no.such.label")


@pytest.mark.parametrize("label", KILL_POINTS)
def test_kill_point_recovers(label, tmp_path):
    row = run_one(label, tmp_path / "work")
    assert row["killed"], (
        f"victim for {label} exited {row['victim_exit']}, "
        f"expected {KILL_EXIT_CODE}: {row}"
    )
    assert row["ok"], row


@pytest.mark.parametrize("label", NO_LOG_LABELS)
def test_kill_point_recovers_without_delivery_log(label, tmp_path):
    """The sink keeps no log of its own, so exactly-once rests on the
    runtime's delivery journal alone."""
    row = run_one(label, tmp_path / "work", sink="no-log")
    assert row["killed"], row
    assert row["ok"], row


def test_sweep_report_shape(tmp_path):
    report = run_sweep(
        tmp_path, labels=["registry.publish.intent"]
    )
    assert report["format"] == "repro-crash-harness-v1"
    assert report["passed"] + report["failed"] == 1
    # The report round-trips through JSON (the CI artifact).
    doc = json.loads(json.dumps(report))
    assert doc["results"][0]["label"] == "registry.publish.intent"
