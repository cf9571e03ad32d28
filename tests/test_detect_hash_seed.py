"""``repro detect`` prints the same bytes under every hash seed.

An Intel Key can feed several entity groups, and the graph keeps a
key's groups as a set.  The detector walks them in its plans' order,
which decides the order of a report's subroutine anomalies, so the
plans must hold them sorted: in set order a report followed
``PYTHONHASHSEED``.  The corpus below reaches such a key: a MapReduce
model trained with the default formatter, then the first jobs of a
detection campaign.  In set order it printed four different reports
under hash seeds 0-3.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.simulators import WorkloadGenerator

ROOT = Path(__file__).parents[1]
#: Simulator seconds are rendered as calendar time from this epoch.
EPOCH = 1_500_000_000
HASH_SEEDS = ("0", "1", "2", "3")


def hadoop_lines(job) -> list[str]:
    """A job's records in the hadoop log4j layout, container by container."""
    lines = []
    for session in job.sessions:
        for record in session.records:
            seconds, ms = divmod(round((record.timestamp + EPOCH) * 1000),
                                 1000)
            stamp = time.strftime("%Y-%m-%d %H:%M:%S", time.gmtime(seconds))
            lines.append(
                f"{stamp},{ms:03d} {record.level} [{session.session_id}] "
                f"org.apache.hadoop.{record.source}: {record.message}"
            )
    return lines


def repro_cli(args: list[str], hash_seed: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        env=env, capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def corpus(tmp_path_factory) -> Path:
    gen = WorkloadGenerator(seed=1)
    train = [
        line for job in gen.run_batch("mapreduce", 2)
        for line in hadoop_lines(job)
    ]
    campaign = list(gen.detection_campaign("mapreduce"))[:3]
    detect = [line for job, _ in campaign for line in hadoop_lines(job)]
    work = tmp_path_factory.mktemp("hash-seed")
    (work / "train.log").write_text("\n".join(train) + "\n")
    (work / "detect.log").write_text("\n".join(detect) + "\n")
    trained = repro_cli(
        ["train", str(work / "train.log"), "--model", str(work / "m.json")],
        hash_seed="0",
    )
    assert trained.returncode == 0, trained.stderr
    return work


def test_detect_stdout_is_byte_identical_under_hash_seeds(corpus):
    outputs = {}
    for seed in HASH_SEEDS:
        result = repro_cli(
            ["detect", str(corpus / "detect.log"),
             "--model", str(corpus / "m.json")],
            hash_seed=seed,
        )
        # Exit 1 means "anomalies found"; anything else is a crash.
        assert result.returncode in (0, 1), result.stderr
        outputs[seed] = result.stdout
    assert outputs["0"].strip()
    distinct = set(outputs.values())
    assert len(distinct) == 1, (
        f"{len(distinct)} different reports under hash seeds "
        f"{', '.join(HASH_SEEDS)}"
    )
