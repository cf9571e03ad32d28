"""Shared fixtures: simulated corpora and trained models.

Expensive fixtures are session-scoped; tests must not mutate them.
"""

from __future__ import annotations

import pytest

from repro import IntelLog
from repro.simulators import (
    MapReduceConfig,
    MapReduceSimulator,
    SparkConfig,
    SparkSimulator,
    TezConfig,
    TezSimulator,
    WorkloadGenerator,
    sessions_of,
)


def train_model(sessions) -> IntelLog:
    """Train a shared fixture model."""
    intellog = IntelLog()
    intellog.train(sessions)
    return intellog


#: The paper's Figure 1 log snippet (fetcher subroutine), verbatim.
FIGURE1_SNIPPET = [
    "fetcher#1 about to shuffle output of map attempt_01",
    "fetcher#1 read 2264 bytes from map-output for attempt_01",
    "host1:13562 freed by fetcher#1 in 4ms",
]


@pytest.fixture(scope="session")
def mr_training_jobs():
    sim = MapReduceSimulator(seed=42)
    return [
        sim.run_job(
            "wordcount",
            MapReduceConfig(input_gb=float(1 + i % 4)),
            base_time=i * 1000.0,
        )
        for i in range(8)
    ]


@pytest.fixture(scope="session")
def mr_model(mr_training_jobs):
    return train_model(sessions_of(mr_training_jobs))


@pytest.fixture(scope="session")
def spark_training_jobs():
    gen = WorkloadGenerator(seed=7)
    return gen.run_batch("spark", 8)


@pytest.fixture(scope="session")
def spark_model(spark_training_jobs):
    return train_model(sessions_of(spark_training_jobs))


@pytest.fixture(scope="session")
def tez_training_jobs():
    gen = WorkloadGenerator(seed=13)
    return gen.run_batch("tez", 8)


@pytest.fixture(scope="session")
def tez_model(tez_training_jobs):
    return train_model(sessions_of(tez_training_jobs))


@pytest.fixture()
def mr_simulator():
    return MapReduceSimulator(seed=5)


@pytest.fixture()
def spark_simulator():
    return SparkSimulator(seed=5)


@pytest.fixture()
def tez_simulator():
    return TezSimulator(seed=5)
