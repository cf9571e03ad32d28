"""The lazily built retry generator draws what the eager one drew.

``RetryPolicy`` builds its seeded generator on the first jittered
``delay()`` instead of in ``__init__``, so a process that never retries
with jitter never imports numpy.  ``EagerRetryPolicy`` below is a frozen
copy of the policy as it was before, generator built up front; both
must return bit-identical delays in the same order.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from numpy.random import default_rng

import repro
from repro.core.config import ResilienceConfig
from repro.stream.resilience import RetryPolicy

ATTEMPTS = range(13)
SEEDS = (0, 1, 7, 20190622, 2**32 - 1)
JITTERS = (0.0, 0.1, 0.25, 0.9)


class EagerRetryPolicy:
    """Frozen copy of ``RetryPolicy`` with the generator built up front."""

    def __init__(self, config: ResilienceConfig | None = None) -> None:
        self.config = config or ResilienceConfig()
        self._rng = default_rng(self.config.retry_seed)

    @classmethod
    def for_backoff(cls, base, maximum, jitter, seed):
        return cls(ResilienceConfig(
            retry_base_delay=base,
            retry_max_delay=maximum,
            retry_jitter=jitter,
            retry_seed=seed,
        ))

    def delay(self, attempt: int) -> float:
        base = min(
            self.config.retry_base_delay * (2.0 ** max(0, attempt)),
            self.config.retry_max_delay,
        )
        jitter = self.config.retry_jitter
        if jitter <= 0.0:
            return base
        return base * (1.0 + jitter * float(self._rng.uniform(-1.0, 1.0)))


def _bits(policy, attempts) -> list[str]:
    return [policy.delay(a).hex() for a in attempts]


#: Attempts 0-12 climbing, then a retry ladder that restarts and
#: repeats, as a runtime's successive operations do.
SEQUENCE = [*ATTEMPTS, *ATTEMPTS[::-1], 0, 1, 0, 1, 2, -1, 12, 12]


@pytest.mark.parametrize("jitter", JITTERS)
@pytest.mark.parametrize("seed", SEEDS)
def test_config_policy_matches_eager(seed, jitter):
    config = ResilienceConfig(
        retry_base_delay=0.05, retry_max_delay=2.0,
        retry_jitter=jitter, retry_seed=seed,
    )
    assert _bits(RetryPolicy(config), SEQUENCE) == _bits(
        EagerRetryPolicy(config), SEQUENCE
    )


@pytest.mark.parametrize("jitter", JITTERS)
@pytest.mark.parametrize("seed", SEEDS)
def test_for_backoff_matches_eager(seed, jitter):
    args = (0.5, 30.0, jitter, seed)
    assert _bits(RetryPolicy.for_backoff(*args), SEQUENCE) == _bits(
        EagerRetryPolicy.for_backoff(*args), SEQUENCE
    )


def test_default_policy_matches_eager():
    assert _bits(RetryPolicy(), SEQUENCE) == _bits(
        EagerRetryPolicy(), SEQUENCE
    )


def test_seed_is_read_at_construction():
    """A seed changed on the config after construction does not reach
    the lazily built generator, as it could not reach the eager one."""
    config = ResilienceConfig(retry_seed=3)
    lazy, eager = RetryPolicy(config), EagerRetryPolicy(config)
    config.retry_seed = 4
    assert _bits(lazy, SEQUENCE) == _bits(eager, SEQUENCE)


def test_concurrent_draws_are_the_eager_draws():
    """Threads sharing one policy build one generator between them and
    consume its stream without loss or repeats."""
    policy = RetryPolicy(ResilienceConfig(retry_jitter=0.5))
    eager = EagerRetryPolicy(ResilienceConfig(retry_jitter=0.5))
    per_thread, threads = 50, 4
    start = threading.Barrier(threads)
    drawn: list[list[float]] = [[] for _ in range(threads)]

    def draw(out: list[float]) -> None:
        start.wait()
        out.extend(policy.delay(3) for _ in range(per_thread))

    workers = [
        threading.Thread(target=draw, args=(out,)) for out in drawn
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    want = [eager.delay(3) for _ in range(per_thread * threads)]
    assert sorted(d for out in drawn for d in out) == sorted(want)


def test_unjittered_policy_never_imports_numpy(tmp_path):
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH", "")) if p
    )
    code = (
        "import sys\n"
        "from repro.core.config import ResilienceConfig\n"
        "from repro.stream.resilience import RetryPolicy\n"
        "policies = [RetryPolicy(ResilienceConfig(retry_jitter=0.0)),\n"
        "            RetryPolicy.for_backoff(0.5, 30.0, 0.0, 1),\n"
        "            RetryPolicy()]\n"
        "for policy in policies[:2]:\n"
        "    for attempt in range(13):\n"
        "        policy.delay(attempt)\n"
        "print('numpy' in sys.modules)\n"
        "policies[2].delay(0)\n"
        "print('numpy' in sys.modules)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=env, cwd=tmp_path, check=True,
    )
    # Unjittered delays load nothing; the first jittered one loads numpy.
    assert result.stdout.split() == ["False", "True"]
