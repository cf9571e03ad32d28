"""Ablations: the design choices DESIGN.md calls out, measured.

Each ablation removes one mechanism and shows the paper's design earns its
keep:

* **no suffix rejection in Algorithm 1** — grouping by any common phrase
  merges unrelated "-manager"-style entities into one blob group;
* **no missing-group check** — case study 3 (idle executors) goes
  undetected, since that bug produces no unexpected message at all;
* **no critical Intel Keys** — truncated sessions with otherwise valid
  prefixes pass the subroutine check;
* **Spell threshold sensitivity** — key counts fall monotonically as the
  threshold loosens; the empirical t=1.7 lands near the true statement
  count, while extreme values fragment or over-merge.
"""

from __future__ import annotations

import pytest

from repro import IntelLog, IntelLogConfig
from repro.detection.detector import DetectorConfig
from repro.detection.report import AnomalyKind
from repro.graph.grouping import longest_common_word_substring
from repro.parsing.spell import SpellParser
from repro.simulators import SparkConfig, sessions_of

from bench_common import write_result


def test_ablation_grouping_suffix_rule(benchmark):
    """Algorithm 1 without the common-last-words rejection."""
    entities = [
        "block manager", "security manager", "shuffle manager",
        "memory manager", "block", "block manager endpoint",
    ]

    def naive_groups():
        # Group by *any* common phrase, suffixes included.
        groups: list[tuple[tuple[str, ...], set]] = []
        for phrase in sorted(
            {tuple(e.split()) for e in entities},
            key=lambda p: (len(p), p),
        ):
            placed = False
            for idx, (name, members) in enumerate(groups):
                common = longest_common_word_substring(name, phrase)
                if common:
                    members.add(phrase)
                    groups[idx] = (common, members)
                    placed = True
            if not placed:
                groups.append((phrase, {phrase}))
        return groups

    naive = benchmark.pedantic(naive_groups, rounds=1, iterations=1)

    from repro.graph.grouping import group_entities

    proper = group_entities(entities)

    # The naive variant funnels every "*manager" into one blob.
    blob = max(len(members) for _, members in naive)
    assert blob >= 4
    # Algorithm 1 keeps security/shuffle/memory managers apart from the
    # block family.
    block_group = next(
        g for g in proper.groups if g.label.startswith("block")
    )
    assert ("security", "manager") not in block_group.entities
    assert ("shuffle", "manager") not in block_group.entities

    write_result(
        "ablation_grouping.txt",
        f"naive largest group: {blob} entities (merges all managers)\n"
        f"Algorithm 1 groups: {sorted(proper.labels())}",
    )


@pytest.fixture(scope="module")
def spark_setup(generators, models):
    return generators["spark"], models["spark"]


def test_ablation_missing_group_check(benchmark, spark_setup):
    """Disabling the erroneous-instance check hides case study 3."""
    generator, model = spark_setup
    job = generator.spark.run_job(
        "wordcount",
        SparkConfig(input_gb=1.0, executors=8),
        base_time=8_000_000.0,
        idle_executor_bug=True,
    )

    def detect_both():
        full = model.detect_job(job.sessions, job.app_id)
        stripped_detector = type(model._detector)(
            model.graph, model.spell, model.extractor,
            DetectorConfig(report_missing_groups=False),
        )
        stripped = stripped_detector.detect_job(job.sessions, job.app_id)
        return full, stripped

    full, stripped = benchmark.pedantic(
        detect_both, rounds=1, iterations=1
    )

    full_missing = [
        a for s in full.sessions
        for a in s.by_kind(AnomalyKind.MISSING_GROUP)
    ]
    stripped_missing = [
        a for s in stripped.sessions
        for a in s.by_kind(AnomalyKind.MISSING_GROUP)
    ]
    assert full_missing, "missing-group check must flag idle executors"
    assert not stripped_missing
    write_result(
        "ablation_missing_group.txt",
        f"with check: {len(full_missing)} missing-group anomalies; "
        f"without: {len(stripped_missing)} (case study 3 invisible)",
    )


def test_ablation_critical_keys(benchmark):
    """Without critical marks, truncated subroutines pass validation."""
    from repro.graph.subroutine import Subroutine

    def build():
        sub = Subroutine(signature=("T",))
        for _ in range(10):
            sub.update(["A", "B", "C", "D"])
        return sub

    sub = benchmark.pedantic(build, rounds=1, iterations=1)
    truncated = ["A", "B"]  # a SIGKILL victim's prefix

    with_check = sub.check_instance(truncated, complete=True)
    without_check = sub.check_instance(truncated, complete=False)
    assert any("missing critical" in p for p in with_check)
    assert without_check == []
    write_result(
        "ablation_critical_keys.txt",
        f"critical-key check on truncated instance: "
        f"{len(with_check)} problems; without: {len(without_check)}",
    )


def test_ablation_spell_threshold(benchmark, training_jobs):
    """Key counts across Spell thresholds; t=1.7 sits in a plateau."""
    messages = [
        record.message
        for job in training_jobs["mapreduce"][:4]
        for session in job.sessions
        for record in session
    ]

    def sweep():
        counts = {}
        for tau in (1.2, 1.5, 1.7, 2.0, 3.0, 6.0):
            parser = SpellParser(tau=tau)
            for message in messages:
                parser.consume(message)
            counts[tau] = len(parser)
        return counts

    counts = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = ["tau  -> #log keys"] + [
        f"{tau:<4} -> {count}" for tau, count in counts.items()
    ]
    write_result("ablation_spell_tau.txt", "\n".join(lines))

    # The threshold trades fragmentation against over-merging: key counts
    # decrease monotonically as tau loosens, and the paper's empirical
    # t=1.7 lands near the simulated systems' true statement count
    # (~40 emitted templates, several of which legitimately merge, e.g.
    # Figure 3's metrics-system keys).
    taus = sorted(counts)
    assert all(
        counts[a] >= counts[b] for a, b in zip(taus, taus[1:])
    ), counts
    assert 25 <= counts[1.7] <= 45, counts
    assert counts[6.0] <= counts[1.2] / 2, counts
