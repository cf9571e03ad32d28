"""Seeded inputs for the four workloads.

Every corpus is a pure function of the seed, so the same seed gives
byte-identical inputs.  Inputs reach the program only as generated
hadoop-layout lines (``YYYY-MM-DD HH:MM:SS,mmm LEVEL [container] class:
message``, the layout ``repro.stream.yarn_session_key`` attributes to
containers) and, for the fixture models, as artifacts trained from such
lines.

Each workload draws all of its jobs from one ``WorkloadGenerator``:
every simulator numbers applications from its own counter, so a second
generator would reuse application and container ids and fuse unrelated
containers into one session.
"""

from __future__ import annotations

import json
import time
import warnings
from pathlib import Path

import numpy as np

from common import GENRES, SERVE_ROUNDS, SERVE_TENANTS, model_path

#: Simulator seconds are rendered as calendar time from this epoch.
EPOCH = 1_500_000_000
CLASS_PREFIX = "org.apache.hadoop."

#: Jobs per genre model in ``train``: about 0.3-0.4 s of training per
#: model on a quiet 2-vCPU host, so a run repeats each model many times.
TRAIN_JOBS_PER_GENRE = 20
FIXTURE_JOBS = 10
#: Detection campaigns in ``detect-batch``: two give 180 jobs, so the
#: 90th percentile of job latency has 18 jobs beyond it.  With one, it
#: moved by 10% between input seeds (interquartile range over median).
DETECT_CAMPAIGNS = 2
#: Jobs on one cluster start as a Poisson process with this mean gap in
#: event seconds: spark_sched_sim's ``job_arrival_rate`` of 1/25000 per
#: millisecond (SNIPPETS.md).
JOB_ARRIVAL_MEAN_S = 25.0
#: Jobs in each backfilled file.  The example's ``job_arrival_cap`` is
#: 100; 40 keep its arrival process in a pass short enough (~0.5 s) to
#: repeat many times a run, at the cost of a lower peak of open sessions
#: (~50 at seed 3, against ~86 for 100 jobs).
STREAM_JOBS = 40
#: Backfilled files, one per cluster.  How much one file costs per
#: record depends on how its jobs happen to overlap: between input seeds
#: it moved by 9% (interquartile range over median), and three files a
#: round average that down.
STREAM_CLUSTERS = 3
#: Average aggregate release rate of the serve schedule.
SERVE_RATE = 4000.0
#: Event time of the first streamed or served job (after the fixtures).
LIVE_START = 1_000_000.0


#: Job shapes cycled through by :func:`mixed_specs`.
INPUT_GB = (1.0, 2.0, 4.0, 8.0)
MEMORY_MB = (2048, 4096, 8192)
CORES = (1, 2, 4)


def _generator(seed: int):
    from repro.simulators import WorkloadGenerator

    return WorkloadGenerator(seed=seed)


def mixed_specs(system: str, count: int, rng: np.random.Generator) -> list:
    """``count`` job specs with a composition fixed by ``count`` alone.

    Every job type, input size and memory setting gets an equal share;
    the seed only shuffles their order (and the simulators draw the
    rest).  Drawing shapes at random instead would let one seed's extra
    8 GB jobs, and the open sessions they hold, move the cost.
    """
    from repro.simulators import HIBENCH_JOBS, TPCH_QUERIES, JobSpec

    types = TPCH_QUERIES if system == "tez" else HIBENCH_JOBS
    specs = [
        JobSpec(
            system=system,
            job_type=types[i % len(types)],
            input_gb=INPUT_GB[(i // len(types)) % len(INPUT_GB)],
            memory_mb=MEMORY_MB[i % len(MEMORY_MB)],
            cores=CORES[(i // len(MEMORY_MB)) % len(CORES)],
        )
        for i in range(count)
    ]
    return [specs[i] for i in rng.permutation(count)]


def _spec_blocks(system: str, rng: np.random.Generator):
    """Endless :func:`mixed_specs`, one whole type x size block at a time,
    so any prefix of the stream keeps close to the fixed composition."""
    from repro.simulators import HIBENCH_JOBS, TPCH_QUERIES

    types = TPCH_QUERIES if system == "tez" else HIBENCH_JOBS
    while True:
        yield from mixed_specs(system, len(types) * len(INPUT_GB), rng)


def render(timestamp: float, session_id: str, record) -> str:
    """One hadoop-layout line for ``record`` at ``timestamp``."""
    if "\n" in record.message:
        raise ValueError("multi-line messages would break the 1:1 "
                         "record/line correspondence the schedules use")
    millis = round((timestamp + EPOCH) * 1000)
    seconds, ms = divmod(millis, 1000)
    stamp = time.strftime("%Y-%m-%d %H:%M:%S", time.gmtime(seconds))
    return (
        f"{stamp},{ms:03d} {record.level} [{session_id}] "
        f"{CLASS_PREFIX}{record.source}: {record.message}"
    )


def job_lines(job) -> list[str]:
    """A finished job's lines, container after container (``yarn logs``)."""
    return [
        render(record.timestamp, session.session_id, record)
        for session in job.sessions
        for record in session.records
    ]


def shifted_rows(job, start: float) -> list[tuple[float, str]]:
    """``(event time, line)`` rows of ``job`` moved to begin at ``start``."""
    first = min(
        record.timestamp for s in job.sessions for record in s.records
    )
    delta = start - first
    return [
        (record.timestamp + delta,
         render(record.timestamp + delta, session.session_id, record))
        for session in job.sessions
        for record in session.records
    ]


def containers(jobs) -> int:
    return sum(len(job.sessions) for job in jobs)


def fixtures(gen) -> dict[str, list[str]]:
    """Clean training lines for one model per genre."""
    return {
        genre: [
            line for job in gen.run_batch(genre, FIXTURE_JOBS)
            for line in job_lines(job)
        ]
        for genre in GENRES
    }


def train_corpus(seed: int, jobs_per_genre: int = TRAIN_JOBS_PER_GENRE
                 ) -> dict:
    """Clean lines and their container count for one model per genre."""
    gen = _generator(seed)
    rng = np.random.default_rng([seed, 1])
    out = {}
    for genre in GENRES:
        jobs = [gen.run_spec(spec)
                for spec in mixed_specs(genre, jobs_per_genre, rng)]
        out[genre] = {
            "lines": [line for job in jobs for line in job_lines(job)],
            "containers": containers(jobs),
        }
    return out


def detect_corpus(seed: int, campaigns: int = DETECT_CAMPAIGNS) -> dict:
    """Fixture lines plus ``campaigns`` runs of the paper's detection
    campaign (§6.4): per genre, 5 configs x (3 faulty + 3 clean) jobs."""
    gen = _generator(seed)
    fixture_lines = fixtures(gen)
    jobs = [
        {"genre": genre, "fault": fault, "lines": job_lines(job)}
        for _ in range(campaigns)
        for genre in GENRES
        for job, fault in gen.detection_campaign(genre)
    ]
    return {"fixtures": fixture_lines, "jobs": jobs}


def stream_corpus(seed: int, clusters: int = STREAM_CLUSTERS,
                  jobs: int = STREAM_JOBS) -> dict:
    """Per cluster, ``jobs`` MapReduce jobs with Poisson starts,
    interleaved in time order as one aggregated log file."""
    gen = _generator(seed)
    fixture_lines = fixtures(gen)["mapreduce"]
    rng = np.random.default_rng([seed, 2])
    files = []
    for _ in range(clusters):
        specs = mixed_specs("mapreduce", jobs, rng)
        starts = LIVE_START + np.cumsum(
            rng.exponential(JOB_ARRIVAL_MEAN_S, jobs)
        )
        rows: list[tuple[float, str]] = []
        count = 0
        for spec, start in zip(specs, starts):
            job = gen.run_spec(spec)
            count += len(job.sessions)
            rows.extend(shifted_rows(job, float(start)))
        rows.sort(key=lambda row: row[0])
        files.append({"lines": [line for _, line in rows],
                      "containers": count})
    return {"fixture": fixture_lines, "clusters": files}


def serve_corpus(seed: int, seconds: float, rate: float = SERVE_RATE
                 ) -> dict:
    """Per-tenant time-sorted replays with Poisson job starts, released
    at an average aggregate ``rate`` for ``seconds``.

    Each tenant is one cluster whose jobs start as a Poisson process in
    event time (:data:`JOB_ARRIVAL_MEAN_S`).  The first
    ``rate * seconds`` records of all tenants, merged in event-time
    order, form the schedule, replayed faster than event time by one
    fixed factor: the first record is due when the run starts and the
    last ``seconds`` later.  A replay keeps the logs' own bursts (a job
    writes its lines close together, a tenant is silent between jobs)
    instead of spacing records evenly.  Jobs cut by the end of the
    schedule keep only their released records.
    """
    gen = _generator(seed)
    fixture_lines = fixtures(gen)
    rng = np.random.default_rng([seed, 3])
    need = int(rate * seconds)
    specs = {tid: _spec_blocks(genre, rng) for tid, genre in SERVE_TENANTS}
    next_start = {
        tid: LIVE_START + float(rng.exponential(JOB_ARRIVAL_MEAN_S))
        for tid, _ in SERVE_TENANTS
    }
    order = {tid: i for i, (tid, _) in enumerate(SERVE_TENANTS)}
    rows: dict[str, list[tuple[float, str]]] = {
        tid: [] for tid, _ in SERVE_TENANTS
    }
    stamps = np.empty(0)
    while True:
        tid = min(next_start, key=lambda t: (next_start[t], order[t]))
        start = next_start[tid]
        # No later job starts before ``start``, so records before it are
        # final: stop once they fill the schedule.
        if int(np.count_nonzero(stamps < start)) >= need:
            break
        job = gen.run_spec(next(specs[tid]))
        job_rows = shifted_rows(job, start)
        rows[tid].extend(job_rows)
        stamps = np.concatenate([stamps, [ts for ts, _ in job_rows]])
        next_start[tid] = start + float(rng.exponential(JOB_ARRIVAL_MEAN_S))
    merged = []
    for tid, tenant_rows in rows.items():
        tenant_rows.sort(key=lambda row: row[0])
        merged.extend(
            (ts, order[tid], seq, tid, line)
            for seq, (ts, line) in enumerate(tenant_rows)
        )
    merged.sort()
    released = merged[:need]
    first, last = released[0][0], released[-1][0]
    tenants = {
        tid: {"model": genre, "lines": [], "due": []}
        for tid, genre in SERVE_TENANTS
    }
    for ts, _, _, tid, line in released:
        tenants[tid]["lines"].append(line)
        tenants[tid]["due"].append((ts - first) * seconds / (last - first))
    return {"fixtures": fixture_lines, "rate": rate, "tenants": tenants}


def train_fixture(lines: list[str]):
    """Train one model on clean lines; returns its ``ModelStore``."""
    from repro import IntelLog
    from repro.core.errors import ModelValidationWarning
    from repro.parsing.formatters import HadoopFormatter
    from repro.parsing.records import split_sessions
    from repro.query.store import ModelStore
    from repro.stream import yarn_session_key

    records = [
        yarn_session_key(r) for r in HadoopFormatter().parse_lines(lines)
    ]
    model = IntelLog()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ModelValidationWarning)
        model.train(split_sessions(records))
    return ModelStore.from_intellog(model)


def prepare(workload: str, seed: int, seconds: float, work: Path) -> None:
    """Write ``workload``'s inputs under ``work`` (not timed)."""
    work.mkdir(parents=True, exist_ok=True)
    if workload == "train":
        meta = train_corpus(seed)
    elif workload == "detect-batch":
        corpus = detect_corpus(seed)
        for genre, lines in corpus["fixtures"].items():
            train_fixture(lines).save(model_path(work, genre))
        meta = {"jobs": corpus["jobs"]}
    elif workload == "stream-backfill":
        corpus = stream_corpus(seed)
        train_fixture(corpus["fixture"]).save(
            model_path(work, "mapreduce")
        )
        for k, cluster in enumerate(corpus["clusters"]):
            (work / f"stream-{k}.log").write_text(
                "\n".join(cluster["lines"]) + "\n"
            )
        meta = {"containers": [c["containers"] for c in corpus["clusters"]]}
    elif workload == "serve-openloop":
        # Each of the run's rounds replays the whole schedule.
        corpus = serve_corpus(seed, seconds / SERVE_ROUNDS)
        for genre, lines in corpus["fixtures"].items():
            train_fixture(lines).save(model_path(work, genre))
        meta = {"rate": corpus["rate"], "tenants": corpus["tenants"]}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    (work / "inputs.json").write_text(json.dumps(meta))
