"""Run the benchmark: each seeded workload in a fresh child process.

    python3 bench/run.py [--workload NAME]... [--seed N] [--seconds S]
                         [--trace [0|1]] [--out FILE]

Without ``--workload`` all four workloads run.  For each, the inputs
are generated from the seed (not timed), the workload's set-up is timed
from process start in several fresh processes (``setup_s``), and a
child process measures it for ``--seconds`` and checks its outputs.
Every child runs under one fixed string-hash seed, and closed-loop
times are scaled to one host speed (``common.HostProbe``).
Every metric is printed with its unit; the last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` for the last
workload, holding the ``end_to_end`` metrics of ``BENCHMARK.json`` or,
with ``--trace 1``, its ``per_layer`` metrics.  A traced run splits
``--seconds`` into an untraced half, which gives the tracing overhead,
and a traced half.  ``--out`` writes every run's full record (info,
problems, spans) for ``bench/compare.py``.

Exit status: 0 when every output check passed, 1 when one failed or a
child crashed, 2 on a usage error or when ``src/repro`` is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

from common import (
    BENCH,
    WORK_ROOT,
    WORKLOADS,
    HostProbe,
    load_spec,
    use_src,
)

#: Fresh-process set-ups timed per run; ``setup_s`` is their median.
SETUP_PROBES = 5
#: Upper bound on one child's wall time before it is killed.
CHILD_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    """A child process failed or printed no result."""


def _child(workload: str, work: Path, *extra: str) -> list[str]:
    return [
        sys.executable, str(BENCH / "workloads.py"),
        "--workload", workload, "--work", str(work), *extra,
    ]


#: Children run with one fixed string-hash seed.  Set and dict orders
#: follow it, and so does the work some layers do: at input seed 12 the
#: same train models took up to 1.45x longer under one hash seed than
#: under another, which no number of passes averages away.
CHILD_ENV = {**os.environ, "PYTHONHASHSEED": "0"}


def probe_setup(workload: str, work: Path, index: int,
                host: HostProbe) -> float:
    """Seconds from spawning a fresh interpreter until the workload is
    set up and ready for input (imports, model loads, construction),
    scaled to the reference host speed by ``host`` samples taken just
    before the spawn and after the interpreter exits."""
    host.sample()
    start = time.perf_counter()
    proc = subprocess.Popen(
        _child(workload, work, "--probe-setup", str(index)),
        stdout=subprocess.PIPE, text=True, env=CHILD_ENV,
    )
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or line.strip() != "ready":
        raise BenchError(f"{workload}: set-up probe {index} failed")
    return ready * host.factor()


def run_child(workload: str, work: Path, seconds: float,
              trace: bool) -> dict[str, Any]:
    extra = ["--seconds", str(seconds)] + (["--trace"] if trace else [])
    proc = subprocess.run(
        _child(workload, work, *extra),
        stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
        env=CHILD_ENV,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"{workload}: measuring child exited {proc.returncode}"
        )
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 spec: dict) -> dict[str, Any]:
    import corpus

    # The benchmark writes nothing outside its checkout, so its scratch
    # space is a fresh directory under the git-ignored WORK_ROOT.
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-s{seed}-",
                                 dir=WORK_ROOT))
    phase_seconds = seconds / 2 if trace else seconds
    try:
        prepare_start = time.perf_counter()
        corpus.prepare(workload, seed, phase_seconds, work)
        prepare_s = time.perf_counter() - prepare_start
        host = HostProbe()
        setups = [] if trace else [
            probe_setup(workload, work, i, host) for i in range(SETUP_PROBES)
        ]
        child = run_child(workload, work, phase_seconds, trace)
        spans = None
        if trace:
            spans = json.loads((work / "spans.json").read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:  # another run's directory is still there
            pass

    if trace:
        listed, values = spec["per_layer"], child["layers"]
    else:
        listed = spec["end_to_end"]
        values = {**child["metrics"], "setup_s": statistics.median(setups)}
    metrics = {
        entry["name"]: {"value": values[entry["name"]],
                        "unit": entry["unit"]}
        for entry in listed
    }
    failed = len(child["problems"])
    result = {
        "correct": failed == 0 and child["attempted"] >= 1,
        "attempted": max(child["attempted"], 1),
        "failed": failed,
        "metrics": metrics,
    }
    info = {**child["info"], "prepare_s": prepare_s}
    if setups:
        info["setup_probes_s"] = setups
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "result": result, "info": info,
        "problems": child["problems"][:50],
    }
    if spans is not None:
        record["spans"] = spans
    return record


def show(record: dict[str, Any]) -> None:
    workload = record["workload"]
    for name, metric in record["result"]["metrics"].items():
        print(f"{workload:<16} {name:<44} "
              f"{metric['value']:>14.4f} {metric['unit']}")
    shown = {k: v for k, v in record["info"].items()
             if k != "setup_probes_s"}
    print(f"{workload:<16} info {json.dumps(shown, sort_keys=True)}")
    for problem in record["problems"][:10]:
        print(f"{workload:<16} FAILED {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="IntelLog end-to-end benchmark"
    )
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="repeatable; default: every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", nargs="?", type=int, const=1,
                        default=0, choices=(0, 1),
                        help="1: report the per-layer ledger instead")
    parser.add_argument("--out", type=Path, default=None,
                        help="write every run's full record as JSON")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    use_src()
    # A terminated run unwinds like an interrupted one: the running
    # child is killed and the work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    spec = load_spec()
    seconds = (
        float(args.seconds) if args.seconds is not None
        else float(spec["run_seconds"])
    )
    records = []
    try:
        for workload in args.workload or WORKLOADS:
            record = run_workload(
                workload, args.seed, seconds, bool(args.trace), spec
            )
            records.append(record)
            show(record)
            print(json.dumps(record["result"]), flush=True)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    finally:
        if args.out is not None and records:
            args.out.parent.mkdir(parents=True, exist_ok=True)
            args.out.write_text(json.dumps(
                records[0] if len(records) == 1 else records, indent=1
            ) + "\n")
    return 0 if all(r["result"]["correct"] for r in records) else 1


if __name__ == "__main__":
    raise SystemExit(main())
