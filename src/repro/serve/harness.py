"""Crash-recovery harness: kill the service at labeled points, recover.

The durability story of the serving layer is only credible if it is
*executed*: every claim ("publish is journaled", "checkpoints are
atomic", "reports are exactly-once across a crash") corresponds to a
labeled kill point (:mod:`repro.core.killpoints`) inside the write
protocol it protects.  This harness enumerates those labels, runs a
**victim** process per label (``python -m repro.serve.harness victim
...``) that arms the label and exercises the protocol until
``os._exit(73)`` fires mid-write, then **recovers** in the orchestrator
process — startup fsck, re-attach, drain — and asserts the invariants:

* the registry is fsck-clean after repair and every surviving version
  resolves (a publish either happened or didn't — never half);
* a republish after the crash converges to the same version sequence;
* the tenant's reports are exactly-once: no finalization id lost, none
  duplicated, session coverage identical to a crash-free reference run —
  with a sink that keeps a delivery log (a ``JsonLinesSink`` on a
  path) and, for every serve label but ``finalize.emitted``, again with
  one that keeps none (the same sink on an open file handle), where
  exactly-once rests on the runtime's delivery journal alone;
* every tenant ends healthy or *explicitly* quarantined — never parked
  silently.

Scenarios map labels to protocols: ``registry.publish.*`` run the
two-phase publish; ``checkpoint.*``, ``swap.*``, ``finalize.emitted``
and ``journal.*`` run a single-tenant serve fleet.  Everything is
seeded (workload generator, model training), so victim and reference
runs see byte-identical streams.

Used by ``tools/crash_harness.py`` and the ``crash-recovery`` CI job;
``tests/test_crash_recovery.py`` sweeps the same entry points.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import IO, Any

from ..core.config import DurabilityConfig, ServeConfig
from ..core.intellog import IntelLog
from ..core.killpoints import KILL_EXIT_CODE, KILL_POINTS, arm
from ..query.store import ModelStore
from ..simulators import WorkloadGenerator, sessions_of
from ..stream import IterableSource, JsonLinesSink
from .fsck import run_fsck
from .registry import ModelRegistry
from .service import DetectionService
from .tenant import TenantSpec

__all__ = [
    "NO_LOG_LABELS", "main", "result_line", "run_sweep", "scenario_for",
]

#: Labels exercised through the registry publish protocol.
PUBLISH_LABELS = (
    "registry.publish.intent",
    "registry.publish.artifact",
    "registry.publish.index",
)

#: Labels exercised through a single-tenant serve fleet.
SERVE_LABELS = (
    "checkpoint.tmp",
    "checkpoint.bak",
    "swap.intent",
    "swap.applied",
    "finalize.emitted",
    "journal.append",
    "journal.rotate",
)

#: Serve labels run a second time with a sink that keeps no delivery
#: log.  Not ``finalize.emitted``: between a sink's emit and the
#: journal append only the sink's own log can tell a delivered report
#: from a lost one.
NO_LOG_LABELS = tuple(
    label for label in SERVE_LABELS if label != "finalize.emitted"
)

#: Sink variants: a delivery log the runtime can read back, or none.
SINKS = ("delivery-log", "no-log")

_MODEL = "spark-prod"
_TENANT = "t1"
_STREAM_SEED = 55
#: Tracker settings that close sessions only at drain (never early) so
#: victim/recovery/reference runs partition one deterministic stream.
_UNBOUNDED = {"idle_timeout": 1e12, "max_open_sessions": 10**9}


def scenario_for(label: str) -> str:
    """Which protocol a kill label lives in (``publish`` / ``serve``)."""
    if label in PUBLISH_LABELS:
        return "publish"
    if label in SERVE_LABELS:
        return "serve"
    raise ValueError(f"unknown kill-point label {label!r}")


def _store(seed: int, jobs: int = 6) -> ModelStore:
    """A deterministic model (distinct per seed, identical per seed)."""
    gen = WorkloadGenerator(seed=seed)
    intellog = IntelLog()
    intellog.train(sessions_of(gen.run_batch("spark", jobs)))
    return ModelStore.from_intellog(intellog)


def _stream_records(seed: int = _STREAM_SEED):
    gen = WorkloadGenerator(seed=seed)
    batch = gen.run_batch("spark", 2)
    records = [r for job in batch for r in job.records]
    records.sort(key=lambda r: r.timestamp)
    return records


def _serve_service(workdir: Path) -> tuple[DetectionService, TenantSpec]:
    registry = ModelRegistry(
        workdir / "registry", durability=DurabilityConfig.durable()
    )
    service = DetectionService(
        registry,
        ServeConfig(quantum=40),
        checkpoint_dir=workdir / "ckpt",
        durability=DurabilityConfig.durable(),
    )
    spec = TenantSpec(tenant_id=_TENANT, model=_MODEL, **_UNBOUNDED)
    return service, spec


def _attach(
    service: DetectionService, spec: TenantSpec, target: IO[str] | Path
):
    """Attach the tenant with a ``JsonLinesSink`` on ``target``: on a
    path the sink reads its output back as a delivery log; on an open
    handle ``emitted_ids()`` is empty, like a socket exporter's."""
    return service.attach(
        spec,
        source=IterableSource(_stream_records()),
        sink=JsonLinesSink(target),
    )


def _open_target(workdir: Path, sink: str) -> IO[str] | None:
    """The open handle the no-log variant writes through (else None)."""
    if sink == "no-log":
        return open(workdir / "reports.jsonl", "a", encoding="utf-8")
    return None


# -- victims (run in a subprocess; die at the armed kill point) ---------


def victim_publish(workdir: Path, label: str) -> int:
    """Publish v1 cleanly, then die mid-publish of v2."""
    registry = ModelRegistry(
        workdir / "registry", durability=DurabilityConfig.durable()
    )
    registry.publish(_store(7), _MODEL)
    arm(label)
    registry.publish(_store(11), _MODEL)  # never returns when armed
    return 0


def victim_serve(workdir: Path, label: str, sink: str) -> int:
    """Serve one tenant; die inside checkpoint/swap/finalize/journal."""
    service, spec = _serve_service(workdir)
    service.registry.publish(_store(7), _MODEL)
    # The process dies holding the handle, as a crashed exporter would.
    handle = _open_target(workdir, sink)
    tenant = _attach(service, spec, handle or workdir / "reports.jsonl")
    service.cycle()
    tenant.runtime.checkpoint()  # a clean durable base to resume from
    if label.startswith("checkpoint."):
        service.cycle()
        arm(label)
        tenant.runtime.checkpoint()  # never returns when armed
    elif label.startswith("swap."):
        service.registry.publish(_store(11), _MODEL)  # v2
        service.swap(_TENANT, 2)
        arm(label)
        service.cycle()  # pump applies the swap -> dies in the journal
    else:  # finalize.emitted, journal.append, journal.rotate
        arm(label)
        # Dies delivering the first report, in the first journal
        # append, or rotating the journal after the next snapshot.
        service.drain()
    return 0


def run_victim(
    scenario: str, workdir: Path, label: str, sink: str = "delivery-log"
) -> int:
    if scenario == "publish":
        return victim_publish(workdir, label)
    if scenario == "serve":
        return victim_serve(workdir, label, sink)
    raise ValueError(f"unknown scenario {scenario!r}")


# -- recovery + invariants (run in the orchestrator process) ------------


def _recover_publish(workdir: Path, result: dict[str, Any]) -> None:
    root = workdir / "registry"
    repaired = run_fsck(root, repair=True)
    result["fsck_findings"] = len(repaired.findings)
    result["fsck_repaired_ok"] = repaired.ok
    rescan = run_fsck(root)
    result["fsck_clean_after_repair"] = rescan.clean
    registry = ModelRegistry(root)
    v1 = registry.resolve(_MODEL, 1)
    result["v1_resolvable"] = v1[0] == 1
    # Whatever the crash left (nothing / rolled forward), republishing
    # the same bytes must converge on exactly version 2.
    version, _digest = registry.publish(_store(11), _MODEL)
    result["republish_version"] = version
    result["ok"] = bool(
        repaired.ok
        and rescan.clean
        and result["v1_resolvable"]
        and version == 2
    )


def _recover_serve(
    workdir: Path, result: dict[str, Any], sink: str
) -> None:
    service, spec = _serve_service(workdir)  # startup fsck repairs here
    fsck = service.startup_fsck
    result["fsck_findings"] = (
        len(fsck.findings) if fsck is not None else 0
    )
    handle = _open_target(workdir, sink)
    try:
        tenant = _attach(
            service, spec, handle or workdir / "reports.jsonl"
        )
        result["resumed"] = tenant.runtime.resumed
        service.drain()
        healthy = tenant.failure is None and tenant.quarantined is None
        quarantined = tenant.quarantined is not None
        service.close()
    finally:
        if handle is not None:
            handle.close()
    rescan = run_fsck(
        workdir / "registry", checkpoint_dir=workdir / "ckpt"
    )
    result["fsck_clean_after_repair"] = rescan.clean
    fids: list[str] = []
    sessions: list[str] = []
    for line in (workdir / "reports.jsonl").read_text(
        encoding="utf-8", errors="replace"
    ).splitlines():
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            continue  # torn trailing line: never delivered
        if entry.get("finalization_id"):
            fids.append(entry["finalization_id"])
            sessions.append(entry.get("session_id"))
    expected = {r.session_id for r in _stream_records()}
    result["reports"] = len(fids)
    result["duplicate_fids"] = len(fids) - len(set(fids))
    result["missing_sessions"] = sorted(expected - set(sessions))
    result["tenant_state"] = (
        "quarantined" if quarantined else
        "healthy" if healthy else "parked"
    )
    result["ok"] = bool(
        rescan.clean
        and result["duplicate_fids"] == 0
        and not result["missing_sessions"]
        and result["tenant_state"] in ("healthy", "quarantined")
    )


# -- the sweep ----------------------------------------------------------


def _spawn_victim(
    scenario: str, workdir: Path, label: str, sink: str
) -> subprocess.CompletedProcess:
    src_root = Path(__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(src_root) + os.pathsep + env.get("PYTHONPATH", "")
    ).rstrip(os.pathsep)
    return subprocess.run(
        [
            sys.executable, "-m", "repro.serve.harness",
            "victim", scenario,
            "--workdir", str(workdir), "--label", label, "--sink", sink,
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def run_one(
    label: str, workdir: Path, sink: str = "delivery-log"
) -> dict[str, Any]:
    """Victim + recovery for one kill point; returns the result row."""
    scenario = scenario_for(label)
    if sink not in SINKS:
        raise ValueError(f"unknown sink variant {sink!r}")
    workdir.mkdir(parents=True, exist_ok=True)
    proc = _spawn_victim(scenario, workdir, label, sink)
    result: dict[str, Any] = {
        "label": label,
        "sink": sink,
        "scenario": scenario,
        "victim_exit": proc.returncode,
        "killed": proc.returncode == KILL_EXIT_CODE,
    }
    if not result["killed"]:
        result["ok"] = False
        result["error"] = (
            f"victim exited {proc.returncode} without reaching the "
            f"kill point"
        )
        tail = proc.stderr.strip().splitlines()[-5:]
        if tail:
            result["victim_stderr_tail"] = tail
        return result
    try:
        if scenario == "publish":
            _recover_publish(workdir, result)
        else:
            _recover_serve(workdir, result, sink)
    except Exception as exc:  # noqa: BLE001 - harness must report, not die
        result["ok"] = False
        result["error"] = f"recovery raised {type(exc).__name__}: {exc}"
    return result


def run_sweep(
    workroot: Path, labels: list[str] | None = None
) -> dict[str, Any]:
    """Run every (or the given) kill point, each label in
    :data:`NO_LOG_LABELS` once per sink variant; returns the JSON
    report."""
    labels = list(labels) if labels else list(KILL_POINTS)
    results = []
    for label in labels:
        work = workroot / label.replace(".", "_")
        results.append(run_one(label, work))
        if label in NO_LOG_LABELS:
            results.append(
                run_one(label, work.with_name(work.name + "-no-log"),
                        sink="no-log")
            )
    return {
        "format": "repro-crash-harness-v1",
        "results": results,
        "passed": sum(1 for r in results if r.get("ok")),
        "failed": sum(1 for r in results if not r.get("ok")),
        "ok": all(r.get("ok") for r in results),
    }


def result_line(row: dict[str, Any]) -> str:
    """One printed line of the sweep report."""
    name = row["label"]
    if row.get("sink") == "no-log":
        name += " [no-log]"
    status = "ok" if row.get("ok") else "FAIL"
    return f"{name:37s} {status}  {row.get('error', '')}".rstrip()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.serve.harness",
        description="kill-point crash-recovery harness",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    victim = sub.add_parser("victim", help="(internal) die at a label")
    victim.add_argument("scenario", choices=("publish", "serve"))
    victim.add_argument("--workdir", required=True)
    victim.add_argument("--label", required=True)
    victim.add_argument("--sink", choices=SINKS, default="delivery-log")
    sweep = sub.add_parser("sweep", help="run every kill point")
    sweep.add_argument("--workdir", required=True,
                       help="scratch directory for per-label state")
    sweep.add_argument("--label", action="append", default=None,
                       help="restrict to this label (repeatable)")
    sweep.add_argument("--json", default=None, metavar="PATH",
                       help="write the JSON report here")
    args = parser.parse_args(argv)
    if args.mode == "victim":
        return run_victim(
            args.scenario, Path(args.workdir), args.label, args.sink
        )
    report = run_sweep(Path(args.workdir), args.label)
    for row in report["results"]:
        print(result_line(row))
    print(
        f"crash-recovery sweep: {report['passed']} passed, "
        f"{report['failed']} failed"
    )
    if args.json:
        Path(args.json).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n"
        )
    return 0 if report["ok"] else 1


if __name__ == "__main__":  # pragma: no cover - exercised in subprocess
    sys.exit(main())
