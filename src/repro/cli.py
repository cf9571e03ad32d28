"""Command-line interface: ``intellog train|detect|inspect|lint-*``.

Mirrors how the original tool is operated: train a model from normal-run
log files, persist it as JSON, then check new log files against it.  The
``lint-model`` / ``lint-code`` subcommands run the static analysis layer
(``repro.analysis``) over a saved model and over the codebase.

    intellog train  --formatter spark --model model.json train1.log ...
    intellog detect --model model.json suspicious.log
    intellog watch  --model model.json --follow app.log [--once]
    intellog publish --model model.json --name prod --registry DIR
    intellog serve  --tenants tenants.toml --registry DIR [--drain]
    intellog fsck   --registry DIR [--repair] [--json]
    intellog inspect --model model.json [--subroutines]
    intellog stats  metrics.json
    intellog lint-model --model model.json [--strict]
    intellog lint-code [paths...]
    intellog lint-concurrency [paths...] [--json]

``watch`` is the online mode (``repro.stream``): it tails a growing log
file, assembles sessions incrementally and emits one report per closed
session while the job is still running.

``train``, ``detect`` and ``watch`` accept ``--metrics-out PATH`` to
write a canonical JSON snapshot of the run's metrics registry
(``repro.obs``) on exit; ``repro stats PATH`` renders such a snapshot.
``watch --metrics-port N`` additionally serves live Prometheus text
exposition at ``http://127.0.0.1:N/metrics`` while tailing.

(The console script is installed under both names, ``intellog`` and
``repro``.)
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .core.intellog import IntelLog
from .core.config import IntelLogConfig
from .graph.render import render_summary, render_tree, to_json
from .query.store import ModelStore


def _read_lines(paths: list[str]) -> list[str]:
    lines: list[str] = []
    for path in paths:
        lines.extend(Path(path).read_text().splitlines())
    return lines


def _metrics_registry(args: argparse.Namespace):
    """A fresh registry when the command asked for metrics, else None."""
    if getattr(args, "metrics_out", None) or getattr(
        args, "metrics_port", None
    ) is not None:
        from .obs import MetricsRegistry

        return MetricsRegistry()
    return None


def _write_metrics(registry, args: argparse.Namespace) -> None:
    """Write the ``--metrics-out`` snapshot (no-op when not requested)."""
    if registry is None or not getattr(args, "metrics_out", None):
        return
    from .obs import write_snapshot

    write_snapshot(registry, args.metrics_out)
    print(f"METRICS written to {args.metrics_out}", file=sys.stderr)


def cmd_train(args: argparse.Namespace) -> int:
    if args.workers < 1:
        raise SystemExit(
            f"error: --workers must be a positive integer, "
            f"got {args.workers}"
        )
    config = IntelLogConfig(
        spell_tau=args.tau, formatter=args.formatter
    )
    intellog = IntelLog(config)
    registry = _metrics_registry(args)
    summary = intellog.train_lines(
        _read_lines(args.logs), workers=args.workers, registry=registry,
    )
    print(
        f"trained on {summary.sessions} sessions / {summary.messages} "
        f"messages -> {summary.log_keys} log keys, "
        f"{summary.entity_groups} entity groups "
        f"({summary.critical_groups} critical)"
    )
    report = intellog.last_parallel_report
    print(
        f"parallel: {report.workers} workers "
        f"(pool {report.pool_workers}), {report.batches} batches / "
        f"{report.shards} shards, {report.distinct_forms} distinct "
        f"forms, extraction cache {report.cache_hits} hits / "
        f"{report.cache_misses} misses, "
        f"{report.payload_bytes_total} payload bytes"
    )
    ModelStore.from_intellog(intellog).save(args.model)
    print(f"model written to {args.model}")
    _write_metrics(registry, args)
    return 0


def _load_store(path: str) -> ModelStore:
    """Read a saved model, exiting with a clean error when unreadable."""
    try:
        return ModelStore.load_path(path)
    except OSError as exc:
        raise SystemExit(f"error: cannot read model {path!r}: {exc}")
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise SystemExit(
            f"error: {path!r} is not a saved IntelLog model: {exc}"
        )


def _load(args: argparse.Namespace) -> IntelLog:
    """Rebuild an IntelLog from a saved model with full fidelity.

    The :class:`~repro.query.store.ModelStore` payload carries the log
    keys *and* the complete HW-graph serialization (group statistics,
    subroutines, relation matrix), so the restored instance detects
    exactly like the one that was trained.
    """
    return _load_store(args.model).to_intellog()


def cmd_detect(args: argparse.Namespace) -> int:
    intellog = _load(args)
    registry = _metrics_registry(args)
    if registry is not None:
        intellog.detector().instrument(registry)
    workers = max(1, int(getattr(args, "workers", 1) or 1))
    if workers > 1:
        # Partitioned detect: sessions are split into contiguous chunks
        # and detected by worker processes that each load the model
        # from disk — reports are identical to the single-process path,
        # in the same order.
        from .detection.partition import detect_job_partitioned
        from .parsing.records import split_sessions

        records = intellog._format(_read_lines(args.logs), None)
        report = detect_job_partitioned(
            args.model, list(split_sessions(records)), workers,
            job_id="cli",
        )
    else:
        report = intellog.detect_lines(
            _read_lines(args.logs), job_id="cli"
        )
    print(json.dumps(report.to_dict(), indent=2))
    _write_metrics(registry, args)
    return 1 if report.anomalous else 0


def cmd_inspect(args: argparse.Namespace) -> int:
    intellog = _load(args)
    graph = intellog.hw_graph()
    if args.json:
        print(to_json(graph))
    else:
        print(render_summary(graph))
        print(render_tree(graph, show_subroutines=args.subroutines))
    return 0


def cmd_watch(args: argparse.Namespace) -> int:
    """Online detection: tail a log file against a saved model.

    Streams one JSON report line per closed session to stdout (or
    ``--jsonl``), live unexpected-message alerts, health transitions
    and periodic runtime stats to stderr.  A checkpoint next to the
    model (disable with ``--no-checkpoint``) lets a restarted watch
    resume mid-job without re-emitting reports; corrupt checkpoints
    fall back to their ``.bak``, then to a cold start with a warning.
    Malformed input lines go to the ``--quarantine`` dead-letter file
    (or are counted in memory) instead of being dropped.  ``--once``
    drains the file and exits (exit 1 when any session was anomalous,
    like ``detect``); exit 2 means the circuit breaker opened
    (persistent IO failure) and the watch stopped at its checkpoint.
    """
    from .core.config import ResilienceConfig
    from .core.errors import CheckpointCorruptError
    from .stream import (
        FileFollowSource,
        JsonLinesQuarantine,
        JsonLinesSink,
        StreamRuntime,
        TrackerConfig,
        default_checkpoint_path,
    )
    from .stream.tracker import DEFAULT_END_MARKERS

    intellog = _load(args)
    formatter = args.formatter or intellog.config.formatter
    quarantine = (
        JsonLinesQuarantine(args.quarantine) if args.quarantine else None
    )
    source = FileFollowSource(
        args.follow, formatter=formatter, quarantine=quarantine
    )
    sink = JsonLinesSink(args.jsonl if args.jsonl else sys.stdout)
    checkpoint = None
    if not args.no_checkpoint:
        checkpoint = args.checkpoint or default_checkpoint_path(args.model)
    config = TrackerConfig(
        idle_timeout=args.idle_timeout,
        max_open_sessions=args.max_sessions,
        end_markers=tuple(args.end_marker or DEFAULT_END_MARKERS),
    )
    resilience = ResilienceConfig(
        retry_attempts=args.retry_attempts,
        failed_after=args.fail_after,
    )

    def on_alert(alert) -> None:
        print(f"ALERT {json.dumps(alert.to_dict())}", file=sys.stderr)

    def on_stats(stats) -> None:
        print(f"STATS {json.dumps(stats.to_dict())}", file=sys.stderr)

    def on_health(old: str, new: str, why: str) -> None:
        print(f"HEALTH {old} -> {new} ({why})", file=sys.stderr)

    try:
        runtime = StreamRuntime(
            intellog,
            source,
            sink=sink,
            tracker=config,
            checkpoint_path=checkpoint,
            on_alert=on_alert,
            stats_callback=on_stats if args.stats_every else None,
            stats_every=args.stats_every or 1000,
            poll_interval=args.poll_interval,
            resilience=resilience,
            on_health=on_health,
        )
    except CheckpointCorruptError as exc:
        # recover() normally swallows corruption into a cold start;
        # this is the explicit-path escape hatch (e.g. unreadable dir).
        raise SystemExit(f"error: checkpoint unusable: {exc}")
    for note in runtime.resume_notes:
        print(f"WARNING {note}", file=sys.stderr)
    if runtime.resumed:
        print(
            f"resumed from {runtime.resume_origin} {checkpoint}",
            file=sys.stderr,
        )
    server = None
    if args.metrics_port is not None:
        from .obs import start_metrics_server

        server = start_metrics_server(
            runtime.registry, args.metrics_port
        )
        print(f"METRICS serving {server.url}", file=sys.stderr)
    try:
        try:
            stats = runtime.run(once=args.once)
        except KeyboardInterrupt:  # graceful stop; resume from checkpoint
            print("interrupted — state saved at last checkpoint",
                  file=sys.stderr)
            return 130
        if stats.health == "failed":
            print(
                f"error: stream failed: {stats.failure} — stopped at "
                f"last checkpoint; fix the IO problem and rerun to "
                f"resume",
                file=sys.stderr,
            )
            return 2
        if args.once:
            return 1 if stats.anomalous_sessions else 0
        return 0
    finally:
        if args.metrics_out:
            from .obs import write_snapshot

            write_snapshot(runtime.registry, args.metrics_out)
            print(
                f"METRICS written to {args.metrics_out}", file=sys.stderr
            )
        if server is not None:
            server.close()


def cmd_publish(args: argparse.Namespace) -> int:
    """Publish a trained model file into a serving registry."""
    from .core.config import DurabilityConfig
    from .serve import ModelRegistry, RegistryError

    store = _load_store(args.model)
    durability = (
        DurabilityConfig.durable() if args.fsync else DurabilityConfig()
    )
    try:
        registry = ModelRegistry(args.registry, durability=durability)
        version, digest = registry.publish(store, args.name)
    except RegistryError as exc:
        raise SystemExit(f"error: {exc}")
    print(f"published {args.name}@{version} ({digest})")
    return 0


def cmd_fsck(args: argparse.Namespace) -> int:
    """Check (and optionally repair) a registry's crash consistency.

    Scans for the debris a crash mid-publish or mid-swap can leave —
    orphaned artifacts, dangling index versions, truncated intent
    journals, stray temp files — and with ``--repair`` rolls each one
    forward or back.  Exit 0 when consistent (or fully repaired),
    1 when findings remain.
    """
    from .serve import run_fsck

    try:
        report = run_fsck(
            args.registry,
            checkpoint_dir=args.checkpoint_dir,
            repair=args.repair,
        )
    except OSError as exc:
        raise SystemExit(f"error: cannot scan {args.registry!r}: {exc}")
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return 0 if report.ok else 1


def cmd_serve(args: argparse.Namespace) -> int:
    """Multi-tenant serving: many log streams, shared model versions.

    Attaches every tenant in the ``--tenants`` file (TOML or JSON),
    then serves until interrupted — re-reading the file on change to
    attach/detach/swap tenants at runtime — or, with ``--drain``,
    processes everything currently available and exits.  Exit 1 when
    draining found anomalous sessions, 2 when the whole fleet is dead
    (every tenant quarantined or failed — mirroring ``watch``'s exit 2
    on an open breaker), 3 when only some tenants are parked at
    shutdown.
    """
    from .core.config import (
        DurabilityConfig,
        ServeConfig,
        SupervisorConfig,
    )
    from .serve import (
        DetectionService,
        ModelRegistry,
        RegistryError,
        apply_tenants,
        apply_tenants_file,
        load_tenants_file,
    )

    try:
        specs = load_tenants_file(args.tenants)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"error: tenants file unusable: {exc}")
    if not specs:
        raise SystemExit("error: tenants file declares no tenants")
    config = ServeConfig(
        global_session_budget=args.budget,
        quantum=args.quantum,
        queue_capacity=args.queue_capacity,
        poll_interval=args.poll_interval,
    )
    durability = (
        DurabilityConfig.durable() if args.fsync else DurabilityConfig()
    )
    supervisor_config = SupervisorConfig(
        restart_budget=args.restart_budget,
        restart_window=args.restart_window,
    )
    try:
        registry = ModelRegistry(args.registry, durability=durability)
    except RegistryError as exc:
        raise SystemExit(f"error: registry unusable: {exc}")
    from .obs import MetricsRegistry

    metrics = MetricsRegistry()
    service = DetectionService(
        registry,
        config,
        checkpoint_dir=args.checkpoint_dir,
        metrics=metrics,
        supervisor_config=supervisor_config,
        durability=durability,
    )
    if service.startup_fsck is not None and not service.startup_fsck.clean:
        print(
            f"FSCK repaired {len(service.startup_fsck.findings)} "
            f"finding(s) at startup",
            file=sys.stderr,
        )
    summary = apply_tenants(service, specs)
    attached = summary["attached"]
    if not attached:
        raise SystemExit("error: no tenant could be attached")
    print(
        f"serving {len(attached)} tenant(s): {', '.join(attached)}",
        file=sys.stderr,
    )
    server = None
    if args.metrics_port is not None:
        from .obs import MetricsServer

        server = MetricsServer(
            metrics,
            args.metrics_port,
            json_routes={"/tenants": service.tenants_status},
        )
        print(f"METRICS serving {server.url}", file=sys.stderr)
    try:
        try:
            if args.drain:
                status = service.drain()
            else:
                status = service.run(
                    duration=args.duration,
                    tenants_file=args.tenants,
                    apply_tenants_file=apply_tenants_file,
                )
        except KeyboardInterrupt:
            print(
                "interrupted — tenant state saved at last checkpoints",
                file=sys.stderr,
            )
            return 130
        if args.status_out:
            status = service.tenants_status()
            Path(args.status_out).write_text(
                json.dumps(status, indent=2, sort_keys=True) + "\n"
            )
            print(
                f"STATUS written to {args.status_out}", file=sys.stderr
            )
        parked = [
            t["tenant"] for t in status["tenants"]
            if t["failure"] or t["health"] in ("failed", "quarantined")
        ]
        for tenant in parked:
            print(f"error: tenant {tenant} is parked", file=sys.stderr)
        anomalous = sum(
            t["anomalous_sessions"] for t in status["tenants"]
        )
        if parked and len(parked) == len(status["tenants"]):
            print(
                f"FLEET dead: all {len(parked)} tenant(s) quarantined "
                f"or failed",
                file=sys.stderr,
            )
            return 2
        if parked:
            return 3
        if args.drain:
            return 1 if anomalous else 0
        return 0
    finally:
        service.close(flush=args.drain)
        if args.metrics_out:
            from .obs import write_snapshot

            write_snapshot(metrics, args.metrics_out)
            print(
                f"METRICS written to {args.metrics_out}", file=sys.stderr
            )
        if server is not None:
            server.close()


def cmd_stats(args: argparse.Namespace) -> int:
    """Render a saved ``--metrics-out`` snapshot as a readable table."""
    from .obs import render_snapshot

    try:
        snapshot = json.loads(Path(args.snapshot).read_text())
    except OSError as exc:
        raise SystemExit(
            f"error: cannot read snapshot {args.snapshot!r}: {exc}"
        )
    except json.JSONDecodeError as exc:
        raise SystemExit(
            f"error: {args.snapshot!r} is not JSON: {exc}"
        )
    try:
        print(render_snapshot(snapshot))
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    return 0


def cmd_lint_model(args: argparse.Namespace) -> int:
    """Static validation of a saved model's HW-graph artifacts.

    Exit status: 0 when clean (or warnings only), 1 on error-severity
    diagnostics — or on any diagnostic with ``--strict``.
    """
    store = _load_store(args.model)
    report = store.validate()
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        if report:
            print(report.render())
        print(f"{args.model}: {report.summary()}")
    failed = bool(report) if args.strict else report.has_errors
    return 1 if failed else 0


def cmd_lint_code(args: argparse.Namespace) -> int:
    """AST lint (determinism + hygiene rules) over source paths."""
    from .analysis.astlint import lint_paths

    try:
        report = lint_paths(args.paths)
    except FileNotFoundError as exc:
        raise SystemExit(f"error: {exc}")
    if report:
        print(report.render())
    print(report.summary())
    return 1 if report else 0


def cmd_lint_concurrency(args: argparse.Namespace) -> int:
    """Whole-program concurrency analysis (RACE001-RACE005).

    Exit status: 0 when clean, 1 on any finding, 2 on bad paths.
    """
    from .analysis.concurrency import main as concurrency_main

    argv = list(args.paths)
    if args.json:
        argv.append("--json")
    if args.dump_model:
        argv.append("--dump-model")
    return concurrency_main(argv)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="intellog",
        description="Semantic-aware workflow construction and anomaly "
                    "detection for distributed data analytics systems "
                    "(HPDC'19 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="learn a model from normal logs")
    train.add_argument("logs", nargs="+", help="log files")
    train.add_argument("--model", default="intellog-model.json")
    train.add_argument("--formatter", default="generic",
                       help="hadoop | spark | tez | yarn | generic")
    train.add_argument("--tau", type=float, default=1.7,
                       help="Spell matching threshold t (paper: 1.7)")
    train.add_argument("--workers", type=int, default=1, metavar="N",
                       help="worker processes for the sharded training "
                            "pipeline (default 1: inline, no subprocesses; "
                            "the model is byte-identical for every N)")
    train.add_argument("--metrics-out", default=None, metavar="PATH",
                       help="write a JSON metrics snapshot on exit")
    train.set_defaults(func=cmd_train)

    detect = sub.add_parser("detect", help="check logs against a model")
    detect.add_argument("logs", nargs="+")
    detect.add_argument("--model", default="intellog-model.json")
    detect.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="write a JSON metrics snapshot on exit")
    detect.add_argument("--workers", type=int, default=1, metavar="N",
                        help="detect session chunks across N processes "
                             "(each loads its own model copy; metrics "
                             "then cover only the parent process)")
    detect.set_defaults(func=cmd_detect)

    inspect = sub.add_parser("inspect", help="print the HW-graph")
    inspect.add_argument("--model", default="intellog-model.json")
    inspect.add_argument("--json", action="store_true")
    inspect.add_argument("--subroutines", action="store_true")
    inspect.set_defaults(func=cmd_inspect)

    watch = sub.add_parser(
        "watch",
        help="stream a growing log file through live detection",
    )
    watch.add_argument("--model", default="intellog-model.json")
    watch.add_argument("--follow", required=True, metavar="FILE",
                       help="log file to tail")
    watch.add_argument("--formatter", default=None,
                       help="override the model's log formatter")
    watch.add_argument("--once", action="store_true",
                       help="drain the file and exit instead of tailing")
    watch.add_argument("--idle-timeout", type=float, default=300.0,
                       help="event-time seconds before an idle session "
                            "closes (default 300)")
    watch.add_argument("--max-sessions", type=int, default=10_000,
                       help="LRU cap on concurrently tracked sessions")
    watch.add_argument("--end-marker", action="append", metavar="REGEX",
                       help="session-end message pattern (repeatable; "
                            "replaces the built-in markers)")
    watch.add_argument("--checkpoint", default=None, metavar="PATH",
                       help="checkpoint file (default: next to the model)")
    watch.add_argument("--no-checkpoint", action="store_true",
                       help="run without checkpoint/resume")
    watch.add_argument("--jsonl", default=None, metavar="OUT",
                       help="append reports to this JSON-lines file "
                            "instead of stdout")
    watch.add_argument("--stats-every", type=int, default=1000,
                       help="emit runtime stats every N records "
                            "(0 disables)")
    watch.add_argument("--poll-interval", type=float, default=0.5,
                       help="seconds between polls of a quiet file")
    watch.add_argument("--quarantine", default=None, metavar="PATH",
                       help="append malformed input lines to this "
                            "JSON-lines dead-letter file")
    watch.add_argument("--retry-attempts", type=int, default=4,
                       help="IO retries per operation before giving up "
                            "on the cycle (default 4)")
    watch.add_argument("--fail-after", type=int, default=12,
                       help="consecutive IO failures before the watch "
                            "stops at its checkpoint (default 12)")
    watch.add_argument("--metrics-out", default=None, metavar="PATH",
                       help="write a JSON metrics snapshot on exit")
    watch.add_argument("--metrics-port", type=int, default=None,
                       metavar="PORT",
                       help="serve live Prometheus text exposition at "
                            "http://127.0.0.1:PORT/metrics (0 picks a "
                            "free port, printed to stderr)")
    watch.set_defaults(func=cmd_watch)

    publish = sub.add_parser(
        "publish",
        help="publish a trained model into a serving registry",
    )
    publish.add_argument("--model", default="intellog-model.json",
                         help="trained model file to publish")
    publish.add_argument("--name", required=True,
                         help="registry model name (versions are "
                              "sequential per name)")
    publish.add_argument("--registry", default="serve-registry",
                         metavar="DIR",
                         help="registry directory (default: "
                              "serve-registry)")
    publish.add_argument("--fsync", action="store_true",
                         help="fsync artifact, index and journal writes "
                              "(survives power loss, not just crashes)")
    publish.set_defaults(func=cmd_publish)

    fsck = sub.add_parser(
        "fsck",
        help="check/repair a registry after a crash",
    )
    fsck.add_argument("--registry", default="serve-registry",
                      metavar="DIR", help="registry directory to scan")
    fsck.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                      help="also scan per-tenant checkpoints for stray "
                           "temp files and swap journals")
    fsck.add_argument("--repair", action="store_true",
                      help="roll findings forward/back instead of just "
                           "reporting them")
    fsck.add_argument("--json", action="store_true",
                      help="machine-readable report")
    fsck.set_defaults(func=cmd_fsck)

    serve = sub.add_parser(
        "serve",
        help="serve many tenant streams over shared model versions",
    )
    serve.add_argument("--tenants", required=True, metavar="FILE",
                       help="tenants file (TOML or JSON); re-read on "
                            "change while serving")
    serve.add_argument("--registry", default="serve-registry",
                       metavar="DIR", help="model registry directory")
    serve.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                       help="directory for per-tenant checkpoints "
                            "(default: no checkpoints)")
    serve.add_argument("--drain", action="store_true",
                       help="process everything available, flush every "
                            "session, and exit")
    serve.add_argument("--duration", type=float, default=None,
                       metavar="SECONDS", help="stop after this long")
    serve.add_argument("--budget", type=int, default=100_000,
                       help="global cap on open sessions across all "
                            "tenants (default 100000)")
    serve.add_argument("--quantum", type=int, default=512,
                       help="max records per tenant per scheduling "
                            "turn (default 512)")
    serve.add_argument("--queue-capacity", type=int, default=8192,
                       help="per-tenant ingest queue bound; overflow "
                            "sheds oldest (default 8192)")
    serve.add_argument("--poll-interval", type=float, default=0.2,
                       help="longest idle wait between sweeps in "
                            "seconds; a tenant with a backlog ends the "
                            "wait sooner (default 0.2)")
    serve.add_argument("--fsync", action="store_true",
                       help="fsync checkpoints, registry and journal "
                            "writes (power-loss durability)")
    serve.add_argument("--restart-budget", type=int, default=5,
                       help="supervised restarts allowed per tenant "
                            "inside the rolling window before "
                            "quarantine (default 5)")
    serve.add_argument("--restart-window", type=float, default=300.0,
                       help="rolling window in seconds for the restart "
                            "budget (default 300)")
    serve.add_argument("--status-out", default=None, metavar="PATH",
                       help="write the final /tenants JSON document "
                            "here on exit")
    serve.add_argument("--metrics-out", default=None, metavar="PATH",
                       help="write a JSON metrics snapshot on exit")
    serve.add_argument("--metrics-port", type=int, default=None,
                       metavar="PORT",
                       help="serve /metrics and /tenants at "
                            "http://127.0.0.1:PORT (0 picks a free "
                            "port, printed to stderr)")
    serve.set_defaults(func=cmd_serve)

    stats = sub.add_parser(
        "stats",
        help="render a --metrics-out JSON snapshot as a readable table",
    )
    stats.add_argument("snapshot", help="metrics snapshot file")
    stats.set_defaults(func=cmd_stats)

    lint_model = sub.add_parser(
        "lint-model",
        help="statically validate a saved model's HW-graph artifacts",
    )
    lint_model.add_argument("--model", default="intellog-model.json")
    lint_model.add_argument("--json", action="store_true",
                            help="machine-readable diagnostics")
    lint_model.add_argument("--strict", action="store_true",
                            help="fail on warnings too, not just errors")
    lint_model.set_defaults(func=cmd_lint_model)

    lint_code = sub.add_parser(
        "lint-code",
        help="AST lint: determinism contract + Python hygiene",
    )
    lint_code.add_argument("paths", nargs="*", default=["src"],
                           help="files or directories (default: src)")
    lint_code.set_defaults(func=cmd_lint_code)

    lint_conc = sub.add_parser(
        "lint-concurrency",
        help="whole-program race/lock-order/fork-safety analysis",
    )
    lint_conc.add_argument("paths", nargs="*", default=[],
                           help="files or directories "
                                "(default: src/repro)")
    lint_conc.add_argument("--json", action="store_true",
                           help="machine-readable diagnostics")
    lint_conc.add_argument("--dump-model", action="store_true",
                           help="print the per-class lock/sharing model")
    lint_conc.set_defaults(func=cmd_lint_concurrency)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
