"""The multi-tenant scheduler: many streams, one process, one model.

:class:`DetectionService` multiplexes any number of tenants
(:class:`~repro.serve.tenant.Tenant`) over a shared
:class:`~repro.serve.registry.ModelRegistry`.  Scheduling is
sweep-based: each sweep pumps every healthy tenant that has work for
one bounded quantum (``ServeConfig.quantum`` records), in sorted
tenant-id order on the calling thread, then enforces the global
session budget (:func:`~repro.serve.budget.plan_evictions`).  A tenant
has work when its source's ``backlog()`` is non-zero or unknowable
(``None``), when that probe raises ``OSError`` (the pump's
retry/breaker path must see the fault), when its runtime holds reports
to redeliver or a failed poll to retry, or when a model swap is parked
on it; a tenant without work is still pumped once per
``ServeConfig.poll_interval``.  One thread pumps every tenant, which is
what lets tenant internals stay lock-free (pumps are CPU-bound Python,
so a thread pool bought no throughput).

Between sweeps the loop waits for work rather than for a fixed pause:
after an empty sweep it probes every healthy tenant's ``backlog()``
every millisecond (:data:`_WAIT_SLICE`) and sweeps again as soon as one
reports new records (or a probe raises ``OSError``),
:meth:`DetectionService.stop` is called, or ``poll_interval`` — the
longest idle wait — has passed.  Sources whose backlog is unknowable,
tenants-file reloads and supervised restarts are paced by that ceiling.

Health isolation is now *self-healing*: a pump that raises (or a
breaker that opens) marks that tenant failed — with the exception type
and a traceback tail, not just ``str(exc)`` — and hands it to the
:class:`~repro.serve.supervisor.TenantSupervisor`, which schedules a
restart with seeded-jitter exponential backoff.  Restarts resume from
the tenant's durable checkpoint (exactly-once reports hold across the
replay); a tenant that exhausts its restart budget inside the rolling
window is **quarantined** permanently with the reason and traceback on
``/tenants``.  The rest of the fleet keeps streaming throughout.  At
startup the service runs :class:`~repro.serve.fsck.RegistryFsck` in
repair mode over the registry (and checkpoint directory), so a crashed
publish or swap is rolled forward/back before any tenant attaches.

Fleet state is exposed as labeled ``serve_*`` metrics on the fleet
registry (``/metrics``) and as a JSON document
(:meth:`DetectionService.tenants_status`, the ``/tenants`` route).  The
per-tenant progress gauges (records, reports, open sessions, queue
depth, shed records) and the fleet and model-registry gauges are
computed by a collector when the registry is read, so a sweep pays
nothing for them.  The failed and quarantined gauges also move on the
sweep that caused them, and the swap and restart counters count each
swap and restart as it is applied.
"""

from __future__ import annotations

import logging
import threading
import time
import traceback as _traceback
from pathlib import Path
from typing import Any, Callable

from ..core.config import (
    DurabilityConfig,
    ResilienceConfig,
    ServeConfig,
    SupervisorConfig,
)
from ..core.fsio import FileSystem
from ..obs import MetricsRegistry
from ..stream.sink import JsonLinesSink, ListSink, ReportSink
from ..stream.source import FileFollowSource, LogSource
from .budget import plan_evictions
from .fsck import FsckReport, RegistryFsck
from .registry import ModelRegistry
from .supervisor import BACKOFF, QUARANTINED, TenantSupervisor
from .tenant import Tenant, TenantSpec

__all__ = ["DetectionService"]

log = logging.getLogger(__name__)

#: Longest single sleep of the idle wait: how late the loop notices a
#: record that became visible, a ``stop()`` or a newly attached tenant.
_WAIT_SLICE = 0.001


class DetectionService:
    """Runs many tenant streams against shared, versioned models."""

    def __init__(
        self,
        registry: ModelRegistry,
        config: ServeConfig | None = None,
        checkpoint_dir: str | Path | None = None,
        metrics: MetricsRegistry | None = None,
        resilience: ResilienceConfig | None = None,
        supervisor: TenantSupervisor | None = None,
        supervisor_config: SupervisorConfig | None = None,
        durability: DurabilityConfig | None = None,
        fs: FileSystem | None = None,
        fsck_on_start: bool = True,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.registry = registry
        self.config = config or ServeConfig()
        self.config.validate()
        self.checkpoint_dir = (
            Path(checkpoint_dir) if checkpoint_dir is not None else None
        )
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.resilience = resilience
        self.durability = durability or DurabilityConfig()
        self._fs = fs
        self.supervisor = supervisor or TenantSupervisor(
            supervisor_config, clock=clock
        )
        self._clock = clock
        self._sleep = sleep
        # _lock guards the tenant map and the two sorted views of it
        # below; pumps never run under it, so a slow tenant cannot block
        # attach/detach/status calls.
        self._lock = threading.Lock()
        self._tenants: dict[str, Tenant] = {}
        # Rebuilt by _refresh() on attach, detach, failure, restart and
        # quarantine, and read without the lock: every attached tenant,
        # and the healthy ones that sweeps pump and the idle wait probes.
        self._fleet: tuple[Tenant, ...] = ()
        self._ready: tuple[Tenant, ...] = ()
        self._stop = threading.Event()
        # Serializes collector runs; close() clears _collecting so the
        # gauges keep their end-of-run values once the fleet is gone.
        self._collect_lock = threading.Lock()
        self._collecting = True
        self._init_metrics()
        self.budget_evictions = 0
        self.fleet_dead = False
        # Repair any half-finished publish/swap/checkpoint *before* the
        # first tenant attaches, so leases and resumes only ever see a
        # consistent registry.
        self.startup_fsck: FsckReport | None = None
        if fsck_on_start:
            self.startup_fsck = RegistryFsck(
                registry.root,
                checkpoint_dir=self.checkpoint_dir,
                fs=fs,
            ).repair()
            if not self.startup_fsck.clean:
                registry.reload_index()
                log.warning(
                    "startup fsck repaired %d finding(s) in %s",
                    len(self.startup_fsck.findings),
                    registry.root,
                )

    def _init_metrics(self) -> None:
        reg = self.metrics
        self._g_active = reg.gauge(
            "serve_active_tenants", "Tenants currently attached."
        )
        self._g_failed = reg.gauge(
            "serve_failed_tenants",
            "Tenants parked after a pump failure or open breaker.",
        )
        self._g_fleet_open = reg.gauge(
            "serve_open_sessions",
            "Open sessions summed over every tenant.",
        )
        self._g_budget = reg.gauge(
            "serve_session_budget", "Configured global session budget."
        )
        self._g_budget.set(self.config.global_session_budget)
        self._c_budget_evictions = reg.counter(
            "serve_budget_evictions_total",
            "Sessions force-closed by the global budget, by tenant.",
        )
        self._c_swaps = reg.counter(
            "serve_model_swaps_total", "Model swaps applied, by tenant."
        )
        self._c_restarts = reg.counter(
            "serve_restarts_total",
            "Supervised tenant restarts performed, by tenant.",
        )
        self._g_quarantined = reg.gauge(
            "serve_quarantined_tenants",
            "Tenants permanently parked after exhausting their "
            "restart budget.",
        )
        self._g_t_records = reg.gauge(
            "serve_tenant_records", "Records consumed, by tenant."
        )
        self._g_t_reports = reg.gauge(
            "serve_tenant_reports", "Reports finalized, by tenant."
        )
        self._g_t_open = reg.gauge(
            "serve_tenant_open_sessions", "Open sessions, by tenant."
        )
        self._g_t_queue = reg.gauge(
            "serve_tenant_queue_depth", "Queued records, by tenant."
        )
        self._g_t_shed = reg.gauge(
            "serve_tenant_shed_records",
            "Oldest-first records shed by the bounded queue, by tenant.",
        )
        self._tenant_gauges = (
            self._g_t_records, self._g_t_reports, self._g_t_open,
            self._g_t_queue, self._g_t_shed,
        )
        self._g_reg_live = reg.gauge(
            "serve_registry_live_models",
            "Distinct model digests currently leased.",
        )
        self._g_reg_warm = reg.gauge(
            "serve_registry_warm_models",
            "Pre-deserialized models parked in the warm cache.",
        )
        self._g_reg_cold = reg.gauge(
            "serve_registry_cold_loads",
            "Artifact deserializations performed.",
        )
        self._g_reg_warm_hits = reg.gauge(
            "serve_registry_warm_hits",
            "Attaches served from the warm cache.",
        )
        reg.add_collector(self._collect)

    # -- control plane -----------------------------------------------------

    def attach(
        self,
        spec: TenantSpec,
        source: LogSource | None = None,
        sink: ReportSink | None = None,
    ) -> Tenant:
        """Attach one tenant; leases its model from the registry.

        ``source``/``sink`` override the spec (tests and embedders pass
        them directly; the tenants-file path builds a
        :class:`~repro.stream.FileFollowSource` /
        :class:`~repro.stream.JsonLinesSink` pair).
        """
        with self._lock:
            if spec.tenant_id in self._tenants:
                raise ValueError(
                    f"tenant {spec.tenant_id!r} already attached"
                )
        if source is None:
            if spec.log_path is None:
                raise ValueError(
                    f"tenant {spec.tenant_id!r} has no log path and no "
                    f"explicit source"
                )
            source = FileFollowSource(
                spec.log_path, formatter=spec.formatter
            )
        if sink is None:
            sink = (
                JsonLinesSink(spec.reports_path)
                if spec.reports_path is not None else ListSink()
            )
        lease = self.registry.acquire(spec.model, spec.version)
        tenant = Tenant(
            spec,
            lease,
            source=source,
            sink=sink,
            checkpoint_dir=self.checkpoint_dir,
            queue_capacity=self.config.queue_capacity,
            ingest_batch=self.config.ingest_batch,
            resilience=self.resilience,
            durability=self.durability,
            fs=self._fs,
            swap_counter=self._c_swaps.labels(tenant=spec.tenant_id),
        )
        with self._lock:
            if spec.tenant_id in self._tenants:
                # Lost an attach race; give the lease back.
                tenant.close()
                raise ValueError(
                    f"tenant {spec.tenant_id!r} already attached"
                )
            self._tenants[spec.tenant_id] = tenant
        self._refresh()
        # A fresh attach is an operator action: start with a clean
        # supervision slate (re-attaching is how a quarantine is lifted).
        self.supervisor.forget(spec.tenant_id)
        self.fleet_dead = False
        log.info(
            "attached tenant %s on %s", spec.tenant_id, lease.ref
        )
        return tenant

    def detach(self, tenant_id: str, flush: bool = True) -> None:
        """Detach a tenant; ``flush`` finalizes its open sessions."""
        with self._lock:
            tenant = self._tenants.pop(tenant_id, None)
        if tenant is None:
            raise KeyError(f"tenant {tenant_id!r} is not attached")
        self._refresh()
        with self._collect_lock:
            # The collector no longer sees the tenant; drop its gauge
            # series too (the swap counter stays: its count survives a
            # re-attach).  After close() the gauges keep the fleet as
            # the run left it.
            if self._collecting:
                for gauge in self._tenant_gauges:
                    gauge.remove(tenant=tenant_id)
        if flush and tenant.failure is None:
            tenant.finish()
        else:
            # Not flushing: leave open sessions in the checkpoint so a
            # future attach resumes them instead of losing them.
            tenant.runtime.checkpoint()
        tenant.close()
        self.supervisor.forget(tenant_id)
        log.info("detached tenant %s", tenant_id)

    def swap(
        self, tenant_id: str, version: int | None = None
    ) -> tuple[int, str]:
        """Atomically move one tenant to another model version.

        The new lease is acquired *first* (so a missing version fails
        before anything changes), then parked on the tenant; the pump
        installs it between quanta.  Other tenants keep their leases —
        and with them, the old in-memory model.
        """
        tenant = self._get(tenant_id)
        lease = self.registry.acquire(tenant.spec.model, version)
        tenant.request_swap(lease)
        return lease.version, lease.digest

    def _get(self, tenant_id: str) -> Tenant:
        with self._lock:
            tenant = self._tenants.get(tenant_id)
        if tenant is None:
            raise KeyError(f"tenant {tenant_id!r} is not attached")
        return tenant

    def tenant(self, tenant_id: str) -> Tenant:
        return self._get(tenant_id)

    @property
    def tenant_ids(self) -> list[str]:
        with self._lock:
            return sorted(self._tenants)

    # -- scheduling --------------------------------------------------------

    def _refresh(self) -> None:
        """Rebuild :attr:`_fleet` and :attr:`_ready` from the tenant map.

        Healthy means not failed, parked or quarantined.  Run under the
        lock so that concurrent rebuilds cannot publish a stale view.
        """
        with self._lock:
            fleet = tuple(
                self._tenants[tid] for tid in sorted(self._tenants)
            )
            self._fleet = fleet
            self._ready = tuple(
                t for t in fleet
                if t.quarantined is None
                and t.failure is None
                and not t.runtime.failed
            )

    @staticmethod
    def _has_work(tenant: Tenant) -> bool:
        """Whether ``tenant`` is pumped before its paced turn: its
        backlog is non-zero or unknowable, the probe raises ``OSError``
        (a fault for the pump's retry/breaker path), its runtime has
        parked reports or a failed poll to retry, or a swap is parked
        on it.  Idle-timeout closes need no turn of their own: they
        run in event time, on the records that advance the
        watermark."""
        try:
            if tenant.queue.backlog() != 0:
                return True
        except OSError:
            return True
        return tenant.runtime.owes_step or tenant.swap_pending

    @staticmethod
    def _trace_tail(limit: int = 12) -> str:
        """Last ``limit`` lines of the current exception's traceback."""
        lines = _traceback.format_exc().strip().splitlines()
        return "\n".join(lines[-limit:])

    def _pump_one(
        self, tenant: Tenant
    ) -> tuple[int, tuple[str, str] | None]:
        """Pump one quantum.  Returns ``(consumed, failure)`` where
        ``failure`` is ``(reason, traceback_tail)`` if the pump raised."""
        try:
            return tenant.pump(self.config.quantum), None
        except Exception as exc:  # noqa: BLE001 - isolation boundary
            note = f"pump: {type(exc).__name__}: {exc}"
            trace = self._trace_tail()
            tenant.mark_failed(note, trace=trace)
            log.exception(
                "tenant %s pump failed", tenant.tenant_id
            )
            return 0, (note, trace)

    def _register_failure(
        self, tenant: Tenant, reason: str, trace: str | None
    ) -> None:
        """Route one tenant failure through the supervisor."""
        state = self.supervisor.record_failure(
            tenant.tenant_id, reason, trace
        )
        if state == QUARANTINED:
            tenant.mark_quarantined(reason, trace)
            log.error(
                "tenant %s quarantined (restart budget exhausted): %s",
                tenant.tenant_id, reason,
            )
        else:
            status = self.supervisor.status(tenant.tenant_id)
            log.warning(
                "tenant %s failed (%s); restart in %ss",
                tenant.tenant_id, reason, status["next_restart_in"],
            )
        self._refresh()
        # The failed and quarantined gauges move on this sweep.
        self._collect()

    def _revive_due(self) -> None:
        """Restart every tenant whose backoff has elapsed."""
        for tenant_id in self.supervisor.due():
            with self._lock:
                tenant = self._tenants.get(tenant_id)
            if tenant is None:
                self.supervisor.forget(tenant_id)
                continue
            if tenant.quarantined is not None:
                continue
            try:
                tenant.restart()
            except Exception as exc:  # noqa: BLE001 - isolation boundary
                note = f"restart: {type(exc).__name__}: {exc}"
                trace = self._trace_tail()
                tenant.mark_failed(note, trace=trace)
                log.exception(
                    "tenant %s restart failed", tenant_id
                )
                self._register_failure(tenant, note, trace)
                continue
            self.supervisor.record_restart(tenant_id)
            self._c_restarts.labels(tenant=tenant_id).inc()
            tenant.pump_by = float("-inf")
            self._refresh()
            self._collect()
            log.info(
                "restarted tenant %s (restart #%d)",
                tenant_id, tenant.restarts,
            )

    def cycle(self) -> int:
        """One sweep: pump every healthy tenant that has work, enforce
        the budget.

        Returns total records consumed.  Tenants run in sorted-id order
        on the calling thread, so a sweep is fully deterministic and no
        tenant is ever pumped twice at once.  A tenant without work
        (:meth:`_has_work`) is skipped until ``poll_interval`` has
        passed since its last pump; a new, re-attached or restarted
        tenant is pumped at once.  Supervision happens at the sweep
        edges: due restarts first, then pump failures and newly opened
        breakers are fed to the supervisor.
        """
        self._revive_due()
        now = self._clock()
        consumed = 0
        for tenant in self._ready:
            if now < tenant.pump_by and not self._has_work(tenant):
                continue
            tenant.pump_by = now + self.config.poll_interval
            n, failure = self._pump_one(tenant)
            consumed += n
            if failure is not None:
                self._register_failure(tenant, *failure)
            elif tenant.runtime.failed:
                # The pump returned but left the breaker open (e.g. a
                # run of source errors): same supervision path as a
                # raised exception, minus the traceback.
                note = (
                    "breaker: "
                    f"{tenant.runtime.stats.failure or 'circuit open'}"
                )
                tenant.mark_failed(note)
                self._register_failure(tenant, note, None)
            else:
                self.supervisor.record_success(tenant.tenant_id)
        self.enforce_budget()
        return consumed

    def enforce_budget(self) -> int:
        """Evict LRU sessions until the fleet fits the global budget."""
        tenants = self._fleet
        plan = plan_evictions(
            {t.tenant_id: t.open_sessions for t in tenants},
            self.config.global_session_budget,
        )
        evicted = 0
        for tenant in tenants:
            want = plan.get(tenant.tenant_id, 0)
            if want <= 0:
                continue
            done = tenant.runtime.force_evict(want)
            evicted += done
            self._c_budget_evictions.labels(
                tenant=tenant.tenant_id
            ).inc(done)
        self.budget_evictions += evicted
        return evicted

    def drain(self) -> dict[str, Any]:
        """Process every tenant to exhaustion, then finalize them all.

        The multi-tenant analogue of ``StreamRuntime.drain()``: sweeps
        run until no healthy tenant has records left *right now*, then
        each tenant's tracker is flushed so every open session reports.
        Tenants stay attached (callers can inspect, swap, keep going).
        """
        while True:
            consumed = self.cycle()
            if consumed:
                continue
            # An empty sweep ends the drain — mirroring run(once=True),
            # which stops on an OK-but-empty poll — unless some tenant is
            # mid-retry (DEGRADED: its poll *failed* rather than came
            # back empty; run() keeps polling through transient outages,
            # so the drain must too, until the tenant recovers or its
            # breaker opens).
            retrying = [
                t for t in self._fleet
                if t.failure is None and not t.runtime.failed
                and t.runtime.stats.health == "degraded"
            ]
            # Likewise a tenant waiting out a supervised backoff is
            # *healing*, not done — sleep through the backoff so its
            # restart (and replay) happens inside the drain.
            healing = [
                t for t in self._fleet
                if t.quarantined is None
                and self.supervisor.state(t.tenant_id) == BACKOFF
            ]
            if healing:
                self._sleep(self.config.poll_interval)
                continue
            if not retrying:
                break
        for tenant in self._fleet:
            if tenant.failure is None and not tenant.runtime.failed:
                tenant.finish()
        self.metrics.collect()
        return self.tenants_status()

    def run(
        self,
        duration: float | None = None,
        max_cycles: int | None = None,
        tenants_file: str | Path | None = None,
        apply_tenants_file: Callable[["DetectionService", Path], Any]
        | None = None,
    ) -> dict[str, Any]:
        """Serve until stopped (:meth:`stop`), for ``duration`` seconds,
        or for ``max_cycles`` sweeps — whichever comes first.

        With ``tenants_file`` the file's mtime is polled every
        ``ServeConfig.reload_every`` seconds and changes are applied via
        ``apply_tenants_file`` (the control plane's diff-based
        reconciler — injected to keep this module free of parsing).
        """
        started = self._clock()
        stop_at = (
            started + duration if duration is not None else float("inf")
        )
        cycles = 0
        last_reload_check = started
        last_mtime: float | None = None
        path = Path(tenants_file) if tenants_file is not None else None
        if path is not None:
            try:
                last_mtime = path.stat().st_mtime
            except OSError:
                last_mtime = None
        # Non-zero backlog readings of the idle waits since the last
        # sweep that consumed records.  A tenant whose backlog stays at
        # the same non-zero reading after an empty sweep (e.g. a file's
        # unterminated last line) does not end the next wait again.
        seen: dict[str, int] = {}
        while not self._stop.is_set():
            if self._clock() >= stop_at:
                break
            if max_cycles is not None and cycles >= max_cycles:
                break
            if (
                path is not None
                and apply_tenants_file is not None
                and self._clock() - last_reload_check
                >= self.config.reload_every
            ):
                last_reload_check = self._clock()
                try:
                    mtime = path.stat().st_mtime
                except OSError:
                    mtime = None
                if mtime is not None and mtime != last_mtime:
                    last_mtime = mtime
                    try:
                        apply_tenants_file(self, path)
                    except Exception:  # noqa: BLE001 - keep serving
                        log.exception(
                            "tenants-file reload failed; keeping "
                            "the previous fleet"
                        )
            consumed = self.cycle()
            cycles += 1
            tenants = self._fleet
            if tenants and all(
                t.quarantined is not None for t in tenants
            ):
                # Nothing left that can ever recover on its own.
                self.fleet_dead = True
                log.error(
                    "FLEET dead: all %d tenant(s) quarantined; "
                    "stopping the serve loop",
                    len(tenants),
                )
                break
            if consumed:
                seen.clear()
            else:
                self._wait_for_work(
                    min(self._clock() + self.config.poll_interval,
                        stop_at),
                    seen,
                )
        self.metrics.collect()
        return self.tenants_status()

    def _wait_for_work(
        self, deadline: float, seen: dict[str, int]
    ) -> None:
        """Sleep in :data:`_WAIT_SLICE` steps until a healthy tenant has
        new work, :meth:`stop` is called, or ``deadline`` passes.

        A tenant has new work when its ``backlog()`` reading is non-zero
        and differs from its reading in ``seen``, which each probe
        updates.  A probe that raises ``OSError`` reads ``-1``: the
        fault is work for the pump's retry/breaker path.  Each probe
        re-reads :attr:`_ready`, so a tenant attached mid-wait is seen
        too.
        """
        while not self._stop.is_set():
            woke = False
            for tenant in self._ready:
                try:
                    backlog = tenant.queue.backlog()
                except OSError:
                    backlog = -1
                if not backlog:
                    seen.pop(tenant.tenant_id, None)
                elif seen.get(tenant.tenant_id) != backlog:
                    seen[tenant.tenant_id] = backlog
                    woke = True
            if woke:
                return
            left = deadline - self._clock()
            if left <= 0:
                return
            self._sleep(min(_WAIT_SLICE, left))

    def stop(self) -> None:
        self._stop.set()

    def close(self, flush: bool = True) -> None:
        """Detach every tenant and release every lease.

        The fleet gauges are collected one last time first and then
        stop moving, so a snapshot taken after ``close`` (``repro serve
        --metrics-out``) reads the fleet as the run left it, not the
        empty fleet that detaching leaves.
        """
        self.stop()
        self.metrics.collect()
        with self._collect_lock:
            self._collecting = False
        for tenant_id in list(self.tenant_ids):
            try:
                self.detach(tenant_id, flush=flush)
            except KeyError:  # pragma: no cover - concurrent detach
                pass

    # -- fleet state -------------------------------------------------------

    def _collect(self) -> None:
        """Set the fleet gauges from live state, until :meth:`close`.

        Runs on registry reads (``/metrics``, snapshots), on whichever
        thread reads, and on the sweep that fails, restarts or
        quarantines a tenant."""
        with self._collect_lock:
            if not self._collecting:
                return
            statuses = [tenant.status() for tenant in self._fleet]
            for status in statuses:
                labels = {"tenant": status["tenant"]}
                self._g_t_records.labels(**labels).set(status["records"])
                self._g_t_reports.labels(**labels).set(status["reports"])
                self._g_t_open.labels(**labels).set(
                    status["open_sessions"]
                )
                self._g_t_queue.labels(**labels).set(status["queue_depth"])
                self._g_t_shed.labels(**labels).set(status["shed_records"])
            self._g_active.set(len(statuses))
            self._g_fleet_open.set(
                sum(status["open_sessions"] for status in statuses)
            )
            self._g_failed.set(sum(
                1 for status in statuses
                if status["failure"] or status["health"] == "failed"
            ))
            self._g_quarantined.set(len(self.supervisor.quarantined()))
            reg = self.registry.stats()
            self._g_reg_live.set(reg["live_models"])
            self._g_reg_warm.set(reg["warm_models"])
            self._g_reg_cold.set(reg["cold_loads"])
            self._g_reg_warm_hits.set(reg["warm_hits"])

    def tenants_status(self) -> dict[str, Any]:
        """JSON document for the ``/tenants`` route."""
        tenants = []
        for tenant in self._fleet:
            status = tenant.status()
            status["supervisor"] = self.supervisor.status(
                tenant.tenant_id
            )
            tenants.append(status)
        doc = {
            "tenants": tenants,
            "fleet": {
                "active": len(tenants),
                "open_sessions": sum(
                    t["open_sessions"] for t in tenants
                ),
                "session_budget": self.config.global_session_budget,
                "budget_evictions": self.budget_evictions,
                "restarts": self.supervisor.total_restarts(),
                "quarantined": self.supervisor.quarantined(),
                "dead": self.fleet_dead,
            },
            "registry": {
                "models": self.registry.models(),
                **self.registry.stats(),
            },
        }
        if self.startup_fsck is not None:
            doc["startup_fsck"] = {
                "clean": self.startup_fsck.clean,
                "findings": len(self.startup_fsck.findings),
                "remaining": len(self.startup_fsck.remaining),
            }
        return doc
