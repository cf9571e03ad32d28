"""Infrastructure-level log generators: YARN daemons and nova-compute.

Table 1 of the paper measures the fraction of natural-language log lines in
five systems — the three data-analytics systems plus Apache YARN and
OpenStack's nova-compute.  These compact generators produce representative
message streams for the latter two (with the same NL / key-value-dump mix
the paper describes), and §6.4's DeepLog comparison uses the
fixed-length-session property of infrastructure logs that they exhibit.

Per the paper's footnote, nova-compute's periodic resource-usage audit
lines are key-value status dumps; the Table 1 bench, like the paper,
excludes them and only counts request-related messages.
"""

from __future__ import annotations

import numpy as np

from ..parsing.records import LogRecord
from .groundtruth import Role, Template, TemplateCatalog

ID = Role.IDENTIFIER
VAL = Role.VALUE
LOC = Role.LOCALITY


def yarn_catalog() -> TemplateCatalog:
    """ResourceManager / NodeManager logging statements."""
    cat = TemplateCatalog("yarn")
    for template in (
        Template(
            "yn.app.submitted",
            "Application {app} submitted by user {user}",
            roles={"app": ID, "user": ID},
            entities=("application", "user"),
            operations=(("", "submit", "application"),),
            source="ClientRMService",
        ),
        Template(
            "yn.app.state",
            "{app} State change from SUBMITTED to ACCEPTED",
            roles={"app": ID},
            entities=("state change",),
            operations=(),
            source="RMAppImpl",
        ),
        Template(
            "yn.container.allocated",
            "Assigned container {container} of capacity memory : {mb} on "
            "host {host}",
            roles={"container": ID, "mb": VAL, "host": LOC},
            entities=("container", "capacity memory"),
            operations=(("", "assign", "container"),),
            source="SchedulerNode",
        ),
        Template(
            "yn.container.launch",
            "Start request for container {container} by user {user}",
            roles={"container": ID, "user": ID},
            entities=("start request", "container", "user"),
            operations=(("", "start", "request"),),
            source="ContainerManagerImpl",
        ),
        Template(
            "yn.container.transition",
            "Container {container} transitioned from LOCALIZING to "
            "RUNNING",
            roles={"container": ID},
            entities=("container",),
            operations=(("container", "transition", "running"),),
            source="ContainerImpl",
        ),
        Template(
            "yn.container.complete",
            "Container {container} completed with event FINISHED",
            roles={"container": ID},
            entities=("container", "event"),
            operations=(("container", "complete", "event"),),
            source="ContainerImpl",
        ),
        Template(
            "yn.nm.heartbeat.kv",
            "Node status : containers = {n} ; memory-used = {mb} MB ; "
            "cpu-used = {pct}",
            roles={"n": VAL, "mb": VAL, "pct": VAL},
            natural=False,
            source="NodeStatusUpdaterImpl",
        ),
        Template(
            "yn.app.finished",
            "Application {app} finished with state FINISHED",
            roles={"app": ID},
            entities=("application",),
            operations=(("application", "finish", "state"),),
            source="RMAppImpl",
        ),
    ):
        cat.add(template)
    return cat


def nova_catalog() -> TemplateCatalog:
    """nova-compute logging statements (VM lifecycle requests)."""
    cat = TemplateCatalog("nova")
    for template in (
        Template(
            "nv.spawn.start",
            "Instance {instance} Attempting claim : memory {mb} MB , "
            "disk {gb} GB",
            roles={"instance": ID, "mb": VAL, "gb": VAL},
            entities=("instance", "claim", "memory", "disk"),
            operations=(("instance", "attempt", "claim"),),
            source="nova.compute.claims",
        ),
        Template(
            "nv.claim.ok",
            "Instance {instance} Claim successful",
            roles={"instance": ID},
            entities=("instance", "claim"),
            operations=(),
            source="nova.compute.claims",
        ),
        Template(
            "nv.spawn.creating",
            "Instance {instance} Creating image",
            roles={"instance": ID},
            entities=("instance", "image"),
            operations=(("", "create", "image"),),
            source="nova.virt.libvirt.driver",
        ),
        Template(
            "nv.spawn.boot",
            "Instance {instance} Instance spawned successfully",
            roles={"instance": ID},
            entities=("instance",),
            operations=(("instance", "spawn", ""),),
            source="nova.compute.manager",
        ),
        Template(
            "nv.delete.start",
            "Instance {instance} Terminating instance",
            roles={"instance": ID},
            entities=("instance",),
            operations=(("", "terminate", "instance"),),
            source="nova.compute.manager",
        ),
        Template(
            "nv.delete.destroyed",
            "Instance {instance} Instance destroyed successfully",
            roles={"instance": ID},
            entities=("instance",),
            operations=(("instance", "destroy", ""),),
            source="nova.virt.libvirt.driver",
        ),
        Template(
            "nv.delete.cleanup",
            "Instance {instance} Deleting instance files {path}",
            roles={"instance": ID, "path": LOC},
            entities=("instance file",),
            operations=(("", "delete", "file"),),
            source="nova.virt.libvirt.driver",
        ),
        Template(
            "nv.audit.kv",
            "Hypervisor resource view : free_ram = {mb} MB ; free_disk = "
            "{gb} GB ; vcpus_used = {n}",
            roles={"mb": VAL, "gb": VAL, "n": VAL},
            natural=False,
            source="nova.compute.resource_tracker",
        ),
    ):
        cat.add(template)
    return cat


#: The eight most frequent OpenStack request types (§2.2 cites CloudSeer's
#: observation of eight requests with ~9-message fixed-length sequences).
NOVA_REQUESTS: dict[str, list[str]] = {
    "boot": ["nv.spawn.start", "nv.claim.ok", "nv.spawn.creating",
             "nv.spawn.boot"],
    "delete": ["nv.delete.start", "nv.delete.destroyed",
               "nv.delete.cleanup"],
}


def generate_yarn_records(
    n_apps: int = 20, seed: int | None = None,
    include_heartbeats: bool = True,
) -> list[LogRecord]:
    """A YARN daemon log stream covering ``n_apps`` applications."""
    rng = np.random.default_rng(seed)
    cat = yarn_catalog()
    records: list[LogRecord] = []
    t = 0.0

    def emit(template_id: str, **values: object) -> None:
        nonlocal t
        t += float(rng.uniform(0.05, 0.5))
        template = cat.get(template_id)
        message, truth = template.render(**values)
        records.append(LogRecord(
            timestamp=t, level=template.level, source=template.source,
            message=message, session_id="rm", truth=truth,
        ))

    for i in range(n_apps):
        app = f"application_152808{i:07d}_0001"
        user = "root"
        emit("yn.app.submitted", app=app, user=user)
        emit("yn.app.state", app=app)
        for c in range(int(rng.integers(1, 5))):
            container = f"container_{i:07d}_01_{c:06d}"
            emit("yn.container.allocated", container=container,
                 mb=int(rng.choice([1024, 2048, 4096])),
                 host=f"host{int(rng.integers(1, 9))}")
            emit("yn.container.launch", container=container, user=user)
            emit("yn.container.transition", container=container)
            if include_heartbeats and rng.random() < 0.3:
                emit("yn.nm.heartbeat.kv",
                     n=int(rng.integers(0, 8)),
                     mb=int(rng.integers(1000, 100000)),
                     pct=round(float(rng.uniform(0, 1)), 2))
            emit("yn.container.complete", container=container)
        emit("yn.app.finished", app=app)
    return records


def generate_nova_records(
    n_requests: int = 50, seed: int | None = None,
    include_audit: bool = False,
) -> list[LogRecord]:
    """A nova-compute log stream of VM boot/delete requests.

    ``include_audit`` adds the periodic resource-usage dumps that the
    paper's Table 1 footnote excludes.
    """
    rng = np.random.default_rng(seed)
    cat = nova_catalog()
    records: list[LogRecord] = []
    t = 0.0

    def emit(template_id: str, session: str, **values: object) -> None:
        nonlocal t
        t += float(rng.uniform(0.1, 1.0))
        template = cat.get(template_id)
        message, truth = template.render(**values)
        records.append(LogRecord(
            timestamp=t, level=template.level, source=template.source,
            message=message, session_id=session, truth=truth,
        ))

    request_names = list(NOVA_REQUESTS)
    for i in range(n_requests):
        request = request_names[int(rng.integers(len(request_names)))]
        instance = f"instance-{i:08x}"
        values = {
            "instance": instance,
            "mb": int(rng.choice([2048, 4096])),
            "gb": int(rng.choice([20, 40])),
            "path": f"/var/lib/nova/instances/{instance}",
        }
        for template_id in NOVA_REQUESTS[request]:
            template = cat.get(template_id)
            needed = {
                k: v for k, v in values.items()
                if k in template.placeholders()
            }
            emit(template_id, f"req-{i}", **needed)
        if include_audit and rng.random() < 0.5:
            emit("nv.audit.kv", "audit",
                 mb=int(rng.integers(1000, 100000)),
                 gb=int(rng.integers(10, 500)),
                 n=int(rng.integers(0, 32)))
    return records
