"""Simulated YARN cluster substrate.

Models the paper's testbed — a master plus worker nodes managed by YARN —
at the granularity IntelLog observes: *containers* that emit log streams.
Execution in YARN is encapsulated inside containers and the paper treats
one container's logs as one session (§5), so the cluster's job here is to
hand out containers pinned to nodes and to collect one
:class:`~repro.parsing.records.Session` per container.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..parsing.records import LogRecord, Session
from .events import Simulation
from .groundtruth import TemplateCatalog


@dataclass(frozen=True, slots=True)
class Node:
    """One worker machine."""

    name: str
    memory_mb: int = 131072  # 128 GB, as in the paper's testbed
    vcores: int = 32

    @property
    def shuffle_address(self) -> str:
        return f"{self.name}:13562"


@dataclass(slots=True)
class Container:
    """One YARN container == one log session."""

    container_id: str
    app_id: str
    node: Node
    role: str  # "appmaster" | "map" | "reduce" | "executor" | "driver" ...
    memory_mb: int = 1024
    vcores: int = 1
    session: Session = field(init=False)
    #: Set when a fault kills the container; log emission stops after it.
    killed_at: float | None = None

    def __post_init__(self) -> None:
        self.session = Session(
            session_id=self.container_id,
            app_id=self.app_id,
            role=self.role,
        )

    def alive(self, now: float) -> bool:
        return self.killed_at is None or now < self.killed_at


class YarnCluster:
    """Allocates containers across nodes and collects their sessions."""

    def __init__(
        self,
        nodes: int = 26,
        rng: np.random.Generator | int | None = None,
        name_prefix: str = "host",
    ) -> None:
        if isinstance(rng, np.random.Generator):
            self.rng = rng
        else:
            self.rng = np.random.default_rng(rng)
        self.master = Node(name=f"{name_prefix}0")
        self.nodes = [
            Node(name=f"{name_prefix}{i}") for i in range(1, nodes + 1)
        ]
        self._container_seq = 0
        self.containers: list[Container] = []

    def allocate(
        self,
        app_id: str,
        role: str,
        memory_mb: int = 1024,
        vcores: int = 1,
        node: Node | None = None,
    ) -> Container:
        """Allocate one container, randomly placed unless pinned."""
        self._container_seq += 1
        if node is None:
            node = self.nodes[int(self.rng.integers(len(self.nodes)))]
        container = Container(
            container_id=(
                f"container_{app_id.split('_', 1)[-1]}_01_"
                f"{self._container_seq:06d}"
            ),
            app_id=app_id,
            node=node,
            role=role,
            memory_mb=memory_mb,
            vcores=vcores,
        )
        self.containers.append(container)
        return container

    def containers_on(self, node: Node) -> list[Container]:
        return [c for c in self.containers if c.node.name == node.name]

    def sessions(self) -> list[Session]:
        out = []
        for container in self.containers:
            container.session.sort()
            out.append(container.session)
        return out


class LogEmitter:
    """Binds a container to the template catalog and the event clock."""

    def __init__(
        self,
        container: Container,
        catalog: TemplateCatalog,
        sim: Simulation,
        base_time: float = 0.0,
    ) -> None:
        self.container = container
        self.catalog = catalog
        self.sim = sim
        self.base_time = base_time

    def emit(self, template_id: str, **values: object) -> None:
        """Render a template and append it to the container's session."""
        if not self.container.alive(self.sim.now):
            return
        template = self.catalog.get(template_id)
        message, truth = template.render(**values)
        self.container.session.append(
            LogRecord(
                timestamp=self.base_time + self.sim.now,
                level=template.level,
                source=template.source,
                message=message,
                session_id=self.container.container_id,
                app_id=self.container.app_id,
                truth=truth,
            )
        )


@dataclass(slots=True)
class JobLogs:
    """Everything one simulated job produced."""

    app_id: str
    system: str
    job_type: str
    sessions: list[Session]
    #: Fault kind injected into the job, if any.
    fault: str | None = None
    #: Session ids directly affected by the fault.
    affected_sessions: set[str] = field(default_factory=set)
    #: Job-level config used (input size, memory, ...).
    config: dict[str, object] = field(default_factory=dict)

    @property
    def records(self) -> list[LogRecord]:
        return [r for s in self.sessions for r in s.records]
