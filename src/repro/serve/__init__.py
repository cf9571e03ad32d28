"""Multi-tenant detection serving over versioned, shared models.

``repro watch`` is one process, one model, one stream; this subsystem
is the long-running service layer above it (ROADMAP item 1):

* :mod:`~repro.serve.registry` — content-addressed, versioned model
  artifacts with atomic publish, ref-counted in-memory sharing and a
  warm cache for fast re-attach;
* :mod:`~repro.serve.tenant` — one stream per tenant: a bounded
  shed-oldest ingest queue in front of an embedded
  :class:`~repro.stream.StreamRuntime` (so every per-stream guarantee
  — exactly-once reports, checkpoints, breaker — carries over
  verbatim), plus the pending-lease slot for atomic model swaps;
* :mod:`~repro.serve.budget` — fair largest-first planning for the
  global open-session budget;
* :mod:`~repro.serve.service` — the sweep scheduler multiplexing every
  tenant on one thread, waking on source backlog between sweeps, with
  per-tenant health isolation and fleet metrics;
* :mod:`~repro.serve.admin` — tenants files (TOML/JSON), hot-reload
  reconciliation, model refs;
* :mod:`~repro.serve.supervisor` — per-tenant restart policy
  (seeded-jitter exponential backoff, rolling restart budget,
  quarantine escalation) driven from the sweep loop;
* :mod:`~repro.serve.fsck` — crash-consistency checker/repairer for
  the registry's journaled publish/swap protocol, run at service
  startup and via ``repro fsck``.

Surfaced on the command line as ``repro serve`` / ``repro publish``.
The load-bearing invariant, inherited from the streaming layer and
locked in by ``tests/test_serve.py``: a tenant's reports are
byte-identical to a standalone ``repro watch`` over the same stream.
"""

from .admin import (
    apply_tenants,
    apply_tenants_file,
    load_tenants_file,
    parse_model_ref,
)
from .budget import plan_evictions
from .fsck import Finding, FsckReport, RegistryFsck, run_fsck
from .registry import (
    INDEX_FORMAT,
    LeasedModel,
    ModelRegistry,
    RegistryError,
)
from .service import DetectionService
from .supervisor import TenantSupervisor
from .tenant import BoundedQueueSource, Tenant, TenantSpec

__all__ = [
    "BoundedQueueSource",
    "DetectionService",
    "Finding",
    "FsckReport",
    "INDEX_FORMAT",
    "LeasedModel",
    "ModelRegistry",
    "RegistryError",
    "RegistryFsck",
    "Tenant",
    "TenantSpec",
    "TenantSupervisor",
    "apply_tenants",
    "apply_tenants_file",
    "load_tenants_file",
    "parse_model_ref",
    "plan_evictions",
    "run_fsck",
]
