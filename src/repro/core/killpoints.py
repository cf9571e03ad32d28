"""Labeled crash points for the kill-point recovery harness.

Crash-consistency claims are only as good as the crashes they were
tested against, so the durable write paths (registry publish, model
swap, checkpoint save, report finalization, delivery journal) each
declare *named* points where a crash is interesting — immediately
after one side of a two-phase operation has hit the disk and before
the other has.  The harness (:mod:`repro.serve.harness`) runs the
service in a subprocess with ``REPRO_KILLPOINT=<label>`` in the
environment; when execution reaches that label the process dies on the
spot (``os._exit``, no atexit handlers, no flushing — the closest a
test can get to ``kill -9``), and the harness then restarts and
asserts the recovery invariants.

With the environment variable unset (production, normal tests)
:func:`kill_point` is a dict lookup and a no-op.  The label registry
:data:`KILL_POINTS` is the single source of truth: declaring a label at
a call site that is not registered raises immediately, so the harness's
"sweep all kill points" loop can never silently miss one.
"""

from __future__ import annotations

import os

__all__ = ["ENV_VAR", "KILL_EXIT_CODE", "KILL_POINTS", "arm", "kill_point"]

ENV_VAR = "REPRO_KILLPOINT"

#: Exit status of a process that died at a kill point; the harness
#: asserts this exact code to distinguish "killed where asked" from
#: "crashed somewhere else".
KILL_EXIT_CODE = 73

#: Every declared crash point, grouped by the operation it interrupts.
KILL_POINTS = (
    # ModelRegistry.publish: intent → artifact → index → intent clear.
    "registry.publish.intent",    # intent journaled, artifact not yet written
    "registry.publish.artifact",  # artifact durable, version not yet appended
    "registry.publish.index",     # version appended, intent not yet cleared
    # StreamCheckpoint.save: tmp → rotate .bak → replace live.
    "checkpoint.tmp",             # new checkpoint in tmp, live file untouched
    "checkpoint.bak",             # old live rotated to .bak, new not yet live
    # Tenant.apply_pending_swap: intent → swap → checkpoint → clear.
    "swap.intent",                # swap intent journaled, lease not swapped
    "swap.applied",               # swap applied + checkpointed, intent remains
    # StreamRuntime._deliver: sink emit succeeded, id not yet journaled.
    "finalize.emitted",
    # DeliveryJournal: the batch's delivered ids appended, and the
    # journal rotation after a snapshot.
    "journal.append",             # journal lines written, append not returned
    "journal.rotate",             # snapshot replaced, journal not rotated
)

_armed: str | None = os.environ.get(ENV_VAR)


def arm(label: str | None) -> None:
    """Arm (or with None, disarm) a kill point in-process.

    Subprocess harnesses arm via the environment before exec; in-process
    tests use this to exercise the label plumbing without dying.
    """
    global _armed
    if label is not None and label not in KILL_POINTS:
        raise ValueError(f"unknown kill point {label!r}")
    _armed = label


def kill_point(label: str) -> None:
    """Die instantly if this label is armed; otherwise do nothing."""
    if label not in KILL_POINTS:
        raise ValueError(f"unknown kill point {label!r}")
    if _armed is not None and _armed == label:
        # os._exit skips atexit/finally/flush — a crash, not a shutdown.
        os._exit(KILL_EXIT_CODE)
