#!/usr/bin/env python3
"""Run the crash-recovery kill-point sweep from a checkout.

Usage::

    python tools/crash_harness.py [--workdir DIR] [--json REPORT]
    python tools/crash_harness.py --label registry.publish.index

Thin wrapper around ``repro.serve.harness`` for CI and local runs: for
every labeled kill point it spawns a victim process that dies mid-write
(``os._exit(73)``), then recovers and asserts the durability invariants
(fsck-clean registry, exactly-once reports, no silently parked tenant);
the serve kill points also run against a sink that keeps no delivery
log, where exactly-once rests on the runtime's journal alone.
Exit 0 when every kill point recovers, 1 otherwise; ``--json`` writes
the per-kill-point report the CI job uploads as an artifact.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.serve.harness import result_line, run_sweep  # noqa: E402
import json  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="crash-recovery kill-point sweep"
    )
    parser.add_argument("--workdir", default=None, metavar="DIR",
                        help="scratch directory (default: a temp dir)")
    parser.add_argument("--label", action="append", default=None,
                        help="restrict to this kill point (repeatable)")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write the JSON report here")
    args = parser.parse_args(argv)
    if args.workdir is not None:
        workdir = Path(args.workdir)
    else:
        workdir = Path(tempfile.mkdtemp(prefix="repro-crash-"))
    report = run_sweep(workdir, args.label)
    for row in report["results"]:
        print(result_line(row))
    print(
        f"crash-recovery sweep: {report['passed']} passed, "
        f"{report['failed']} failed"
    )
    if args.json:
        out = Path(args.json)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"report written to {out}")
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
