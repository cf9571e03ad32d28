"""Compare two sets of benchmark runs against the bounds of BENCHMARK.json.

    python3 bench/compare.py PARENT.json... -- CHANGE.json...

Each file holds what ``bench/run.py --out`` wrote (one run record or a
list of them); traced records are ignored.  For every workload and
end-to-end metric it prints the median and quartiles of both sets, one
row per workload and metric, and a verdict:

* ``ok`` -- the change's median is worse than the parent's by no more
  than the metric's bound;
* ``REGRESSION`` -- it is worse by more;
* ``unresolved`` -- the parent's own spread (interquartile range over
  median) exceeds the bound, so the runs cannot tell;
* ``better`` -- the spread is that wide, but every change run beats
  every parent run.

A change whose worst run fails a larger share of its operations than
the parent's worst run is a regression too.  Both sets must hold, per
workload, runs of the same seeds, so that each side's median is taken
over the same inputs.  Exit status: 1 on any regression, 0 otherwise,
2 on unusable input (including sets whose seeds differ).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

from common import load_spec, quartiles

REGRESSION = "REGRESSION"


def load_runs(paths: list[str]) -> dict[str, list[dict[str, Any]]]:
    """Untraced run records by workload."""
    runs: dict[str, list[dict[str, Any]]] = {}
    for path in paths:
        data = json.loads(Path(path).read_text())
        for record in data if isinstance(data, list) else [data]:
            if not record.get("trace"):
                runs.setdefault(record["workload"], []).append(record)
    return runs


def seed_mismatches(parent: dict[str, list[dict]],
                    change: dict[str, list[dict]]) -> list[str]:
    """Workloads whose two sets were not run on the same seeds."""
    return [
        workload for workload in sorted(set(parent) & set(change))
        if sorted(r["seed"] for r in parent[workload])
        != sorted(r["seed"] for r in change[workload])
    ]


def failed_share(record: dict[str, Any]) -> float:
    result = record["result"]
    return result["failed"] / max(result["attempted"], 1)


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> tuple[str, float]:
    """``(verdict, worsening)``; worsening is the change's median
    relative to the parent's, positive when worse."""
    q1, median, q3 = quartiles(parent)
    _, change_median, _ = quartiles(change)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (change_median - median) / median if median else 0.0
    if median and (q3 - q1) / median > bound:
        beats = all(sign * (c - p) < 0 for c in change for p in parent)
        return ("better" if beats else "unresolved"), worse
    return (REGRESSION if worse > bound else "ok"), worse


def compare(parent: dict[str, list[dict]], change: dict[str, list[dict]],
            spec: dict) -> tuple[list[str], bool]:
    """Table rows and whether any regression was found."""
    rows = [
        f"{'workload':<16} {'metric':<22} {'parent median [q1, q3]':>36}"
        f" {'change median [q1, q3]':>36} {'worse':>8}  verdict"
    ]
    regressed = False
    for workload in sorted(set(parent) | set(change)):
        if workload not in parent or workload not in change:
            rows.append(f"{workload:<16} missing from one set")
            regressed = True
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [r["result"]["metrics"][name]["value"]
                 for r in parent[workload]]
            b = [r["result"]["metrics"][name]["value"]
                 for r in change[workload]]
            mark, worse = verdict(a, b, metric["better"], metric["bound"])
            regressed |= mark == REGRESSION
            rows.append(
                f"{workload:<16} {name:<22} {_stats(a):>36} {_stats(b):>36}"
                f" {worse:>+8.1%}  {mark}"
            )
        worst_parent = max(failed_share(r) for r in parent[workload])
        worst_change = max(failed_share(r) for r in change[workload])
        mark = REGRESSION if worst_change > worst_parent else "ok"
        regressed |= mark == REGRESSION
        rows.append(
            f"{workload:<16} {'failed_share (max)':<22} "
            f"{worst_parent:>36.4f} {worst_change:>36.4f} {'':>8}  {mark}"
        )
    return rows, regressed


def _stats(values: list[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}"


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if "--" not in args:
        sys.stderr.write(__doc__.split("\n\n")[1] + "\n")
        return 2
    cut = args.index("--")
    parent, change = load_runs(args[:cut]), load_runs(args[cut + 1:])
    if not parent or not change:
        sys.stderr.write("error: each side needs at least one run\n")
        return 2
    mismatched = seed_mismatches(parent, change)
    if mismatched:
        sys.stderr.write(
            f"error: the sets ran different seeds for "
            f"{', '.join(mismatched)}; compare runs of the same seeds\n"
        )
        return 2
    rows, regressed = compare(parent, change, load_spec())
    print("\n".join(rows))
    return 1 if regressed else 0


if __name__ == "__main__":
    raise SystemExit(main())
