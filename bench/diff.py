"""Compare two traced results per workload and layer.

    python3 bench/diff.py BEFORE AFTER

BEFORE and AFTER are each a results directory (a copy of bench/results/
as left by ``run.py --trace 1`` on each workload) or one result file.
For every workload present in both, prints each per-layer metric before
and after with the change, grouped by layer, so a performance change can
show where its saving sits.  Counts that differ are marked with ``*``.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from spans import LAYER_METRICS


def load(path: Path) -> dict[str, dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    results = (json.loads(f.read_text()) for f in files)
    return {r["workload"]: r["metrics"] for r in results}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    args = parser.parse_args()
    before, after = load(args.before), load(args.after)
    for workload in sorted(before.keys() & after.keys()):
        print(f"workload {workload}")
        print(f"    {'metric':<40} {'before':>14} {'after':>14} {'change':>14} {'share':>8} unit")
        layer = None
        for name, unit in LAYER_METRICS.items():
            old, new = before[workload].get(name), after[workload].get(name)
            if old is None or new is None or old == new == 0:
                continue
            if name.split(".")[0] != layer:
                layer = name.split(".")[0]
                print(f"  {layer}")
            change = new - old
            share = f"{change / old:+8.1%}" if old else "     new"
            mark = "*" if unit == "count" and change else " "
            print(f"  {mark} {name:<40} {old:>14.6g} {new:>14.6g} {change:>+14.6g} {share} {unit}")
    for workload in sorted(before.keys() ^ after.keys()):
        print(f"workload {workload}: traced on one side only")


if __name__ == "__main__":
    main()
