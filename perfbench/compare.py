"""Compare two sets of benchmark result records, workload by workload.

    python3 perfbench/compare.py OLD_DIR NEW_DIR

Each directory holds the records ``run.py`` writes to
``perfbench/out/results/``.  For every workload, trace mode and scale
in both sets, prints each metric's median and quartiles per set and the
change of the medians.  An end-to-end metric whose median worsened by
more than its ``BENCHMARK.json`` bound is marked REGRESSED (exit 1),
unless the old set's own spread (quartile distance over median) is
wider than the bound: then the change cannot be told from noise and the
metric is marked UNRESOLVED.

Records are comparable only when they were made under the same machine
configuration and worker count: a workload whose sets disagree on
``fingerprint`` or ``workers`` is refused (exit 2).
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict[tuple[str, int, float], list[dict]]:
    """Records grouped by (workload, trace, scale)."""
    groups: dict[tuple[str, int, float], list[dict]] = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        meta = record["meta"]
        groups.setdefault((meta["workload"], record["trace"], meta["scale"]), []).append(record)
    return groups


def identity(records: list[dict]) -> set[tuple]:
    return {(r["meta"]["fingerprint"], r["meta"]["workers"]) for r in records}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    directions = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    old, new = (load(Path(arg)) for arg in argv)
    status = 0
    for key in sorted(set(old) & set(new)):
        workload, trace, scale = key
        if identity(old[key]) != identity(new[key]) or len(identity(old[key])) != 1:
            print(f"{workload} trace={trace} scale={scale}: REFUSED, fingerprint/workers differ: "
                  f"{sorted(identity(old[key]))} vs {sorted(identity(new[key]))}")
            return 2
        print(f"== {workload} trace={trace} scale={scale} ({len(old[key])} vs {len(new[key])} runs)")
        for name in old[key][0]["metrics"]:
            a = quartiles([r["metrics"][name]["value"] for r in old[key]])
            b = quartiles([r["metrics"][name]["value"] for r in new[key]])
            change = (b[1] - a[1]) / a[1] if a[1] else 0.0
            worse = -change if directions.get(name) == "higher" else change
            mark = ""
            if name in bounds:
                spread = (a[2] - a[0]) / a[1] if a[1] else 0.0
                if spread > bounds[name]["bound"]:
                    mark = f"  UNRESOLVED (spread {spread:.2f})"
                elif worse > bounds[name]["bound"]:
                    mark, status = "  REGRESSED", 1
            print(f"  {name:32s} {a[1]:>14.6g} [{a[0]:.4g}, {a[2]:.4g}]  ->  "
                  f"{b[1]:>14.6g} [{b[0]:.4g}, {b[2]:.4g}]  {change:+.2%}{mark}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
