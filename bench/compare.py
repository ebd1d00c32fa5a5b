"""Compare two sets of saved benchmark runs, metric by metric.

Usage: python3 bench/compare.py BASE.txt NEW.txt

Each file holds the concatenated stdout of runs of bench/run.py (each run
prints a record line and then its result line).  Runs whose input hashes
differ measure different work, so the comparison is refused.  For each
workload and metric it prints both medians with their quartiles; for an
end-to-end metric it also says whether the new median is worse than the
base median by more than the bound fixed in BENCHMARK.json.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> list[tuple[dict, dict]]:
    """(record, result) pairs of the runs saved in a file."""
    runs, record = [], None
    for line in Path(path).read_text().splitlines():
        if not line.startswith("{"):
            continue
        obj = json.loads(line)
        if "record" in obj:
            record = obj["record"]
        elif "metrics" in obj and record is not None:
            runs.append((record, obj))
            record = None
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(base_path: str, new_path: str) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    base, new = load(base_path), load(new_path)
    hashes = {json.dumps(rec["input_sha256"], sort_keys=True) for rec, _ in base + new}
    if len(hashes) > 1:
        print("refusing to compare: the runs used different inputs", file=sys.stderr)
        return 1
    groups = sorted({(rec["workload"], rec["trace"]) for rec, _ in base + new})
    worse = 0
    for workload, trace in groups:
        side = {
            label: [res for rec, res in runs if (rec["workload"], rec["trace"]) == (workload, trace)]
            for label, runs in (("base", base), ("new", new))
        }
        if not side["base"] or not side["new"]:
            continue
        print(f"{workload} (trace {trace}): {len(side['base'])} base runs, {len(side['new'])} new runs")
        for name in side["base"][0]["metrics"]:
            b = quartiles([r["metrics"][name]["value"] for r in side["base"]])
            n = quartiles([r["metrics"][name]["value"] for r in side["new"]])
            verdict = ""
            if name in bounds and b[1]:
                sign = 1 if bounds[name]["better"] == "lower" else -1
                change = sign * (n[1] - b[1]) / b[1]
                verdict = "WORSE" if change > bounds[name]["bound"] else "ok"
                worse += verdict == "WORSE"
            print(f"  {name:36s} base {b[1]:.6g} [{b[0]:.6g}, {b[2]:.6g}]"
                  f"  new {n[1]:.6g} [{n[0]:.6g}, {n[2]:.6g}]  {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
