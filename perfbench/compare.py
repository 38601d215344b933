#!/usr/bin/env python3
"""Compare two sets of perfbench run records (parent vs change).

    python3 perfbench/compare.py PARENT CHANGE

PARENT and CHANGE are directories of (or single) records that run.py writes
to .bench_build/perfbench-out/.  For every workload and metric the tool
prints both medians with their quartiles and the relative change.  An
end-to-end metric whose change is worse than its BENCHMARK.json bound is
flagged REGRESSION.  If the change's quartile range overlaps the parent's,
the metric is flagged "within spread".  Runs taken on hosts with different
nproc, or from different build types, are refused (exit 2).
"""
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(arg):
    path = Path(arg)
    files = sorted(path.glob("*-trace*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text()) for f in files]


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    parent, change = load(sys.argv[1]), load(sys.argv[2])
    if not parent or not change:
        sys.exit("compare: no run records found")
    for key in ("nproc", "build_type"):
        seen = {r[key] for r in parent + change}
        if len(seen) > 1:
            print("compare: refusing to compare runs with different %s: %s"
                  % (key, sorted(seen)), file=sys.stderr)
            sys.exit(2)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}

    def group(records):
        out = {}
        for r in records:
            for name, m in r["metrics"].items():
                out.setdefault((r["workload"], name), []).append(m["value"])
        return out

    a, b = group(parent), group(change)
    print("%-12s %-34s %14s %14s %8s" % ("workload", "metric", "parent", "change", "delta"))
    for key in sorted(set(a) & set(b)):
        workload, name = key
        pq1, pmed, pq3 = summary(a[key])
        cq1, cmed, cq3 = summary(b[key])
        delta = (cmed - pmed) / pmed if pmed else 0.0
        m = declared.get(name, {})
        worse = delta if m.get("better") == "lower" else -delta
        verdict = ""
        if "bound" in m and worse > m["bound"]:
            verdict = "REGRESSION"
        elif cq1 <= pq3 and pq1 <= cq3:
            verdict = "within spread"
        print("%-12s %-34s %14.6g %14.6g %+7.1f%%  %s (n=%d/%d)"
              % (workload, name, pmed, cmed, 100 * delta, verdict, len(a[key]), len(b[key])))


if __name__ == "__main__":
    main()
