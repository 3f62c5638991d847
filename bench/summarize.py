"""Summarise benchmark records into one BENCH file.

    python3 bench/summarize.py RECORDS.jsonl [...] > BENCH_<tag>.json

Each input line is a record written by ``run.py --record``.  For every
workload and every metric (end-to-end, per-layer and the workload-specific
names) the output gives the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, the spread (q3 - q1) /
median and the seeds the values came from.
"""

from __future__ import annotations

import json
import statistics
import sys


def describe(values: list[float]) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    spread = (q3 - q1) / median if median else None
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "n": len(values)}


def summarize(records: list[dict]) -> dict:
    groups: dict[tuple[str, int], list[dict]] = {}
    for rec in records:
        groups.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    out = {"env": records[0]["env"] if records else None, "workloads": {}}
    for (workload, trace), recs in sorted(groups.items()):
        series: dict[str, list[float]] = {}
        for rec in recs:
            for name, metric in rec["metrics"].items():
                series.setdefault(name, []).append(metric["value"])
            for name, value in rec.get("named", {}).items():
                series.setdefault(f"named.{name}", []).append(value)
        entry = out["workloads"].setdefault(workload, {"why": recs[0]["why"],
                                                       "params": recs[0]["params"]})
        entry["traced" if trace else "untraced"] = {
            "seeds": [rec["seed"] for rec in recs],
            "attempted": sum(rec["attempted"] for rec in recs),
            "failed": sum(rec["failed"] for rec in recs),
            "correct": all(rec["correct"] for rec in recs),
            "metrics": {name: describe(v) for name, v in series.items()},
        }
    return out


def main(paths: list[str]) -> int:
    records = []
    for path in paths:
        with open(path) as fh:
            records.extend(json.loads(line) for line in fh if line.strip())
    json.dump(summarize(records), sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
