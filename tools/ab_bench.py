"""Alternating benchmark pairs of a revision against this working tree.

    python tools/ab_bench.py REV WORKLOAD [--pairs 5] [--seconds 30] [--seed 11]
                             [--heap default|fixed]

exports REV with `git archive` into one temporary tree and copies this
working tree's src/, bench/ and BENCHMARK.json into another, so that neither
has a __pycache__.  Pair k runs `python3 bench/run.py --workload WORKLOAD
--seed SEED+k --seconds SECONDS --trace 0` once in each tree, REV first in
the even pairs and this tree first in the odd ones.  Every child gets
PYTHONDONTWRITEBYTECODE=1; --heap fixed also sets MALLOC_MMAP_THRESHOLD_ and
MALLOC_TRIM_THRESHOLD_ to 209715200 for the child alone, which keeps glibc
from handing freed arrays back to the system between operations.

Each run prints its end-to-end metrics, attempted and failed operations,
the minor page faults per attempted operation, read from RUSAGE_CHILDREN
around the child, and the run's setup samples (setup_samples_s of its full
record), whose median is setup_s.  Faults per operation name the heap mode:
a run that returns its arrays to the system faults them in again on every
operation.  Then, for each end-to-end metric of BENCHMARK.json, the two
medians, whether this tree is worse than REV by more than the metric's
bound, relative to REV's median, and in how many pairs this tree was the
better one.  Exit 1 if one is worse, 0 if none is, 2 on a usage error.
Nothing under bench/ is edited, and BENCHMARK.json is only read.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from same_numbers import HERE, export

HEAP_FIXED = {"MALLOC_MMAP_THRESHOLD_": "209715200", "MALLOC_TRIM_THRESHOLD_": "209715200"}


def parse_args(argv: list[str], workloads: list[str]) -> argparse.Namespace:
    """The arguments, or SystemExit(2) with a usage line for bad ones."""
    parser = argparse.ArgumentParser(prog="python tools/ab_bench.py",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("rev")
    parser.add_argument("workload", choices=workloads)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--heap", choices=("default", "fixed"), default="default")
    args = parser.parse_args(argv)
    if args.pairs < 1 or not args.seconds > 0:
        parser.error("--pairs and --seconds must be positive")
    return args


def run_once(tree: Path, workload: str, seed: int, seconds: float, heap: str) -> dict:
    """One benchmark run in tree: its summary line, with the minor page faults
    per attempted operation added as faults_per_op and the setup samples of
    its full record, the line before, as setup_samples_s."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **(HEAP_FIXED if heap == "fixed" else {}))
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    out = subprocess.run(argv, cwd=tree, env=env, stdout=subprocess.PIPE, text=True,
                         check=True).stdout
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
    record, summary = map(json.loads, out.splitlines()[-2:])
    summary["faults_per_op"] = faults / max(summary["attempted"], 1)
    summary["setup_samples_s"] = record["setup_samples_s"]
    return summary


def verdict(parent: list[dict], change: list[dict], end_to_end: list[dict]) -> list[tuple]:
    """(name, parent median, change median, worse, wins) per end-to-end
    metric, worse when the change's median is past the parent's by more than
    the bound, wins the number of pairs in which the change's run is better
    than the parent's."""
    rows = []
    for metric in end_to_end:
        name, bound = metric["name"], metric["bound"]
        olds = [run["metrics"][name]["value"] for run in parent]
        news = [run["metrics"][name]["value"] for run in change]
        old, new = statistics.median(olds), statistics.median(news)
        if metric["better"] == "lower":
            worse = new > old * (1 + bound)
            wins = sum(b < a for a, b in zip(olds, news))
        else:
            worse = new < old * (1 - bound)
            wins = sum(b > a for a, b in zip(olds, news))
        rows.append((name, old, new, worse, wins))
    return rows


def _line(side: str, pair: int, run: dict, names: list[str]) -> str:
    values = " ".join(f"{name}={run['metrics'][name]['value']:.6g}" for name in names)
    samples = ",".join(f"{sample:.6g}" for sample in run.get("setup_samples_s", []))
    return (f"pair {pair} {side:6} {values} attempted={run['attempted']} "
            f"failed={run['failed']} faults_per_op={run['faults_per_op']:.2f} "
            f"setup_samples_s=[{samples}]")


def main(argv: list[str]) -> int:
    declared = json.loads((HERE / "BENCHMARK.json").read_text())
    args = parse_args(argv, [w["name"] for w in declared["workloads"]])
    names = [metric["name"] for metric in declared["end_to_end"]]
    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        export(args.rev, trees["parent"])
        for part in ("src", "bench"):
            shutil.copytree(HERE / part, trees["change"] / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(HERE / "BENCHMARK.json", trees["change"])
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                run = run_once(trees[side], args.workload, args.seed + pair, args.seconds,
                               args.heap)
                runs[side].append(run)
                print(_line(side, pair, run, names), flush=True)
    worse_any = False
    for name, old, new, worse, wins in verdict(runs["parent"], runs["change"],
                                               declared["end_to_end"]):
        worse_any |= worse
        print(f"{name}: parent {old:.6g}, change {new:.6g} "
              f"({'worse than its bound' if worse else 'within its bound'}; "
              f"change better in {wins} of {args.pairs} pairs)")
    return 1 if worse_any else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
