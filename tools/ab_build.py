"""In-process paired A/B of one benchmark operation: a revision against this tree.

    python tools/ab_build.py REV WORKLOAD

with WORKLOAD pipeline_two_path or closed_sweep, exports REV with
`git archive` into a temporary tree and imports its src/superrmatrix as the
package superrmatrix_rev, beside this tree's superrmatrix, in one
interpreter; the package imports itself only relatively, so each copy reads
its own modules and caches.  The inputs are OPS of the workload's
operations, drawn at seed SEED with bench/workloads.py's pipeline_inputs or
closed_inputs on the benchmark's six ranks.  A pipeline_two_path operation
is one build_rfactors at a fresh q and spectral pair; a closed_sweep
operation is the benchmark's closed point: the closed r_operator,
verify_ybe and verify_intertwining.  Each tree runs every operation with its
own value types, made outside the timed call as the benchmark makes them,
and the call alone is timed.  Before any timing each tree runs the first
WARM operations, untimed, three sweeps over the ranks that include a
non-principal grading of each in closed_sweep, so that neither pays its
per-rank plans inside a chunk.  The operations run in chunks of CHUNK, each
chunk once per tree, REV first in the even chunks and this tree first in the
odd ones, so that drift in the machine's speed falls on both trees alike.

Prints each rank's median operation time per tree, the mean of those
medians per tree and their ratio (this tree over REV), which is what the
benchmark's op_p50_ms reads, the chunks in which this tree's mean of medians
was lower, and the largest difference of the results: max|r_total -
r_total_REV| / max|r_total_REV| for pipeline_two_path, the largest absolute
difference of the YBE and intertwining residuals for closed_sweep.  Exit 2
on a usage error, else 0.  bench/ is only read.  Both trees share one heap,
so glibc's heap mode, which can move a closed_sweep run of the benchmark,
does not move this measure.
"""

from __future__ import annotations

import argparse
import importlib.util
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from same_numbers import HERE, export

REV_PACKAGE = "superrmatrix_rev"
WORKLOADS = ("pipeline_two_path", "closed_sweep")
SEED, OPS, CHUNK, WARM = 11, 6000, 300, 18


def parse_args(argv: list[str]) -> argparse.Namespace:
    """The arguments, or SystemExit(2) with a usage line for bad ones."""
    parser = argparse.ArgumentParser(prog="python tools/ab_build.py",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("rev")
    parser.add_argument("workload", choices=WORKLOADS)
    return parser.parse_args(argv)


def load_package(src: Path, name: str):
    """The package at src/superrmatrix, imported under name."""
    spec = importlib.util.spec_from_file_location(
        name, src / "superrmatrix" / "__init__.py",
        submodule_search_locations=[str(src / "superrmatrix")])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def unload_package(name: str) -> None:
    for key in [key for key in sys.modules if key == name or key.startswith(name + ".")]:
        del sys.modules[key]


def _workloads():
    """bench/workloads.py, with this tree's src/ first on the path."""
    for path in (HERE / "bench", HERE / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import workloads
    return workloads


def op_args(sm, rank, ctx, grading, *zetas) -> tuple:
    """(rank, ctx, grading, *zetas) in the value types of the package sm."""
    return (sm.SuperRank(rank.m, rank.n), sm.QContext(q=ctx.q),
            sm.GradingVector(grading.s), *zetas)


def pipeline_op(sm, rank, ctx, grading, z1, z2):
    return sm.build_rfactors(rank, ctx, z1, z2, grading,
                             n_max_product=60, n_max_sim=40).r_total


def closed_op(sm, rank, ctx, grading, z1, z2, z3):
    sm.r_operator(rank, ctx, z1, z2, grading, mode="closed")
    return np.array([sm.verify_ybe(rank, ctx, z1, z2, z3, grading),
                     sm.verify_intertwining(rank, ctx, z1, z2, grading)["max"]])


def time_chunk(sm, op, inputs: list) -> tuple[list[float], list[np.ndarray]]:
    """Per operation, the seconds of its one timed call and its result."""
    seconds, results = [], []
    for args in inputs:
        args = op_args(sm, *args)  # outside the timed call, as the benchmark does
        t0 = time.perf_counter()
        result = op(sm, *args)
        seconds.append(time.perf_counter() - t0)
        results.append(result)
    return seconds, results


def rank_medians(inputs: list, seconds: list[float]) -> dict[str, float]:
    """Each rank's median time, keyed "m,n" as the benchmark's kinds are."""
    by_rank: dict[str, list[float]] = {}
    for args, sec in zip(inputs, seconds):
        by_rank.setdefault(f"{args[0].m},{args[0].n}", []).append(sec)
    return {rank: statistics.median(v) for rank, v in by_rank.items()}


def mean_of_medians(inputs: list, seconds: list[float]) -> float:
    return statistics.fmean(rank_medians(inputs, seconds).values())


def difference(workload: str, a: np.ndarray, b: np.ndarray) -> float:
    if workload == "pipeline_two_path":
        return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))
    return float(np.max(np.abs(a - b)))


def compare(packages: dict, workload: str, inputs: list, chunk: int, warm: int) -> dict:
    """Alternating chunks of operations in each package, after warm untimed
    operations in each: the seconds of every operation per side, the chunks
    this tree won and the largest difference of the results."""
    op = pipeline_op if workload == "pipeline_two_path" else closed_op
    for sm in packages.values():
        time_chunk(sm, op, inputs[:warm])
    seconds = {side: [] for side in packages}
    won, worst = 0, 0.0
    for start in range(0, len(inputs), chunk):
        part = inputs[start:start + chunk]
        order = ("rev", "tree") if (start // chunk) % 2 == 0 else ("tree", "rev")
        runs = {side: time_chunk(packages[side], op, part) for side in order}
        for side in packages:
            seconds[side] += runs[side][0]
        won += mean_of_medians(part, runs["tree"][0]) < mean_of_medians(part, runs["rev"][0])
        for a, b in zip(runs["tree"][1], runs["rev"][1]):
            worst = max(worst, difference(workload, a, b))
    return {"seconds": seconds, "chunks": -(-len(inputs) // chunk), "won": won,
            "worst": worst}


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    workloads = _workloads()
    rng = np.random.default_rng(SEED)
    if args.workload == "pipeline_two_path":
        inputs = [workloads.pipeline_inputs(rng, k, workloads.RANKS)[:5] for k in range(OPS)]
    else:
        inputs = [workloads.closed_inputs(rng, k, workloads.RANKS) for k in range(OPS)]
    with tempfile.TemporaryDirectory() as tmp:
        export(args.rev, Path(tmp) / "rev")
        try:
            packages = {"rev": load_package(Path(tmp) / "rev" / "src", REV_PACKAGE),
                        "tree": workloads.sm}
            result = compare(packages, args.workload, inputs, CHUNK, WARM)
        finally:
            unload_package(REV_PACKAGE)
    medians = {side: rank_medians(inputs, result["seconds"][side]) for side in ("rev", "tree")}
    for rank, old in medians["rev"].items():
        print(f"median {rank}: {args.rev} {old * 1e6:.1f} us, "
              f"this tree {medians['tree'][rank] * 1e6:.1f} us")
    old, new = (statistics.fmean(medians[side].values()) for side in ("rev", "tree"))
    print(f"mean of the per-rank medians: {args.rev} {old * 1e6:.1f} us, "
          f"this tree {new * 1e6:.1f} us, ratio {new / old:.3f}")
    print(f"this tree faster in {result['won']} of {result['chunks']} chunks")
    what = ("relative r_total difference" if args.workload == "pipeline_two_path"
            else "YBE and intertwining residual difference")
    print(f"largest {what}: {result['worst']:.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
