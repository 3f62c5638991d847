"""In-process paired A/B of build_rfactors: a revision against this tree.

    python tools/ab_build.py REV

exports REV with `git archive` into a temporary tree and imports its
src/superrmatrix as the package superrmatrix_rev, beside this tree's
superrmatrix, in one interpreter; the package imports itself only
relatively, so each copy reads its own modules and caches.  The inputs are
OPS of the benchmark's pipeline_two_path operations, drawn at seed SEED with
bench/workloads.py's pipeline_inputs: a fresh q and spectral pair per
operation, on the benchmark's six ranks.  Each tree builds every operation
with its own value types, made outside the timed call as the benchmark makes
them, and the build alone is timed.  Before any timing each tree builds
one operation per rank, untimed, so that neither pays its per-rank plans
inside a chunk.  The operations run in chunks of CHUNK, each chunk once
per tree, REV first in the even chunks and this tree first in the odd ones,
so that drift in the machine's speed falls on both trees alike.

Prints the median build time of each tree, their ratio (this tree over REV),
the chunks in which this tree's median build was faster, and the largest
max|r_total - r_total_REV| / max|r_total_REV| over the operations.  Exit 2
on a usage error, else 0.  bench/ is only read.
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
SEED, OPS, CHUNK = 11, 6000, 300


def parse_args(argv: list[str]) -> argparse.Namespace:
    """The arguments, or SystemExit(2) with a usage line for bad ones."""
    parser = argparse.ArgumentParser(prog="python tools/ab_build.py",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("rev")
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


def build_args(sm, rank, ctx, grading, z1, z2) -> tuple:
    """The arguments of one build in the value types of the package sm."""
    return (sm.SuperRank(rank.m, rank.n), sm.QContext(q=ctx.q),
            z1, z2, sm.GradingVector(grading.s))


def time_chunk(sm, inputs: list) -> tuple[list[float], list[np.ndarray]]:
    """Per operation, the seconds of one build_rfactors and its r_total."""
    seconds, totals = [], []
    for op in inputs:
        args = build_args(sm, *op)  # outside the timed call, as the benchmark does
        t0 = time.perf_counter()
        total = sm.build_rfactors(*args, n_max_product=60, n_max_sim=40).r_total
        seconds.append(time.perf_counter() - t0)
        totals.append(total)
    return seconds, totals


def compare(packages: dict, inputs: list, chunk: int, warm: int) -> dict:
    """Alternating chunks of builds in each package, after warm untimed
    builds in each: the seconds of every build per side, the chunks this
    tree won and the largest relative difference of r_total."""
    for sm in packages.values():
        time_chunk(sm, inputs[:warm])
    seconds = {side: [] for side in packages}
    won, worst = 0, 0.0
    for start in range(0, len(inputs), chunk):
        part = inputs[start:start + chunk]
        order = ("rev", "tree") if (start // chunk) % 2 == 0 else ("tree", "rev")
        runs = {side: time_chunk(packages[side], part) for side in order}
        for side in packages:
            seconds[side] += runs[side][0]
        won += statistics.median(runs["tree"][0]) < statistics.median(runs["rev"][0])
        for a, b in zip(runs["tree"][1], runs["rev"][1]):
            worst = max(worst, float(np.max(np.abs(a - b)) / np.max(np.abs(b))))
    return {"seconds": seconds, "chunks": -(-len(inputs) // chunk), "won": won,
            "worst": worst}


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    workloads = _workloads()
    rng = np.random.default_rng(SEED)
    inputs = [workloads.pipeline_inputs(rng, k, workloads.RANKS)[:5] for k in range(OPS)]
    with tempfile.TemporaryDirectory() as tmp:
        export(args.rev, Path(tmp) / "rev")
        try:
            packages = {"rev": load_package(Path(tmp) / "rev" / "src", REV_PACKAGE),
                        "tree": workloads.sm}
            result = compare(packages, inputs, CHUNK, len(workloads.RANKS))
        finally:
            unload_package(REV_PACKAGE)
    old, new = (statistics.median(result["seconds"][side]) for side in ("rev", "tree"))
    print(f"median build: {args.rev} {old * 1e6:.1f} us, this tree {new * 1e6:.1f} us, "
          f"ratio {new / old:.3f}")
    print(f"this tree faster in {result['won']} of {result['chunks']} chunks")
    print(f"largest relative r_total difference: {result['worst']:.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
