"""Benchmark entry point.

Run from the repository root:

    python3 bench/run.py --workload closed_sweep --seed 1 --seconds 30 --trace 0

Workloads: closed_sweep, pipeline_two_path, terminal (see workloads.py).
``--trace 0`` measures the end-to-end metrics with no spans; ``--trace 1``
runs every operation untraced and traced on the same inputs and reports the
per-layer metrics and the tracing overhead.  The second-to-last line of
standard output is the full record of the run (environment, parameters,
failures with their inputs); the last line is the summary
``{"correct", "attempted", "failed", "metrics"}``.  ``--record PATH``
appends the full record to PATH as one JSON line.

The exit code is 0 when the run completed, whatever its verdict, and 2 when
the package sources are missing or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# Pin BLAS to one thread before numpy is imported, here and in every child,
# so the numbers measure the program rather than the scheduler.
BLAS_THREADS = "1"
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("closed_sweep", "pipeline_two_path", "terminal")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, default=None)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "superrmatrix" / "__init__.py").is_file():
        print(f"error: package sources not found under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    import workloads

    record = workloads.run_benchmark(args.workload, args.seed, args.seconds,
                                     bool(args.trace), ROOT)
    line = json.dumps(record)
    if args.record is not None:
        with open(args.record, "a") as fh:
            fh.write(line + "\n")
    print(line)
    print(json.dumps(workloads.summary_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
