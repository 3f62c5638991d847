"""Smoke test of the benchmark harness: one operation per workload on the
smallest rank.  Every declared metric is emitted with its unit, every
known-defect probe of the workload is recorded, and a deliberately wrong
matrix is counted as a failure.

    PYTHONPATH=src python -m pytest -q bench/test_harness.py
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [p for p in (str(ROOT / "src"), str(HERE)) if p not in sys.path]

import superrmatrix.verify  # noqa: E402
import workloads  # noqa: E402

SMALLEST = ((2, 1),)


def run_once(workload, trace=False):
    return workloads.run_benchmark(workload, seed=0, seconds=0.0, trace=trace, root=ROOT,
                                   max_ops=1, ranks=SMALLEST, setup_repeats=1)


def declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_declared_metrics_match_the_harness():
    assert declared("end_to_end") == workloads.E2E_UNITS
    assert declared("per_layer") == workloads.per_layer_units()


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_metric_emitted_with_unit(workload, trace):
    record = run_once(workload, trace)
    probes = record["known_defects"]
    assert [p["defect"] for p in probes] == list(workloads.PROBES.get(workload, {}))
    assert all(isinstance(p["reproduced"], bool) and p["observed"] for p in probes)
    summary = workloads.summary_line(record)
    assert summary["correct"] is True
    assert (summary["attempted"], summary["failed"]) == (1, 0)
    units = workloads.per_layer_units() if trace else workloads.E2E_UNITS
    assert {name: m["unit"] for name, m in summary["metrics"].items()} == units
    for m in summary["metrics"].values():
        assert math.isfinite(m["value"])


def perturbed(fn):
    def wrong(*args, **kwargs):
        out = np.array(fn(*args, **kwargs), dtype=complex)
        out[0, 0] += 1e-3
        return out
    return wrong


def test_wrong_pipeline_matrix_counts_as_failure(monkeypatch):
    monkeypatch.setattr(workloads, "pipeline_build", perturbed(workloads.pipeline_build))
    record = run_once("pipeline_two_path")
    assert (record["attempted"], record["failed"]) == (1, 1)
    assert record["correct"] is False


def test_wrong_closed_matrix_counts_as_failure(monkeypatch):
    monkeypatch.setattr(superrmatrix.verify, "r_operator",
                        perturbed(superrmatrix.verify.r_operator))
    record = run_once("closed_sweep")
    assert (record["attempted"], record["failed"], record["correct"]) == (1, 1, False)


def test_wrong_cli_matrix_counts_as_failure(monkeypatch):
    monkeypatch.setattr(workloads, "read_matrix", perturbed(workloads.read_matrix))
    record = run_once("terminal")
    assert (record["attempted"], record["failed"], record["correct"]) == (1, 1, False)
