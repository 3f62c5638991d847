"""tools/same_numbers.py, run in process on one small point, one refusal and
one rank's integer tables; tools/ab_bench.py's verdict on synthetic runs;
tools/ab_build.py on a tiny run against a copy of this tree."""

import importlib.util
import json
import shutil
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from superrmatrix import (
    EvaluationRep,
    GradingVector,
    QContext,
    SuperRank,
    build_rfactors,
    build_root_vectors,
)
from superrmatrix.cartanweyl import _ladder, _ladder_table, u_matrices
from superrmatrix.reps import _cartan_exponents
from superrmatrix.rootdata import parity, positive_roots
from superrmatrix.scalars import DegenerateQError

_ROOT = Path(__file__).resolve().parent.parent
_TOOLS = _ROOT / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, _TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def same_numbers():
    return _load("same_numbers")


@pytest.fixture
def ab_bench(monkeypatch):
    monkeypatch.syspath_prepend(str(_TOOLS))  # it imports same_numbers
    return _load("ab_bench")


def test_point_dump_has_the_level_q_numbers(same_numbers):
    rank, q = SuperRank(2, 1), same_numbers.QS[0]
    arrays = dict(same_numbers._point_arrays(rank, GradingVector.ones(rank), q,
                                             *same_numbers.ZETAS[0]))
    assert np.array_equal(arrays["u_matrices"], u_matrices(rank, QContext(q=q), np.arange(1, 41)))
    assert arrays["f_m"].shape == (2,)
    assert "build_rfactors/rho" in arrays and "run_suite/ybe/residual" in arrays
    assert np.array_equal(arrays["ladder"], _ladder(rank, QContext(q=q)))


def test_point_dump_has_the_series_part_at_the_build_depth(same_numbers):
    # both tables of a build, both sides, at the depth build_rfactors uses
    rank, q, zeta1 = SuperRank(2, 1), same_numbers.QS[0], same_numbers.ZETAS[0][0]
    arrays = dict(same_numbers._point_arrays(rank, GradingVector.ones(rank), q,
                                             *same_numbers.ZETAS[0]))
    depth = same_numbers.BUILD_DEPTH
    table = build_root_vectors(EvaluationRep(rank, QContext(q=q), zeta1), depth)
    for side in "ef":
        assert np.array_equal(arrays[f"table0/{side}/primed{depth}"],
                              table.primed_diagonals(side))
        assert np.array_equal(arrays[f"table0/{side}/unprimed{depth}"],
                              table.unprimed_diagonals(side, depth))
        for t in (0, 1):
            assert arrays[f"table{t}/{side}/unprimed{depth}"].shape == (depth, rank.L, rank.dim)


def test_refusal_points_include_a_vanishing_level_divisor(same_numbers):
    (m, n), q = same_numbers.REFUSALS[0]
    with pytest.raises(DegenerateQError, match=r"\[2\]_\(q\*\*30\) vanishes"):
        build_rfactors(SuperRank(m, n), QContext(q=q), *same_numbers.ZETAS[0])


def test_rank_tables_dump_the_cartan_exponents(same_numbers):
    rank = SuperRank(3, 2)
    tables = dict(same_numbers._rank_tables(rank))
    assert np.array_equal(tables["cartan_exponents"], _cartan_exponents(rank))


def test_rank_tables_dump_the_root_parities_and_ladder_signs(same_numbers):
    rank = SuperRank(3, 2)
    tables = dict(same_numbers._rank_tables(rank))
    assert tables["parity"] == [parity(rank, root) for root in positive_roots(rank, 2)]
    assert 0 < sum(tables["parity"]) < len(tables["parity"])
    assert np.array_equal(tables["ladder_sign"], _ladder_table(rank)[3])
    assert set(tables["ladder_sign"]) == {-1.0, 1.0}


_END_TO_END = [{"name": "op_p50_ms", "better": "lower", "bound": 0.25},
               {"name": "ok_per_s", "better": "higher", "bound": 0.25}]


def _runs(op_p50_ms, ok_per_s):
    return [{"metrics": {"op_p50_ms": {"value": op}, "ok_per_s": {"value": ok}},
             "attempted": 10, "failed": 0, "faults_per_op": 0.5}
            for op, ok in zip(op_p50_ms, ok_per_s)]


@pytest.mark.parametrize("op_p50_ms, ok_per_s, worse", [
    ([1.2, 1.3, 1.2], [85.0, 80.0, 70.0], [False, False]),  # +20%, -20%: inside
    ([1.3, 1.3, 1.2], [80.0, 90.0, 80.0], [True, False]),   # +30% of a lower-better one
    ([1.0, 1.0, 1.0], [70.0, 60.0, 90.0], [False, True]),   # -30% of a higher-better one
    ([0.5, 0.6, 0.7], [200.0, 150.0, 300.0], [False, False]),  # better on both
])
def test_ab_bench_verdict_against_each_bound(ab_bench, op_p50_ms, ok_per_s, worse):
    parent = _runs([0.9, 1.0, 1.1], [110.0, 100.0, 90.0])  # medians 1.0 and 100
    rows = ab_bench.verdict(parent, _runs(op_p50_ms, ok_per_s), _END_TO_END)
    assert [row[0] for row in rows] == ["op_p50_ms", "ok_per_s"]
    assert [row[1] for row in rows] == [1.0, 100.0]
    assert [row[3] for row in rows] == worse


@pytest.mark.parametrize("worse", [False, True])
def test_ab_bench_exit_code_follows_the_verdict(ab_bench, monkeypatch, capsys, worse):
    # no benchmark runs: the export and every run are replaced
    monkeypatch.setattr(ab_bench, "export", lambda rev, dest: dest.mkdir())
    slow = 2.0 if worse else 1.0
    monkeypatch.setattr(ab_bench, "run_once", lambda tree, *args: {
        "metrics": {name: {"value": slow if tree.name == "change" and name == "op_p50_ms"
                           else 1.0} for name in ("setup_s", "peak_rss_mb", "ok_per_s",
                                                  "op_p50_ms")},
        "attempted": 10, "failed": 0, "faults_per_op": 0.5})
    assert ab_bench.main(["HEAD", "closed_sweep", "--pairs", "2"]) == int(worse)
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 4 + 4 and all("faults_per_op=0.50" in line for line in out[:4])
    assert ("worse than its bound" in out[-1]) == worse


@pytest.mark.parametrize("argv", [[], ["HEAD"], ["HEAD", "no_such_workload"],
                                  ["HEAD", "closed_sweep", "--pairs", "0"],
                                  ["HEAD", "closed_sweep", "--heap", "other"]])
def test_ab_bench_usage_error_exits_2(ab_bench, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        ab_bench.main(argv)
    assert exc.value.code == 2 and "usage:" in capsys.readouterr().err


def test_ab_bench_counts_the_pairs_the_change_wins(ab_bench):
    # pair k compares run k of each side: lower is better for op_p50_ms,
    # higher for ok_per_s, and a tie is no win
    parent = _runs([0.9, 1.0, 1.1], [110.0, 100.0, 90.0])
    change = _runs([0.8, 1.05, 1.1], [120.0, 100.0, 95.0])
    rows = ab_bench.verdict(parent, change, _END_TO_END)
    assert [(row[0], row[4]) for row in rows] == [("op_p50_ms", 1), ("ok_per_s", 2)]


def test_ab_bench_reads_and_prints_each_runs_setup_samples(ab_bench, monkeypatch, tmp_path):
    # the summary is the last line of a run, its full record the one before;
    # the five setup samples come from the record and print with the run
    samples = [0.00051, 0.00097, 0.00060, 0.00055, 0.00072]
    record = {"setup_samples_s": samples, "other": 1}
    summary = {"correct": True, "attempted": 4, "failed": 0,
               "metrics": {"op_p50_ms": {"value": 0.9}, "ok_per_s": {"value": 100.0}}}
    stdout = "\n".join(["progress", json.dumps(record), json.dumps(summary)]) + "\n"
    monkeypatch.setattr(ab_bench.subprocess, "run",
                        lambda *args, **kwargs: types.SimpleNamespace(stdout=stdout))
    run = ab_bench.run_once(tmp_path, "pipeline_two_path", 11, 1.0, "default")
    assert run["setup_samples_s"] == samples and run["faults_per_op"] >= 0
    line = ab_bench._line("change", 0, run, ["op_p50_ms", "ok_per_s"])
    assert line.endswith("setup_samples_s=[0.00051,0.00097,0.0006,0.00055,0.00072]")


def test_ab_bench_prints_the_wins_of_every_metric(ab_bench, monkeypatch, capsys):
    monkeypatch.setattr(ab_bench, "export", lambda rev, dest: dest.mkdir())
    monkeypatch.setattr(ab_bench, "run_once", lambda tree, *args: {
        "metrics": {name: {"value": 0.5 if tree.name == "change" else 1.0}
                    for name in ("setup_s", "peak_rss_mb", "ok_per_s", "op_p50_ms")},
        "attempted": 10, "failed": 0, "faults_per_op": 0.5, "setup_samples_s": [0.5] * 5})
    assert ab_bench.main(["HEAD", "closed_sweep", "--pairs", "3"]) == 1  # ok_per_s halves
    out = capsys.readouterr().out.splitlines()
    assert all(line.endswith("setup_samples_s=[0.5,0.5,0.5,0.5,0.5]") for line in out[:6])
    wins = {line.split(":")[0]: line.split("; ")[1] for line in out[6:]}
    assert wins == {"setup_s": "change better in 3 of 3 pairs)",
                    "peak_rss_mb": "change better in 3 of 3 pairs)",
                    "ok_per_s": "change better in 0 of 3 pairs)",
                    "op_p50_ms": "change better in 3 of 3 pairs)"}


@pytest.fixture
def ab_build(monkeypatch):
    # bench/ and src/ put on the path here, so that the tool adds none, and
    # bench/'s modules taken out of sys.modules afterwards
    for path in (_TOOLS, _ROOT / "src", _ROOT / "bench"):
        monkeypatch.syspath_prepend(str(path))  # same_numbers, superrmatrix, workloads
    before = set(sys.modules)
    yield _load("ab_build")
    for name in set(sys.modules) - before:
        if Path(getattr(sys.modules[name], "__file__", None) or "/").parent == _ROOT / "bench":
            del sys.modules[name]


def test_ab_build_against_a_copy_reads_the_same_numbers(ab_build, monkeypatch, capsys):
    # a tiny run against a copy of this tree's src/ in place of an exported
    # revision: the same bits, and the copy's package gone from sys.modules
    # afterwards
    monkeypatch.setattr(ab_build, "OPS", 36)
    monkeypatch.setattr(ab_build, "CHUNK", 12)
    monkeypatch.setattr(ab_build, "export", lambda rev, dest: shutil.copytree(
        _ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__")))
    assert ab_build.main(["HEAD"]) == 0
    median, chunks, difference = capsys.readouterr().out.splitlines()
    assert median.startswith("median build: HEAD ") and " ratio " in median
    assert chunks.endswith(" of 3 chunks")
    assert difference == "largest relative r_total difference: 0.000e+00"
    assert not [name for name in sys.modules if name.startswith(ab_build.REV_PACKAGE)]


@pytest.mark.parametrize("argv", [[], ["HEAD", "--ops", "36"]])
def test_ab_build_usage_error_exits_2(ab_build, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        ab_build.main(argv)
    assert exc.value.code == 2 and "usage:" in capsys.readouterr().err
