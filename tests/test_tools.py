"""tools/same_numbers.py, run in process on one small point, one refusal and
one rank's integer tables; tools/ab_bench.py's verdict on synthetic runs."""

import importlib.util
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

_TOOLS = Path(__file__).resolve().parent.parent / "tools"


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
