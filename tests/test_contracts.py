import fnmatch
import gc
import importlib
import json
import os
import re
import subprocess
import sys
import types
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest

import superrmatrix
import superrmatrix.cartanweyl
import superrmatrix.gradedmatrix
import superrmatrix.rfactors
import superrmatrix.scalars
import superrmatrix.verify
from superrmatrix import (
    EvaluationRep,
    GradingVector,
    QContext,
    SuperRank,
    VerifyConfig,
    Zeta12,
    build_rfactors,
    build_root_vectors,
    k_operator_closed,
    r_operator,
    r_prec_delta,
    r_sim_delta,
    r_succ_delta,
    rho,
    run_suite,
    unprimed_imaginary,
    verify_intertwining,
    verify_ybe,
)
from superrmatrix.cli import main
from superrmatrix.cartanweyl import (
    closed_form_imaginary,
    closed_form_root_vector,
    t_matrix,
    u_matrices,
)
from superrmatrix.gradedmatrix import graded_kron, matrix_unit
from superrmatrix.rootdata import (
    AffineRoot,
    cartan_data,
    classify,
    imaginary_root,
    positive_roots,
    real_plus_root,
    real_wrap_root,
)
from superrmatrix.scalars import DegenerateQError, f_m
from superrmatrix.tridiag import bq_inverse_closed, bq_matrix

from conftest import TEST_RANKS, BracketTable, run_fresh, slot_sign


def _fail(*args, **kwargs):
    raise AssertionError("no root-vector table may be built here")


def test_out_of_domain_rejected_before_tables(monkeypatch):
    monkeypatch.setattr(superrmatrix.rfactors, "build_root_vectors", _fail)
    rank = SuperRank(2, 1)
    with pytest.raises(ValueError):
        build_rfactors(rank, QContext(q=1.1 + 0.2j), 1.4, 1.0, GradingVector.ones(rank))


def test_spectral_ratio_past_the_float_range_is_refused_before_any_work(monkeypatch):
    # each zeta is finite but zeta1/zeta2 is not: refused in either mode
    # without a numpy warning (a RuntimeWarning fails the test), and by the
    # pipeline before any table or level data is formed
    monkeypatch.setattr(superrmatrix.rfactors, "build_root_vectors", _fail)
    monkeypatch.setattr(superrmatrix.cartanweyl._Levels, "_form", _fail)
    rank, ctx = SuperRank(2, 1), QContext(q=1.1 + 0.2j)
    for mode in ("closed", "pipeline"):
        with pytest.raises(OverflowError, match="spectral ratio zeta1/zeta2 is not finite"):
            r_operator(rank, ctx, 1e200, 1e-200, mode=mode)
    with pytest.raises(OverflowError, match="spectral ratio"):
        build_rfactors(rank, ctx, 1e200, 1e-200)


def test_levels_beyond_series_order_rejected_before_tables(monkeypatch):
    monkeypatch.setattr(superrmatrix.rfactors, "build_root_vectors", _fail)
    rank = SuperRank(2, 1)
    ctx = QContext(q=1.1 + 0.2j, series_order=20)
    with pytest.raises(ValueError, match="series order"):
        build_rfactors(rank, ctx, 0.6, 1.0, GradingVector.ones(rank), n_max_sim=21)
    z12 = Zeta12.from_pair(0.6, 1.0, GradingVector.ones(rank))
    with pytest.raises(ValueError, match="series order"):
        r_sim_delta(rank, ctx, z12, GradingVector.ones(rank), mode="series", n_max=21)


@pytest.mark.parametrize("length", [3 - 1, 3 + 1])
def test_wrong_grading_length_rejected_by_every_entry_point(length):
    # gl(2|1) needs M+N = 3 grades
    rank, ctx = SuperRank(2, 1), QContext(q=1.1 + 0.2j)
    grading = GradingVector((1,) * length)
    z12 = Zeta12.from_pair(0.6, 1.0, grading)
    calls = [
        lambda: r_operator(rank, ctx, 0.6, 1.0, grading, mode="closed"),
        lambda: verify_ybe(rank, ctx, 0.6, 1.0, 1.7, grading),
        lambda: r_prec_delta(rank, ctx, z12, grading),
        lambda: r_succ_delta(rank, ctx, z12, grading),
        lambda: r_sim_delta(rank, ctx, z12, grading, mode="closed"),
        lambda: rho(rank, ctx, z12, grading),
        lambda: build_rfactors(rank, ctx, 0.6, 1.0, grading),
        lambda: verify_intertwining(rank, ctx, 0.6, 1.0, grading),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="grading length must be M\\+N = 3"):
            call()


def test_verify_default_32_passes():
    assert main(["verify", "--m", "3", "--n", "2"]) == 0


def test_closed_checks_build_no_table(monkeypatch):
    monkeypatch.setattr(superrmatrix.verify, "build_root_vectors", _fail)
    monkeypatch.setattr(superrmatrix.rfactors, "build_root_vectors", _fail)
    report = run_suite(VerifyConfig(rank=SuperRank(2, 1), checks=("ybe", "intertwining")))
    assert report.all_passed


def test_import_leaves_scipy_out():
    src = str(Path(superrmatrix.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, superrmatrix; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    assert out.strip() == "False"


# The modules each command must not load: a command imports only what it
# runs, and no run_suite seeds numpy's generators.
FOOTPRINTS = {
    "import": (None, ["numpy", "superrmatrix.*"]),
    "roots": (["roots", "--nmax", "1"], ["superrmatrix.rfactors", "superrmatrix.verify"]),
    "rmatrix_closed": (["rmatrix"], ["superrmatrix.verify"]),
    "rmatrix_pipeline": (["rmatrix", "--mode", "pipeline"], ["superrmatrix.verify"]),
    "verify": (["verify"], ["numpy.random"]),
    "verify_closed_checks": (["verify", "--checks", "ybe,intertwining"], ["numpy.random"]),
    "verify_32_selection": (["verify", "--m", "3", "--n", "2", "--checks",
                             "factor_convergence,r_two_path,level_pairing,intertwining,ybe"],
                            ["numpy.random"]),
}


@pytest.mark.parametrize("case", sorted(FOOTPRINTS))
def test_command_imports_only_what_it_runs(tmp_path, case):
    argv, absent = FOOTPRINTS[case]
    code = "import sys, superrmatrix\n"
    if argv is not None:
        argv = [*argv, "--output", str(tmp_path / "out.json")]
        code += f"from superrmatrix import cli\nassert cli.main({argv!r}) == 0\n"
    code += "print(*sys.modules)"
    loaded = run_fresh(code).split()
    assert "superrmatrix" in loaded
    assert [m for m in loaded if any(fnmatch.fnmatchcase(m, pat) for pat in absent)] == []


def test_lazy_top_level_contract():
    # in a fresh interpreter, before any name is read: dir lists every name,
    # each resolves to its submodule's object, an unknown name is an
    # AttributeError naming the package, and a star import binds __all__
    home = {name: module for module, names in SUBMODULE_NAMES.items() for name in names
            if name in superrmatrix.__all__}
    assert set(home) == set(superrmatrix.__all__)
    code = f"""
import importlib, json, superrmatrix
out = {{"undir": sorted(set(superrmatrix.__all__) - set(dir(superrmatrix)))}}
out["foreign"] = [name for name, module in {home!r}.items()
                  if getattr(superrmatrix, name) is not
                  getattr(importlib.import_module("superrmatrix." + module), name)]
try:
    superrmatrix.nope
except AttributeError as exc:
    out["nope"] = str(exc)
star = {{}}
exec("from superrmatrix import *", star)
out["star"] = sorted(set(star) - {{"__builtins__"}})
print(json.dumps(out))
"""
    out = json.loads(run_fresh(code))
    assert out["undir"] == [] and out["foreign"] == []
    assert out["nope"] == "module 'superrmatrix' has no attribute 'nope'"
    assert out["star"] == sorted(superrmatrix.__all__)


@pytest.mark.parametrize("m, n", [(2, 1), (1, 3), (3, 2)])
def test_pipeline_build_brackets_only_what_it_reads(monkeypatch, fresh_plans, m, n):
    # r_sim_delta reads the e-side unprimed diagonals of the first table and
    # the f-side ones of the second: the first build of a rank plans the
    # series part of those two sides, each once, one bracket of matrix units
    # per level-zero wrap and one per attachment; it plans and builds no
    # table's rest and runs no dense bracket
    calls = _count_calls(monkeypatch, superrmatrix.cartanweyl, "_unit_terms")
    dense = _count_calls(monkeypatch, superrmatrix.gradedmatrix, "q_supercommutator")
    rest = _count_calls(monkeypatch, superrmatrix.cartanweyl.RootVectorTable, "_build_rest")
    rank = SuperRank(m, n)
    build_rfactors(rank, QContext(q=1.1 + 0.2j), 0.6, 1.0, GradingVector.ones(rank),
                   n_max_sim=40)
    assert len(calls) == 2 * (len(superrmatrix.cartanweyl._zero_rows(rank, "series")) + rank.L)
    assert dense == rest == []


@pytest.mark.parametrize("m, n", [(2, 1), (1, 3), (1, 4), (3, 2)])
def test_table_accessors_make_no_dense_bracket(monkeypatch, m, n):
    # every real row of a table is one matrix unit at every level, the M = 1
    # first rows included, and both imaginary families are diagonals
    assert not hasattr(superrmatrix.cartanweyl, "q_supercommutator")
    monkeypatch.setattr(superrmatrix.gradedmatrix, "q_supercommutator", _fail)
    rank, depth = SuperRank(m, n), 6
    rep = EvaluationRep(rank, QContext(q=1.1 + 0.2j), 0.6 + 0.1j)
    table = build_root_vectors(rep, depth)
    real = [r for r in positive_roots(rank, depth) if classify(rank, r)[0] != "imaginary"]
    for side in "ef":
        for root in real:
            ref = closed_form_root_vector(rep, root, side)
            assert np.max(np.abs(table.real(side, root) - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert table.primed_diagonals(side).shape == (depth, rank.L, rank.dim)
        assert table.unprimed_diagonals(side, depth).shape == (depth, rank.L, rank.dim)


def test_second_entry_of_a_level_zero_rest_bracket_raises(monkeypatch, fresh_plans):
    # a level-zero entry is one matrix unit: the finite ladder
    # real_plus (1, 3) of (2, 1), bracketed when the rest of a side is
    # planned, does not keep a bracket that came out with two terms
    terms = superrmatrix.cartanweyl._unit_terms
    rank = SuperRank(2, 1)
    ladder = real_plus_root(rank, 1, 3)

    def two_terms(rank, x, y, root_x, root_y):
        out = terms(rank, x, y, root_x, root_y)
        return out + ((0, 0, False, None),) if root_x + root_y in (ladder, -ladder) else out

    table = build_root_vectors(EvaluationRep(rank, QContext(q=1.1 + 0.2j), 0.9), 2)
    for side in "ef":
        table._series_part(side)
    monkeypatch.setattr(superrmatrix.cartanweyl, "_unit_terms", two_terms)
    for side in "ef":
        with pytest.raises(ValueError, match=r"real_plus', 1, 3\) is not one matrix unit"):
            table.real(side, ladder)
    assert table._rest == {}


def test_pipeline_build_leaves_no_reference_cycles():
    rank = SuperRank(3, 2)
    gc.collect()
    gc.disable()
    try:
        build_rfactors(rank, QContext(q=1.1 + 0.2j), 0.6, 1.0, GradingVector.ones(rank))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_deep_lookup_needs_no_python_recursion():
    # the wrap ladder at level 400 rests on all 400 levels below it; a fixed
    # frame budget well under 400 catches a recursion that grows with n
    rank = SuperRank(2, 1)
    rep = EvaluationRep(rank, QContext(q=1.1 + 0.2j, series_order=400), 1.0)
    root = real_wrap_root(rank, 1, 3, 400)
    table = build_root_vectors(rep, 400)
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        got = table.real("f", root)
    finally:
        sys.setrecursionlimit(limit)
    ref = closed_form_root_vector(rep, root, "f")
    assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))


@pytest.mark.parametrize("m, n, n_max", [(2, 1, 0), (2, 1, 3), (1, 3, 2), (3, 2, 1)])
def test_table_key_sets(m, n, n_max):
    # the real lookup takes exactly the real positive roots with at most n_max
    # deltas; primed vectors cover levels 1..max(1, n_max), unprimed 1..n_max
    rank = SuperRank(m, n)
    d, L = rank.dim, rank.L
    table = build_root_vectors(EvaluationRep(rank, QContext(q=1.1 + 0.2j), 0.9), n_max)
    for side in "ef":
        found = 0
        for root in positive_roots(rank, n_max + 1):
            kind = classify(rank, root)
            if kind[0] != "imaginary" and kind[3] <= n_max:
                assert table.real(side, root).shape == (d, d)
                found += 1
            else:
                with pytest.raises(KeyError):
                    table.real(side, root)
        assert found == d * (d - 1) * (n_max + 1)
        assert table.primed_diagonals(side).shape == (max(1, n_max), L, d)
        for lv in range(n_max + 1):
            assert table.unprimed_diagonals(side, lv).shape == (lv, L, d)
        with pytest.raises(KeyError):
            table.unprimed_diagonals(side, n_max + 1)


def test_real_root_beyond_n_max_is_missing():
    rank = SuperRank(2, 1)
    table = build_root_vectors(EvaluationRep(rank, QContext(q=1.1 + 0.2j), 0.9), 2)
    for root in (real_plus_root(rank, 1, 2, 3), real_wrap_root(rank, 1, 3, 3),
                 imaginary_root(rank, 1, 1), -real_plus_root(rank, 1, 2)):
        for side in "ef":
            with pytest.raises(KeyError):
                table.real(side, root)
    with pytest.raises(KeyError):
        table.unprimed_diagonals("e", 3)


def test_unprimed_diagonals_slice_one_stack():
    rank = SuperRank(3, 2)
    rep = EvaluationRep(rank, QContext(q=1.1 + 0.2j), 0.9)
    table = build_root_vectors(rep, 4)
    for side in "ef":
        stack = table.unprimed_diagonals(side, 3)
        assert stack.shape == (3, rank.L, rank.dim)
        assert np.array_equal(stack, table.unprimed_diagonals(side, 4)[:3])
        for lv in range(1, 4):
            for i in range(1, rank.L + 1):
                ref = closed_form_imaginary(rep, lv, i, side)
                assert np.max(np.abs(np.diag(stack[lv - 1, i - 1]) - ref)) <= 1e-10 * np.max(
                    np.abs(ref))
    with pytest.raises(KeyError):
        table.unprimed_diagonals("e", 5)


def _perturb_primed(monkeypatch, family: int):
    """Patch the bracket terms the plans read so that the primed level-one
    bracket of one family, the one of two transposed units next to slot
    family, gains an off-diagonal term; the caller clears the plans."""
    terms = superrmatrix.cartanweyl._unit_terms

    def perturbed(rank, x, y, root_x, root_y):
        out = terms(rank, x, y, root_x, root_y)
        return out + ((0, 1, False, None),) if x == y[::-1] and min(x) == family else out

    monkeypatch.setattr(superrmatrix.cartanweyl, "_unit_terms", perturbed)


def test_non_diagonal_primed_vector_raises(monkeypatch, fresh_plans):
    # the primed vectors of higher levels are multiples of the level-one ones,
    # whose planned terms are checked before any unprimed array is formed
    rank = SuperRank(2, 1)
    table = build_root_vectors(EvaluationRep(rank, QContext(q=1.1 + 0.2j), 0.9), 2)
    _perturb_primed(monkeypatch, 1)
    unprimed = _count_calls(monkeypatch, superrmatrix.cartanweyl.RootVectorTable, "_unprimed")
    for side in "ef":
        with pytest.raises(AssertionError, match="not diagonal"):
            table.unprimed_diagonals(side, 1)
    assert unprimed == []
    assert table._series == {}


@pytest.mark.parametrize("m, n", [(2, 1), (1, 3), (3, 2)])
def test_generator_stacks_scatter_the_units(m, n):
    # the dense stacks are the units the tables read, each in its own slot
    rank = SuperRank(m, n)
    rep = EvaluationRep(rank, QContext(q=1.1 + 0.2j), 0.9 - 0.2j,
                        GradingVector((2,) + (1,) * rank.L))
    for side, stack in (("e", rep.e_stack()), ("f", rep.f_stack())):
        rows, cols, coeffs = rep.units(side)
        scatter = np.zeros((rank.L + 1, rank.dim, rank.dim), dtype=complex)
        scatter[np.arange(rank.L + 1), rows, cols] = coeffs
        assert np.array_equal(stack, scatter)
        assert np.count_nonzero(stack) == rank.L + 1


@pytest.mark.parametrize("m, n", [(2, 1), (1, 3), (3, 2)])
def test_depth_zero_table_has_level_one_primed_vectors(m, n):
    rank = SuperRank(m, n)
    rep = EvaluationRep(rank, QContext(q=1.1 + 0.2j), 0.9)
    table, deeper = build_root_vectors(rep, 0), build_root_vectors(rep, 3)
    for side in "ef":
        assert table.unprimed_diagonals(side, 0).shape == (0, rank.L, rank.dim)
        primed = table.primed_diagonals(side)
        assert primed.shape == (1, rank.L, rank.dim)
        assert np.array_equal(primed, deeper.primed_diagonals(side)[:1])
        for i in range(1, rank.L + 1):
            ref = closed_form_imaginary(rep, 1, i, side, primed=True)
            assert np.max(np.abs(np.diag(primed[0, i - 1]) - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("bad", [complex("nan"), complex("inf"), complex(0.0, float("-inf"))])
@pytest.mark.parametrize("off_diagonal", [True, False], ids=["off-diagonal", "diagonal"])
def test_diagonals_reject_non_finite_entries(monkeypatch, fresh_plans, bad, off_diagonal):
    # the generator real_plus (2, 3) of (2, 1) takes the coefficient value,
    # which reaches the primed level-one vectors of both families: a primed
    # term off the diagonal is refused when the side is planned, whatever the
    # values; on the diagonal a finite value is kept and one that is not
    # finite is refused, without a numpy warning and before any part of the
    # side is kept
    if off_diagonal:
        _perturb_primed(monkeypatch, 1)
    value, units = [1.0 + 0j], EvaluationRep.units

    def patched(self, side):
        rows, cols, coeffs = units(self, side)
        return rows, cols, coeffs[:2] + value + coeffs[3:]

    monkeypatch.setattr(EvaluationRep, "units", patched)
    rep = EvaluationRep(SuperRank(2, 1), QContext(q=1.1 + 0.2j), 0.9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for side in "ef":
            table = build_root_vectors(rep, 2)
            if off_diagonal:
                with pytest.raises(AssertionError, match="primed level-one vector is not diagonal"):
                    table.primed_diagonals(side)
                assert table._series == {}
            else:
                assert np.array_equal(table.primed_diagonals(side),
                                      BracketTable(rep, 2).primed_diagonals(side))
        value[0] = bad
        for side in "ef":
            table = build_root_vectors(rep, 2)
            with pytest.raises(AssertionError if off_diagonal else OverflowError,
                               match="not diagonal" if off_diagonal else "not finite"):
                table.primed_diagonals(side)
            assert table._series == {}


def test_table_arrays_are_read_only():
    rank = SuperRank(2, 1)
    table = build_root_vectors(EvaluationRep(rank, QContext(q=1.1 + 0.2j), 0.9), 3)
    before = table.unprimed_diagonals("e", 1).copy()
    arrays = [table.primed_diagonals("e")[0], table.unprimed_diagonals("f", 3),
              table.real("e", real_plus_root(rank, 1, 2, 2)),
              table.real("f", real_wrap_root(rank, 1, 3, 0))]
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr *= 2
    assert np.array_equal(table.unprimed_diagonals("e", 1), before)


def test_non_diagonal_level_one_vector_stops_the_climb(monkeypatch, fresh_plans):
    rank = SuperRank(2, 1)
    table = build_root_vectors(EvaluationRep(rank, QContext(q=1.1 + 0.2j), 0.9), 4)
    _perturb_primed(monkeypatch, 0)
    climbs = _count_calls(monkeypatch, superrmatrix.cartanweyl.RootVectorTable, "_steps")
    for side in "ef":
        with pytest.raises(AssertionError, match="not diagonal"):
            table.real(side, real_plus_root(rank, 1, 2, 1))
        assert climbs == []
        assert side not in table._series


@pytest.mark.parametrize("call", [
    lambda t, root: t.real("E", root),
    lambda t, root: t.primed_diagonals("x"),
    lambda t, root: t.unprimed_diagonals("E", 2),
    lambda t, root: t.unprimed_diagonals("e", -1),
], ids=["real-side", "primed-side", "unprimed-side", "unprimed-negative-level"])
def test_table_accessors_reject_bad_side_or_level(call):
    rank = SuperRank(2, 1)
    table = build_root_vectors(EvaluationRep(rank, QContext(q=1.1 + 0.2j), 0.9), 3)
    with pytest.raises(ValueError, match="side must be|nonnegative"):
        call(table, real_plus_root(rank, 1, 2))
    assert table._series == table._rest == {}


@pytest.mark.parametrize("factor", ["prec", "succ", "sim"])
def test_factors_reject_negative_level_count(factor):
    rank, ctx = SuperRank(2, 1), QContext(q=1.1 + 0.2j)
    grading = GradingVector.ones(rank)
    z12 = Zeta12.from_pair(0.6, 1.0, grading)
    tables = tuple(build_root_vectors(EvaluationRep(rank, ctx, z, grading), 2) for z in (0.6, 1.0))
    build = {"prec": lambda: r_prec_delta(rank, ctx, z12, grading, "product", -1),
             "succ": lambda: r_succ_delta(rank, ctx, z12, grading, "product", -1),
             "sim": lambda: r_sim_delta(rank, ctx, z12, grading, "series", -1, tables)}[factor]
    with pytest.raises(ValueError, match="n_max must be nonnegative"):
        build()
    assert all(table._series == table._rest == {} for table in tables)


@pytest.mark.parametrize("m, n", [(2, 1), (1, 3), (3, 2)])
def test_pipeline_build_leaves_the_rest_unbuilt(monkeypatch, m, n):
    # the series reads the e side of the first table and the f side of the
    # second, and only their series parts
    rank, ctx = SuperRank(m, n), QContext(q=1.1 + 0.2j)
    grading = GradingVector.ones(rank)
    tables, build = [], superrmatrix.rfactors.build_root_vectors

    def recorded(rep, n_max):
        tables.append(build(rep, n_max))
        return tables[-1]

    monkeypatch.setattr(superrmatrix.rfactors, "build_root_vectors", recorded)
    build_rfactors(rank, ctx, 0.6, 1.0, grading)
    assert [set(table._series) for table in tables] == [{"e"}, {"f"}]
    assert all(table._rest == {} for table in tables)


@pytest.mark.parametrize("m, n", [(2, 1), (1, 3), (3, 2)])
def test_each_side_takes_one_generator_stack(monkeypatch, m, n):
    # every entry of one side, both parts, from one units(side) call
    rank = SuperRank(m, n)
    table = build_root_vectors(EvaluationRep(rank, QContext(q=1.1 + 0.2j), 0.9), 3)
    calls, units = [], EvaluationRep.units

    def recording(self, side):
        calls.append(side)
        return units(self, side)

    monkeypatch.setattr(EvaluationRep, "units", recording)
    real = [r for r in positive_roots(rank, 3) if classify(rank, r)[0] != "imaginary"]
    for side in "ef":
        for root in real:
            table.real(side, root)
        table.primed_diagonals(side)
        table.unprimed_diagonals(side, 3)
        assert calls.count(side) == 1
    assert calls == ["e", "f"]


@pytest.mark.parametrize("levels", [{"n_max_product": -1}, {"n_max_sim": -1}],
                         ids=["product", "sim"])
def test_build_rfactors_rejects_negative_level_count_before_tables(monkeypatch, levels):
    monkeypatch.setattr(superrmatrix.rfactors, "build_root_vectors", _fail)
    rank = SuperRank(2, 1)
    with pytest.raises(ValueError, match="must be nonnegative"):
        build_rfactors(rank, QContext(q=1.1 + 0.2j), 0.6, 1.0, GradingVector.ones(rank),
                       **levels)


def test_top_level_names_are_pinned():
    # the quick start, the CLI and the benchmark read these; everything else
    # is imported from its submodule
    names = ["EvaluationRep", "GradingVector", "QContext", "SuperRank", "VerifyConfig", "Zeta12",
             "build_rfactors", "build_root_vectors", "k_operator_closed", "r_operator",
             "r_prec_delta", "r_sim_delta", "r_succ_delta", "rho", "run_suite",
             "unprimed_imaginary", "verify_intertwining", "verify_ybe"]
    assert superrmatrix.__all__ == names
    public = {name for name, value in vars(superrmatrix).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(names)


SUBMODULE_NAMES = {
    "cartanweyl": ["RootVectorTable", "build_root_vectors", "unprimed_imaginary",
                   "real_root_monomial", "closed_form_root_vector", "closed_form_imaginary",
                   "t_matrix", "u_matrices"],
    "gradedmatrix": ["matrix_unit", "koszul_sign", "graded_kron", "q_supercommutator"],
    "reps": ["GradingVector", "EvaluationRep", "coproduct_stack", "check_defining_relations"],
    "rfactors": ["Zeta12", "RFactorSet", "k_operator_closed", "k_operator_weights",
                 "r_prec_delta", "r_succ_delta", "r_sim_delta", "rho",
                 "r_operator", "build_rfactors"],
    "rootdata": ["SuperRank", "AffineRoot", "CartanData", "simple_root",
                 "real_plus_root", "real_wrap_root", "imaginary_root", "parity", "bilinear",
                 "cartan_data", "lattice_sign", "classify",
                 "positive_roots", "root_label"],
    "scalars": ["QContext", "DegenerateQError", "q_exponential", "f_m"],
    "tridiag": ["tridiag_inverse", "bq_matrix", "bq_inverse_closed", "c_matrix"],
    "verify": ["verify_ybe", "verify_intertwining", "CheckResult", "VerificationReport",
               "VerifyConfig", "run_suite", "DEFAULT_TOLERANCES"],
}


@pytest.mark.parametrize("module", sorted(SUBMODULE_NAMES))
def test_submodule_names_are_pinned(module):
    # an export is a name some caller reads: adding one edits this list
    mod = importlib.import_module(f"superrmatrix.{module}")
    assert mod.__all__ == SUBMODULE_NAMES[module]
    assert all(hasattr(mod, name) for name in mod.__all__)


def test_two_step_build_gives_the_default_r_total(monkeypatch):
    # the benchmark's composed pipeline, spelled out as its public calls:
    # tables without the unprimed vectors, then unprimed_imaginary, which
    # computes nothing, then each factor; the product must be bit-equal to
    # the one build_rfactors forms, on every benchmark rank
    ctx, z1, z2 = QContext(q=1.1 + 0.2j), 0.6, 1.0
    cases = [(SuperRank(m, n), None) for m, n in TEST_RANKS] + [(SuperRank(3, 2), (1, 2, 1, 1, 1))]
    calls = _count_calls(monkeypatch, superrmatrix.cartanweyl, "_products")
    for rank, s in cases:
        grading = GradingVector.ones(rank) if s is None else GradingVector(s)
        z12 = Zeta12.from_pair(z1, z2, grading)
        reps = [EvaluationRep(rank, ctx, zeta, grading) for zeta in (z1, z2)]
        tables = tuple(build_root_vectors(rep, 40, with_unprimed=False) for rep in reps)
        calls.clear()
        assert all(unprimed_imaginary(table) is table for table in tables)
        assert calls == []
        rp = r_prec_delta(rank, ctx, z12, grading, mode="product", n_max=60)
        rs = r_sim_delta(rank, ctx, z12, grading, mode="series", n_max=40, tables=tables)
        rg = r_succ_delta(rank, ctx, z12, grading, mode="product", n_max=60)
        rh = rho(rank, ctx, z12, grading)
        k = k_operator_closed(rank, ctx)
        default = build_rfactors(rank, ctx, z1, z2, grading).r_total
        assert np.array_equal(rh * (rp @ rs @ rg @ k), default), (rank, s)


@pytest.mark.parametrize("m, n", TEST_RANKS)
def test_u_matrix_is_a_slice_of_the_stack_and_inverts_t(m, n):
    # T_40 has a condition number near 1e8, so a double-precision inverse
    # would carry errors near 1e-9; the reference inverse is taken in 40 digits
    rank, ctx = SuperRank(m, n), QContext(q=1.1 + 0.2j)
    stack = u_matrices(rank, ctx, range(1, 41))
    assert stack.shape == (40, rank.L, rank.L)
    for lv in range(1, 41):
        u = u_matrices(rank, ctx, [lv])[0]  # one level alone, bit-equal to its slice
        with mpmath.workdps(40):
            ref = mpmath.matrix(t_matrix(rank, ctx, lv).tolist()) ** -1
        ref = np.array(ref.tolist(), dtype=complex)
        assert np.array_equal(u, stack[lv - 1])
        assert np.max(np.abs(u - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_u_matrix_rejects_vanishing_q_number():
    # q = exp(i pi / 3) passes the guard up to order 2, but [3]_q = 0
    ctx = QContext(q=np.exp(1j * np.pi / 3), series_order=2)
    rank = SuperRank(2, 1)
    assert np.all(np.isfinite(u_matrices(rank, ctx, [2])[0]))
    with pytest.raises(DegenerateQError):
        u_matrices(rank, ctx, [3])
    with pytest.raises(DegenerateQError):
        u_matrices(rank, ctx, range(1, 4))


def _r_sim_per_level(rank, ctx, tables, n_max):
    """The imaginary-sector series summed one level at a time from the
    unprimed diagonals of each level and one U_n per level: exp of
    -(q-q^-1) sum_n sum_ij (-1)^n o_i^n o_j^n d_i d_j U_nij e_{nd;i} (x) f_{nd;j},
    diagonal on the slot pairs."""
    t1, t2 = tables
    data = cartan_data(rank)
    kappa = ctx.qpow(1) - ctx.qpow(-1)
    o, d = np.array(data.o), np.array(data.d_simple[1:])
    arg = np.zeros((rank.dim, rank.dim), dtype=complex)
    for lv in range(1, n_max + 1):
        od = o ** lv * d
        w = -kappa * (-1) ** lv * np.outer(od, od) * u_matrices(rank, ctx, [lv])[0]
        e = t1.unprimed_diagonals("e", lv)[lv - 1]
        f = t2.unprimed_diagonals("f", lv)[lv - 1]
        arg += e.T @ w @ f
    return np.diag(np.exp(arg.reshape(-1)))


@pytest.mark.parametrize("m, n", TEST_RANKS)
def test_r_sim_series_matches_per_level_sum(m, n):
    rank, ctx = SuperRank(m, n), QContext(q=1.1 + 0.2j)
    grading = GradingVector.ones(rank)
    z1, z2 = 0.6 + 0.1j, 1.0 + 0.05j
    tables = tuple(build_root_vectors(EvaluationRep(rank, ctx, z, grading), 40)
                   for z in (z1, z2))
    got = r_sim_delta(rank, ctx, Zeta12.from_pair(z1, z2, grading), grading,
                      mode="series", n_max=40, tables=tables)
    ref = _r_sim_per_level(rank, ctx, tables, 40)
    assert np.max(np.abs(got - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))


@pytest.mark.parametrize("m, n", TEST_RANKS)
def test_real_factor_product_matches_per_level_factors(m, n):
    # the normally ordered product of the dense rank-one factors
    # 1 - (q - q^-1) (-1)^[b] z^(p + k s) embed(E_ab (x) E_ba), one per hop
    # and level k: k ascending for a < b, descending for a > b
    rank, ctx = SuperRank(m, n), QContext(q=1.1 + 0.2j)
    grading = GradingVector.ones(rank)
    z12 = Zeta12.from_pair(0.6 + 0.1j, 1.0 + 0.05j, grading)
    par, d, s, n_max = rank.parity_vector(), rank.dim, grading.total, 60
    kappa = ctx.qpow(1) - ctx.qpow(-1)
    for build, wrap in ((superrmatrix.rfactors.r_prec_delta, False),
                        (superrmatrix.rfactors.r_succ_delta, True)):
        ref = np.eye(d * d, dtype=complex)
        for i in range(1, d + 1):
            for j in range(i + 1, d + 1):
                a, b = (j, i) if wrap else (i, j)
                p = grading.partial(a, b) if a < b else s - grading.partial(b, a)
                hop = slot_sign(rank, b) * graded_kron(
                    matrix_unit(d, a, b), matrix_unit(d, b, a), par, par)
                for k in (range(n_max, -1, -1) if wrap else range(n_max + 1)):
                    ref = ref @ (np.eye(d * d) - kappa * z12.z ** (p + k * s) * hop)
        got = build(rank, ctx, z12, grading, mode="product", n_max=n_max)
        assert np.max(np.abs(got - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))


def test_pipeline_build_calls_no_series_log_and_no_climb(monkeypatch):
    # the unprimed diagonals are the closed log of a geometric series, and a
    # pipeline build climbs no row; the package defines no series log at all
    climbs = _count_calls(monkeypatch, superrmatrix.cartanweyl.RootVectorTable, "_build_rest")
    rank = SuperRank(3, 2)
    build_rfactors(rank, QContext(q=1.1 + 0.2j), 0.6, 1.0, GradingVector.ones(rank))
    assert climbs == []
    assert not [name for name, module in list(sys.modules.items())
                if name.split(".")[0] == "superrmatrix" and hasattr(module, "series_log")]


@pytest.mark.parametrize("m", [1, 2, -1, -2])
def test_f_m_matches_high_precision_sum(m):
    # negative m is the M < N case of the imaginary-sector scalar
    q, zeta = 1.1 + 0.2j, 0.5 + 0.2j
    ctx = QContext(q=q)
    with mpmath.workdps(40):
        hbar = mpmath.log(mpmath.mpc(q))
        qn = lambda nu: mpmath.exp(hbar * nu)
        ref = mpmath.fsum(mpmath.mpc(zeta) ** n / (n * (qn(n * m) - qn(-n * m)) / (qn(n) - qn(-n)))
                          for n in range(1, ctx.series_order + 1))
    ref = complex(ref)
    assert abs(f_m(zeta, m, ctx) - ref) <= 1e-14 * abs(ref)


def test_vanishing_q_number_denominator_rejected():
    # q = exp(i pi / 3) passes the guard up to order 2, but q**3 - q**-3 = 0
    ctx = QContext(q=np.exp(1j * np.pi / 3), series_order=2)
    rank = SuperRank(2, 1)
    with pytest.raises(DegenerateQError):
        bq_matrix(rank, ctx, 3)
    with pytest.raises(DegenerateQError):
        bq_inverse_closed(rank, ctx, 3)


def test_vanishing_level_q_number_names_its_level(tmp_path, capsys):
    # at (3,1) and q = exp(i pi / 60), [2]_q is near 2 but the level-30
    # q-Cartan matrix is singular: [M-N]_(q**30) = [2]_(q**30) vanishes
    q = complex(np.exp(1j * np.pi / 60))
    with pytest.raises(DegenerateQError, match=r"\[2\]_\(q\*\*30\) vanishes"):
        build_rfactors(SuperRank(3, 1), QContext(q=q), 0.6, 1.0)
    argv = ["rmatrix", "--m", "3", "--n", "1", "--q-re", repr(q.real), "--q-im", repr(q.imag)]
    assert main(argv + ["--mode", "pipeline"]) == 2
    assert "q**30" in capsys.readouterr().err
    out = tmp_path / "r.json"
    assert main(argv + ["--output", str(out)]) == 0  # the closed form without a residual
    assert set(json.loads(out.read_text())["metadata"].values()) == {None}


_PI60 = complex(np.exp(1j * np.pi / 60))  # [2]_(q**30) = 0


@pytest.mark.parametrize("call, nu, scale", [
    # q = i: [2]_q = 0 in the i < M ladder of (2,1)
    (lambda: build_root_vectors(EvaluationRep(
        SuperRank(2, 1), QContext(q=1j, unity_tol=0.0, series_order=1), 1.0), 1), 2, 1),
    # q = exp(i pi / 3) passes the guard up to order 2, but [3]_q = 0
    (lambda: u_matrices(SuperRank(2, 1), QContext(q=np.exp(1j * np.pi / 3), series_order=2),
                        [1, 2, 3]), 3, 1),
    (lambda: f_m(0.5, 2, QContext(q=_PI60)), 2, 30),
    (lambda: bq_inverse_closed(SuperRank(3, 1), QContext(q=_PI60), np.arange(1, 41)), 2, 30),
], ids=["ladder", "u_matrices", "f_m", "bq_inverse_closed"])
def test_every_vanishing_q_number_is_refused_by_name(call, nu, scale):
    # the four divisors are refused by scalars.require_nonzero, which names
    # the first vanishing entry and its base
    with pytest.raises(DegenerateQError, match=re.escape(f"[{nu}]_(q**{scale}) vanishes")):
        call()


@pytest.mark.parametrize("call, what", [
    (lambda ctx: u_matrices(SuperRank(2, 1), ctx, np.arange(1, 41)), "level pairing matrix"),
    (lambda ctx: f_m(np.array([0.5, 0.5]), 1, ctx), "f_m sum"),
], ids=["u_matrices", "f_m"])
def test_level_readers_refuse_a_level_past_the_float_range(call, what):
    # at (2,1) and q = 1e150 the level q-numbers overflow: each public reader
    # refuses itself, without a numpy warning (a RuntimeWarning fails the test)
    with pytest.raises(OverflowError, match=f"{what}.* is not finite"):
        call(QContext(q=1e150))


def test_verify_reports_a_degenerate_level_per_check(tmp_path, capsys):
    # at the same point the default verify runs all 12 checks: the two that
    # build the series at level 30 fail with the refusal, the others pass
    q = complex(np.exp(1j * np.pi / 60))
    out = tmp_path / "verify.json"
    argv = ["verify", "--m", "3", "--n", "1", "--q-re", repr(q.real), "--q-im", repr(q.imag),
            "--output", str(out)]
    assert main(argv) == 1
    lines = capsys.readouterr().out.splitlines()
    checks = json.loads(out.read_text())["checks"]
    assert len(checks) == len(lines) - 1 == 12
    failed = {c["name"]: c for c in checks if not c["passed"]}
    assert sorted(failed) == ["factor_convergence", "r_two_path"]
    for name, check in failed.items():
        assert "q**30" in check["error"] and check["residual"] is None
        assert any(line.startswith("FAIL") and name in line and "q**30" in line
                   for line in lines)
    assert all(c["error"] is None for c in checks if c["passed"])


def test_qcontext_rejects_vanishing_q_power_difference():
    # q = i: q**2 - q**-2 = 0, with the root-of-unity test switched off
    with pytest.raises(DegenerateQError):
        QContext(q=1j, unity_tol=0.0)


def _count_calls(monkeypatch, owner, name):
    """Patch owner.name to count its calls; returns the list of calls."""
    calls, inner = [], getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(None)
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.mark.parametrize("m, n", [(2, 1), (1, 3), (3, 2)])
def test_pipeline_build_bracket_count_is_independent_of_depth(monkeypatch, fresh_plans, m, n):
    # the series plan of a side brackets the level-zero wraps but the affine
    # generator, d (d - 1) / 2 - 1 of them, and then once per attachment for
    # the level-one primed vectors; the higher levels are powers of the climb
    # step
    calls = _count_calls(monkeypatch, superrmatrix.cartanweyl, "_unit_terms")
    rank, counts = SuperRank(m, n), []
    for n_max_sim in (10, 40):
        superrmatrix.cartanweyl._plan.cache_clear()
        calls.clear()
        build_rfactors(rank, QContext(q=1.1 + 0.2j), 0.6, 1.0, GradingVector.ones(rank),
                       n_max_sim=n_max_sim)
        counts.append(len(calls))
    d = rank.dim
    assert counts[0] == counts[1] == 2 * (d * (d - 1) // 2 - 1 + rank.L)


@pytest.mark.parametrize("s0", [1, 2], ids=["principal", "s0=2"])
@pytest.mark.parametrize("m, n", [(2, 1), (1, 3), (3, 2)])
def test_second_build_runs_only_its_coefficient_products(monkeypatch, m, n, s0):
    # the bracket shapes depend on the rank alone: after one build of a rank,
    # a build at a fresh q and zeta, under either grading, looks up no rule
    # and makes no bracket; it runs the planned products, one pass per side
    rank = SuperRank(m, n)
    build_rfactors(rank, QContext(q=1.1 + 0.2j), 0.6, 1.0, GradingVector.ones(rank))
    rules = _count_calls(monkeypatch, superrmatrix.gradedmatrix, "_rule")
    terms = _count_calls(monkeypatch, superrmatrix.cartanweyl, "_unit_terms")
    dense = _count_calls(monkeypatch, superrmatrix.gradedmatrix, "q_supercommutator")
    products = _count_calls(monkeypatch, superrmatrix.cartanweyl, "_products")
    grading = GradingVector((s0,) + (1,) * rank.L)
    build_rfactors(rank, QContext(q=0.93 + 0.31j), 0.5 - 0.2j, 0.9 + 0.3j, grading)
    assert rules == terms == dense == []
    assert len(products) == 2


def _count_level_forms(monkeypatch):
    """Count what forms level q-numbers, after clearing the level data of
    every (rank, q): tables of powers of q, level data, and q-numbers formed
    by qnum_scaled; returns the lists of calls by name."""
    superrmatrix.cartanweyl._levels.cache_clear()
    return {"powers": _count_calls(monkeypatch, superrmatrix.scalars, "_power_table"),
            "levels": _count_calls(monkeypatch, superrmatrix.cartanweyl._Levels, "_form"),
            "qnum_scaled": _count_calls(monkeypatch, QContext, "qnum_scaled")}


def _made(calls) -> dict:
    """The count of each kind of call so far, then cleared."""
    counts = {name: len(made) for name, made in calls.items()}
    for made in calls.values():
        made.clear()
    return counts


def test_pipeline_build_evaluates_q_numbers_as_arrays(monkeypatch):
    # at a fresh q a build forms one table of powers of q, in one evaluation,
    # and the level data of its (rank, q) once, whatever its depth: no
    # q-number one row, entry, level or sum at a time; a second build at that
    # (rank, q) forms none
    calls = _count_level_forms(monkeypatch)
    for m, n in [(2, 1), (1, 3), (3, 2)]:
        rank = SuperRank(m, n)
        for n_max_sim in (10, 40):
            ctx = QContext(q=1.1 + 0.2j + 0.01j * n_max_sim)  # a fresh q
            _made(calls)
            for expected in ({"powers": 1, "levels": 1, "qnum_scaled": 0},
                             {"powers": 0, "levels": 0, "qnum_scaled": 0}):
                build_rfactors(rank, ctx, 0.6, 1.0, GradingVector.ones(rank),
                               n_max_sim=n_max_sim)
                assert _made(calls) == expected, (m, n, n_max_sim)


def test_first_table_forms_every_q_number_of_its_rank_and_q(monkeypatch):
    # one table of powers per q and one evaluation per (rank, q): the first
    # table forms both; reading its parts and a second table at that (rank, q)
    # form none
    rank, ctx = SuperRank(3, 2), QContext(q=1.1 + 0.2j)
    calls = _count_level_forms(monkeypatch)
    first = build_root_vectors(EvaluationRep(rank, ctx, 0.6), 40)
    assert _made(calls) == {"powers": 1, "levels": 1, "qnum_scaled": 0}
    for table in (first, build_root_vectors(EvaluationRep(rank, ctx, 1.0), 40)):
        for side in "ef":
            table.unprimed_diagonals(side, 40)
            table.real(side, real_plus_root(rank, 1, 2, 3))
    assert _made(calls) == {"powers": 0, "levels": 0, "qnum_scaled": 0}


@pytest.mark.parametrize("first", ["series", "rho"])
def test_tables_form_no_q_number_above_level_one(monkeypatch, first):
    # once the level data of a (rank, q) is formed, building and reading its
    # tables form nothing; the series reads U_n from that data and rho its
    # [M-N]_{q**n} from the same table of powers of q, and in either order
    # neither forms a table of powers, level data or any q-number
    rank, ctx = SuperRank(3, 2), QContext(q=1.1 + 0.2j)
    grading = GradingVector.ones(rank)
    calls = _count_level_forms(monkeypatch)
    superrmatrix.cartanweyl._ladder(rank, ctx)
    _made(calls)
    tables = tuple(build_root_vectors(EvaluationRep(rank, ctx, zeta), 40) for zeta in (0.6, 1.0))
    for table in tables:
        for side in "ef":
            table.unprimed_diagonals(side, 40)
            table.real(side, real_plus_root(rank, 1, 2, 3))
    nothing = {"powers": 0, "levels": 0, "qnum_scaled": 0}
    assert _made(calls) == nothing
    z12 = Zeta12.from_pair(0.6, 1.0, grading)
    readers = {"series": lambda: r_sim_delta(rank, ctx, z12, grading, mode="series",
                                             tables=tables),
               "rho": lambda: rho(rank, ctx, z12, grading)}
    for name in readers if first == "series" else list(readers)[::-1]:
        readers[name]()
        assert _made(calls) == nothing, name


def test_level_data_is_read_only_and_its_caches_bounded():
    # 100 fresh q values keep the per-(rank, q) and per-rank caches at their
    # bounds; what they hold, and the table of powers of q, cannot be written,
    # while a reader's copy of U_n can without changing a later read
    rank = SuperRank(3, 2)
    for k in range(100):
        ctx = QContext(q=np.exp(0.01 + (0.1 + 0.004 * k) * 1j))
        build_root_vectors(EvaluationRep(rank, ctx, 0.6), 4)
        u = u_matrices(rank, ctx, [1, 2, 3])
    for cache in (superrmatrix.cartanweyl._levels, superrmatrix.cartanweyl._level_plan):
        info = cache.cache_info()
        assert 0 < info.currsize <= info.maxsize == 16
    data = superrmatrix.cartanweyl._levels(rank, ctx)
    for array in (ctx.powers(1), data.den, data.qn, data.nums, data.u, data.level_ok,
                  data.ladder_qn, data.ladder, superrmatrix.cartanweyl._ladder(rank, ctx)):
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = array.flat[0]
    u[...] = 0
    assert np.array_equal(u_matrices(rank, ctx, [1, 2, 3]), data.u[:3])


def test_levels_above_the_formed_ones_extend_the_one_entry(monkeypatch):
    # a level past series_order forms the entry of the (rank, q) again, wider,
    # with one wider table of powers of q; the levels formed before keep
    # their bits, and the new one is n / [n]_q times the closed inverse
    rank, ctx = SuperRank(2, 1), QContext(q=1.1 + 0.2j)
    calls = _count_level_forms(monkeypatch)
    low = u_matrices(rank, ctx, np.arange(1, 41))
    entry = superrmatrix.cartanweyl._levels(rank, ctx)
    assert entry.top == 40 and _made(calls) == {"powers": 1, "levels": 1, "qnum_scaled": 0}
    high = u_matrices(rank, ctx, [100, 1, 41])
    assert superrmatrix.cartanweyl._levels(rank, ctx) is entry and entry.top == 100
    assert _made(calls) == {"powers": 1, "levels": 1, "qnum_scaled": 0}
    assert np.array_equal(u_matrices(rank, ctx, np.arange(1, 41)), low)
    assert np.array_equal(high[1], low[0])
    with np.errstate(over="ignore", invalid="ignore"):
        direct = (100 / ctx.qnum(100)) * bq_inverse_closed(rank, ctx, 100)
    assert np.array_equal(high[0], direct)
    u_matrices(rank, ctx, np.arange(1, 201))  # 200 levels: one more extension
    assert entry.top == 200 and _made(calls)["levels"] == 1


@pytest.mark.parametrize("top, refusal", [(59, "[2]_(q**30) vanishes"),
                                          (60, "[60]_(q**1) vanishes")])
def test_u_matrices_keeps_its_refusal_order(top, refusal):
    # at q = e^(i pi/60) on (3,1) the divisor [2]_(q**30) vanishes, and at
    # level 60 so do [60]_q and q**60 - q**-60: [n]_q is refused before any
    # denominator or divisor at any level read, then the divisor
    with pytest.raises(DegenerateQError, match=re.escape(refusal)):
        u_matrices(SuperRank(3, 1), QContext(q=_PI60), np.arange(1, top + 1))


def test_series_domain_bound_is_formed_once_per_rank_and_q(monkeypatch):
    # the bound 1/max(|q**(M-N-1)|, |q**(1-(M-N))|) is read from the level
    # data of the (rank, q): the first check forms it, the next forms no
    # power of q and still refuses past it
    rank, ctx = SuperRank(1, 3), QContext(q=1.1 + 0.2j)
    grading = GradingVector.ones(rank)
    superrmatrix.cartanweyl._levels.cache_clear()
    qpows = _count_calls(monkeypatch, QContext, "qpow")
    require = superrmatrix.rfactors._require_series_domain
    require(rank, ctx, Zeta12.from_pair(0.6, 1.0, grading), grading)
    assert len(qpows) == 2
    qpows.clear()
    require(rank, ctx, Zeta12.from_pair(0.6, 1.0, grading), grading)
    bound = 1 / max(abs(ctx.q ** 3), abs(ctx.q ** -3))
    with pytest.raises(ValueError, match="the series factors"):
        require(rank, ctx, Zeta12.from_pair(1.001 * bound ** (1 / grading.total), 1.0, grading),
                grading)
    assert qpows == []


def test_build_forms_the_closed_r_only_when_read(monkeypatch):
    # the pipeline build and r_operator(mode="pipeline") read r_total alone;
    # r_closed forms on its first read, once, and a build at a pole of the
    # closed form is still refused
    rank, ctx = SuperRank(3, 2), QContext(q=1.1 + 0.2j)
    closed = _count_calls(monkeypatch, superrmatrix.rfactors, "_r_closed")
    factors = build_rfactors(rank, ctx, 0.6, 1.0)
    r_operator(rank, ctx, 0.6, 1.0, mode="pipeline")
    assert closed == []
    assert np.array_equal(factors.r_closed, r_operator(rank, ctx, 0.6, 1.0))
    assert factors.cross_mode_residual == np.max(np.abs(factors.r_total - factors.r_closed))
    assert len(closed) == 2  # the property once, r_operator once
    pole = ctx.qpow(-2) ** (1 / GradingVector.ones(rank).total)
    with pytest.raises(ZeroDivisionError, match="pole"):
        build_rfactors(rank, QContext(q=1.1 + 0.2j), pole, 1.0)


def _scale_levels(monkeypatch, name, at):
    """Patch the level data to scale the entries at of its array name by
    1 + 1e-3 as it forms, and clear what was formed before; the caller's
    fresh_levels clears what forms under the patch."""
    form = superrmatrix.cartanweyl._Levels._form

    def scaled(self, top):
        form(self, top)
        array = getattr(self, name).copy()
        array[at] *= 1 + 1e-3
        array.setflags(write=False)
        setattr(self, name, array)

    monkeypatch.setattr(superrmatrix.cartanweyl._Levels, "_form", scaled)
    superrmatrix.cartanweyl._levels.cache_clear()


def test_series_weights_read_the_level_data(monkeypatch, fresh_levels):
    # U_n is read from the level data of the (rank, q), the stack u_matrices
    # reads, so the weights equal those of u_matrices bit for bit (see the
    # contraction test below): a scaled U_n there moves the factor, and the
    # series calls no u_matrices
    rank, ctx = SuperRank(3, 2), QContext(q=1.1 + 0.2j)
    grading = GradingVector.ones(rank)
    z12 = Zeta12.from_pair(0.6, 1.0, grading)
    tables = tuple(build_root_vectors(EvaluationRep(rank, ctx, zeta), 12) for zeta in (0.6, 1.0))
    before = r_sim_delta(rank, ctx, z12, grading, mode="series", n_max=12, tables=tables)
    calls = _count_calls(monkeypatch, superrmatrix.rfactors, "u_matrices")
    _scale_levels(monkeypatch, "u", np.s_[:])
    after = r_sim_delta(rank, ctx, z12, grading, mode="series", n_max=12, tables=tables)
    assert calls == []
    assert not np.allclose(after, before, rtol=1e-6, atol=0)


def test_rho_and_the_closed_sector_read_the_level_data(monkeypatch, fresh_levels):
    # at M - N = 1 the two sums cancel, so a rank with |M - N| = 2; both sums
    # divide by the [M-N]_{q**n} of the level data, so rho equals its value
    # from f_m bit for bit, a scaled divisor there moves rho and the closed
    # imaginary sector, and neither calls f_m
    rank, ctx = SuperRank(1, 3), QContext(q=1.1 + 0.2j)
    grading, k = GradingVector.ones(rank), rank.m - rank.n
    z12 = Zeta12.from_pair(0.6, 1.0, grading)
    plus, minus = f_m(np.array([ctx.qpow(k - 1) * z12.zs, ctx.qpow(-(k - 1)) * z12.zs]), k, ctx)
    readers = (lambda: rho(rank, ctx, z12, grading),
               lambda: r_sim_delta(rank, ctx, z12, grading, mode="closed"))
    before = [read() for read in readers]
    assert before[0] == ctx.qpow((k - 1) / k) * np.exp(plus - minus)
    calls = _count_calls(monkeypatch, superrmatrix.rfactors, "f_m")
    _scale_levels(monkeypatch, "nums", np.s_[:, -1])
    after = [read() for read in readers]
    assert calls == []
    for x, y in zip(before, after):
        assert not np.allclose(x, y, rtol=1e-6, atol=0)


@pytest.mark.parametrize("m, n", [(2, 1), (1, 3), (3, 2)])
def test_fresh_q_build_reads_its_level_quantities_once(monkeypatch, m, n):
    # at a fresh q a build forms the table of powers of q and the level data
    # once each, and reads U_n and [M-N]_{q**n} there: it calls neither
    # u_matrices nor f_m, which would gather and check them again
    rank = SuperRank(m, n)
    calls = _count_level_forms(monkeypatch)
    readers = [_count_calls(monkeypatch, superrmatrix.rfactors, name)
               for name in ("u_matrices", "f_m")]
    ctx = QContext(q=1.1 + 0.2j)
    _made(calls)
    build_rfactors(rank, ctx, 0.6, 1.0)
    assert _made(calls) == {"powers": 1, "levels": 1, "qnum_scaled": 0}
    assert readers == [[], []]


@pytest.mark.parametrize("m, n", [(3, 1), (1, 3)])
def test_a_refused_level_goes_through_its_public_reader(monkeypatch, m, n):
    # at q = e^(i pi/60) the divisor [M-N]_(q**30) vanishes: the build
    # refuses it through u_matrices and rho through f_m, each with its own
    # message
    rank, ctx = SuperRank(m, n), QContext(q=_PI60)
    grading = GradingVector.ones(rank)
    readers = [_count_calls(monkeypatch, superrmatrix.rfactors, name)
               for name in ("u_matrices", "f_m")]
    refusal = re.escape(f"[{m - n}]_(q**30) vanishes")
    with pytest.raises(DegenerateQError, match=refusal):
        build_rfactors(rank, ctx, 0.6, 1.0, grading)
    assert [len(calls) for calls in readers] == [1, 0]
    with pytest.raises(DegenerateQError, match=refusal):
        rho(rank, ctx, Zeta12.from_pair(0.6, 1.0, grading), grading)
    assert [len(calls) for calls in readers] == [1, 1]


@pytest.mark.parametrize("m, n", [(2, 1), (1, 3), (3, 2)])
def test_build_r_sim_is_the_exponential_of_the_u_matrix_contraction(m, n):
    # W_n = -(q - q^-1) (-1)^n o_i^n o_j^n d_i d_j U_n, U_n from u_matrices,
    # contracted with the unprimed diagonals of the build's two tables
    rank, ctx, depth = SuperRank(m, n), QContext(q=1.1 + 0.2j), 40
    grading = GradingVector.ones(rank)
    data, levels = cartan_data(rank), np.arange(1, depth + 1)
    od = np.array(data.o) ** levels[:, None] * np.array(data.d_simple[1:])
    signs = (-1.0) ** levels[:, None, None] * od[:, :, None] * od[:, None, :]
    assert np.array_equal(superrmatrix.rfactors._level_signs(rank, depth), signs)
    w = -(ctx.qpow(1) - ctx.qpow(-1)) * signs * u_matrices(rank, ctx, levels)
    e, f = (build_root_vectors(EvaluationRep(rank, ctx, zeta), depth).unprimed_diagonals(side, depth)
            for zeta, side in ((0.6, "e"), (1.0, "f")))
    arg = e.transpose(2, 0, 1).reshape(rank.dim, -1) @ (w @ f).reshape(-1, rank.dim)
    r_sim = build_rfactors(rank, ctx, 0.6, 1.0, grading, n_max_sim=depth).r_sim
    assert np.array_equal(r_sim, np.diag(np.exp(arg.reshape(-1))))


# per value type: one value, and values that differ from it in one field each
_VALUE_CASES = {
    "SuperRank": (lambda: SuperRank(3, 2), [lambda: SuperRank(2, 3), lambda: SuperRank(3, 1)]),
    "AffineRoot": (lambda: AffineRoot((2, 1, 1), attach=1),
                   [lambda: AffineRoot((2, 1, 1)), lambda: AffineRoot((2, 1, 1), attach=2),
                    lambda: AffineRoot((2, 1, 0), attach=1)]),
    "GradingVector": (lambda: GradingVector((1, 2, 1)),
                      [lambda: GradingVector((2, 1, 1)), lambda: GradingVector((1, 2))]),
    "QContext": (lambda: QContext(q=1.1 + 0.2j),
                 [lambda: QContext(q=1.1 + 0.25j), lambda: QContext(q=1.1 + 0.2j, series_order=30),
                  lambda: QContext(q=1.1 + 0.2j, unity_tol=1e-7)]),
}


@pytest.mark.parametrize("name", sorted(_VALUE_CASES))
def test_cache_key_values_compare_field_by_field(name):
    # the hash is stored at construction; equality stays that of a frozen
    # dataclass: field by field, attach included, and only with its own type
    make, others = _VALUE_CASES[name]
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b) and not a != b
    assert len({a, b}) == 1
    for other in others:
        c = other()
        assert a != c and not a == c and {a: 0}.get(c) is None
    assert a.__eq__(object()) is NotImplemented and a.__eq__(a._fields) is NotImplemented
    assert a != a._fields


@pytest.mark.parametrize("m, n", TEST_RANKS)
def test_every_level_matches_closed_forms(m, n):
    # every real-root and primed entry of a depth-40 table, each kind of stack
    # included, against its closed form
    rank, ctx = SuperRank(m, n), QContext(q=1.1 + 0.2j)
    for zeta in (0.6 + 0.1j, 1.0 + 0.05j):
        rep = EvaluationRep(rank, ctx, zeta)
        table = build_root_vectors(rep, 40)
        real = [r for r in positive_roots(rank, 40) if classify(rank, r)[0] != "imaginary"]
        checks = [(table.real(which, root), closed_form_root_vector(rep, root, which))
                  for which in "ef" for root in real]
        checks += [(np.diag(table.primed_diagonals(which)[lv - 1, i - 1]),
                    closed_form_imaginary(rep, lv, i, which, primed=True))
                   for which in "ef" for lv in range(1, 41) for i in range(1, rank.L + 1)]
        assert len(checks) == 2 * (rank.dim * (rank.dim - 1) * 41 + 40 * rank.L)
        for got, ref in checks:
            assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))


@pytest.mark.parametrize("m, n", [(1, 3), (1, 4)])
def test_second_series_radius_rejected_before_tables(monkeypatch, m, n):
    # |z**s| = 0.8 < 1, but |q**(M-N-1) z**s| = 0.8 |q|**(N-M+1) > 1, where the
    # f_m sums of rho diverge
    monkeypatch.setattr(superrmatrix.rfactors, "build_root_vectors", _fail)
    rank = SuperRank(m, n)
    grading = GradingVector.ones(rank)
    zeta1 = 0.8 ** (1 / grading.total)
    with pytest.raises(ValueError, match=r"\|z\*\*s\| = 0\.8 .*q = 1\.1\+0\.2j"):
        build_rfactors(rank, QContext(q=1.1 + 0.2j), zeta1, 1.0, grading)


@pytest.mark.parametrize("make", [
    lambda: QContext(q=complex("nan")),
    lambda: QContext(q=complex(1.1, float("inf"))),
    lambda: QContext(q=1.1 + 0.2j, unity_tol=float("nan")),
    lambda: QContext(q=1.1 + 0.2j, unity_tol=-1.0),
    lambda: EvaluationRep(SuperRank(2, 1), QContext(q=1.1 + 0.2j), float("nan")),
    lambda: Zeta12.from_pair(complex("inf"), 1.0, GradingVector.ones(SuperRank(2, 1))),
    lambda: Zeta12.from_pair(0.6, complex("nan"), GradingVector.ones(SuperRank(2, 1))),
])
def test_non_finite_inputs_rejected(make):
    with pytest.raises(ValueError, match="finite"):
        make()


def _count_bound_calls(monkeypatch, name, original):
    """Count the calls of ``original`` under every superrmatrix module name
    bound to it; returns the list of calls."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "superrmatrix" and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counting)
    return calls


def _vertex_table_misses():
    """Misses so far of the two caches of the vertex-model form: per rank and
    per (rank, grading)."""
    return tuple(table.cache_info().misses for table in
                 (superrmatrix.rfactors._slot_pairs, superrmatrix.rfactors._hops))


def test_closed_checks_make_rank_independent_call_counts(monkeypatch):
    # warm calls: the coproduct images of all generators are written from
    # their entries with no graded_kron, the YBE products are gathers from
    # the three R's along a cached plan, and every entry of R comes from the
    # cached vertex-model tables, so no count grows with the rank
    counts = {"intertwining": set(), "ybe": set()}
    for m, n in [(2, 1), (3, 1), (3, 2)]:
        rank, ctx = SuperRank(m, n), QContext(q=1.1 + 0.2j)
        grading = GradingVector.ones(rank)
        checks = {
            "intertwining": lambda: verify_intertwining(rank, ctx, 0.5, 0.9, grading),
            "ybe": lambda: verify_ybe(rank, ctx, 0.5, 0.9, 1.6, grading),
        }
        for name, check in checks.items():
            check()
            with monkeypatch.context() as patch:
                kron = _count_bound_calls(patch, "graded_kron",
                                          superrmatrix.gradedmatrix.graded_kron)
                einsum = _count_calls(patch, np, "einsum")
                misses = _vertex_table_misses()
                check()
            new_misses = np.subtract(_vertex_table_misses(), misses)
            counts[name].add((len(kron), len(einsum), *new_misses.tolist()))
    assert all(len(c) == 1 for c in counts.values()), counts
    assert all(max(next(iter(c))) <= 2 for c in counts.values()), counts


@pytest.mark.parametrize("m, n", [(2, 1), (3, 2)])
def test_warm_hop_entries_come_from_one_table(m, n):
    # the closed R and both product-mode real factors read the cached
    # vertex-model tables: a cold build fills each once, a warm one neither
    rank, ctx = SuperRank(m, n), QContext(q=1.1 + 0.2j)
    grading = GradingVector((1,) * rank.L + (2,))
    z12 = Zeta12.from_pair(0.6 + 0.1j, 1.0, grading)

    def build():
        r_operator(rank, ctx, 0.6 + 0.1j, 1.0, grading, mode="closed")
        r_prec_delta(rank, ctx, z12, grading, mode="product", n_max=60)
        r_succ_delta(rank, ctx, z12, grading, mode="product", n_max=60)

    superrmatrix.rfactors._slot_pairs.cache_clear()
    superrmatrix.rfactors._hops.cache_clear()
    build()
    assert _vertex_table_misses() == (1, 1)
    build()
    assert _vertex_table_misses() == (1, 1)
