import gc
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import superrmatrix
import superrmatrix.cartanweyl
import superrmatrix.rfactors
import superrmatrix.verify
from superrmatrix import (
    EvaluationRep,
    GradingVector,
    QContext,
    SuperRank,
    TruncatedSeries,
    VerifyConfig,
    build_rfactors,
    build_root_vectors,
    closed_form_root_vector,
    run_suite,
    unprimed_imaginary,
)
from superrmatrix.cli import main
from superrmatrix.rootdata import classify, positive_roots, real_plus_root, real_wrap_root


def _fail(*args, **kwargs):
    raise AssertionError("no root-vector table may be built here")


def test_out_of_domain_rejected_before_tables(monkeypatch):
    monkeypatch.setattr(superrmatrix.rfactors, "build_root_vectors", _fail)
    rank = SuperRank(2, 1)
    with pytest.raises(ValueError):
        build_rfactors(rank, QContext(q=1.1 + 0.2j), 1.4, 1.0, GradingVector.ones(rank))


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


def test_series_rejects_non_diagonal_matrix_coefficient():
    nilpotent = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        TruncatedSeries([np.eye(2), nilpotent])


@pytest.mark.parametrize("m, n", [(2, 1), (1, 3), (3, 2)])
def test_pipeline_build_brackets_only_what_it_reads(monkeypatch, m, n):
    # r_sim_delta reads e_imag of the first table and f_imag of the second:
    # per table the level-zero wraps plus, per attachment and level, one
    # primed vector and one ladder step
    calls = []
    bracket = superrmatrix.cartanweyl.q_supercommutator

    def counting(*args):
        calls.append(None)
        return bracket(*args)

    monkeypatch.setattr(superrmatrix.cartanweyl, "q_supercommutator", counting)
    rank, n_max_sim = SuperRank(m, n), 40
    build_rfactors(rank, QContext(q=1.1 + 0.2j), 0.6, 1.0, GradingVector.ones(rank),
                   n_max_sim=n_max_sim)
    d = rank.dim
    assert len(calls) <= 2 * (d * (d - 1) // 2 + 2 * rank.L * n_max_sim)


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
        got = table.f[root].matrix
    finally:
        sys.setrecursionlimit(limit)
    ref = closed_form_root_vector(rep, root, "f")
    assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))


@pytest.mark.parametrize("m, n, n_max", [(2, 1, 0), (2, 1, 3), (1, 3, 2), (3, 2, 1)])
def test_table_key_sets(m, n, n_max):
    rank = SuperRank(m, n)
    table = build_root_vectors(EvaluationRep(rank, QContext(q=1.1 + 0.2j), 0.9), n_max,
                               with_unprimed=False)
    real = {r for r in positive_roots(rank, n_max) if classify(rank, r)[0] != "imaginary"}
    attached = {(lv, i) for lv in range(1, n_max + 1) for i in range(1, rank.L + 1)}
    primed = {(lv, i) for lv in range(1, max(1, n_max) + 1) for i in range(1, rank.L + 1)}
    for family, keys in ((table.e, real), (table.f, real), (table.e_prime, primed),
                         (table.f_prime, primed), (table.e_imag, set()),
                         (table.f_imag, set())):
        assert set(family) == keys and len(family) == len(keys)
        assert all(key in family for key in keys)
    unprimed_imaginary(table)
    for family in (table.e_imag, table.f_imag):
        assert set(family) == attached and len(family) == len(attached)
        assert dict(family.items()).keys() == attached


def test_real_root_beyond_n_max_is_missing():
    rank = SuperRank(2, 1)
    table = build_root_vectors(EvaluationRep(rank, QContext(q=1.1 + 0.2j), 0.9), 2)
    for root in (real_plus_root(rank, 1, 2, 3), real_wrap_root(rank, 1, 3, 3)):
        assert root not in table.e and root not in table.f
        with pytest.raises(KeyError):
            table.e[root]
        with pytest.raises(KeyError):
            table.f[root]
    with pytest.raises(KeyError):
        table.e_prime[(3, 1)]
