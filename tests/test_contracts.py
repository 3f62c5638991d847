import gc
import os
import subprocess
import sys
from pathlib import Path

import mpmath
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
    Zeta12,
    bq_inverse_closed,
    bq_matrix,
    build_rfactors,
    build_root_vectors,
    closed_form_root_vector,
    f_m,
    r_sim_delta,
    run_suite,
    t_matrix,
    u_matrix,
    unprimed_imaginary,
)
from superrmatrix.cli import main
from superrmatrix.cartanweyl import u_matrices
from superrmatrix.gradedmatrix import graded_kron, matrix_unit
from superrmatrix.rootdata import (
    cartan_data,
    classify,
    imaginary_root,
    parity,
    positive_roots,
    real_plus_root,
    real_wrap_root,
)
from superrmatrix.scalars import DegenerateQError

from conftest import TEST_RANKS


def _fail(*args, **kwargs):
    raise AssertionError("no root-vector table may be built here")


def test_out_of_domain_rejected_before_tables(monkeypatch):
    monkeypatch.setattr(superrmatrix.rfactors, "build_root_vectors", _fail)
    rank = SuperRank(2, 1)
    with pytest.raises(ValueError):
        build_rfactors(rank, QContext(q=1.1 + 0.2j), 1.4, 1.0, GradingVector.ones(rank))


def test_levels_beyond_series_order_rejected_before_tables(monkeypatch):
    monkeypatch.setattr(superrmatrix.rfactors, "build_root_vectors", _fail)
    rank = SuperRank(2, 1)
    ctx = QContext(q=1.1 + 0.2j, series_order=20)
    with pytest.raises(ValueError, match="series order"):
        build_rfactors(rank, ctx, 0.6, 1.0, GradingVector.ones(rank), n_max_sim=21)
    z12 = Zeta12.from_pair(0.6, 1.0, GradingVector.ones(rank))
    with pytest.raises(ValueError, match="series order"):
        r_sim_delta(rank, ctx, z12, GradingVector.ones(rank), mode="series", n_max=21)


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
    bracket = superrmatrix.cartanweyl._bracket

    def counting(*args):
        calls.append(None)
        return bracket(*args)

    monkeypatch.setattr(superrmatrix.cartanweyl, "_bracket", counting)
    rank, n_max_sim = SuperRank(m, n), 40
    build_rfactors(rank, QContext(q=1.1 + 0.2j), 0.6, 1.0, GradingVector.ones(rank),
                   n_max_sim=n_max_sim)
    d = rank.dim
    assert calls
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


@pytest.mark.parametrize("m, n", TEST_RANKS)
def test_view_lookups_carry_signed_key_root_and_parity(m, n):
    rank = SuperRank(m, n)
    table = build_root_vectors(EvaluationRep(rank, QContext(q=1.1 + 0.2j), 0.9), 3)
    for sign, families in ((1, (table.e, table.e_prime, table.e_imag)),
                           (-1, (table.f, table.f_prime, table.f_imag))):
        real, primed, unprimed = families
        for family, root_of in ((real, lambda key: key),
                                (primed, lambda key: imaginary_root(rank, *key)),
                                (unprimed, lambda key: imaginary_root(rank, *key))):
            assert len(family)
            for key in family:
                el = family[key]
                root = root_of(key) if sign > 0 else -root_of(key)
                assert el.root == root and el.parity == parity(rank, root)
                assert el.matrix.shape == (rank.dim, rank.dim)


def test_unprimed_diagonals_stack_the_views():
    rank = SuperRank(3, 2)
    table = build_root_vectors(EvaluationRep(rank, QContext(q=1.1 + 0.2j), 0.9), 4,
                               with_unprimed=False)
    with pytest.raises(KeyError):
        table.unprimed_diagonals("e", 1)
    unprimed_imaginary(table)
    for side, family in (("e", table.e_imag), ("f", table.f_imag)):
        stack = table.unprimed_diagonals(side, 3)
        assert stack.shape == (3, rank.L, rank.dim)
        for (lv, i), el in family.items():
            if lv <= 3:
                assert np.array_equal(np.diag(stack[lv - 1, i - 1]), el.matrix)
    with pytest.raises(KeyError):
        table.unprimed_diagonals("e", 5)


def test_non_diagonal_primed_vector_raises():
    rank = SuperRank(2, 1)
    table = build_root_vectors(EvaluationRep(rank, QContext(q=1.1 + 0.2j), 0.9), 2)
    memo = table._recursion.memo
    primed = table.e_prime[(2, 1)].matrix
    memo["e", "prime"][1, 0] = primed + 1e-6 * np.max(np.abs(primed)) * np.eye(3, k=1)
    with pytest.raises(AssertionError, match="not diagonal"):
        table.e_imag[(1, 1)]


@pytest.mark.parametrize("m, n", TEST_RANKS)
def test_u_matrix_is_a_slice_of_the_stack_and_inverts_t(m, n):
    # T_40 has a condition number near 1e8, so a double-precision inverse
    # would carry errors near 1e-9; the reference inverse is taken in 40 digits
    rank, ctx = SuperRank(m, n), QContext(q=1.1 + 0.2j)
    stack = u_matrices(rank, ctx, range(1, 41))
    assert stack.shape == (40, rank.L, rank.L)
    for lv in range(1, 41):
        u = u_matrix(rank, ctx, lv)
        with mpmath.workdps(40):
            ref = mpmath.matrix(t_matrix(rank, ctx, lv).tolist()) ** -1
        ref = np.array(ref.tolist(), dtype=complex)
        assert np.array_equal(u, stack[lv - 1])
        assert np.max(np.abs(u - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_u_matrix_rejects_vanishing_q_number():
    # q = exp(i pi / 3) passes the guard up to order 2, but [3]_q = 0
    ctx = QContext(q=np.exp(1j * np.pi / 3), series_order=2)
    rank = SuperRank(2, 1)
    assert np.all(np.isfinite(u_matrix(rank, ctx, 2)))
    with pytest.raises(DegenerateQError):
        u_matrix(rank, ctx, 3)
    with pytest.raises(DegenerateQError):
        u_matrices(rank, ctx, range(1, 4))


def _r_sim_per_level(rank, ctx, tables, n_max):
    """The imaginary-sector series summed one level at a time from the view
    lookups and one U_n per level: exp of -(q-q^-1) sum_n sum_ij (-1)^n o_i^n o_j^n d_i d_j U_nij
    e_{nd;i} (x) f_{nd;j}, diagonal on the slot pairs."""
    t1, t2 = tables
    data = cartan_data(rank)
    kappa = ctx.qpow(1) - ctx.qpow(-1)
    o, d = np.array(data.o), np.array(data.d_simple[1:])
    arg = np.zeros((rank.dim, rank.dim), dtype=complex)
    for lv in range(1, n_max + 1):
        od = o ** lv * d
        w = -kappa * (-1) ** lv * np.outer(od, od) * u_matrix(rank, ctx, lv)
        e = np.array([np.diag(t1.e_imag[(lv, i)].matrix) for i in range(1, rank.L + 1)])
        f = np.array([np.diag(t2.f_imag[(lv, j)].matrix) for j in range(1, rank.L + 1)])
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
                hop = (-1) ** rank.slot_parity(b) * graded_kron(
                    matrix_unit(d, a, b), matrix_unit(d, b, a), par, par)
                for k in (range(n_max, -1, -1) if wrap else range(n_max + 1)):
                    ref = ref @ (np.eye(d * d) - kappa * z12.power(p + k * s) * hop)
        got = build(rank, ctx, z12, grading, mode="product", n_max=n_max)
        assert np.max(np.abs(got - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))


def test_pipeline_build_takes_one_series_log_per_table_side(monkeypatch):
    # all unprimed families of one side share one log over the stacked diagonals
    calls = []
    log = TruncatedSeries.log

    def counting(self, *args, **kwargs):
        calls.append(self.c.shape)
        return log(self, *args, **kwargs)

    monkeypatch.setattr(TruncatedSeries, "log", counting)
    rank = SuperRank(3, 2)
    build_rfactors(rank, QContext(q=1.1 + 0.2j), 0.6, 1.0, GradingVector.ones(rank))
    assert calls == [(41, rank.L * rank.dim)] * 2


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
def test_pipeline_build_brackets_one_stack_per_level(monkeypatch, m, n):
    # per table side: the level-zero wraps one by one, then one bracket for the
    # level-one primed vectors, one per level of the adjacent-row climb and one
    # for the primed vectors of all levels; a stacked bracket counts once
    calls = _count_calls(monkeypatch, superrmatrix.cartanweyl, "_bracket")
    rank, n_max_sim = SuperRank(m, n), 40
    build_rfactors(rank, QContext(q=1.1 + 0.2j), 0.6, 1.0, GradingVector.ones(rank),
                   n_max_sim=n_max_sim)
    d = rank.dim
    assert calls
    assert len(calls) <= 2 * (d * (d - 1) // 2 + rank.L + n_max_sim + 2)


def test_pipeline_build_evaluates_q_numbers_as_arrays(monkeypatch):
    # one call per ladder table, one per U_n stack and its Cartan inverse, one
    # per f_m sum of rho: not one call per row or per Cartan entry
    rank, ctx = SuperRank(3, 2), QContext(q=1.1 + 0.2j)
    calls = _count_calls(monkeypatch, QContext, "qnum_scaled")
    build_rfactors(rank, ctx, 0.6, 1.0, GradingVector.ones(rank))
    assert calls
    assert len(calls) <= 10


@pytest.mark.parametrize("m, n", TEST_RANKS)
def test_every_level_matches_closed_forms(m, n):
    # every real-root and primed entry of a depth-40 table, each kind of stack
    # included, against its closed form
    closed_form_imaginary = superrmatrix.cartanweyl.closed_form_imaginary
    rank, ctx = SuperRank(m, n), QContext(q=1.1 + 0.2j)
    for zeta in (0.6 + 0.1j, 1.0 + 0.05j):
        rep = EvaluationRep(rank, ctx, zeta)
        table = build_root_vectors(rep, 40)
        checks = [(el.matrix, closed_form_root_vector(rep, root, which))
                  for which, family in (("e", table.e), ("f", table.f))
                  for root, el in family.items()]
        checks += [(el.matrix, closed_form_imaginary(rep, lv, i, which, primed=True))
                   for which, family in (("e", table.e_prime), ("f", table.f_prime))
                   for (lv, i), el in family.items()]
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
    lambda: QContext(q=1.1 + 0.2j, tolerance=float("nan")),
    lambda: QContext(q=1.1 + 0.2j, tolerance=float("inf")),
    lambda: EvaluationRep(SuperRank(2, 1), QContext(q=1.1 + 0.2j), float("nan")),
    lambda: Zeta12.from_pair(complex("inf"), 1.0, GradingVector.ones(SuperRank(2, 1))),
    lambda: Zeta12.from_pair(0.6, complex("nan"), GradingVector.ones(SuperRank(2, 1))),
])
def test_non_finite_inputs_rejected(make):
    with pytest.raises(ValueError, match="finite"):
        make()
