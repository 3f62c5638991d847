import cmath
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from superrmatrix import (
    GradingVector,
    QContext,
    SuperRank,
    VerifyConfig,
    r_operator,
    run_suite,
    verify_intertwining,
    verify_ybe,
)
import superrmatrix.verify
from superrmatrix import cartanweyl, gradedmatrix, scalars
from superrmatrix.gradedmatrix import graded_kron
from superrmatrix.reps import EvaluationRep, check_defining_relations, coproduct_stack
from superrmatrix.rfactors import _slot_pairs, build_rfactors
from superrmatrix.rootdata import (
    cartan_data,
    classify,
    imaginary_root,
    real_plus_root,
    real_wrap_root,
)
from superrmatrix.verify import CheckResult, _ybe_entries

from conftest import (
    TEST_RANKS,
    lift_12,
    lift_13,
    lift_23,
    maxabs,
    node_parity,
    rand_q,
    slot_sign,
    zeta_pair_bounded,
)


def ybe_zetas(rng, s_total, bound=0.8):
    """Three spectral parameters with every pairwise ratio power bounded."""
    r12 = rng.uniform(0.1, bound ** (1 / s_total))
    r23 = rng.uniform(0.1, bound ** (1 / s_total))
    p1, p2 = rng.uniform(0, 2 * np.pi, size=2)
    u12 = r12 * np.exp(1j * p1)
    u23 = r23 * np.exp(1j * p2)
    return u12 * u23, u23, 1.0 + 0j


def test_lift_embeddings_are_homomorphisms(rng):
    rank = SuperRank(2, 1)
    p = rank.parity_vector()
    a = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    b = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    for lift in (lift_12, lift_23):
        assert maxabs(lift(a @ b, p) - lift(a, p) @ lift(b, p)) < 1e-12
    # 13-lift: even operators compose as well
    r = r_operator(rank, QContext(q=1.1 + 0.2j), 0.6, 1.0)
    r2 = r_operator(rank, QContext(q=1.1 + 0.2j), 0.5, 1.1)
    assert maxabs(lift_13(r @ r2, p) - lift_13(r, p) @ lift_13(r2, p)) < 1e-12


def test_ybe_random_points_21(rng):
    rank = SuperRank(2, 1)
    for _ in range(5):
        ctx = QContext(q=rand_q(rng, u_scale=0.2))
        z1, z2, z3 = ybe_zetas(rng, 3)
        assert verify_ybe(rank, ctx, z1, z2, z3) < 1e-9


def test_ybe_equal_spectral_parameters(rng):
    rank = SuperRank(2, 1)
    ctx = QContext(q=rand_q(rng))
    assert verify_ybe(rank, ctx, 0.7, 0.7, 0.7) < 1e-9


def test_ybe_other_ranks(rng):
    for m, n in [(1, 2), (2, 3)]:
        rank = SuperRank(m, n)
        for _ in range(2):
            ctx = QContext(q=rand_q(rng))
            z1, z2, z3 = ybe_zetas(rng, m + n)
            assert verify_ybe(rank, ctx, z1, z2, z3) < 1e-9


def test_ybe_detects_corruption(rng):
    # corrupting one entry of R by 1e-4 must push the residual above 1e-5
    rank = SuperRank(2, 1)
    ctx = QContext(q=1.1 + 0.2j)
    p = rank.parity_vector()
    z1, z2, z3 = 0.5, 0.9, 1.6
    r12m = r_operator(rank, ctx, z1, z2)
    r12m[0, 4] += 1e-4
    r12 = lift_12(r12m, p)
    r13 = lift_13(r_operator(rank, ctx, z1, z3), p)
    r23 = lift_23(r_operator(rank, ctx, z2, z3), p)
    residual = maxabs(r12 @ r13 @ r23 - r23 @ r13 @ r12)
    assert residual > 1e-5


def _corrupt_call(monkeypatch, target, row, col):
    """Patch verify.r_operator so that its call number ``target`` (0-based)
    returns R with 1e-4 added at (row, col)."""
    calls, r_operator_ = [], superrmatrix.verify.r_operator

    def corrupted(*args, **kwargs):
        r = r_operator_(*args, **kwargs)
        if len(calls) == target:
            r = r.copy()
            r[row, col] += 1e-4
        calls.append(None)
        return r

    monkeypatch.setattr(superrmatrix.verify, "r_operator", corrupted)


def dense_ybe(r12, r13, r23, p):
    """R12 R13 R23 - R23 R13 R12 from the dense lifts."""
    lhs = lift_12(r12, p) @ lift_13(r13, p) @ lift_23(r23, p)
    return lhs - lift_23(r23, p) @ lift_13(r13, p) @ lift_12(r12, p)


@pytest.mark.parametrize("m, n", [(2, 1), (1, 2), (3, 2)])
@pytest.mark.parametrize("target", [0, 1, 2])
def test_verify_ybe_detects_corruption_of_each_factor(monkeypatch, m, n, target):
    # verify_ybe itself must see a 1e-4 change in any one of R(z1, z2),
    # R(z1, z3) and R(z2, z3): on the swap entry of the last two slots, two
    # odd ones when N >= 2, it reads the dense lifts' residual; an entry off
    # the vertex-model pattern reads inf
    rank, ctx = SuperRank(m, n), QContext(q=1.1 + 0.2j)
    d, p, zetas = rank.dim, rank.parity_vector(), (0.5, 0.9, 1.6)
    assert verify_ybe(rank, ctx, *zetas) < 1e-12
    rs = [r_operator(rank, ctx, zetas[a], zetas[b]) for a, b in ((0, 1), (0, 2), (1, 2))]
    a, b = d - 2, d - 1
    rs[target][a * d + b, b * d + a] += 1e-4
    with monkeypatch.context() as patch:
        _corrupt_call(patch, target, a * d + b, b * d + a)
        residual = verify_ybe(rank, ctx, *zetas)
    assert residual > 1e-5
    assert abs(residual - maxabs(dense_ybe(*rs, p))) <= 1e-9 * residual
    _corrupt_call(monkeypatch, target, 0, d + 1)
    assert verify_ybe(rank, ctx, *zetas) == np.inf


def test_off_pattern_r_fails_the_ybe_check(monkeypatch):
    cfg = VerifyConfig(rank=SuperRank(3, 2), checks=("ybe",))
    _corrupt_call(monkeypatch, 1, 0, cfg.rank.dim + 1)
    (check,) = run_suite(cfg).checks
    assert check.residual == np.inf and not check.passed


@pytest.fixture
def moved_swaps(monkeypatch):
    """The slot-pair table with every i < k swap index moved one column to
    the right, its mask of the entries off the pattern moved with it, in
    every module that reads it; the tables made from it are cleared before
    and after."""
    inner = superrmatrix.rfactors._slot_pairs

    def moved(rank):
        diag, swap, kind, sign, _ = inner(rank)
        i, k = np.indices(swap.shape)
        swap = np.where(i < k, swap + 1, swap)
        off = np.ones(rank.dim ** 4, dtype=bool)
        off[diag] = off[swap] = False
        return diag, swap, kind, sign, off

    for module in (superrmatrix.rfactors, superrmatrix.verify):
        monkeypatch.setattr(module, "_slot_pairs", moved)
    caches = (superrmatrix.rfactors._hops, superrmatrix.verify._ybe_plan)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


@pytest.mark.parametrize("m, n", [(2, 1), (1, 2), (3, 2)])
def test_checks_read_the_pattern_apart_from_the_table_r_is_written_with(moved_swaps, m, n):
    # r_sparsity and the guard of verify_ybe derive the vertex-model pattern
    # themselves: a fault in the slot-pair table R is written with puts
    # entries off that pattern, which both read, though the table's own mask
    # moves with the fault
    report = run_suite(VerifyConfig(rank=SuperRank(m, n), checks=("r_sparsity", "ybe")))
    sparsity, ybe = report.checks
    assert not sparsity.passed and sparsity.residual > 1e-3
    assert ybe.residual == np.inf and not ybe.passed


@pytest.mark.parametrize("s_last", [1, 2], ids=["principal", "s_L=2"])
@pytest.mark.parametrize("m, n", TEST_RANKS)
def test_default_suite_passes_on_each_rank_and_grading(m, n, s_last):
    rank = SuperRank(m, n)
    report = run_suite(VerifyConfig(rank=rank, grading=GradingVector((1,) * rank.L + (s_last,))))
    assert report.all_passed, report.render()


_YBE_RANKS = [(m, n) for m in range(1, 6) for n in range(1, 6) if m != n and m + n <= 6]


@settings(derandomize=True, max_examples=50, deadline=None)
@given(rank_index=st.integers(0, len(_YBE_RANKS) - 1), bumped=st.none() | st.integers(0, 5),
       u=st.floats(-0.3, 0.3), v=st.floats(0.1, 1.2),
       w12=st.complex_numbers(min_magnitude=0.02, max_magnitude=0.9),
       w23=st.complex_numbers(min_magnitude=0.02, max_magnitude=0.9))
def test_monomial_ybe_matches_dense_lifts(rank_index, bumped, u, v, w12, w23):
    # z**s of each pair ratio drawn in the disc |z**s| <= 0.9 (z13**s =
    # z12**s z23**s), away from the pole q**2 z**s = 1; the grading is the
    # principal one or has one s_i = 2
    rank = SuperRank(*_YBE_RANKS[rank_index])
    s = [1] * (rank.L + 1)
    if bumped is not None:
        s[bumped % (rank.L + 1)] = 2
    grading, ctx = GradingVector(tuple(s)), QContext(q=cmath.exp(complex(u, v)))
    for w in (w12, w23, w12 * w23):
        assume(abs(1 - ctx.qpow(2) * w) >= 0.05)
    z2 = w23 ** (1 / grading.total)
    zetas = (w12 ** (1 / grading.total) * z2, z2, 1.0)
    rs = [r_operator(rank, ctx, zetas[a], zetas[b], grading) for a, b in ((0, 1), (0, 2), (1, 2))]
    bound = 1e-12 * max(1.0, *map(maxabs, rs)) ** 3
    assert verify_ybe(rank, ctx, *zetas, grading) < bound
    assert maxabs(dense_ybe(*rs, rank.parity_vector())) < bound


def test_warm_verify_ybe_allocates_no_dense_operand():
    # at (3,2) one dense d^3 x d^3 complex operand alone is 244 KB
    rank, ctx = SuperRank(3, 2), QContext(q=1.1 + 0.2j)
    verify_ybe(rank, ctx, 0.5, 0.9, 1.6)
    tracemalloc.start()
    try:
        verify_ybe(rank, ctx, 0.5, 0.9, 1.6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024


@pytest.mark.parametrize("m, n", [(1, 2), (3, 2)])
def test_verify_intertwining_detects_odd_odd_hop_corruption(monkeypatch, m, n):
    # the hop between the first two odd slots, whose embedding sign is -1
    rank, ctx = SuperRank(m, n), QContext(q=1.1 + 0.2j)
    d, a, b = rank.dim, m, m + 1  # 0-based slots
    _corrupt_call(monkeypatch, 0, a * d + b, b * d + a)
    res = verify_intertwining(rank, ctx, 0.5, 0.9)
    assert max(res[name] for name in (f"e{m}", f"f{m}", "e0", "f0")) > 1e-5


@pytest.mark.parametrize("m, n", TEST_RANKS)
def test_monomial_products_match_dense_lifts(rng, m, n):
    # three random matrices on the vertex-model pattern satisfy no Yang-Baxter
    # equation, so every entry of R12 R13 R23 - R23 R13 R12 is O(1) and each
    # sign and column map of the plan shows in it
    rank = SuperRank(m, n)
    d, p = rank.dim, rank.parity_vector()
    diag, swap = _slot_pairs(rank)[:2]
    table = np.zeros((3, d ** 4), dtype=complex)
    for pattern in (swap, diag):
        table[:, pattern] = rng.normal(size=(3, d, d)) + 1j * rng.normal(size=(3, d, d))
    keys, values = _ybe_entries(table, rank)
    got = np.zeros(d ** 6, dtype=complex)
    got[keys] = values
    ref = dense_ybe(*table.reshape(3, d * d, d * d), p)
    assert maxabs(got - ref.reshape(-1)) <= 1e-13 * maxabs(ref)


@pytest.mark.parametrize("m, n", TEST_RANKS + [(4, 3)])
def test_coproduct_stack_matches_written_out_terms(m, n):
    # the images written from their entries equal the embedded terms exactly
    rank, ctx = SuperRank(m, n), QContext(q=1.2 + 0.3j)
    s = [1] * (rank.L + 1)
    s[-1] = 2
    grading = GradingVector(tuple(s))
    rep1 = EvaluationRep(rank, ctx, 0.6 + 0.2j, grading)
    rep2 = EvaluationRep(rank, ctx, 1.3 - 0.1j, grading)
    p, one = rank.parity_vector(), np.eye(rank.dim)
    stacks = {nu: coproduct_stack(rep1, rep2, nu) for nu in (0.7 - 0.4j, 1.0)}
    for (nu, stack), i in itertools.product(stacks.items(), range(rank.L + 1)):
        di = slot_sign(rank, i)  # d_i = (-1)^[i], d_0 = 1
        expected = {
            "h": (graded_kron(rep1.cartan(i, nu), rep2.cartan(i, nu), p, p),
                  graded_kron(rep1.cartan(i, nu), rep2.cartan(i, nu), p, p)),
            "e": (graded_kron(rep1.e_stack()[i], one, p, p)
                  + graded_kron(rep1.cartan(i, di), rep2.e_stack()[i], p, p),
                  graded_kron(one, rep2.e_stack()[i], p, p)
                  + graded_kron(rep1.e_stack()[i], rep2.cartan(i, di), p, p)),
            "f": (graded_kron(rep1.f_stack()[i], rep2.cartan(i, -di), p, p)
                  + graded_kron(one, rep2.f_stack()[i], p, p),
                  graded_kron(rep1.cartan(i, -di), rep2.f_stack()[i], p, p)
                  + graded_kron(rep1.f_stack()[i], one, p, p)),
        }
        for k, kind in enumerate("hef"):
            for opposite in (0, 1):
                assert np.array_equal(stack[opposite, k, i], expected[kind][opposite]), \
                    (m, n, nu, kind, i, opposite)


@pytest.mark.parametrize("m, n", [(2, 1), (3, 2), (4, 3)])
def test_warm_verify_intertwining_allocates_about_two_stacks(m, n):
    # the coproduct stack and the two products of the batched check, with no
    # embedded factor pairs beside them
    rank, ctx = SuperRank(m, n), QContext(q=1.1 + 0.2j)
    stack_bytes = 2 * 3 * (rank.L + 1) * rank.dim ** 4 * np.dtype(complex).itemsize
    verify_intertwining(rank, ctx, 0.5, 0.9)
    tracemalloc.start()
    try:
        verify_intertwining(rank, ctx, 0.5, 0.9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * stack_bytes, peak / stack_bytes


@pytest.mark.parametrize("m, n", [(2, 1), (1, 2), (3, 2)])
def test_default_intertwining_reads_the_koszul_sign_of_the_coproduct(monkeypatch, m, n):
    # with the embedding sign of the unit (x) diagonal terms dropped, the
    # check at the default verify point fails by far
    cfg = VerifyConfig(rank=SuperRank(m, n))
    assert verify_intertwining(cfg.rank, cfg.context(), cfg.zeta1, cfg.zeta2)["max"] < 1e-9
    monkeypatch.setattr(superrmatrix.reps, "koszul_sign", lambda *parities: 1.0)
    assert verify_intertwining(cfg.rank, cfg.context(), cfg.zeta1, cfg.zeta2)["max"] > 1


@pytest.mark.parametrize("m, n", TEST_RANKS)
def test_coproduct_is_an_algebra_map_on_the_ef_relation(m, n):
    # Delta e_i Delta f_j - (-1)^([i][j]) Delta f_j Delta e_i
    #   = delta_ij (Delta(q^{d_i h_i}) - Delta(q^{-d_i h_i})) / (q_i - q_i^-1),
    # for Delta and Delta', each side read from coproduct_stack
    rank, ctx = SuperRank(m, n), QContext(q=1.2 + 0.3j)
    grading = GradingVector((1,) * rank.L + (2,))
    rep1 = EvaluationRep(rank, ctx, 0.6 + 0.2j, grading)
    rep2 = EvaluationRep(rank, ctx, 1.3 - 0.1j, grading)
    d = np.array([1] + [slot_sign(rank, i) for i in range(1, rank.L + 1)])  # d_0 = 1
    stack = coproduct_stack(rep1, rep2)
    k_up, k_down = coproduct_stack(rep1, rep2, d)[:, 0], coproduct_stack(rep1, rep2, -d)[:, 0]
    for cop in (0, 1):
        for i in range(rank.L + 1):
            for j in range(rank.L + 1):
                e, f = stack[cop, 1, i], stack[cop, 2, j]
                sign = -1.0 if node_parity(rank, i) * node_parity(rank, j) else 1.0
                lhs = e @ f - sign * (f @ e)
                if i == j:
                    lhs -= (k_up[cop, i] - k_down[cop, i]) / (ctx.qpow(d[i]) - ctx.qpow(-d[i]))
                scale = max(maxabs(e @ f), maxabs(f @ e), 1.0)
                assert maxabs(lhs) <= 1e-12 * scale, (m, n, cop, i, j, maxabs(lhs))


def test_check_line_reports_milliseconds():
    line = CheckResult("ybe", "", 1e-15, 1e-9, 0.00123).line()
    assert "(1.23 ms)" in line


def test_intertwining_per_generator(rng):
    for m, n in TEST_RANKS:
        rank = SuperRank(m, n)
        ctx = QContext(q=rand_q(rng))
        z1, z2 = zeta_pair_bounded(rng, m + n)
        res = verify_intertwining(rank, ctx, z1, z2)
        for name, value in res.items():
            assert value < 1e-9, (m, n, name, value)
        # the odd generators are present and individually checked
        assert f"e{rank.m}" in res and "e0" in res and "f0" in res


def test_run_suite_default_passes():
    report = run_suite(VerifyConfig(rank=SuperRank(2, 1)))
    assert report.all_passed
    assert len(report.checks) == 12
    text = report.render()
    assert "ALL CHECKS PASSED" in text


def test_level_pairing_passes_at_the_build_depth():
    # U_n T_n - 1 is read relative to |U_n|_max |T_n|_max, the scale of the
    # rounding in the product, whose entries grow with n
    cfg = VerifyConfig(rank=SuperRank(3, 2), n_max=40, checks=("level_pairing",))
    (check,) = run_suite(cfg).checks
    assert check.passed, check.residual


@pytest.mark.parametrize("n_max", [4, 40])
def test_level_pairing_fails_on_a_negated_entry_of_u(monkeypatch, n_max):
    # negating the largest off-diagonal entry of every U_n is still caught
    # under the relative scale, at the default depth and the build's
    inner = superrmatrix.verify.u_matrices

    def negated(rank, ctx, levels):
        u = inner(rank, ctx, levels).copy()
        for un in u:
            off = np.abs(un) * (1 - np.eye(len(un)))
            un[np.unravel_index(np.argmax(off), un.shape)] *= -1
        return u

    monkeypatch.setattr(superrmatrix.verify, "u_matrices", negated)
    cfg = VerifyConfig(rank=SuperRank(3, 2), n_max=n_max, checks=("level_pairing",))
    (check,) = run_suite(cfg).checks
    assert not check.passed, check.residual


@pytest.mark.parametrize("checks", [("level_pairing",), None])
def test_level_pairing_at_no_level_is_a_configuration_error(monkeypatch, checks):
    # at n_max = 0 the check would form no residual and pass having compared
    # nothing, so it is refused before any check runs
    def refuse(*args, **kwargs):
        raise AssertionError("a check ran before the configuration error")

    for name in ("_check_scalars", "_check_level_pairing"):
        monkeypatch.setattr(superrmatrix.verify, name, refuse)
    with pytest.raises(ValueError, match="level_pairing needs n_max >= 1, got 0"):
        run_suite(VerifyConfig(rank=SuperRank(2, 1), n_max=0, checks=checks))


def test_other_checks_still_run_at_no_level():
    report = run_suite(VerifyConfig(rank=SuperRank(2, 1), n_max=0,
                                    checks=("scalars", "root_vectors_closed_form")))
    assert [c.name for c in report.checks] == ["scalars", "root_vectors_closed_form"]
    assert report.all_passed


def _level_pairing_per_bracket(rep, table, n_max):
    """The level-pairing check one bracket at a time: U_n T_n = 1 relative to
    |U_n|_max |T_n|_max, and each (n, m, i, j) bracket identity on its own,
    relative to |x_m|_max |diag|_max of its two operands, at least tiny."""
    rank, ctx, data = rep.rank, rep.ctx, cartan_data(rep.rank)
    unprimed = table.unprimed_diagonals("e", n_max)
    worst = 0.0
    for n in range(1, n_max + 1):
        tn, un = cartanweyl.t_matrix(rank, ctx, n), cartanweyl.u_matrices(rank, ctx, [n])[0]
        scale = max(1.0, np.abs(un).max() * np.abs(tn).max())
        worst = max(worst, np.abs((un @ tn - np.eye(rank.L)) / scale).max())
        for m_lv in range(n_max - n + 1):
            for i in range(1, rank.L + 1):
                root = real_plus_root(rank, i, i + 1, m_lv)
                for j in range(1, rank.L + 1):
                    x, diag = table.real("e", root), np.diag(unprimed[n - 1, j - 1])
                    lhs = gradedmatrix.q_supercommutator(
                        rank, ctx, x, diag, root, imaginary_root(rank, n, j))
                    rhs = (data.d_simple[j] * (data.o[i - 1] * data.o[j - 1]) ** n
                           * tn[i - 1, j - 1]
                           * table.real("e", real_plus_root(rank, i, i + 1, m_lv + n)))
                    scale = max(np.abs(x).max() * np.abs(diag).max(), np.finfo(float).tiny)
                    worst = max(worst, np.abs((lhs - rhs) / scale).max())
    return float(worst)


@pytest.mark.parametrize("m, n", [(2, 1), (1, 3), (3, 2)])
def test_level_pairing_equals_the_per_bracket_check(m, n):
    # the stacked brackets form the same products as one bracket per level
    rep = EvaluationRep(SuperRank(m, n), QContext(q=1.1 + 0.2j), 0.6)
    table = cartanweyl.build_root_vectors(rep, 8)
    assert (superrmatrix.verify._check_level_pairing(rep, table, 8)
            == _level_pairing_per_bracket(rep, table, 8))


@pytest.mark.parametrize("m, n", [(2, 1), (3, 2)])
def test_level_pairing_reads_the_rule_with_a_delta_part(monkeypatch, m, n):
    # a form with (delta|delta) = 1 moves the q-power of every bracket whose
    # ladder level is above 0 and leaves level 0 as it was: the stacked check
    # must read that as the per-bracket check does, not reuse level 0's rule
    rep = EvaluationRep(SuperRank(m, n), QContext(q=1.1 + 0.2j), 0.6)
    table = cartanweyl.build_root_vectors(rep, 8)
    inner = gradedmatrix.bilinear
    monkeypatch.setattr(gradedmatrix, "bilinear", lambda rank, g1, g2: (
        inner(rank, g1, g2) + min(g1.coeffs) * min(g2.coeffs)))
    gradedmatrix._rule.cache_clear()  # the rule is cached per pair of roots
    try:
        residual = superrmatrix.verify._check_level_pairing(rep, table, 8)
        assert residual == _level_pairing_per_bracket(rep, table, 8)
    finally:
        gradedmatrix._rule.cache_clear()
    assert residual > 1e-3


def test_level_pairing_reads_a_small_error_in_a_small_ladder_vector(monkeypatch):
    # the top ladder vector at n_max 6 is of size about zeta^{6 s} = 0.6^30:
    # a relative error of 1e-6 in it, an absolute one of about 2e-12, fails
    # the gate relative to the operands of its bracket
    inner = cartanweyl.RootVectorTable.real

    def nudged(table, side, root):
        out = inner(table, side, root)
        return (1 + 1e-6) * out if classify(table.rep.rank, root)[3] == 6 else out

    cfg = VerifyConfig(rank=SuperRank(3, 2), n_max=6, checks=("level_pairing",))
    assert run_suite(cfg).all_passed
    monkeypatch.setattr(cartanweyl.RootVectorTable, "real", nudged)
    (check,) = run_suite(cfg).checks
    assert not check.passed, check.residual


@pytest.mark.parametrize("zeta, n_max", [(1e-60, 6), (1.5, 40)])
def test_level_pairing_passes_where_the_ladder_underflows_or_grows(zeta, n_max):
    # at zeta = 1e-60 the ladder vectors underflow to 0 from level 2 on, and
    # at zeta = 1.5 they grow like 1.5^{3m}: relative to the operands of each
    # bracket, with tiny as the floor of its rounding, both read rounding only
    cfg = VerifyConfig(rank=SuperRank(2, 1), zeta1=zeta, n_max=n_max, checks=("level_pairing",))
    (check,) = run_suite(cfg).checks
    assert check.passed, check.residual


@pytest.mark.parametrize("n_max", [1, 6])
def test_level_pairing_reads_every_level_of_the_ladder(monkeypatch, n_max):
    # each bracket runs over the stack of ladder levels at once: a change to
    # the ladder vector at the top level alone, read only as a right-hand
    # side, is still caught
    inner = cartanweyl.RootVectorTable.real

    def nudged(table, side, root):
        out = inner(table, side, root)
        return 2 * out if classify(table.rep.rank, root)[3] == n_max else out

    cfg = VerifyConfig(rank=SuperRank(3, 2), n_max=n_max, checks=("level_pairing",))
    assert run_suite(cfg).all_passed
    monkeypatch.setattr(cartanweyl.RootVectorTable, "real", nudged)
    (check,) = run_suite(cfg).checks
    assert not check.passed, check.residual


def test_run_suite_zero_tolerance_fails_everything(monkeypatch):
    zero = dict.fromkeys(superrmatrix.verify.DEFAULT_TOLERANCES, 0.0)
    monkeypatch.setattr(superrmatrix.verify, "DEFAULT_TOLERANCES", zero)
    report = run_suite(VerifyConfig(rank=SuperRank(2, 1)))
    assert not report.all_passed
    assert all(not c.passed for c in report.checks)


def test_run_suite_deterministic():
    a = run_suite(VerifyConfig(rank=SuperRank(2, 1), seed=11))
    b = run_suite(VerifyConfig(rank=SuperRank(2, 1), seed=11))
    assert [(c.name, c.residual, c.passed) for c in a.checks] == \
        [(c.name, c.residual, c.passed) for c in b.checks]


def test_run_suite_check_subset():
    report = run_suite(VerifyConfig(rank=SuperRank(2, 1),
                                    checks=("ybe", "intertwining")))
    assert {c.name for c in report.checks} == {"ybe", "intertwining"}


def test_run_suite_rejects_an_empty_selection():
    with pytest.raises(ValueError, match="empty check selection"):
        run_suite(VerifyConfig(rank=SuperRank(2, 1), checks=()))


@pytest.mark.parametrize("name", ["scalars", "r_homogeneity"])
def test_randomized_check_reads_the_same_alone_and_in_the_suite(name):
    # each randomized check draws from its own generator
    def residual(checks):
        report = run_suite(VerifyConfig(rank=SuperRank(2, 1), seed=5, checks=checks))
        return next(c.residual for c in report.checks if c.name == name)

    assert residual((name,)) == residual(None)


# Mutants of the one bracket rule, as edits of its (pairing, parity sign,
# lattice case): the q-power of the positive case inverted, that of the
# negative case inverted, the sign of the mixed case dropped, every parity
# sign dropped.
RULE_MUTANTS = {
    "positive_q_power": lambda pair, sign, case: (-pair if case > 0 else pair, sign, case),
    "negative_q_power": lambda pair, sign, case: (-pair if case < 0 else pair, sign, case),
    "mixed_sign": lambda pair, sign, case: (pair, 1.0 if case == 0 else sign, case),
    "parity_sign": lambda pair, sign, case: (pair, 1.0, case),
}


@pytest.mark.parametrize("mutant", sorted(RULE_MUTANTS))
@pytest.mark.parametrize("m, n", [(2, 1), (1, 2), (3, 2)])
def test_default_suite_catches_a_wrong_bracket_rule(monkeypatch, fresh_plans, mutant, m, n):
    # every bracket of the package goes through the one rule, so a wrong case
    # of it must fail some default check; the table plans are cleared, so
    # that they are made from the wrong rule
    rule, edit = gradedmatrix._rule, RULE_MUTANTS[mutant]
    monkeypatch.setattr(gradedmatrix, "_rule", lambda *roots: edit(*rule(*roots)))
    report = run_suite(VerifyConfig(rank=SuperRank(m, n)))
    assert not report.all_passed


@pytest.mark.parametrize("mutant", ["negative_q_power", "parity_sign", "positive_q_power"])
@pytest.mark.parametrize("m, n", [(2, 1), (1, 2), (3, 2)])
def test_pipeline_build_reads_the_live_bracket_rule(monkeypatch, fresh_plans, mutant, m, n):
    # a table plan reads the rule when it is made, once per rank, side and
    # part: with the plans cleared, a wrong case moves r_total off the closed
    # R even after a build with the right rule has filled every other
    # per-rank cache.  mixed_sign is left out: no bracket of a build has
    # operands of opposite lattice sign, so a build never reads that case
    rank, ctx = SuperRank(m, n), QContext(q=1.1 + 0.2j)
    build_rfactors(rank, ctx, 0.6, 1.0)
    rule, edit = gradedmatrix._rule, RULE_MUTANTS[mutant]
    monkeypatch.setattr(gradedmatrix, "_rule", lambda *roots: edit(*rule(*roots)))
    cartanweyl._plan.cache_clear()
    factors = build_rfactors(rank, ctx, 0.6, 1.0)
    assert factors.cross_mode_residual > 1e-3 * np.max(np.abs(factors.r_closed))


def test_r_two_path_catches_one_negated_rule_sign(monkeypatch, fresh_plans):
    # the parity sign of the one bracket of real_plus (1, 2) with real_wrap
    # (1, 2) on the e side, negated before the plans are made, moves the
    # primed vector of alpha_1 and so the series factor: the pipeline reads
    # the rule through its plan and stays an independent oracle
    rank, rule = SuperRank(3, 2), gradedmatrix._rule
    pair = (real_plus_root(rank, 1, 2), real_wrap_root(rank, 1, 2))

    def negated(rank, root_x, root_y):
        pairing, sign, case = rule(rank, root_x, root_y)
        return pairing, -sign if (root_x, root_y) == pair else sign, case

    monkeypatch.setattr(gradedmatrix, "_rule", negated)
    report = run_suite(VerifyConfig(rank=rank, checks=("r_two_path",)))
    assert [(check.name, check.passed) for check in report.checks] == [("r_two_path", False)]


def _scale_shared_divisor(monkeypatch, rank, level):
    """Scale q**(+-(M-N) level) in every table of powers of q, and so the
    numerator of [M-N]_(q**level), which rho's f_m and the divisor of
    U_level share."""
    table, k = scalars._power_table, (rank.m - rank.n) * level

    def scaled(hbar, span):
        out = table(hbar, span).copy()
        out[[k, -k]] *= 1 + 1e-3
        out.setflags(write=False)
        return out

    monkeypatch.setattr(scalars, "_power_table", scaled)


def _scale_one_u_entry(monkeypatch, rank, level):
    """Scale the (0, 0) entry of U_level in the level data as it forms."""
    form = cartanweyl._Levels._form

    def scaled(self, top):
        form(self, top)
        u = self.u.copy()
        u[level - 1, 0, 0] *= 1 + 1e-3
        u.setflags(write=False)
        self.u = u

    monkeypatch.setattr(cartanweyl._Levels, "_form", scaled)


@pytest.mark.parametrize("mutant", [_scale_shared_divisor, _scale_one_u_entry],
                         ids=["shared_divisor", "one_u_entry"])
def test_r_two_path_catches_a_scaled_level_q_number(monkeypatch, fresh_levels, mutant):
    # rho and the series read the level data and the table of powers of q,
    # the closed R reads neither: scaling the shared [M-N]_(q**n) at one
    # level, or one entry of one U_n, fails r_two_path and leaves the closed
    # R as it was
    rank = SuperRank(1, 3)
    closed = r_operator(rank, QContext(q=1.1 + 0.2j), 0.6, 1.0)
    mutant(monkeypatch, rank, 1)
    report = run_suite(VerifyConfig(rank=rank, checks=("r_two_path",)))
    assert [(check.name, check.passed) for check in report.checks] == [("r_two_path", False)]
    assert np.array_equal(r_operator(rank, QContext(q=1.1 + 0.2j), 0.6, 1.0), closed)


def test_a_nan_residual_fails_its_check(monkeypatch):
    # a running max(worst, x) drops a NaN; the relations check must not
    stack = EvaluationRep.e_stack

    def poisoned(self):
        e = stack(self).copy()
        e[1][0, 0] = np.nan
        return e

    monkeypatch.setattr(EvaluationRep, "e_stack", poisoned)
    rank = SuperRank(2, 1)
    rep = EvaluationRep(rank, QContext(q=1.1 + 0.2j), 0.6)
    assert np.isnan(check_defining_relations(rep)["max"])
    report = run_suite(VerifyConfig(rank=rank, checks=("relations",)))
    assert not report.all_passed


def test_report_json_shape():
    report = run_suite(VerifyConfig(rank=SuperRank(2, 1), checks=("scalars",)))
    payload = report.to_dict()
    assert payload["all_passed"] is True
    assert payload["checks"][0]["name"] == "scalars"
    assert isinstance(payload["checks"][0]["residual"], float)


def test_ybe_pipeline_mode_single_point():
    # full integration: tables -> factors -> product R on all three pairs,
    # multiplied as dense lifts
    rank = SuperRank(2, 1)
    ctx = QContext(q=1.06 + 0.21j)
    p = rank.parity_vector()
    r12, r13, r23 = (r_operator(rank, ctx, za, zb, mode="pipeline")
                     for za, zb in ((0.45, 0.8), (0.45, 1.4), (0.8, 1.4)))
    lhs = lift_12(r12, p) @ lift_13(r13, p) @ lift_23(r23, p)
    rhs = lift_23(r23, p) @ lift_13(r13, p) @ lift_12(r12, p)
    assert maxabs(lhs - rhs) < 1e-8


def test_ybe_and_intertwining_with_nonuniform_grading(rng):
    rank = SuperRank(2, 1)
    ctx = QContext(q=rand_q(rng))
    grading = GradingVector((2, 1, 1))
    assert verify_ybe(rank, ctx, 0.55, 0.95, 1.5, grading) < 1e-9
    res = verify_intertwining(rank, ctx, 0.55, 0.95, grading)
    assert res["max"] < 1e-9
