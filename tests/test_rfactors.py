import numpy as np
import pytest

from superrmatrix import (
    EvaluationRep,
    GradingVector,
    QContext,
    SuperRank,
    build_rfactors,
    build_root_vectors,
    k_operator_closed,
    r_operator,
    r_prec_delta,
    r_sim_delta,
    r_succ_delta,
    rho,
)
from superrmatrix.rfactors import Zeta12, factor_from_table, k_operator_weights
from superrmatrix.rootdata import classify, positive_roots

from conftest import TEST_RANKS, maxabs, rand_q, rand_zeta, zeta_pair_bounded


def setup(rng, m, n, bound=0.4):
    rank = SuperRank(m, n)
    ctx = QContext(q=rand_q(rng))
    grading = GradingVector.ones(rank)
    z1, z2 = zeta_pair_bounded(rng, grading.total, bound=bound)
    return rank, ctx, grading, z1, z2


def test_k_closed_21_example():
    rank = SuperRank(2, 1)
    ctx = QContext(q=1.21 + 0.17j)
    q = ctx.q
    k = k_operator_closed(rank, ctx)
    diag = np.diag(k)
    expected = np.array([1, q, q, q, 1, q, q, q, q * q])
    assert maxabs(k - np.diag(expected)) < 1e-14


def test_k_prefactor_exponent():
    rank = SuperRank(3, 1)
    ctx = QContext(q=1.21 + 0.17j)
    k = k_operator_closed(rank, ctx)
    assert abs(k[0, 0] - ctx.qpow(-0.5)) < 1e-15  # -(M-N-1)/(M-N) = -1/2


def test_k_trace():
    for m, n in TEST_RANKS:
        rank = SuperRank(m, n)
        ctx = QContext(q=1.11 + 0.23j)
        q = ctx.q
        dim = rank.dim
        expected = ctx.qpow(-(m - n - 1) / (m - n)) * (
            m + q * q * n + q * (dim * dim - dim))
        assert abs(np.trace(k_operator_closed(rank, ctx)) - expected) < 1e-12


def test_k_positive_for_real_q():
    rank = SuperRank(2, 3)
    ctx = QContext(q=1.3)
    k = k_operator_closed(rank, ctx)
    assert np.all(np.abs(np.diag(k)) > 0)
    assert maxabs(k - np.diag(np.diag(k))) == 0


def test_k_two_path(rng):
    for m, n in TEST_RANKS:
        rank = SuperRank(m, n)
        ctx = QContext(q=rand_q(rng))
        rep1 = EvaluationRep(rank, ctx, rand_zeta(rng))
        rep2 = EvaluationRep(rank, ctx, rand_zeta(rng))
        assert maxabs(k_operator_weights(rep1, rep2)
                      - k_operator_closed(rank, ctx)) < 1e-10


def test_k_classical_limit():
    rank = SuperRank(2, 1)
    ctx = QContext(q=1 + 1e-6, unity_tol=0.0)
    assert maxabs(k_operator_closed(rank, ctx) - np.eye(9)) < 1e-5


def test_r_prec_at_zero_ratio_is_identity():
    rank = SuperRank(2, 1)
    ctx = QContext(q=1.2 + 0.2j)
    grading = GradingVector.ones(rank)
    z12 = Zeta12(z=1e-8, s_total=grading.total)
    assert maxabs(r_prec_delta(rank, ctx, z12, grading) - np.eye(9)) < 1e-7


def test_factor_nilpotency():
    # each rank-one factor squares to 2x itself minus identity: (1+x)^2 = 1+2x
    rank = SuperRank(2, 1)
    ctx = QContext(q=1.2 + 0.2j)
    grading = GradingVector.ones(rank)
    z12 = Zeta12(z=0.7, s_total=grading.total)
    f = r_prec_delta(rank, ctx, z12, grading, mode="closed")
    x = f - np.eye(9)
    # the full closed factor is 1 + nilpotent: its square has no x**2 term
    assert maxabs((np.eye(9) + x) @ (np.eye(9) + x) - (np.eye(9) + 2 * x)) < 1e-12


def test_offdiagonal_products_vs_closed(rng):
    for m, n in TEST_RANKS:
        rank, ctx, grading, z1, z2 = setup(rng, m, n, bound=0.5)
        z12 = Zeta12.from_pair(z1, z2, grading)
        for build, wrap in ((r_prec_delta, False), (r_succ_delta, True)):
            prod = build(rank, ctx, z12, grading, mode="product", n_max=60)
            closed = build(rank, ctx, z12, grading, mode="closed")
            assert maxabs(prod - closed) < 1e-8, (m, n, wrap)


def test_q_exponential_factors_from_tables(rng):
    # the rank-one factors rebuilt from actual root vectors agree with the
    # closed per-root monomial factors, checked through the full product
    rank, ctx, grading, z1, z2 = setup(rng, 2, 1, bound=0.5)
    t1 = build_root_vectors(EvaluationRep(rank, ctx, z1, grading), 5)
    t2 = build_root_vectors(EvaluationRep(rank, ctx, z2, grading), 5)
    z12 = Zeta12.from_pair(z1, z2, grading)
    prod = np.eye(rank.dim ** 2, dtype=complex)
    for root in positive_roots(rank, 5):
        if classify(rank, root)[0] == "real_plus":
            prod = prod @ factor_from_table(t1, t2, root)
    closed = r_prec_delta(rank, ctx, z12, grading, mode="closed")
    assert maxabs(prod - closed) < 1e-4  # only 6 levels of the geometric tail


def test_r_sim_diagonal_entry(rng):
    rank, ctx, grading, z1, z2 = setup(rng, 2, 1)
    z12 = Zeta12.from_pair(z1, z2, grading)
    sim = r_sim_delta(rank, ctx, z12, grading, mode="closed")
    dim = rank.dim
    zs = z12.zs
    # scalar prefactor from a slot the bracket leaves at 1 (i = j <= M)
    scalar = sim[0, 0]
    idx = (dim + 1) * (dim - 1)  # slot (d, d): i = j > M
    expected = scalar * (1 - ctx.qpow(-2) * zs) / (1 - ctx.qpow(2) * zs)
    assert abs(sim[idx, idx] - expected) < 1e-12


def test_r_sim_series_vs_closed(rng):
    for m, n in TEST_RANKS:
        rank, ctx, grading, z1, z2 = setup(rng, m, n)
        z12 = Zeta12.from_pair(z1, z2, grading)
        tables = (build_root_vectors(EvaluationRep(rank, ctx, z1, grading), 40),
                  build_root_vectors(EvaluationRep(rank, ctx, z2, grading), 40))
        series = r_sim_delta(rank, ctx, z12, grading, mode="series", n_max=40,
                             tables=tables)
        closed = r_sim_delta(rank, ctx, z12, grading, mode="closed")
        assert maxabs(series - closed) < 1e-8, (m, n)


def test_series_domain_guard():
    rank = SuperRank(2, 1)
    ctx = QContext(q=1.2 + 0.2j)
    grading = GradingVector.ones(rank)
    z12 = Zeta12(z=1.1, s_total=grading.total)
    with pytest.raises(ValueError):
        r_prec_delta(rank, ctx, z12, grading)


def test_rho_values(rng):
    rank = SuperRank(2, 1)
    ctx = QContext(q=1.2 + 0.2j)
    grading = GradingVector.ones(rank)
    # at (2,1) the scalar factors collapse: prefactor exponent and the two
    # transcendental sums cancel exactly
    z12 = Zeta12(z=0.7 + 0.1j, s_total=grading.total)
    assert abs(rho(rank, ctx, z12, grading) - 1.0) < 1e-14
    # at zero ratio only the inverse of the Cartan-twist prefactor survives
    for m, n in TEST_RANKS:
        rank = SuperRank(m, n)
        z12 = Zeta12(z=1e-12, s_total=m + n)
        expected = ctx.qpow((m - n - 1) / (m - n))
        assert abs(rho(rank, ctx, z12, GradingVector.ones(rank)) - expected) < 1e-10


def test_rho_stable_under_order_doubling(rng):
    rank = SuperRank(2, 3)
    grading = GradingVector.ones(rank)
    z12 = Zeta12(z=0.3 ** (1 / grading.total), s_total=grading.total)
    lo = QContext(q=1.05 + 0.2j, series_order=40)
    hi = QContext(q=1.05 + 0.2j, series_order=80)
    assert abs(rho(rank, lo, z12, grading) - rho(rank, hi, z12, grading)) < 1e-10


def test_r_closed_diagonal_entries():
    rank = SuperRank(2, 1)
    ctx = QContext(q=1.14 + 0.21j)
    r = r_operator(rank, ctx, 0.6, 1.0)
    assert abs(r[0, 0] - 1.0) < 1e-15  # (1,1)x(1,1) slot


def test_r_closed_at_unit_ratio():
    rank = SuperRank(2, 1)
    ctx = QContext(q=1.14 + 0.21j)
    r = r_operator(rank, ctx, 1.0, 1.0).reshape(3, 3, 3, 3)
    # off-diagonal hopping coefficient degenerates to (-1)^[j], the i != j
    # diagonal entries vanish, and i = j > M gives -1
    assert abs(r[2, 2, 2, 2] + 1.0) < 1e-13
    assert abs(r[0, 1, 0, 1]) < 1e-13
    sign_12 = r[0, 1, 1, 0]  # embeds E_12 (x) E_21 with j = 2 even
    assert abs(sign_12 - 1.0) < 1e-13


def test_pipeline_vs_closed_random_points(rng):
    for m, n in TEST_RANKS:
        for _ in (0, 1):
            rank, ctx, grading, z1, z2 = setup(rng, m, n)
            fs = build_rfactors(rank, ctx, z1, z2, grading,
                                n_max_product=60, n_max_sim=40)
            assert fs.cross_mode_residual < 1e-8, (m, n)


def test_r_depends_only_on_ratio(rng):
    rank, ctx, grading, z1, z2 = setup(rng, 2, 3)
    c = 1.37 - 0.21j
    base = r_operator(rank, ctx, z1, z2, grading)
    assert maxabs(base - r_operator(rank, ctx, c * z1, c * z2, grading)) < 1e-10
    pipe1 = r_operator(rank, ctx, z1, z2, grading, mode="pipeline",
                       n_max_product=40, n_max_sim=12)
    pipe2 = r_operator(rank, ctx, c * z1, c * z2, grading, mode="pipeline",
                       n_max_product=40, n_max_sim=12)
    assert maxabs(pipe1 - pipe2) < 1e-9


def test_r_sparsity(rng):
    rank, ctx, grading, z1, z2 = setup(rng, 3, 2)
    r = r_operator(rank, ctx, z1, z2, grading).reshape(5, 5, 5, 5)
    for i in range(5):
        for k in range(5):
            for j in range(5):
                for l in range(5):
                    if not ((i == j and k == l) or (i == l and k == j)):
                        assert abs(r[i, k, j, l]) < 1e-12


def test_r_pole_rejected():
    rank = SuperRank(2, 1)
    ctx = QContext(q=1.2)
    zs_pole = ctx.qpow(-2)  # z**s = q**-2 sits on the pole
    z = zs_pole ** (1 / 3)
    with pytest.raises(ZeroDivisionError):
        r_operator(rank, ctx, z, 1.0)


def test_r_classical_limit_regression():
    # q -> 1: the closed form approaches permutation-free diagonal structure:
    # diagonal families -> 1 and hopping terms -> 0
    rank = SuperRank(2, 1)
    ctx = QContext(q=1 + 1e-6, unity_tol=0.0)
    r = r_operator(rank, ctx, 0.6, 1.0).reshape(3, 3, 3, 3)
    for i in range(3):
        for k in range(3):
            assert abs(r[i, k, i, k] - 1.0) < 1e-4
            if i != k:
                assert abs(r[i, k, k, i]) < 1e-4


def test_grading_dependence(rng):
    # a nontrivial grading reroutes the zeta powers but keeps the two-path
    # agreement intact
    rank = SuperRank(2, 1)
    ctx = QContext(q=rand_q(rng))
    grading = GradingVector((2, 1, 1))
    z1, z2 = zeta_pair_bounded(rng, grading.total, bound=0.4)
    fs = build_rfactors(rank, ctx, z1, z2, grading, n_max_product=60, n_max_sim=40)
    assert fs.cross_mode_residual < 1e-8
