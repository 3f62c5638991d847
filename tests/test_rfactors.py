import numpy as np
import pytest

import superrmatrix.rfactors
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
    unprimed_imaginary,
)
from superrmatrix.cartanweyl import RootVectorTable, real_root_monomial
from superrmatrix.gradedmatrix import graded_kron, matrix_unit
from superrmatrix.rfactors import (
    Zeta12,
    _hops,
    _slot_pairs,
    k_operator_weights,
)
from superrmatrix.rootdata import classify, positive_roots, real_plus_root, real_wrap_root

from conftest import TEST_RANKS, factor_from_table, maxabs, rand_q, rand_zeta, zeta_pair_bounded


def setup(rng, m, n, bound=0.4, s=None):
    rank = SuperRank(m, n)
    ctx = QContext(q=rand_q(rng))
    grading = GradingVector.ones(rank) if s is None else GradingVector(s)
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
    # the rank-one factors rebuilt from actual root vectors, multiplied in
    # normal order over each real family to depth 6, are the product-mode
    # factors that the hop table assigns, truncated at the same depth
    cases = [(2, 1, None), (1, 2, None), (3, 2, None), (1, 3, None),
             (3, 2, (1, 2, 1, 1, 1)), (2, 1, (2, 1, 1))]
    for m, n, s in cases:
        rank, ctx, grading, z1, z2 = setup(rng, m, n, bound=0.5, s=s)
        tables = [build_root_vectors(EvaluationRep(rank, ctx, z, grading), 6) for z in (z1, z2)]
        z12 = Zeta12.from_pair(z1, z2, grading)
        for kind, factor in (("real_plus", r_prec_delta), ("real_wrap", r_succ_delta)):
            prod = np.eye(rank.dim ** 2, dtype=complex)
            for root in positive_roots(rank, 6):
                if classify(rank, root)[0] == kind:
                    prod = prod @ factor_from_table(*tables, root)
            ref = factor(rank, ctx, z12, grading, mode="product", n_max=6)
            assert maxabs(prod - ref) < 1e-13 * maxabs(ref), (m, n, s, kind)


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


def test_factors_reject_a_ratio_made_on_another_grading():
    rank, ctx = SuperRank(2, 1), QContext(q=1.1 + 0.2j)
    z12 = Zeta12.from_pair(0.6, 1.0, GradingVector((2, 1, 1)))
    for factor in (r_prec_delta, r_succ_delta, r_sim_delta, rho):
        with pytest.raises(ValueError, match="total grade"):
            factor(rank, ctx, z12, GradingVector.ones(rank))


def _unread(*args, **kwargs):
    raise AssertionError("a table part was read")


def test_series_factor_rejects_tables_of_another_point(monkeypatch):
    rank, ctx = SuperRank(2, 1), QContext(q=1.1 + 0.2j)
    grading = GradingVector.ones(rank)

    def tables(zetas=(0.6, 1.0), q=ctx.q, g=grading, r=rank):
        return tuple(build_root_vectors(EvaluationRep(r, QContext(q=q), z, g), 40) for z in zetas)

    def series(pair):
        return r_sim_delta(rank, ctx, Zeta12.from_pair(0.6, 1.0, grading), grading,
                           mode="series", tables=pair)

    # the ratio, not the pair, has to match, within rounding
    ref = series(tables())
    assert maxabs(series(tables((0.3, 0.5))) - ref) <= 1e-12 * maxabs(ref)
    others = [tables((0.5, 1.0)), tables(q=1.05 + 0.3j), tables(g=GradingVector((1, 1, 2))),
              tables(r=SuperRank(1, 2)), (tables()[0], tables((0.3, 0.5))[1])]
    monkeypatch.setattr(RootVectorTable, "_series_part", _unread)
    for pair in others:
        with pytest.raises(ValueError, match="tables were built"):
            series(pair)


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
    pipe1 = build_rfactors(rank, ctx, z1, z2, grading,
                           n_max_product=40, n_max_sim=12).r_total
    pipe2 = build_rfactors(rank, ctx, c * z1, c * z2, grading,
                           n_max_product=40, n_max_sim=12).r_total
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


SMALL_RANKS = [(m, n) for m in range(1, 7) for n in range(1, 7) if m != n and m + n <= 7]


@pytest.mark.parametrize("m, n", SMALL_RANKS)
def test_vertex_tables_match_embedding_and_root_monomials(m, n):
    # the one slot-pair table against the graded embedding of the hop
    # (-1)^[b] E_ab (x) E_ba and the e-side zeta power of the level-zero real
    # root with image E_ab: real_plus (a, b) for a < b, real_wrap (b, a) above
    rank = SuperRank(m, n)
    d, p = rank.dim, rank.parity_vector()
    diag, swap, kind, sign, off = _slot_pairs(rank)
    pattern = np.zeros((d * d, d * d))
    for a in range(1, d + 1):
        assert kind[a - 1, a - 1] == p[a - 1]
        for b in range(1, d + 1):
            pattern += abs(graded_kron(matrix_unit(d, a, a), matrix_unit(d, b, b), p, p))
            pattern += abs(graded_kron(matrix_unit(d, a, b), matrix_unit(d, b, a), p, p))
            if a != b:
                assert kind[a - 1, b - 1] == (2 if a < b else 3)
    assert np.array_equal(off, pattern.reshape(-1) == 0)
    assert np.array_equal(diag.reshape(-1), np.flatnonzero(np.eye(d * d)))
    s = [1] * d
    s[0] = 2
    for grading in (GradingVector.ones(rank), GradingVector(tuple(s)),
                    GradingVector(tuple(range(1, d + 1)))):
        hops = {}
        for family, row in enumerate(zip(*_hops(rank, grading))):
            for at, hop_sign, power in zip(*row):
                hops[int(at)] = family, hop_sign, power
        assert len(hops) == d * (d - 1)
        for a in range(1, d + 1):
            for b in range(1, d + 1):
                if a == b:
                    continue
                ref = (-1.0) ** p[b - 1] * graded_kron(matrix_unit(d, a, b),
                                                       matrix_unit(d, b, a), p, p)
                (at,) = np.flatnonzero(ref)
                assert at == swap[a - 1, b - 1]
                family, hop_sign, power = hops[at]
                assert family == (a > b) and hop_sign == sign[a - 1, b - 1] == ref.flat[at]
                root = real_plus_root(rank, a, b, 0) if a < b else real_wrap_root(rank, b, a, 0)
                zeta_power, _, _, unit = real_root_monomial(rank, grading, root, "e")
                assert unit == (a, b) and power == zeta_power


def _counting(monkeypatch, name):
    """Patch rfactors.name to count its calls; returns the list of calls."""
    calls, inner = [], getattr(superrmatrix.rfactors, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(superrmatrix.rfactors, name, counting)
    return calls


def test_a_build_checks_its_point_once_and_forms_one_level_sum(monkeypatch):
    # the domain check and the real-root level sum c run once per build, and
    # the one c feeds both hop families; a public factor still runs both
    rank, ctx = SuperRank(3, 2), QContext(q=1.1 + 0.2j)
    grading = GradingVector.ones(rank)
    domain = _counting(monkeypatch, "_require_series_domain")
    level_sum = _counting(monkeypatch, "_level_sum")
    hops = _counting(monkeypatch, "_hop_factor")
    build_rfactors(rank, ctx, 0.6, 1.0, grading)
    assert len(domain) == 1 and len(level_sum) == 1
    c = hops[0][3]
    assert [call[3] for call in hops] == [c, c]
    domain.clear()
    level_sum.clear()
    r_prec_delta(rank, ctx, Zeta12.from_pair(0.6, 1.0, grading), grading, mode="product")
    assert len(domain) == 1 and len(level_sum) == 1


_TWIN_POINTS = [(1.1 + 0.2j, 0.6 + 0.1j, 1.0 + 0.05j),
                (np.exp(0.05 + 0.4j), 0.5 - 0.2j, 0.9 + 0.3j),
                (0.93 + 0.31j, 0.3 + 0.4j, 1.0)]


@pytest.mark.parametrize("s0", [1, 2], ids=["principal", "s0=2"])
@pytest.mark.parametrize("m, n", TEST_RANKS)
def test_public_factors_equal_the_builds_factors_bit_for_bit(m, n, s0):
    # each factor called as the benchmark's composed twin calls it, from
    # tables built without the unprimed vectors, against the build's factor
    rank = SuperRank(m, n)
    grading = GradingVector((s0,) + (1,) * rank.L)
    for q, z1, z2 in _TWIN_POINTS:
        ctx = QContext(q=q)
        built = build_rfactors(rank, ctx, z1, z2, grading)
        z12 = Zeta12.from_pair(z1, z2, grading)
        tables = tuple(unprimed_imaginary(build_root_vectors(
            EvaluationRep(rank, ctx, zeta, grading), 40, with_unprimed=False)) for zeta in (z1, z2))
        twin = {
            "r_prec": r_prec_delta(rank, ctx, z12, grading, mode="product", n_max=60),
            "r_sim": r_sim_delta(rank, ctx, z12, grading, mode="series", n_max=40,
                                 tables=tables),
            "r_succ": r_succ_delta(rank, ctx, z12, grading, mode="product", n_max=60),
            "rho": rho(rank, ctx, z12, grading),
            "k": k_operator_closed(rank, ctx),
        }
        for name, value in twin.items():
            assert np.array_equal(value, getattr(built, name)), (name, q)


def _kernel_ran(*args, **kwargs):
    raise AssertionError("a kernel ran")


def test_public_factors_refuse_before_their_kernels(monkeypatch):
    # at (1,3) the f_m sums of rho bound |z**s| by 1/|q|**3 < 1: a point past
    # that second radius, a grading of the wrong length, a negative level
    # count and, for the series, tables of another spectral ratio
    rank, ctx = SuperRank(1, 3), QContext(q=1.1 + 0.2j)
    grading = GradingVector.ones(rank)
    tables = tuple(build_root_vectors(EvaluationRep(rank, ctx, zeta, grading), 40)
                   for zeta in (0.6, 1.0))
    other = tuple(build_root_vectors(EvaluationRep(rank, ctx, zeta, grading), 40)
                  for zeta in (0.5, 1.0))
    for name in ("_hop_factor", "_level_sum", "_series_factor", "_rho"):
        monkeypatch.setattr(superrmatrix.rfactors, name, _kernel_ran)
    assert abs(ctx.q) ** -3 < 0.85
    beyond = Zeta12.from_pair(0.85 ** (1 / grading.total), 1.0, grading)
    short = GradingVector((1, 1, 1))
    point = Zeta12.from_pair(0.6, 1.0, grading)
    factors = {
        "r_prec": lambda z12, g, n_max=60: r_prec_delta(rank, ctx, z12, g, "product", n_max),
        "r_succ": lambda z12, g, n_max=60: r_succ_delta(rank, ctx, z12, g, "product", n_max),
        "r_sim": lambda z12, g, n_max=40, pair=tables: r_sim_delta(
            rank, ctx, z12, g, "series", n_max, tables=pair),
        "rho": lambda z12, g: rho(rank, ctx, z12, g),
    }
    for name, factor in factors.items():
        with pytest.raises(ValueError, match="the series factors"):
            factor(beyond, grading)
        with pytest.raises(ValueError, match="grading length"):
            factor(Zeta12.from_pair(0.6, 1.0, short), short)
        if name != "rho":
            with pytest.raises(ValueError, match="must be nonnegative"):
                factor(point, grading, -1)
    with pytest.raises(ValueError, match="tables were built"):
        factors["r_sim"](point, grading, pair=other)
    with pytest.raises(AssertionError, match="a kernel ran"):
        factors["r_sim"](point, grading)


def test_a_build_refuses_what_its_factors_refuse(monkeypatch):
    # each refusal above that a build can meet, and a series level count past
    # the series order, refused by build_rfactors before any kernel runs, as
    # by the factor that reads it; tables of another ratio have no build
    # counterpart, since a build makes its own
    rank, ctx = SuperRank(1, 3), QContext(q=1.1 + 0.2j)
    grading = GradingVector.ones(rank)
    for name in ("_hop_factor", "_level_sum", "_series_factor", "_rho"):
        monkeypatch.setattr(superrmatrix.rfactors, name, _kernel_ran)
    past = ctx.series_order + 1
    refusals = [
        ("the series factors", {"zeta1": 0.85 ** (1 / grading.total)}),
        ("grading length", {"grading": GradingVector((1, 1, 1))}),
        ("n_max_product must be nonnegative", {"n_max_product": -1}),
        ("n_max_sim must be nonnegative", {"n_max_sim": -1}),
        (f"n_max_sim = {past} exceeds the series order", {"n_max_sim": past}),
    ]
    for match, change in refusals:
        with pytest.raises(ValueError, match=match):
            build_rfactors(rank, ctx, **({"zeta1": 0.6, "zeta2": 1.0, "grading": grading}
                                         | change))
    with pytest.raises(ValueError, match=f"n_max = {past} exceeds the series order"):
        r_sim_delta(rank, ctx, Zeta12.from_pair(0.6, 1.0, grading), grading, "series", past)
