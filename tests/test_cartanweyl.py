import numpy as np
import pytest

from superrmatrix import (
    EvaluationRep,
    GradingVector,
    QContext,
    SuperRank,
    build_root_vectors,
    cartanweyl,
)
from superrmatrix.cartanweyl import (
    closed_form_imaginary,
    closed_form_root_vector,
    real_root_monomial,
    t_matrix,
    u_matrices,
)
from superrmatrix.gradedmatrix import matrix_unit, q_supercommutator
from superrmatrix.rootdata import (
    cartan_data,
    classify,
    imaginary_root,
    positive_roots,
    real_plus_root,
    real_wrap_root,
)
from superrmatrix.scalars import DegenerateQError

from conftest import (
    TEST_RANKS,
    BracketTable,
    a_gamma,
    diag_stack,
    maxabs,
    node_parity,
    rand_q,
    rand_zeta,
    series_log,
    slot_sign,
)


def make_rep(rng, m, n, grading=None):
    rank = SuperRank(m, n)
    ctx = QContext(q=rand_q(rng))
    return EvaluationRep(rank, ctx, rand_zeta(rng), grading)


def real_roots(rank, n_max):
    return [r for r in positive_roots(rank, n_max) if classify(rank, r)[0] != "imaginary"]


def test_finite_ladder_and_affine_seed():
    rng = np.random.default_rng(3)
    rep = make_rep(rng, 2, 1)
    rank, ctx = rep.rank, rep.ctx
    table = build_root_vectors(rep, 0)
    z = rep.zeta
    s = rep.grading.s
    for i in range(1, 3):
        for j in range(i + 1, 4):
            sij = sum(s[i:j])
            assert maxabs(table.real("e", real_plus_root(rank, i, j))
                          - z ** sij * matrix_unit(3, i, j)) < 1e-13
    wrap = real_wrap_root(rank, 1, 3)
    assert maxabs(table.real("e", wrap) + z ** s[0] * ctx.q * matrix_unit(3, 3, 1)) < 1e-14


def test_recursion_matches_closed_forms_all_ranks(rng):
    for m, n in TEST_RANKS:
        rep = make_rep(rng, m, n)
        rank = rep.rank
        table = build_root_vectors(rep, 4)
        for root in positive_roots(rank, 4):
            kind = classify(rank, root)
            if kind[0] == "imaginary":
                _, lvl, i = kind
                for which in "ef":
                    images = (np.diag(table.unprimed_diagonals(which, 4)[lvl - 1, i - 1]),
                              np.diag(table.primed_diagonals(which)[lvl - 1, i - 1]))
                    for primed, got in zip((False, True), images):
                        ref = closed_form_imaginary(rep, lvl, i, which, primed=primed)
                        assert maxabs(got - ref) < 1e-10, (m, n, kind, which, primed)
            else:
                for which in "ef":
                    ref = closed_form_root_vector(rep, root, which)
                    assert maxabs(table.real(which, root) - ref) < 1e-10, (m, n, kind, which)


def test_level_one_unprimed_equals_primed(rng):
    rep = make_rep(rng, 3, 2)
    table = build_root_vectors(rep, 2)
    for side in "ef":
        for i in range(1, rep.rank.L + 1):
            unprimed = np.diag(table.unprimed_diagonals(side, 1)[0, i - 1])
            assert maxabs(unprimed - np.diag(table.primed_diagonals(side)[0, i - 1])) < 1e-12


def test_real_images_are_single_matrix_units(rng):
    for m, n in TEST_RANKS:
        rep = make_rep(rng, m, n)
        table = build_root_vectors(rep, 3)
        for root in real_roots(rep.rank, 3):
            assert np.count_nonzero(np.abs(table.real("e", root)) > 1e-12) == 1
        for lvl, level in enumerate(table.primed_diagonals("e"), start=1):
            for i, mat in enumerate(map(np.diag, level), start=1):
                support = {k for k in range(rep.rank.dim) if abs(mat[k, k]) > 1e-12}
                assert support <= {i - 1, i}
                assert maxabs(mat - np.diag(np.diag(mat))) < 1e-12


def test_weight_covariance_of_table(rng):
    for m, n in [(2, 1), (1, 3), (3, 2)]:
        rep = make_rep(rng, m, n)
        rank, ctx = rep.rank, rep.ctx
        table = build_root_vectors(rep, 2)
        nu = 0.618 - 0.21j
        for side, sign in (("e", 1), ("f", -1)):
            for root in real_roots(rank, 2):
                mat = table.real(side, root)
                for i in range(rank.L + 1):
                    conj = rep.cartan(i, nu) @ mat @ rep.cartan(i, -nu)
                    w = ctx.qpow(sign * nu * int(cartan_data(rank).a1[i] @ root.vector()))
                    assert maxabs(conj - w * mat) < 1e-10


def test_t_matrix_level_one_is_bq():
    rank = SuperRank(2, 3)
    ctx = QContext(q=1.12 + 0.19j)
    from superrmatrix.tridiag import bq_matrix

    assert maxabs(t_matrix(rank, ctx, 1) - bq_matrix(rank, ctx)) < 1e-14


def test_u_matrix_inverts_t(rng):
    for m, n in TEST_RANKS:
        rank = SuperRank(m, n)
        ctx = QContext(q=rand_q(rng))
        for lvl in range(1, 5):
            prod = u_matrices(rank, ctx, [lvl])[0] @ t_matrix(rank, ctx, lvl)
            assert maxabs(prod - np.eye(rank.L)) < 1e-12


def test_level_pairing_identity(rng):
    """Bracketing a simple real ladder vector with an unprimed imaginary one
    climbs the ladder with coefficient d_j (o_i o_j)^n T_nij."""
    for m, n in TEST_RANKS:
        rep = make_rep(rng, m, n)
        rank, ctx = rep.rank, rep.ctx
        table = build_root_vectors(rep, 4)
        unprimed = table.unprimed_diagonals("e", 4)
        data = cartan_data(rank)
        for lvl in range(1, 5):
            tn = t_matrix(rank, ctx, lvl)
            for m_lv in range(0, 5 - lvl):
                for i in range(1, rank.L + 1):
                    for j in range(1, rank.L + 1):
                        root = real_plus_root(rank, i, i + 1, m_lv)
                        lhs = q_supercommutator(rank, ctx, table.real("e", root),
                                                np.diag(unprimed[lvl - 1, j - 1]),
                                                root, imaginary_root(rank, lvl, j))
                        dress = (data.o[i - 1] * data.o[j - 1]) ** lvl
                        rhs = (data.d_simple[j] * dress * tn[i - 1, j - 1]
                               * table.real("e", real_plus_root(rank, i, i + 1, m_lv + lvl)))
                        assert maxabs(lhs - rhs) < 1e-10


def test_a_gamma_values(rng):
    for m, n in TEST_RANKS:
        rep = make_rep(rng, m, n)
        rank = rep.rank
        table = build_root_vectors(rep, 3, with_unprimed=False)
        for root in positive_roots(rank, 3):
            kind = classify(rank, root)
            if kind[0] == "real_plus":
                _, i, j, lvl = kind
                expected = (-1) ** lvl * slot_sign(rank, i)
                assert abs(a_gamma(rep, table, root) - expected) < 1e-10
            elif kind[0] == "real_wrap":
                _, i, j, lvl = kind
                # not stated in closed form anywhere; the solve pins it down
                expected = (-1) ** (lvl + 1) * slot_sign(rank, j)
                assert abs(a_gamma(rep, table, root) - expected) < 1e-10


def test_a_gamma_simple_roots_match_pairing_relation(rng):
    # at n = 0 the solve reduces to the defining e-f pairing: a = d_i
    rep = make_rep(rng, 3, 1)
    table = build_root_vectors(rep, 0)
    for i in range(1, rep.rank.dim):
        root = real_plus_root(rep.rank, i, i + 1)
        assert abs(a_gamma(rep, table, root) - slot_sign(rep.rank, i)) < 1e-12


def test_a_gamma_rejects_a_non_finite_pairing(monkeypatch, rng):
    # a NaN residual fails the proportionality check instead of passing it
    rep = make_rep(rng, 2, 1)
    table = build_root_vectors(rep, 1)
    real = cartanweyl.RootVectorTable.real
    monkeypatch.setattr(cartanweyl.RootVectorTable, "real", lambda self, side, root: real(
        self, side, root) * (np.nan if side == "f" else 1.0))
    with pytest.raises(ArithmeticError, match="not proportional"):
        a_gamma(rep, table, real_plus_root(rep.rank, 1, 2))


def test_monomial_data_matches_matrices(rng):
    rep = make_rep(rng, 2, 3)
    rank = rep.rank
    for root in positive_roots(rank, 2):
        if classify(rank, root)[0] == "imaginary":
            continue
        for which in ("e", "f"):
            zp, sgn, qp, (a, b) = real_root_monomial(rank, rep.grading, root, which)
            mat = closed_form_root_vector(rep, root, which)
            coeff = mat[a - 1, b - 1]
            assert np.count_nonzero(np.abs(mat) > 1e-14) == 1
            assert abs(coeff - sgn * rep.zeta ** zp * rep.ctx.qpow(qp)) < 1e-12


def test_ladder_rejects_degenerate_q():
    rank = SuperRank(2, 1)
    # q = i has q**4 = 1, so [2]_q vanishes and the i < M ladder
    # denominator degenerates
    ctx = QContext(q=1j, unity_tol=0.0, series_order=1)
    rep = EvaluationRep(rank, ctx, 0.7)
    with pytest.raises(DegenerateQError):
        build_root_vectors(rep, 1)


@pytest.mark.parametrize("m, n", TEST_RANKS)
def test_climb_matches_sequential_brackets(m, n):
    # every climbing row, read through real(), against the recursion run level
    # by level with the generic q-supercommutator: level n of a row is the
    # bracket of its level n - 1, at its real root, with the primed level-one
    # vector of its attachment, at delta, (row, P) on real_plus and (P, row)
    # on real_wrap rows, roots negated on the f side, times the ladder factor;
    # both sides, every row, to depth 40.  The rule itself finds the bracket
    # coefficient (-1)^([row][delta]) q^(-+(row|delta)) to be 1.
    rank, depth = SuperRank(m, n), 40
    rep = EvaluationRep(rank, QContext(q=1.1 + 0.2j), 0.6 + 0.1j)
    table = build_root_vectors(rep, depth)
    roots = {"real_plus": real_plus_root, "real_wrap": real_wrap_root}
    ladder = cartanweyl._ladder(rank, rep.ctx)
    rows, attach = cartanweyl._ladder_table(rank)[:2]
    for side in "ef":
        level_one = table.primed_diagonals(side)[0]
        for r, ((kind, i, j), a) in enumerate(zip(rows, attach + 1)):
            factor = ladder[0 if side == "e" else 1, r]
            p, delta = np.diag(level_one[a - 1]), imaginary_root(rank, 1, a)
            delta = delta if side == "e" else -delta
            x = table.real(side, roots[kind](rank, i, j))
            for lv in range(1, depth + 1):
                root = roots[kind](rank, i, j, lv - 1)
                root = root if side == "e" else -root
                x = factor * (q_supercommutator(rank, rep.ctx, x, p, root, delta)
                              if kind == "real_plus" else
                              q_supercommutator(rank, rep.ctx, p, x, delta, root))
                got = table.real(side, roots[kind](rank, i, j, lv))
                assert maxabs(got - x) <= 1e-13 * maxabs(x)


def _signed(root, side):
    return root if side == "e" else -root


def _attachment(rank, row):
    rows, attach = cartanweyl._ladder_table(rank)[:2]
    return attach[rows.index(row)] + 1


@pytest.mark.parametrize("m, n", TEST_RANKS + [(1, 4), (1, 5)])
def test_every_real_row_climbs(m, n):
    # the adjacent rows first, in the order of the primed vectors the series
    # part climbs them with, then every other real row
    rank = SuperRank(m, n)
    d, (rows, attach) = rank.dim, cartanweyl._ladder_table(rank)[:2]
    assert sorted(rows) == sorted((kind, i, j) for kind in ("real_plus", "real_wrap")
                                  for i in range(1, d) for j in range(i + 1, d + 1))
    assert list(rows)[:rank.L] == [("real_plus", i, i + 1) for i in range(1, rank.L + 1)]
    assert len(attach) == len(rows) and all(0 <= a < rank.L for a in attach)


@pytest.mark.parametrize("s0", [1, 2], ids=["principal", "s0=2"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_first_rows_match_the_composite_brackets(n, s0):
    # at M = 1 the first rows climb like every other real row; the former
    # definition is the reference, on dense brackets with roots negated on the
    # f side: real_plus (1, j >= 3) at level lv is the bracket of
    # real_plus (1, 2) at level lv with real_plus (2, j) at level 0, and
    # real_wrap (1, j < dim) that of real_plus (j, j+1) at level 0 with
    # real_wrap (1, j+1) at level lv
    rank, depth = SuperRank(1, n), 12
    grading = GradingVector((s0,) + (1,) * rank.L)
    rep = EvaluationRep(rank, QContext(q=1.1 + 0.2j), 0.6 + 0.1j, grading)
    table, d = build_root_vectors(rep, depth), rank.dim
    for side in "ef":
        for lv in range(depth + 1):
            composites = (
                [(real_plus_root(rank, 1, j, lv), real_plus_root(rank, 1, 2, lv),
                  real_plus_root(rank, 2, j)) for j in range(3, d + 1)]
                + [(real_wrap_root(rank, 1, j, lv), real_plus_root(rank, j, j + 1),
                    real_wrap_root(rank, 1, j + 1, lv)) for j in range(2, d)])
            for row, x, y in composites:
                ref = q_supercommutator(rank, rep.ctx, table.real(side, x), table.real(side, y),
                                        _signed(x, side), _signed(y, side))
                got = table.real(side, row)
                assert maxabs(got - ref) <= 1e-13 * maxabs(ref), (side, row)


@pytest.mark.parametrize("m, n, s0", [pytest.param(m, n, 1, id=f"{m}-{n}") for m, n in TEST_RANKS]
                         + [pytest.param(m, n, 2, id=f"{m}-{n}-s0=2") for m, n in TEST_RANKS])
def test_series_part_matches_the_climb_and_the_series_log(m, n, s0):
    # the reference route, both sides, to depth 40: the primed vectors of level
    # n from the dense bracket of the adjacent rows at level n - 1, climbed one
    # level at a time by dense brackets with the primed level-one vector of
    # their attachment (as in test_climb_matches_sequential_brackets), with the
    # level-zero wraps, and the unprimed diagonals from the series log of
    # 1 + sigma kappa_i sum_n P_n x^n over sigma kappa_i
    rank, depth = SuperRank(m, n), 40
    grading = GradingVector((s0,) + (1,) * rank.L)
    rep = EvaluationRep(rank, QContext(q=1.1 + 0.2j), 0.6 + 0.1j, grading)
    table = build_root_vectors(rep, depth)
    L, d = rank.L, rank.dim
    kappa = np.array([rep.ctx.qpow(slot_sign(rank, i)) - rep.ctx.qpow(-slot_sign(rank, i))
                      for i in range(1, L + 1)])[:, None]
    for side in "ef":
        sigma = -1.0 if side == "e" else 1.0
        gens = np.array([table.real(side, real_plus_root(rank, i, i + 1)) for i in range(1, L + 1)])
        wraps = np.array([table.real(side, real_wrap_root(rank, i, i + 1)) for i in range(1, L + 1)])
        ladder = cartanweyl._ladder(rank, rep.ctx)[0 if side == "e" else 1]
        level_one = table.primed_diagonals(side)[0]
        climbed = np.empty((depth, L, d, d), dtype=complex)
        climbed[0] = gens
        for i in range(1, L + 1):
            a = _attachment(rank, ("real_plus", i, i + 1))
            p, delta = np.diag(level_one[a - 1]), _signed(imaginary_root(rank, 1, a), side)
            for lv in range(1, depth):
                root = _signed(real_plus_root(rank, i, i + 1, lv - 1), side)
                climbed[lv, i - 1] = ladder[i - 1] * q_supercommutator(
                    rank, rep.ctx, climbed[lv - 1, i - 1], p, root, delta)
        primed = np.stack([(-1.0 if node_parity(rank, i) else 1.0) * q_supercommutator(
            rank, rep.ctx, climbed[:, i - 1], wraps[i - 1],
            _signed(real_plus_root(rank, i, i + 1), side),
            _signed(real_wrap_root(rank, i, i + 1), side)) for i in range(1, L + 1)], axis=1)
        coeffs = np.ones((depth + 1, L * d), dtype=complex)
        coeffs[1:] = (sigma * kappa * np.diagonal(primed, axis1=-2, axis2=-1)).reshape(depth, -1)
        unprimed = (sigma / kappa) * series_log(coeffs)[1:].reshape(depth, L, d)
        got_primed = diag_stack(table.primed_diagonals(side))
        got_unprimed = table.unprimed_diagonals(side, depth)
        for lv in range(depth):
            assert maxabs(got_primed[lv] - primed[lv]) <= 1e-13 * maxabs(primed[lv])
            assert maxabs(got_unprimed[lv] - unprimed[lv]) <= 1e-13 * maxabs(unprimed[lv])


@pytest.mark.parametrize("s0", [1, 2], ids=["principal", "s0=2"])
@pytest.mark.parametrize("m, n", [(m, d - m) for d in range(3, 9) for m in range(1, d)
                                  if 2 * m != d])
def test_planned_tables_equal_the_bracket_route_bit_for_bit(m, n, s0):
    # the plan fixes the shape of every bracket per rank and a build runs the
    # same scalar products in the same order as the bracket-by-bracket route,
    # so the two agree exactly on both sides, at every q
    rank = SuperRank(m, n)
    grading = GradingVector((s0,) + (1,) * rank.L)
    for q in (1.1 + 0.2j, np.exp(0.05 + 0.4j), 0.93 + 0.31j):
        rep = EvaluationRep(rank, QContext(q=q), 0.6 + 0.1j, grading)
        deep, deep_ref = build_root_vectors(rep, 40), BracketTable(rep, 40)
        table, ref = build_root_vectors(rep, 6), BracketTable(rep, 6)
        for side in "ef":
            assert np.array_equal(deep.primed_diagonals(side), deep_ref.primed_diagonals(side))
            assert np.array_equal(deep.unprimed_diagonals(side, 40),
                                  deep_ref.unprimed_diagonals(side, 40))
            for root in real_roots(rank, 6):
                assert np.array_equal(table.real(side, root), ref.real(side, root)), (q, root)


@pytest.mark.parametrize("s0", [1, 2], ids=["principal", "s0=2"])
@pytest.mark.parametrize("m, n", TEST_RANKS + [(4, 1), (1, 4)])
def test_unit_brackets_match_the_dense_route(m, n, s0):
    # every level-zero entry, the level-one primed vectors, the ratios s_i and
    # the unprimed diagonals of both sides against the same rules run on dense
    # matrices with q_supercommutator: the wraps and ladders each bracket two
    # level-zero entries, s_i is the climb of real_plus (i, i+1) by one level
    # at the entry of its generator
    rank, depth = SuperRank(m, n), 40
    grading = GradingVector((s0,) + (1,) * rank.L)
    rep = EvaluationRep(rank, QContext(q=1.1 + 0.2j), 0.6 + 0.1j, grading)
    ctx, L, d = rep.ctx, rank.L, rank.dim
    table = build_root_vectors(rep, depth)
    roots = {"real_plus": real_plus_root, "real_wrap": real_wrap_root}
    ladder = cartanweyl._ladder(rank, ctx)
    for t, side in enumerate("ef"):
        gens = rep.e_stack() if side == "e" else rep.f_stack()
        root = {(kind, i, j): _signed(roots[kind](rank, i, j), side)
                for kind in roots for i in range(1, d) for j in range(i + 1, d + 1)}
        dense = {("real_wrap", 1, d): gens[0]}
        dense.update((("real_plus", i, i + 1), gens[i]) for i in range(1, L + 1))
        for part in ("series", "rest"):
            for row, (x, y) in cartanweyl._zero_rows(rank, part):
                dense[row] = q_supercommutator(rank, ctx, dense[x], dense[y], root[x], root[y])
        level_one = np.array([(-1.0 if node_parity(rank, i) else 1.0) * q_supercommutator(
            rank, ctx, dense["real_plus", i, i + 1], dense["real_wrap", i, i + 1],
            root["real_plus", i, i + 1], root["real_wrap", i, i + 1]) for i in range(1, L + 1)])
        for row, ref in dense.items():
            got = table.real(side, roots[row[0]](rank, *row[1:]))
            assert maxabs(got - ref) <= 1e-15 * maxabs(ref), row
        assert maxabs(diag_stack(table.primed_diagonals(side)[0]) - level_one) <= 1e-15 * maxabs(
            level_one)
        p = np.diagonal(level_one, axis1=-2, axis2=-1)
        s = np.empty(L, dtype=complex)
        for i in range(1, L + 1):
            a = _attachment(rank, ("real_plus", i, i + 1))
            x, delta = dense["real_plus", i, i + 1], _signed(imaginary_root(rank, 1, a), side)
            step = ladder[t, i - 1] * q_supercommutator(rank, ctx, x, level_one[a - 1],
                                                         root["real_plus", i, i + 1], delta)
            unit = np.unravel_index(np.argmax(np.abs(x)), x.shape)
            s[i - 1] = step[unit] / x[unit]
        got_s = table._series_part(side)["s"]
        assert maxabs(got_s - s) <= 1e-15 * maxabs(s)
        kappa = (np.array(cartan_data(rank).d_simple[1:]) * (ctx.qpow(1) - ctx.qpow(-1)))[:, None]
        sigma, lv = (-1.0 if side == "e" else 1.0), np.arange(1, depth + 1)[:, None, None]
        unprimed = sigma / kappa * (s[:, None] ** lv - (s[:, None] - sigma * kappa * p) ** lv) / lv
        # level k is a k-th power of s_i, so a rounding of s_i grows k-fold there
        got = table.unprimed_diagonals(side, depth)
        for k in range(1, depth + 1):
            assert maxabs(got[k - 1] - unprimed[k - 1]) <= k * 1e-15 * maxabs(unprimed[k - 1])
