"""Acceptance suite: one test per acceptance criterion, at its stated
tolerance, printing a PASS line when it holds.

Criterion 2 compares the factorized product against the closed form with the
stated truncation orders (60 for the rank-one products, 40 for the diagonal
series); at those orders the geometric factor tails reach 1e-8 only for
ratio powers |z**s| <= 0.4, so the two-path grid draws its ratios in that
disc while the closed-form grids (Yang-Baxter, intertwining, homogeneity)
use the full |z**s| <= 0.8 range.
"""

import json
import time

import numpy as np

from superrmatrix import (
    EvaluationRep,
    GradingVector,
    QContext,
    SuperRank,
    build_rfactors,
    build_root_vectors,
    k_operator_closed,
    r_operator,
    verify_intertwining,
    verify_ybe,
)
from superrmatrix.cartanweyl import (
    closed_form_imaginary,
    closed_form_root_vector,
    t_matrix,
    u_matrices,
)
from superrmatrix.gradedmatrix import q_supercommutator
from superrmatrix.reps import check_defining_relations
from superrmatrix.rfactors import k_operator_weights
from superrmatrix.cli import load_matrix, main
from superrmatrix.rootdata import (
    cartan_data,
    classify,
    imaginary_root,
    positive_roots,
    real_plus_root,
)
from superrmatrix.tridiag import (
    bq_inverse_closed,
    bq_matrix,
    tridiag_inverse,
)

from conftest import TEST_RANKS, maxabs, rand_q, rand_zeta, zeta_pair_bounded

SEED = 143


def report(name, worst, tol):
    status = "PASS" if worst < tol else "FAIL"
    print(f"{status} {name}: worst residual {worst:.3e} < {tol:g}")
    assert worst < tol


def ybe_zetas(rng, s_total, bound=0.8):
    r12 = rng.uniform(0.1, bound ** (1 / s_total))
    r23 = rng.uniform(0.1, bound ** (1 / s_total))
    p1, p2 = rng.uniform(0, 2 * np.pi, size=2)
    u12 = r12 * np.exp(1j * p1)
    u23 = r23 * np.exp(1j * p2)
    return u12 * u23, u23, 1.0 + 0j


def test_criterion_1_graded_yang_baxter():
    rng = np.random.default_rng(SEED)
    t0 = time.time()
    worst = 0.0
    for m, n in TEST_RANKS:
        rank = SuperRank(m, n)
        for _ in range(20):
            ctx = QContext(q=rand_q(rng, u_scale=0.2))
            z1, z2, z3 = ybe_zetas(rng, m + n)
            worst = max(worst, verify_ybe(rank, ctx, z1, z2, z3))
    elapsed = time.time() - t0
    print(f"     (criterion 1 grid: 6 ranks x 20 points in {elapsed:.1f}s)")
    assert elapsed < 120
    report("criterion 1 (graded Yang-Baxter)", worst, 1e-9)


def test_criterion_2_two_path_r():
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    for m, n in TEST_RANKS:
        rank = SuperRank(m, n)
        grading = GradingVector.ones(rank)
        for _ in range(20):
            ctx = QContext(q=rand_q(rng))
            z1, z2 = zeta_pair_bounded(rng, grading.total, bound=0.4)
            fs = build_rfactors(rank, ctx, z1, z2, grading,
                                n_max_product=60, n_max_sim=40)
            worst = max(worst, fs.cross_mode_residual)
    report("criterion 2 (two-path R)", worst, 1e-8)


def test_criterion_3_cartan_weyl_closed_forms():
    rng = np.random.default_rng(SEED + 2)
    worst = 0.0
    for m, n in TEST_RANKS:
        rank = SuperRank(m, n)
        ctx = QContext(q=rand_q(rng))
        rep = EvaluationRep(rank, ctx, rand_zeta(rng))
        table = build_root_vectors(rep, 4)
        for root in positive_roots(rank, 4):
            kind = classify(rank, root)
            if kind[0] == "imaginary":
                _, lvl, i = kind
                for which in "ef":
                    images = (np.diag(table.unprimed_diagonals(which, 4)[lvl - 1, i - 1]),
                              np.diag(table.primed_diagonals(which)[lvl - 1, i - 1]))
                    for primed, got in zip((False, True), images):
                        worst = max(worst, maxabs(
                            got - closed_form_imaginary(rep, lvl, i, which, primed=primed)))
            else:
                for which in "ef":
                    worst = max(worst, maxabs(
                        table.real(which, root) - closed_form_root_vector(rep, root, which)))
    report("criterion 3 (Cartan-Weyl closed forms)", worst, 1e-10)


def test_criterion_4_level_pairing_identity():
    rng = np.random.default_rng(SEED + 3)
    worst_bracket = 0.0
    worst_entries = 0.0
    for m, n in TEST_RANKS:
        rank = SuperRank(m, n)
        ctx = QContext(q=rand_q(rng))
        rep = EvaluationRep(rank, ctx, rand_zeta(rng))
        table = build_root_vectors(rep, 4)
        unprimed = table.unprimed_diagonals("e", 4)
        data = cartan_data(rank)
        for lvl in range(1, 5):
            tn = t_matrix(rank, ctx, lvl)
            # entries factor as ([n]_q / n) [B_ij]_{q**n}
            for a in range(rank.L):
                for b in range(rank.L):
                    direct = ctx.qnum(lvl) / lvl * ctx.qnum_scaled(
                        int(data.b[a, b]), lvl)
                    worst_entries = max(worst_entries, abs(tn[a, b] - direct))
            worst_entries = max(worst_entries, maxabs(
                u_matrices(rank, ctx, [lvl])[0] @ tn - np.eye(rank.L)))
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
                        worst_bracket = max(worst_bracket, maxabs(lhs - rhs))
    report("criterion 4a (level-pairing bracket)", worst_bracket, 1e-10)
    report("criterion 4b (pairing-matrix entries)", worst_entries, 1e-12)


def test_criterion_5_qcartan_inverse():
    rng = np.random.default_rng(SEED + 4)
    worst = 0.0
    for m in range(1, 8):
        for n in range(1, 8):
            if m == n or m + n > 8:
                continue
            rank = SuperRank(m, n)
            for _ in range(5):
                ctx = QContext(q=rand_q(rng))
                bq = bq_matrix(rank, ctx)
                closed = bq_inverse_closed(rank, ctx)
                assert maxabs(closed - closed.T) == 0  # symmetric by construction
                worst = max(worst, maxabs(closed - tridiag_inverse(bq)))
                worst = max(worst, maxabs(closed - np.linalg.inv(bq)))
    report("criterion 5 (q-Cartan inverse three ways)", worst, 1e-12)


def test_criterion_6_k_two_path():
    rng = np.random.default_rng(SEED + 5)
    worst = 0.0
    for m, n in TEST_RANKS:
        rank = SuperRank(m, n)
        for _ in range(5):
            ctx = QContext(q=rand_q(rng))
            rep1 = EvaluationRep(rank, ctx, rand_zeta(rng))
            rep2 = EvaluationRep(rank, ctx, rand_zeta(rng))
            worst = max(worst, maxabs(k_operator_weights(rep1, rep2)
                                      - k_operator_closed(rank, ctx)))
    report("criterion 6 (K two-path)", worst, 1e-10)


def test_criterion_7_defining_relations():
    rng = np.random.default_rng(SEED + 6)
    worst = 0.0
    for m, n in TEST_RANKS:
        rank = SuperRank(m, n)
        for _ in range(5):
            ctx = QContext(q=rand_q(rng))
            rep = EvaluationRep(rank, ctx, rand_zeta(rng))
            worst = max(worst, check_defining_relations(rep)["max"])
    report("criterion 7 (defining relations)", worst, 1e-10)


def test_criterion_8_intertwining():
    rng = np.random.default_rng(SEED + 7)
    worst = 0.0
    for m, n in TEST_RANKS:
        rank = SuperRank(m, n)
        for _ in range(5):
            ctx = QContext(q=rand_q(rng))
            z1, z2 = zeta_pair_bounded(rng, m + n)
            res = verify_intertwining(rank, ctx, z1, z2)
            for name in (f"e{rank.m}", f"f{rank.m}", "e0", "f0"):
                assert name in res
            worst = max(worst, res["max"])
    report("criterion 8 (intertwining, all generators)", worst, 1e-9)


def test_criterion_9_homogeneity():
    rng = np.random.default_rng(SEED + 8)
    worst = 0.0
    for m, n in TEST_RANKS:
        rank = SuperRank(m, n)
        ctx = QContext(q=rand_q(rng))
        z1, z2 = zeta_pair_bounded(rng, m + n)
        for _ in range(5):
            c = complex(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5))
            worst = max(worst, maxabs(r_operator(rank, ctx, z1, z2)
                                      - r_operator(rank, ctx, c * z1, c * z2)))
    report("criterion 9 (homogeneity in the ratio)", worst, 1e-10)


def test_criterion_10_cli_contract(tmp_path):
    assert main(["verify", "--m", "2", "--n", "1"]) == 0
    out = tmp_path / "r.json"
    assert main(["rmatrix", "--m", "2", "--n", "1", "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    matrix = load_matrix(payload)
    direct = r_operator(SuperRank(2, 1), QContext(q=complex(*payload["q"])),
                        complex(*payload["zeta1"]), complex(*payload["zeta2"]))
    assert np.array_equal(matrix, direct)
    print("PASS criterion 10 (CLI contract): verify exit 0, bitwise round trip")
