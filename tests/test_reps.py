import numpy as np
import pytest

from superrmatrix import EvaluationRep, GradingVector, QContext, SuperRank
from superrmatrix.gradedmatrix import graded_kron, matrix_unit
from superrmatrix.reps import check_defining_relations, coproduct_stack
from superrmatrix.rootdata import cartan_data

from conftest import (
    TEST_RANKS,
    jimbo_cartan,
    jimbo_e,
    jimbo_f,
    maxabs,
    node_parity,
    pi_root_vector,
    rand_q,
    rand_zeta,
    slot_sign,
)


def test_pi_generator_images():
    # the composed construction at zeta = 1 is the finite vector representation
    rank = SuperRank(2, 1)
    ctx = QContext(q=1.2 + 0.3j)
    rep = EvaluationRep(rank, ctx, 1.0)
    assert maxabs(jimbo_e(rep, 1) - matrix_unit(3, 1, 2)) == 0
    assert maxabs(jimbo_f(rep, 2) - matrix_unit(3, 3, 2)) == 0
    assert maxabs(jimbo_cartan(rep, 1, 0.0) - np.eye(3)) == 0
    assert jimbo_cartan(rep, 2, 2.0)[1, 1] == ctx.qpow(2.0)


def test_pi_ef_pairing_relation():
    # [E_i, F_i] reproduces the Cartan combination with the node-dependent twist
    for m, n in TEST_RANKS:
        rank = SuperRank(m, n)
        ctx = QContext(q=1.15 + 0.25j)
        rep = EvaluationRep(rank, ctx, 0.7 + 0.2j)
        for i in range(1, rank.L + 1):
            par = node_parity(rank, i)
            e, f = jimbo_e(rep, i), jimbo_f(rep, i)
            lhs = e @ f - (-1.0 if par else 1.0) * f @ e
            di = slot_sign(rank, i)
            qi = ctx.qpow(di)
            rhs = (jimbo_cartan(rep, i, di) - jimbo_cartan(rep, i, -di)) / (qi - 1 / qi)
            assert maxabs(lhs - rhs) < 1e-13


def test_pi_root_vector_images_are_units():
    rank = SuperRank(3, 2)
    ctx = QContext(q=1.1 + 0.2j)
    for i in range(1, rank.dim):
        for j in range(i + 1, rank.dim + 1):
            assert maxabs(pi_root_vector(rank, ctx, i, j, "e") - matrix_unit(5, i, j)) < 1e-13
            assert maxabs(pi_root_vector(rank, ctx, i, j, "f") - matrix_unit(5, j, i)) < 1e-13


def test_evaluation_rep_generator_images():
    rank = SuperRank(2, 1)
    ctx = QContext(q=1.2 + 0.3j)
    zeta = 0.7 + 0.2j
    rep = EvaluationRep(rank, ctx, zeta)
    assert maxabs(rep.e_stack()[0] + zeta * ctx.q * matrix_unit(3, 3, 1)) < 1e-15
    assert maxabs(rep.f_stack()[0] - (1 / zeta) * (1 / ctx.q) * matrix_unit(3, 1, 3)) < 1e-15
    assert maxabs(rep.e_stack()[1] - zeta * matrix_unit(3, 1, 2)) == 0
    diag0 = rep.cartan_diags(1.5)[0]
    assert abs(diag0[0] - ctx.qpow(-1.5)) < 1e-15
    assert abs(diag0[1] - 1) == 0
    assert abs(diag0[2] - ctx.qpow(-1.5)) < 1e-15


def test_evaluation_rep_rejects_bad_input():
    rank = SuperRank(2, 1)
    ctx = QContext(q=1.2 + 0.3j)
    with pytest.raises(ValueError):
        EvaluationRep(rank, ctx, 0.0)
    with pytest.raises(ValueError):
        GradingVector((1, -1, 0))
    with pytest.raises(ValueError):
        EvaluationRep(rank, ctx, 1.0, GradingVector((1, 1)))


def test_central_element_acts_trivially():
    for m, n in TEST_RANKS:
        rank = SuperRank(m, n)
        ctx = QContext(q=1.1 + 0.4j)
        rep = EvaluationRep(rank, ctx, 0.8 - 0.3j)
        central = rep.cartan_weight(cartan_data(rank).d_simple, 0.77 - 0.31j)
        assert maxabs(central - np.eye(rank.dim)) < 1e-12


def test_closed_images_match_composed_construction(rng):
    for m, n in TEST_RANKS:
        rank = SuperRank(m, n)
        ctx = QContext(q=rand_q(rng))
        rep = EvaluationRep(rank, ctx, rand_zeta(rng))
        for i in range(rank.L + 1):
            assert maxabs(rep.e_stack()[i] - jimbo_e(rep, i)) < 1e-13
            assert maxabs(rep.f_stack()[i] - jimbo_f(rep, i)) < 1e-13
            nu = complex(rng.normal(), rng.normal())
            assert maxabs(rep.cartan(i, nu) - jimbo_cartan(rep, i, nu)) < 1e-12


def test_grading_automorphism_rescales_generators(rng):
    rank = SuperRank(2, 3)
    ctx = QContext(q=rand_q(rng))
    grading = GradingVector((2, 1, 1, 3, 1))
    zeta = rand_zeta(rng)
    rep = EvaluationRep(rank, ctx, zeta, grading)
    base = EvaluationRep(rank, ctx, 1.0, grading)
    for i in range(rank.L + 1):
        assert maxabs(rep.e_stack()[i] - zeta ** grading.s[i] * base.e_stack()[i]) < 1e-12
        assert maxabs(rep.f_stack()[i] - zeta ** (-grading.s[i]) * base.f_stack()[i]) < 1e-12


def test_grading_automorphism_is_multiplicative(rng):
    # twisting by zeta1 * zeta2 equals twisting by zeta1 after zeta2
    rank = SuperRank(2, 1)
    ctx = QContext(q=rand_q(rng))
    grading = GradingVector((3, 1, 2))
    z1, z2 = rand_zeta(rng), rand_zeta(rng)
    both = EvaluationRep(rank, ctx, z1 * z2, grading)
    one = EvaluationRep(rank, ctx, z1, grading)
    for i in range(rank.L + 1):
        s_i = grading.s[i]
        assert maxabs(both.e_stack()[i] - z2 ** s_i * one.e_stack()[i]) < 1e-12
        assert maxabs(both.f_stack()[i] - z2 ** (-s_i) * one.f_stack()[i]) < 1e-12


def test_weight_covariance_random_points(rng):
    for m, n in TEST_RANKS:
        rank = SuperRank(m, n)
        data = cartan_data(rank)
        for _ in range(3):
            ctx = QContext(q=rand_q(rng))
            rep = EvaluationRep(rank, ctx, rand_zeta(rng))
            nu = complex(rng.normal(), rng.normal())
            for i in range(rank.L + 1):
                ci, ci_inv = rep.cartan(i, nu), rep.cartan(i, -nu)
                for j, (e, f) in enumerate(zip(rep.e_stack(), rep.f_stack())):
                    w = ctx.qpow(nu * data.a1[i, j])
                    assert maxabs(ci @ e @ ci_inv - w * e) < 1e-10
                    assert maxabs(ci @ f @ ci_inv - f / w) < 1e-10


def test_defining_relations_all_ranks(rng):
    for m, n in TEST_RANKS:
        rank = SuperRank(m, n)
        for _ in range(5):
            ctx = QContext(q=rand_q(rng))
            rep = EvaluationRep(rank, ctx, rand_zeta(rng))
            res = check_defining_relations(rep)
            assert res["max"] < 1e-10, (m, n, res)


def test_quintic_relations_present_only_at_dim3():
    ctx = QContext(q=1.1 + 0.2j)
    assert "quintic" in check_defining_relations(EvaluationRep(SuperRank(2, 1), ctx, 0.7))
    assert "quintic" not in check_defining_relations(EvaluationRep(SuperRank(3, 1), ctx, 0.7))


def test_coproduct_cartan_image_is_kron_of_diagonals():
    rank = SuperRank(2, 1)
    ctx = QContext(q=1.3 + 0.1j)
    rep1 = EvaluationRep(rank, ctx, 0.6)
    rep2 = EvaluationRep(rank, ctx, 1.4)
    img = coproduct_stack(rep1, rep2, 0.8)[0, 0, 1]  # Delta(q^{0.8 h_1})
    assert maxabs(img - np.kron(rep1.cartan(1, 0.8), rep2.cartan(1, 0.8))) < 1e-14


def test_coproduct_e1_two_blocks():
    # Delta(e_1) image at equal spectral parameters: e_1 x 1 plus the Cartan
    # twist times 1 x e_1 -- six nonzero entries in two blocks
    rank = SuperRank(2, 1)
    ctx = QContext(q=1.3 + 0.1j)
    rep = EvaluationRep(rank, ctx, 1.0)
    img = coproduct_stack(rep, rep)[0, 1, 1]  # Delta(e_1)
    e1 = rep.e_stack()[1]
    expected = np.kron(e1, np.eye(3)) + np.kron(rep.cartan(1, slot_sign(rank, 1)), e1)
    assert maxabs(img - expected) < 1e-14
    assert np.count_nonzero(np.abs(img) > 1e-12) == 6


def test_opposite_coproduct_flips_slots():
    rank = SuperRank(2, 1)
    ctx = QContext(q=1.3 + 0.1j)
    rep1 = EvaluationRep(rank, ctx, 0.6)
    rep2 = EvaluationRep(rank, ctx, 1.4)
    img = coproduct_stack(rep1, rep2)[1, 2, 2]  # Delta'(f_2)
    p = rank.parity_vector()
    expected = graded_kron(rep1.cartan(2, -slot_sign(rank, 2)), rep2.f_stack()[2], p, p) + \
        graded_kron(rep1.f_stack()[2], np.eye(3), p, p)
    assert maxabs(img - expected) < 1e-14
