import itertools

import numpy as np
import pytest

from superrmatrix import EvaluationRep, QContext, SuperRank, gradedmatrix
from superrmatrix.gradedmatrix import graded_kron, matrix_unit, q_supercommutator
from superrmatrix.rootdata import bilinear, real_plus_root, simple_root

from conftest import TEST_RANKS, composite_parity, maxabs, unit_supercommutator


def test_matrix_unit_product_rule():
    e11, e12, e34 = matrix_unit(4, 1, 1), matrix_unit(4, 1, 2), matrix_unit(4, 3, 4)
    assert maxabs(e11 @ e12 - e12) == 0
    assert maxabs(e12 @ e34) == 0
    with pytest.raises(ValueError):
        matrix_unit(3, 0, 1)


def test_graded_kron_even_blocks_is_plain_kron():
    rank = SuperRank(2, 1)
    p = rank.parity_vector()
    a = np.diag([1.0, 2.0, 3.0]).astype(complex)
    b = np.array([[0, 1, 0], [1j, 0, 0], [0, 0, 2]], dtype=complex)
    # both supported on even-parity index pairs: all Koszul signs are +1
    assert maxabs(graded_kron(a, b, p, p) - np.kron(a, b)) == 0


def test_graded_kron_identity():
    rank = SuperRank(1, 2)
    p = rank.parity_vector()
    eye = np.eye(3, dtype=complex)
    assert maxabs(graded_kron(eye, eye, p, p) - np.eye(9)) == 0


@pytest.mark.parametrize("m,n", [(1, 2), (2, 1), (1, 3), (3, 1)])
def test_graded_kron_homomorphism_exhaustive(m, n):
    """embed(a x b) embed(c x d) = (-1)^([b][c]) embed(ac x bd) on all units."""
    rank = SuperRank(m, n)
    p = rank.parity_vector()
    d = rank.dim
    units = list(itertools.product(range(1, d + 1), repeat=2))
    pairs = list(itertools.product(units, units))
    a = np.array([matrix_unit(d, *ab) for ab, _ in pairs])
    c = np.array([matrix_unit(d, *ce) for _, ce in pairs])
    embedded = graded_kron(a, c, p, p)  # embedded[t] = embed(a[t] x c[t])
    a_parity = np.array([p[i - 1] + p[j - 1] for (i, j), _ in pairs])
    # one row per first pair t, against all second pairs at once
    for t, (_, (k, l)) in enumerate(pairs):
        left = embedded[t] @ embedded
        sign = (-1) ** ((p[k - 1] + p[l - 1]) * a_parity)
        right = sign[:, None, None] * graded_kron(a[t] @ a, c[t] @ c, p, p)
        assert maxabs(left - right) == 0


def test_graded_kron_koszul_sign_example():
    # odd x odd composition picks up a -1 relative to the even case
    rank = SuperRank(2, 1)
    p = rank.parity_vector()
    d = rank.dim
    i, j = 1, 3  # i <= M < j
    lhs = graded_kron(matrix_unit(d, i, j), matrix_unit(d, j, i), p, p) @ \
        graded_kron(matrix_unit(d, j, i), matrix_unit(d, i, j), p, p)
    rhs = -graded_kron(matrix_unit(d, i, i), matrix_unit(d, j, j), p, p)
    assert maxabs(lhs - rhs) == 0


def test_composite_parity():
    rank = SuperRank(2, 1)
    p = rank.parity_vector()
    pc = composite_parity(p, p)
    assert list(pc) == [(a + b) % 2 for a in p for b in p]


def test_q_supercommutator_ef_cross_terms_vanish():
    rank = SuperRank(2, 1)
    ctx = QContext(q=1.1 + 0.3j)
    rep = EvaluationRep(rank, ctx, 0.7)
    e, f = rep.e_stack(), rep.f_stack()
    for i in range(rank.L + 1):
        for j in range(rank.L + 1):
            if i != j:
                br = q_supercommutator(rank, ctx, e[i], f[j],
                                       simple_root(rank, i), -simple_root(rank, j))
                assert maxabs(br) < 1e-14


def test_q_supercommutator_ladder_step():
    # [e_12, e_23] = E_12 E_23 - q^{d_2} E_23 E_12 = E_13 in the vector rep; on
    # the f side the negative rule gives [f_12, f_23] = E_32 E_21 = E_31
    rank = SuperRank(2, 1)
    ctx = QContext(q=1.1 + 0.3j)
    a1, a2 = simple_root(rank, 1), simple_root(rank, 2)
    br = q_supercommutator(rank, ctx, matrix_unit(3, 1, 2), matrix_unit(3, 2, 3), a1, a2)
    assert maxabs(br - matrix_unit(3, 1, 3)) < 1e-15
    br = q_supercommutator(rank, ctx, matrix_unit(3, 2, 1), matrix_unit(3, 3, 2), -a1, -a2)
    assert maxabs(br - matrix_unit(3, 3, 1)) < 1e-15


def test_q_supercommutator_three_cases_and_stacks(rng):
    # the q-weight on the second term: q^-(a|b) when both roots are positive,
    # q^+(a|b) with the operands swapped when both are negative, none for
    # opposite signs; a stack brackets entry by entry
    rank = SuperRank(2, 1)
    ctx = QContext(q=1.1 + 0.3j)
    x = rng.normal(size=(4, 3, 3)) + 1j * rng.normal(size=(4, 3, 3))
    y = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    a, b = real_plus_root(rank, 1, 2), real_plus_root(rank, 2, 3)
    pair = bilinear(rank, a, b)
    assert pair != 0
    cases = [((a, b), x @ y - ctx.qpow(-pair) * (y @ x)),
             ((-a, -b), y @ x - ctx.qpow(pair) * (x @ y)),
             ((a, -b), x @ y - y @ x)]
    for (ra, rb), expected in cases:
        got = q_supercommutator(rank, ctx, x, y, ra, rb)
        assert got.shape == (4, 3, 3)
        assert maxabs(got - expected) == 0
        for k in range(4):
            assert maxabs(got[k] - q_supercommutator(rank, ctx, x[k], y, ra, rb)) < 1e-14


def test_q_supercommutator_mixed_even_is_commutator(rng):
    rank = SuperRank(2, 1)
    ctx = QContext(q=1.1 + 0.3j)
    a = np.diag(rng.normal(size=3) + 1j * rng.normal(size=3))
    b = np.diag(rng.normal(size=3) + 1j * rng.normal(size=3))
    root = real_plus_root(rank, 1, 2)
    br = q_supercommutator(rank, ctx, a, b, root, -root)
    assert maxabs(br - (a @ b - b @ a)) == 0


def test_q_supercommutator_reduces_to_supercommutator_when_orthogonal():
    # isotropic odd root paired with itself: plain anticommutator, no q-weight
    rank = SuperRank(2, 1)
    ctx = QContext(q=1.4 + 0.2j)
    root = simple_root(rank, 2)
    x = y = matrix_unit(3, 2, 3)
    assert bilinear(rank, root, root) == 0
    br = q_supercommutator(rank, ctx, x, y, root, root)
    assert maxabs(br - (x @ y + y @ x)) == 0


def test_q_supercommutator_rejects_mixed_sign_roots():
    rank = SuperRank(2, 1)
    ctx = QContext(q=1.1 + 0.3j)
    mixed = simple_root(rank, 1) + -simple_root(rank, 2)
    unit = matrix_unit(3, 1, 2)
    for pair in ((mixed, simple_root(rank, 1)), (simple_root(rank, 1), mixed)):
        with pytest.raises(ValueError):
            q_supercommutator(rank, ctx, unit, unit, *pair)


def test_unit_supercommutator_matches_the_dense_bracket(rng):
    # random coefficients at random off-diagonal matrix units of C^3, as every
    # real-root image is, so that one, both or neither product survives, for
    # every pair of roots of (2,1) with every lattice sign: all three cases of
    # the rule with both parity signs
    rank = SuperRank(2, 1)
    ctx = QContext(q=1.1 + 0.3j)
    roots = [real_plus_root(rank, i, j) for i, j in ((1, 2), (1, 3), (2, 3))]
    rules = set()
    for rx, ry in itertools.product(roots + [-root for root in roots], repeat=2):
        _, sign, case = gradedmatrix._rule(rank, rx, ry)
        rules.add((sign, case))
        for _ in range(20):
            (a, b), (c, d) = rng.permutation(3)[:2].tolist(), rng.permutation(3)[:2].tolist()
            cx, cy = complex(*rng.normal(size=2)), complex(*rng.normal(size=2))
            x, y = np.zeros((3, 3), dtype=complex), np.zeros((3, 3), dtype=complex)
            x[a, b], y[c, d] = cx, cy
            dense = q_supercommutator(rank, ctx, x, y, rx, ry)
            got = np.zeros((3, 3), dtype=complex)
            for r, col, v in unit_supercommutator(rank, ctx, (a, b, cx), (c, d, cy), rx, ry):
                got[r, col] += v
            assert maxabs(got - dense) <= 1e-15 * maxabs(dense)
            assert np.array_equal(got != 0, dense != 0)
    assert rules == {(sign, case) for sign in (1.0, -1.0) for case in (1, -1, 0)}
