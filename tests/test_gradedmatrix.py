import itertools

import numpy as np
import pytest

from superrmatrix import EvaluationRep, QContext, SuperRank
from superrmatrix.gradedmatrix import (
    composite_parity,
    graded_element,
    graded_kron,
    matrix_unit,
    q_supercommutator,
    supertrace,
)
from superrmatrix.rootdata import bilinear, real_plus_root, simple_root

from conftest import TEST_RANKS, maxabs


def test_matrix_unit_product_rule():
    e11, e12, e34 = matrix_unit(4, 1, 1), matrix_unit(4, 1, 2), matrix_unit(4, 3, 4)
    assert maxabs(e11 @ e12 - e12) == 0
    assert maxabs(e12 @ e34) == 0
    with pytest.raises(ValueError):
        matrix_unit(3, 0, 1)


def test_supertrace():
    for m, n in TEST_RANKS:
        rank = SuperRank(m, n)
        p = rank.parity_vector()
        assert supertrace(np.eye(rank.dim), p) == m - n
        assert supertrace(matrix_unit(rank.dim, 1, 1), p) == 1
        assert supertrace(matrix_unit(rank.dim, rank.dim, rank.dim), p) == -1


def test_supertrace_graded_cyclicity(rng):
    rank = SuperRank(2, 3)
    p = rank.parity_vector()
    d = rank.dim
    for px in (0, 1):
        for py in (0, 1):
            x = np.zeros((d, d), dtype=complex)
            y = np.zeros((d, d), dtype=complex)
            for i in range(d):
                for j in range(d):
                    if (p[i] + p[j]) % 2 == px:
                        x[i, j] = rng.normal() + 1j * rng.normal()
                    if (p[i] + p[j]) % 2 == py:
                        y[i, j] = rng.normal() + 1j * rng.normal()
            sign = -1 if px and py else 1
            assert abs(supertrace(x @ y, p) - sign * supertrace(y @ x, p)) < 1e-12


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
    for i in range(rank.L + 1):
        for j in range(rank.L + 1):
            if i != j:
                br = q_supercommutator(rank, ctx, rep.element_e(i), rep.element_f(j))
                assert maxabs(br.matrix) < 1e-14


def test_q_supercommutator_ladder_step():
    # [e_12, e_23] = E_12 E_23 - q^{d_2} E_23 E_12 = E_13 in the vector rep
    rank = SuperRank(2, 1)
    ctx = QContext(q=1.1 + 0.3j)
    x = graded_element(rank, simple_root(rank, 1), matrix_unit(3, 1, 2))
    y = graded_element(rank, simple_root(rank, 2), matrix_unit(3, 2, 3))
    br = q_supercommutator(rank, ctx, x, y)
    assert maxabs(br.matrix - matrix_unit(3, 1, 3)) < 1e-15
    assert br.root == real_plus_root(rank, 1, 3)


def test_q_supercommutator_mixed_even_is_commutator(rng):
    rank = SuperRank(2, 1)
    ctx = QContext(q=1.1 + 0.3j)
    a = np.diag(rng.normal(size=3) + 1j * rng.normal(size=3))
    b = np.diag(rng.normal(size=3) + 1j * rng.normal(size=3))
    x = graded_element(rank, real_plus_root(rank, 1, 2), a)
    y = graded_element(rank, -real_plus_root(rank, 1, 2), b)
    br = q_supercommutator(rank, ctx, x, y)
    assert maxabs(br.matrix - (a @ b - b @ a)) == 0


def test_q_supercommutator_reduces_to_supercommutator_when_orthogonal():
    # isotropic odd root paired with itself: plain anticommutator, no q-weight
    rank = SuperRank(2, 1)
    ctx = QContext(q=1.4 + 0.2j)
    x = graded_element(rank, simple_root(rank, 2), matrix_unit(3, 2, 3))
    y = graded_element(rank, simple_root(rank, 2), matrix_unit(3, 2, 3))
    assert bilinear(rank, x.root, y.root) == 0
    br = q_supercommutator(rank, ctx, x, y)
    expected = x.matrix @ y.matrix + y.matrix @ x.matrix
    assert maxabs(br.matrix - expected) == 0


def test_q_supercommutator_rejects_mixed_sign_roots():
    rank = SuperRank(2, 1)
    ctx = QContext(q=1.1 + 0.3j)
    mixed = graded_element(rank, simple_root(rank, 1) + -simple_root(rank, 2),
                           matrix_unit(3, 1, 2))
    ok = graded_element(rank, simple_root(rank, 1), matrix_unit(3, 1, 2))
    with pytest.raises(ValueError):
        q_supercommutator(rank, ctx, mixed, ok)
