import numpy as np
import pytest

from superrmatrix import QContext, SuperRank
from superrmatrix.rootdata import cartan_data
from superrmatrix.tridiag import _minors, bq_inverse_closed, bq_matrix, c_matrix, tridiag_inverse

from conftest import maxabs, rand_q

ALL_RANKS_UP_TO_8 = [(m, n) for m in range(1, 8) for n in range(1, 8)
                     if m != n and m + n <= 8]


def random_tridiagonal(rng, L, shift):
    def band(k):
        return rng.normal(size=L - abs(k)) + 1j * rng.normal(size=L - abs(k))

    return np.diag(band(-1), -1) + np.diag(band(0) + shift) + np.diag(band(1), 1)


def test_one_by_one():
    u = np.array([[2.0 + 1.0j]])
    assert maxabs(tridiag_inverse(u) - np.array([[1 / (2 + 1j)]])) < 1e-16


def test_bq_inverse_2x2_example():
    rank = SuperRank(2, 1)
    ctx = QContext(q=1.17 + 0.21j)
    q = ctx.q
    two = q + 1 / q
    bq = bq_matrix(rank, ctx)
    assert maxabs(bq - np.array([[two, -1], [-1, 0]])) < 1e-15
    expected_inv = np.array([[0, -1], [-1, -two]])
    assert maxabs(bq_inverse_closed(rank, ctx) - expected_inv) < 1e-14
    assert maxabs(tridiag_inverse(bq) - expected_inv) < 1e-14


def test_random_tridiagonal_vs_dense_solve(rng):
    for L in range(1, 9):
        for _ in range(5):
            u = random_tridiagonal(rng, L, 3.0)
            assert maxabs(tridiag_inverse(u) - np.linalg.inv(u)) < 1e-12


def test_determinant_from_both_ends(rng):
    # the forward and backward minor recurrences meet at the determinant
    for _ in range(50):
        L = int(rng.integers(2, 8))
        u = random_tridiagonal(rng, L, 2.5)
        theta, phi = _minors(u)
        det = theta[L]
        assert abs(det - phi[0]) < 1e-10 * max(1.0, abs(det))
        assert abs(det - np.linalg.det(u)) < 1e-9 * max(1.0, abs(det))


def test_singular_tridiagonal_raises():
    with pytest.raises(np.linalg.LinAlgError):
        tridiag_inverse(np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_rejects_non_square_and_off_band_input(rng):
    with pytest.raises(ValueError):
        tridiag_inverse(np.ones((2, 3)))
    with pytest.raises(ValueError):
        tridiag_inverse(np.ones(3))
    for corner in ((0, 2), (3, 0)):
        u = random_tridiagonal(rng, 4, 3.0)
        u[corner] = 1e-300
        with pytest.raises(ValueError):
            tridiag_inverse(u)


def test_bq_inverse_closed_vs_recurrence_and_dense(rng):
    for m, n in ALL_RANKS_UP_TO_8:
        rank = SuperRank(m, n)
        for _ in range(5):
            ctx = QContext(q=rand_q(rng))
            bq = bq_matrix(rank, ctx)
            closed = bq_inverse_closed(rank, ctx)
            assert maxabs(closed - tridiag_inverse(bq)) < 1e-12
            assert maxabs(closed @ bq - np.eye(rank.L)) < 1e-12
            assert maxabs(closed - np.linalg.inv(bq)) < 1e-12


def test_bq_inverse_symmetry_and_middle_column(rng):
    rank = SuperRank(3, 2)
    ctx = QContext(q=rand_q(rng))
    inv = bq_inverse_closed(rank, ctx)
    assert maxabs(inv - inv.T) == 0  # symmetric by construction
    for i in range(1, rank.m + 1):
        expected = -ctx.qnum(i) * ctx.qnum(rank.n) / ctx.qnum(rank.m - rank.n)
        assert abs(inv[i - 1, rank.m - 1] - expected) < 1e-14


def test_c_matrix_is_inverse_of_b():
    for m, n in ALL_RANKS_UP_TO_8:
        rank = SuperRank(m, n)
        c = c_matrix(rank)
        b = cartan_data(rank).b.astype(float)
        assert maxabs(c @ b - np.eye(rank.L)) < 1e-12
        assert maxabs(c - c.T) == 0


def test_c_matrix_2x2_example():
    assert maxabs(c_matrix(SuperRank(2, 1)) - np.array([[0., -1.], [-1., -2.]])) == 0
