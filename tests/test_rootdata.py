import numpy as np
import pytest

from superrmatrix import SuperRank
from superrmatrix.rootdata import (
    AffineRoot,
    bilinear,
    cartan_data,
    classify,
    imaginary_root,
    parity,
    positive_roots,
    real_plus_root,
    real_wrap_root,
    simple_root,
)

from conftest import TEST_RANKS, h_gamma, node_parity, o_sign, slot_sign


def test_rank_validation():
    with pytest.raises(ValueError):
        SuperRank(2, 2)
    with pytest.raises(ValueError):
        SuperRank(0, 1)


def test_parity_of_simple_and_imaginary_roots():
    for m, n in TEST_RANKS:
        rank = SuperRank(m, n)
        assert parity(rank, simple_root(rank, rank.m)) == 1
        assert parity(rank, simple_root(rank, 0)) == 1
        for i in range(1, rank.L + 1):
            if i != rank.m:
                assert parity(rank, simple_root(rank, i)) == 0
        for k in range(1, 4):
            assert parity(rank, AffineRoot((k,) * (rank.L + 1))) == 0


def test_parity_alpha13_at_21():
    rank = SuperRank(2, 1)
    assert parity(rank, real_plus_root(rank, 1, 3)) == 1  # [1] + [3] odd


def test_symmetrized_cartan_matrices():
    for m in range(1, 8):
        for n in range(1, 8):
            if m == n or m + n > 8:
                continue
            rank = SuperRank(m, n)
            data = cartan_data(rank)
            d_fin = np.array([slot_sign(rank, i) for i in range(1, rank.L + 1)])
            assert np.array_equal(data.b, d_fin[:, None] * data.a)
            d_ext = np.array(data.d_simple)
            assert np.array_equal(data.b1, d_ext[:, None] * data.a1)
            assert np.array_equal(data.b, data.b.T)
            assert np.array_equal(data.b1, data.b1.T)


def test_bilinear_closed_relations():
    for m, n in TEST_RANKS:
        rank = SuperRank(m, n)
        dim = rank.dim
        for i in range(1, dim + 1):
            for j in range(i + 1, dim + 1):
                a_ij = real_plus_root(rank, i, j)
                assert bilinear(rank, a_ij, a_ij) == slot_sign(rank, i) + slot_sign(rank, j)
                for l in range(j + 1, dim + 1):
                    assert bilinear(rank, a_ij, real_plus_root(rank, j, l)) == -slot_sign(rank, j)
                    assert bilinear(rank, a_ij, real_plus_root(rank, i, l)) == slot_sign(rank, i)
                for k in range(1, j):
                    if k != i:
                        assert bilinear(rank, a_ij, real_plus_root(rank, k, j)) == slot_sign(rank, j)


def test_delta_orthogonal_to_everything(rng):
    for m, n in TEST_RANKS:
        rank = SuperRank(m, n)
        roots = positive_roots(rank, 2)
        for _ in range(20):
            r = roots[rng.integers(len(roots))]
            assert bilinear(rank, AffineRoot((1,) * (rank.L + 1)), r) == 0


def test_bilinear_symmetric(rng):
    rank = SuperRank(3, 2)
    roots = positive_roots(rank, 2)
    for _ in range(100):
        a = roots[rng.integers(len(roots))]
        b = roots[rng.integers(len(roots))]
        assert bilinear(rank, a, b) == bilinear(rank, b, a)


def _positions(rank, n_max):
    """Root -> its position in positive_roots(rank, n_max)."""
    return {root: k for k, root in enumerate(positive_roots(rank, n_max))}


def test_normal_order_examples():
    rank = SuperRank(2, 1)
    pos = _positions(rank, 5)
    assert pos[real_plus_root(rank, 1, 2)] < pos[real_plus_root(rank, 1, 3)]
    assert pos[real_plus_root(rank, 1, 2, 3)] < pos[imaginary_root(rank, 1, 1)]
    assert pos[real_wrap_root(rank, 1, 2, 2)] < pos[real_wrap_root(rank, 1, 2, 1)]
    # real below, imaginary in the middle, wraps above
    assert pos[imaginary_root(rank, 5, 2)] < pos[real_wrap_root(rank, 1, 2, 0)]


def _normal_order_key(rank, root):
    """(bucket, i, j, +-n) of the normal order: real_plus roots by (i, j) and
    increasing n, then the imaginary roots by (n, attachment), then real_wrap
    roots by (i, j) and decreasing n."""
    kind = classify(rank, root)
    if kind[0] == "imaginary":
        return (1, kind[1], kind[2], 0)
    bucket, sign = {"real_plus": (0, 1), "real_wrap": (2, -1)}[kind[0]]
    return (bucket, kind[1], kind[2], sign * kind[3])


def test_normal_order_total_order_small_ranks():
    # positive_roots generates the order; the oracle sorts by its key
    for m in range(1, 8):
        for n in range(1, 9 - m):
            if m == n:
                continue
            rank = SuperRank(m, n)
            for n_max in range(6):
                keys = [_normal_order_key(rank, r) for r in positive_roots(rank, n_max)]
                assert keys == sorted(set(keys))  # each root once, in order


def test_positive_roots_count_and_finite_part():
    for m, n in TEST_RANKS:
        rank = SuperRank(m, n)
        for n_max in (0, 1, 3):
            roots = positive_roots(rank, n_max)
            dim = rank.dim
            assert len(roots) == dim * (dim - 1) * (n_max + 1) + rank.L * n_max
    rank = SuperRank(2, 1)
    finite = [r for r in positive_roots(rank, 0)
              if classify(rank, r)[0] == "real_plus"]
    assert [classify(rank, r)[1:3] for r in finite] == [(1, 2), (1, 3), (2, 3)]


def test_minimal_pair_betweenness():
    # every nonsimple finite root has a generating pair surrounding it
    for m, n in [(2, 1), (1, 2), (3, 2), (2, 3), (4, 1), (1, 4)]:
        rank = SuperRank(m, n)
        pos = _positions(rank, 0)
        for i in range(1, rank.dim):
            for j in range(i + 2, rank.dim + 1):
                g = real_plus_root(rank, i, j)
                found = False
                for k in range(i + 1, j):
                    a, b = real_plus_root(rank, i, k), real_plus_root(rank, k, j)
                    if pos[a] < pos[g] < pos[b]:
                        found = True
                assert found


def test_h_gamma():
    rank = SuperRank(2, 1)
    data = cartan_data(rank)
    assert h_gamma(rank, AffineRoot((1,) * (rank.L + 1))) == data.d_simple  # central element
    assert h_gamma(rank, simple_root(rank, 1)) == (0, 1, 0)
    assert h_gamma(rank, real_plus_root(rank, 1, 3)) == (0, 1, 1)


def test_classify_roundtrip():
    rank = SuperRank(2, 3)
    for r in positive_roots(rank, 2):
        kind = classify(rank, r)
        if kind[0] == "real_plus":
            assert real_plus_root(rank, *kind[1:]) == r
        elif kind[0] == "real_wrap":
            assert real_wrap_root(rank, *kind[1:]) == r
        else:
            assert kind[0] == "imaginary"
    assert classify(rank, simple_root(rank, 1) + simple_root(rank, 3))[0] == "other"


# -- the hand-written Cartan rules, the reference for the slot-basis datum --

def _ranks_to_dim(dim_max):
    return [SuperRank(m, dim - m) for dim in range(3, dim_max + 1)
            for m in range(1, dim) if 2 * m != dim]


def _reference_cartan(rank):
    """(A, B, A1, B1) by the finite Cartan rules and the affine extension
    h_0 = c - sum_i d_i h_i, alpha_0 = delta - alpha_{1,M+N}."""
    L = rank.L
    a = np.zeros((L, L), dtype=int)
    for i in range(1, L + 1):
        a[i - 1, i - 1] = 0 if i == rank.m else 2
        if i > 1:
            a[i - 1, i - 2] = -1
        if i < L:
            a[i - 1, i] = 1 if i == rank.m else -1
    d_fin = np.array([slot_sign(rank, i) for i in range(1, L + 1)], dtype=int)
    a1 = np.zeros((L + 1, L + 1), dtype=int)
    a1[1:, 1:] = a
    a1[0, 1:] = -d_fin @ a
    a1[1:, 0] = -a.sum(axis=1)
    a1[0, 0] = d_fin @ a.sum(axis=1)
    d1 = np.array([slot_sign(rank, 0)] + list(d_fin), dtype=int)
    return a, d_fin[:, None] * a, a1, d1[:, None] * a1


def _reference_exponents(rank):
    """Slot exponents of h_0..h_L: h_0 = -(K_1 + K_{M+N}) and
    H_i = K_i - d_i d_{i+1} K_{i+1}."""
    out = np.zeros((rank.L + 1, rank.dim), dtype=int)
    out[0, [0, -1]] = -1
    for i in range(1, rank.L + 1):
        out[i, i - 1] = 1
        out[i, i] = -slot_sign(rank, i) * slot_sign(rank, i + 1)
    return out


def _reference_unit_slots(rank):
    """0-based (row, col) of the unit of e_i: (M+N, 1) at the affine node and
    (i, i+1) at every other node, in 1-based slots."""
    return np.array([[rank.dim - 1] + list(range(rank.L)), list(range(rank.L + 1))])


def test_slot_basis_datum_matches_the_hand_written_rules():
    from superrmatrix.reps import EvaluationRep, _cartan_exponents
    from superrmatrix.scalars import QContext

    for rank in _ranks_to_dim(10):
        data = cartan_data(rank)
        for got, want in zip((data.a, data.b, data.a1, data.b1), _reference_cartan(rank)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert np.array_equal(_cartan_exponents(rank), _reference_exponents(rank))
        slots = _reference_unit_slots(rank)
        assert np.array_equal(data.slots, slots)
        rep = EvaluationRep(rank, QContext(q=1.1 + 0.2j), 1.0)
        assert np.array_equal(rep.units("e")[:2], slots)
        assert np.array_equal(rep.units("f")[:2], slots[::-1])
        nodes, finite = range(rank.L + 1), range(1, rank.L + 1)
        assert data.parity == tuple(node_parity(rank, i) for i in nodes)
        assert data.d_simple == tuple(slot_sign(rank, i) for i in nodes)
        assert data.o == tuple(o_sign(rank, i) for i in finite)
        signs = np.array([slot_sign(rank, k) for k in range(1, rank.dim + 1)])
        assert data.pairing.dtype == int and np.array_equal(data.pairing, data.e * signs)
        for root in positive_roots(rank, 3):
            assert parity(rank, root) == (root.coeffs[0] + root.coeffs[rank.m]) % 2


@pytest.mark.parametrize("m, n", [(2, 1), (1, 3)])
def test_cartan_data_arrays_are_read_only(m, n):
    rank = SuperRank(m, n)
    data = cartan_data(rank)
    for name in ("a", "b", "a1", "b1", "slots", "e", "pairing"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(data, name)[0, 0] = 7
    assert cartan_data(rank).b[0, 0] == _reference_cartan(rank)[1][0, 0]
