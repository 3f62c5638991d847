import itertools

import numpy as np
import pytest

from superrmatrix import SuperRank
from superrmatrix.rootdata import (
    bilinear,
    cartan_data,
    classify,
    delta_root,
    h_gamma,
    imaginary_root,
    normal_order_cmp,
    normal_order_key,
    parity,
    positive_roots,
    real_plus_root,
    real_wrap_root,
    simple_root,
)

from conftest import TEST_RANKS


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
            assert parity(rank, delta_root(rank, k)) == 0


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
            d_fin = np.array([rank.d(i) for i in range(1, rank.L + 1)])
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
                assert bilinear(rank, a_ij, a_ij) == rank.d(i) + rank.d(j)
                for l in range(j + 1, dim + 1):
                    assert bilinear(rank, a_ij, real_plus_root(rank, j, l)) == -rank.d(j)
                    assert bilinear(rank, a_ij, real_plus_root(rank, i, l)) == rank.d(i)
                for k in range(1, j):
                    if k != i:
                        assert bilinear(rank, a_ij, real_plus_root(rank, k, j)) == rank.d(j)


def test_delta_orthogonal_to_everything(rng):
    for m, n in TEST_RANKS:
        rank = SuperRank(m, n)
        roots = positive_roots(rank, 2)
        for _ in range(20):
            r = roots[rng.integers(len(roots))]
            assert bilinear(rank, delta_root(rank), r) == 0


def test_bilinear_symmetric(rng):
    rank = SuperRank(3, 2)
    roots = positive_roots(rank, 2)
    for _ in range(100):
        a = roots[rng.integers(len(roots))]
        b = roots[rng.integers(len(roots))]
        assert bilinear(rank, a, b) == bilinear(rank, b, a)


def test_normal_order_examples():
    rank = SuperRank(2, 1)
    a12 = real_plus_root(rank, 1, 2)
    a13 = real_plus_root(rank, 1, 3)
    assert normal_order_cmp(rank, a12, a13) < 0
    assert normal_order_cmp(rank, real_plus_root(rank, 1, 2, 3),
                            imaginary_root(rank, 1, 1)) < 0
    assert normal_order_cmp(rank, real_wrap_root(rank, 1, 2, 2),
                            real_wrap_root(rank, 1, 2, 1)) < 0
    # real below, imaginary in the middle, wraps above
    assert normal_order_cmp(rank, imaginary_root(rank, 5, 2),
                            real_wrap_root(rank, 1, 2, 0)) < 0


def test_normal_order_rejects_negative():
    rank = SuperRank(2, 1)
    with pytest.raises(ValueError):
        normal_order_key(rank, -real_plus_root(rank, 1, 2))


def test_normal_order_total_order_small_ranks():
    for m, n in [(2, 1), (1, 2), (3, 2), (2, 3), (4, 1), (1, 4)]:
        rank = SuperRank(m, n)
        roots = positive_roots(rank, 3)
        keys = [normal_order_key(rank, r) for r in roots]
        assert len(set(keys)) == len(keys)  # antisymmetry
        assert keys == sorted(keys)         # output is sorted
        # transitivity is inherited from tuple comparison; spot-check triples
        for a, b, c in itertools.islice(itertools.combinations(roots, 3), 500):
            ka, kb, kc = (normal_order_key(rank, x) for x in (a, b, c))
            if ka < kb and kb < kc:
                assert ka < kc


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
        for i in range(1, rank.dim):
            for j in range(i + 2, rank.dim + 1):
                g = real_plus_root(rank, i, j)
                found = False
                for k in range(i + 1, j):
                    a, b = real_plus_root(rank, i, k), real_plus_root(rank, k, j)
                    ka, kg, kb = (normal_order_key(rank, x) for x in (a, g, b))
                    if ka < kg < kb:
                        found = True
                assert found


def test_h_gamma():
    rank = SuperRank(2, 1)
    data = cartan_data(rank)
    assert h_gamma(rank, delta_root(rank)) == data.d_simple  # central element
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
