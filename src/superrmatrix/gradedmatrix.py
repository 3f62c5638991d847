"""Super linear algebra on parity-indexed matrices.

The graded tensor product of operators is realized as an ordinary matrix on
the tensor-product space via the sign-twisted Kronecker embedding

    embed(a (x) b)[(i,k),(j,l)] = (-1)^([k]([i]+[j])) a_ij b_kl,

which turns the Koszul product rule (a1 (x) b1)(a2 (x) b2)
= (-1)^([b1][a2]) a1 a2 (x) b1 b2 into plain matrix multiplication.

The q-supercommutator has one three-case rule, _rule, read by its two forms:
q_supercommutator on plain arrays, broadcasting over stacks, and _unit_terms
on single matrix units, which names the one or two products that do not
vanish, their positions and their weights, with no coefficient: the
root-vector tables of cartanweyl plan their brackets with it once per rank.
Both are passed the root weights of the two operands, and _rule keeps its
integer data per root pair.
"""

from __future__ import annotations

import functools

import numpy as np

from .rootdata import AffineRoot, SuperRank, bilinear, lattice_sign, parity
from .scalars import QContext

__all__ = [
    "matrix_unit",
    "koszul_sign",
    "graded_kron",
    "q_supercommutator",
]


def matrix_unit(dim: int, i: int, j: int) -> np.ndarray:
    """The matrix unit E_ij (1-based indices) of size dim."""
    if not (1 <= i <= dim and 1 <= j <= dim):
        raise ValueError(f"matrix unit indices ({i}, {j}) out of range 1..{dim}")
    out = np.zeros((dim, dim), dtype=complex)
    out[i - 1, j - 1] = 1.0
    return out


def koszul_sign(pk, pi, pj):
    """(-1)^([k]([i]+[j])), the sign of the embedding at (i,k),(j,l): a float
    for integer parities, entrywise for broadcasting integer arrays."""
    return (-1.0) ** ((pk * (pi + pj)) % 2)


def graded_kron(a: np.ndarray, b: np.ndarray, pa, pb) -> np.ndarray:
    """Sign-twisted Kronecker embedding of a (x) b; see the module docstring.

    ``pa`` and ``pb`` are the parity vectors of the two factors, so the sign
    is computed entrywise and inhomogeneous matrices are handled correctly.
    Leading axes of ``a`` and ``b`` broadcast: a stack of factor pairs embeds
    as one stack of products.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    da, db = a.shape[-1], b.shape[-1]
    if a.ndim < 2 or b.ndim < 2 or a.shape[-2] != da or b.shape[-2] != db:
        raise ValueError("graded_kron expects square matrices")
    if len(pa) != da or len(pb) != db:
        raise ValueError("parity vector length mismatch")
    lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    a = np.broadcast_to(a, lead + (da, da)).reshape(-1, da, da)
    b = np.broadcast_to(b, lead + (db, db)).reshape(-1, db, db)
    rows = np.repeat(a, db, axis=-1)  # [t, i, (j, l)] = a[t, i, j]
    cols = np.tile(b, (1, 1, da))  # [t, k, (j, l)] = b[t, k, l]
    out = rows[:, :, None, :] * cols[:, None, :, :]  # [t, i, k, (j, l)]
    out *= _kron_sign(tuple(np.asarray(pa).tolist()), tuple(np.asarray(pb).tolist()))
    return out.reshape(lead + (da * db, da * db))


@functools.cache
def _kron_sign(pa: tuple[int, ...], pb: tuple[int, ...]) -> np.ndarray:
    """The embedding sign as an [i, k, (j, l)] table: one table per pair of
    parity vectors, so per rank."""
    pa, pb = np.array(pa), np.array(pb)
    sign = koszul_sign(pb[None, :, None, None], pa[:, None, None, None],
                       pa[None, None, :, None])
    sign = np.repeat(sign, len(pb), axis=-1).reshape(len(pa), len(pb), -1).astype(complex)
    sign.setflags(write=False)
    return sign


def q_supercommutator(rank: SuperRank, ctx: QContext, x: np.ndarray, y: np.ndarray,
                      root_x: AffineRoot, root_y: AffineRoot) -> np.ndarray:
    """Three-case q-supercommutator of matrices x and y of root weights
    root_x = alpha and root_y = beta:

    both positive:          x y - (-1)^([x][y]) q^-(a|b) y x;
    both negative:          y x - (-1)^([x][y]) q^+(a|b) x y;
    opposite lattice signs: x y - (-1)^([x][y]) y x.

    Leading axes of x and y broadcast: a stack of matrices of one weight
    brackets as one stack.
    """
    pair, sign, case = _rule(rank, root_x, root_y)
    if case > 0:
        return x @ y - sign * ctx.qpow(-pair) * (y @ x)
    if case < 0:
        return y @ x - sign * ctx.qpow(pair) * (x @ y)
    return x @ y - sign * (y @ x)


def _unit_terms(rank: SuperRank, x: tuple, y: tuple, root_x: AffineRoot,
                root_y: AffineRoot) -> tuple:
    """The terms of q_supercommutator of a multiple of E_ab, x = (a, b), and a
    multiple of E_cd, y = (c, d), 0-based, with no coefficient: the product
    x y at (a, d) when b = c and y x at (c, b) when d = a, the lead one first
    and then the one the rule subtracts, each as (row, col, swap, weight):
    swap when the product is y x, weight None on the lead term and, on the
    other, (-(-1)^([x][y]), -case (x|y)), the sign and the power of q it is
    multiplied by.  A bracket of units is one, two or no terms at positions
    fixed by x and y, whatever the coefficients."""
    pair, sign, case = _rule(rank, root_x, root_y)
    (a, b), (c, d) = x, y
    xy = (a, d, False) if b == c else None
    yx = (c, b, True) if d == a else None
    lead, trail = (yx, xy) if case < 0 else (xy, yx)
    terms = () if lead is None else ((*lead, None),)
    return terms if trail is None else terms + ((*trail, (-sign, -case * pair)),)


@functools.lru_cache(maxsize=4096)
def _rule(rank: SuperRank, root_x: AffineRoot, root_y: AffineRoot) -> tuple[int, float, int]:
    """((x|y), (-1)^([x][y]), the lattice case: +1 or -1 when both roots have
    that sign, 0 when their signs differ) of both forms of the bracket."""
    sx, sy = lattice_sign(root_x), lattice_sign(root_y)
    if sx not in (1, -1) or sy not in (1, -1):
        raise ValueError("q_supercommutator needs sign-homogeneous nonzero roots")
    sign = -1.0 if (parity(rank, root_x) * parity(rank, root_y)) % 2 else 1.0
    return bilinear(rank, root_x, root_y), sign, sx if sx == sy else 0
