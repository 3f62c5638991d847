"""Tridiagonal inverses and the closed-form inverse of the q-Cartan matrix.

A tridiagonal U with sub-diagonal a_2..a_L, diagonal b_1..b_L and
super-diagonal g_1..g_{L-1} has principal minors from the two ends,

    Th_i = b_i Th_{i-1} - a_i g_{i-1} Th_{i-2},    Th_{-1} = 0, Th_0 = 1,
    Ph_i = b_i Ph_{i+1} - g_i a_{i+1} Ph_{i+2},    Ph_{L+1} = 1, Ph_{L+2} = 0,

and the inverse has entries built from products of off-diagonal elements
sandwiched between Th and Ph minors, divided by the determinant Th_L.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rootdata import SuperRank, cartan_data
from .scalars import DegenerateQError, QContext

__all__ = [
    "Tridiagonal",
    "tridiag_inverse",
    "bq_tridiagonal",
    "bq_matrix",
    "bq_inverse_closed",
    "c_matrix",
]


@dataclass(frozen=True)
class Tridiagonal:
    """Tridiagonal matrix stored by bands (complex entries)."""

    sub: tuple[complex, ...]   # a_2..a_L
    diag: tuple[complex, ...]  # b_1..b_L
    sup: tuple[complex, ...]   # g_1..g_{L-1}

    def __post_init__(self):
        L = len(self.diag)
        if L < 1:
            raise ValueError("empty diagonal")
        if len(self.sub) != L - 1 or len(self.sup) != L - 1:
            raise ValueError("band lengths inconsistent with diagonal")

    @property
    def size(self) -> int:
        return len(self.diag)

    def dense(self) -> np.ndarray:
        L = self.size
        out = np.zeros((L, L), dtype=complex)
        out[np.arange(L), np.arange(L)] = self.diag
        if L > 1:
            out[np.arange(1, L), np.arange(L - 1)] = self.sub
            out[np.arange(L - 1), np.arange(1, L)] = self.sup
        return out


def _minors(u: Tridiagonal) -> tuple[np.ndarray, np.ndarray]:
    """(Th_0..Th_L, Ph_1..Ph_{L+2}) as 1-based-friendly arrays."""
    L = u.size
    # 1-based band access with the conventions of the docstring
    a = lambda i: u.sub[i - 2]   # i = 2..L
    b = lambda i: u.diag[i - 1]  # i = 1..L
    g = lambda i: u.sup[i - 1]   # i = 1..L-1
    theta = np.zeros(L + 2, dtype=complex)  # theta[k+1] = Th_k, k = -1..L
    theta[0] = 0.0
    theta[1] = 1.0
    for i in range(1, L + 1):
        prev2 = theta[i - 1] if i >= 2 else 0.0
        theta[i + 1] = b(i) * theta[i] - (a(i) * g(i - 1) * prev2 if i >= 2 else 0.0)
    phi = np.zeros(L + 3, dtype=complex)  # phi[k] = Ph_k, k = 1..L+2
    phi[L + 1] = 1.0
    phi[L + 2] = 0.0
    for i in range(L, 0, -1):
        tail = g(i) * a(i + 1) * phi[i + 2] if i <= L - 1 else 0.0
        phi[i] = b(i) * phi[i + 1] - tail
    return theta, phi


def tridiag_inverse(u: Tridiagonal) -> np.ndarray:
    """Dense inverse of a tridiagonal matrix via the two-sided minor recurrences."""
    L = u.size
    theta, phi = _minors(u)
    det = theta[L + 1]
    if det == 0:
        raise np.linalg.LinAlgError("tridiagonal matrix is singular")
    out = np.zeros((L, L), dtype=complex)
    for i in range(1, L + 1):
        for j in range(1, L + 1):
            if i == j:
                out[i - 1, j - 1] = theta[i] * phi[i + 1] / det
            elif i < j:
                prod = np.prod([u.sup[k - 1] for k in range(i, j)])
                out[i - 1, j - 1] = (-1) ** (i + j) * prod * theta[i] * phi[j + 1] / det
            else:
                prod = np.prod([u.sub[k - 2] for k in range(j + 1, i + 1)])
                out[i - 1, j - 1] = (-1) ** (i + j) * prod * theta[j] * phi[i + 1] / det
    return out


def bq_tridiagonal(rank: SuperRank, ctx: QContext, scale: int = 1) -> Tridiagonal:
    """The q-number image of the symmetrized Cartan matrix, assembled from its
    band case table: entries live in {±1, ±[2]} with a zero at the odd node."""
    L = rank.L
    m = rank.m
    two = ctx.qnum_scaled(2, scale)
    sub = tuple(-1.0 + 0j if i <= m else 1.0 + 0j for i in range(2, L + 1))
    diag = tuple(
        two if i < m else (0.0 + 0j if i == m else -two) for i in range(1, L + 1)
    )
    sup = tuple(-1.0 + 0j if i < m else 1.0 + 0j for i in range(1, L))
    return Tridiagonal(sub=sub, diag=diag, sup=sup)


def bq_matrix(rank: SuperRank, ctx: QContext, scale: int = 1) -> np.ndarray:
    """Entrywise q-numbers of the symmetrized Cartan matrix B."""
    return ctx.qnum_scaled(cartan_data(rank).b, scale)


def _cartan_inverse(rank: SuperRank, num) -> np.ndarray:
    """Closed-form inverse of the symmetrized Cartan matrix with every integer
    k replaced by num(k), which must not vanish at k = M-N: five cases,
    symmetric.  A num returning arrays of one shape gives the stack of
    inverses, with the matrix axes last."""
    m, n, L = rank.m, rank.n, rank.L
    dmn = num(m - n)

    def entry(i, j):  # i <= j
        if j < m:
            return num(i) * num(m - n - j) / dmn
        if j == m:
            return -num(i) * num(n) / dmn
        if i <= m:
            # covers i < m and i = m alike: the minor product over the
            # superdiagonal contributes (-1)^(m-i) negative band entries
            return -num(i) * num(m + n - j) / dmn
        return -num(2 * m - i) * num(m + n - j) / dmn

    out = np.array([[entry(min(i, j), max(i, j)) for j in range(1, L + 1)]
                    for i in range(1, L + 1)])
    return np.moveaxis(out, (0, 1), (-2, -1))


def bq_inverse_closed(rank: SuperRank, ctx: QContext, scale=1) -> np.ndarray:
    """Closed-form inverse of the q-Cartan matrix at base q**scale; an array of
    scales gives the stack of inverses, shape scale.shape + (L, L).  Every
    integer the closed form reads lies in -L..L, so their q-numbers come from
    one evaluation.  A vanishing [M-N]_{q**scale} makes the matrix singular."""
    scale = np.asarray(scale)
    ks = np.arange(-rank.L, rank.L + 1).reshape((-1,) + (1,) * scale.ndim)
    qnums = ctx.qnum_scaled(ks, scale)
    bad = np.abs(qnums[rank.m - rank.n + rank.L]) <= ctx.tolerance
    if np.any(bad):
        raise DegenerateQError(f"[{rank.m - rank.n}]_(q**{scale[bad][0]}) vanishes; "
                               "q-Cartan matrix singular")
    return _cartan_inverse(rank, lambda k: qnums[k + rank.L])


def c_matrix(rank: SuperRank) -> np.ndarray:
    """Inverse of the symmetrized Cartan matrix B itself: the q -> 1 limit of
    the closed form, with every q-number replaced by the plain number."""
    return _cartan_inverse(rank, float)
