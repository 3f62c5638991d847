"""Inverses of tridiagonal matrices and the closed form for the q-Cartan matrix.

The recurrences read the three bands of a dense square matrix U: the
sub-diagonal a_k = U[k+1, k], the diagonal b_k = U[k, k] and the
super-diagonal g_k = U[k, k+1] (0-based).  Its leading and trailing
principal minors Th_k = det U[:k, :k] and Ph_k = det U[k:, k:] follow

    Th_k = b_{k-1} Th_{k-1} - a_{k-2} g_{k-2} Th_{k-2},    Th_0 = 1,
    Ph_k = b_k Ph_{k+1} - a_k g_k Ph_{k+2},                Ph_L = 1,

and the inverse has the entries (-1)^(i+j) g_i..g_{j-1} Th_i Ph_{j+1} / Th_L
for i <= j, with the sub-diagonal in place of the super-diagonal for i > j.
They are the oracle for the closed forms below, on bq_matrix, the one
encoding of the q-Cartan matrix.
"""

from __future__ import annotations

import functools

import numpy as np

from .rootdata import SuperRank, cartan_data
from .scalars import QContext, require_nonzero

__all__ = [
    "tridiag_inverse",
    "bq_matrix",
    "bq_inverse_closed",
    "c_matrix",
]


def _minors(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Th_0..Th_L, Ph_0..Ph_L) of a tridiagonal u; Th_L = Ph_0 = det u."""
    L = len(u)
    b = np.diagonal(u)
    ag = np.diagonal(u, -1) * np.diagonal(u, 1)  # a_k g_k
    theta = np.ones(L + 1, dtype=complex)
    phi = np.ones(L + 1, dtype=complex)
    for k in range(1, L + 1):
        theta[k] = b[k - 1] * theta[k - 1] - (ag[k - 2] * theta[k - 2] if k >= 2 else 0.0)
    for k in range(L - 1, -1, -1):
        phi[k] = b[k] * phi[k + 1] - (ag[k] * phi[k + 2] if k <= L - 2 else 0.0)
    return theta, phi


def tridiag_inverse(u: np.ndarray) -> np.ndarray:
    """Dense inverse of a square tridiagonal matrix via the two-sided minor
    recurrences; ValueError for any other shape or an entry off the bands."""
    u = np.asarray(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"need a square matrix, got shape {u.shape}")
    if np.any(np.triu(u, 2)) or np.any(np.tril(u, -2)):
        raise ValueError("matrix has nonzero entries off its three bands")
    L = len(u)
    theta, phi = _minors(u)
    det = theta[L]
    if det == 0:
        raise np.linalg.LinAlgError("tridiagonal matrix is singular")
    out = np.empty((L, L), dtype=complex)
    for i in range(L):
        for j in range(L):
            lo, hi = min(i, j), max(i, j)
            band = np.diagonal(u, 1 if i < j else -1)
            out[i, j] = (-1) ** (i + j) * np.prod(band[lo:hi]) * theta[lo] * phi[hi + 1] / det
    return out


def bq_matrix(rank: SuperRank, ctx: QContext, scale: int = 1) -> np.ndarray:
    """Entrywise q-numbers of the symmetrized Cartan matrix B."""
    return ctx.qnum_scaled(cartan_data(rank).b, scale)


@functools.cache
def _inverse_table(rank: SuperRank) -> tuple[np.ndarray, ...]:
    """The closed-form inverse of the symmetrized Cartan matrix as integer
    arrays over its (L, L) entries, five cases, symmetric: entry (i, j) is
    sign * num(k_a) * num(k_b) / num(M-N), with a and b indices into ks, the
    integers the cases read, M-N last and nowhere else, so the divisor is read
    from the same evaluation as the numerators: one qnum_scaled call in
    bq_inverse_closed, one gather of the powers of q for the level data of
    cartanweyl (_level_plan)."""
    m, n, L = rank.m, rank.n, rank.L

    def case(i, j):  # i <= j: (sign, k_a, k_b)
        if j < m:
            return 1, i, m - n - j
        if j == m:
            return -1, i, n
        if i <= m:
            # covers i < m and i = m alike: the minor product over the
            # superdiagonal contributes (-1)^(m-i) negative band entries
            return -1, i, m + n - j
        return -1, 2 * m - i, m + n - j

    sign, k_a, k_b = np.moveaxis(np.array([[case(min(i, j), max(i, j)) for j in range(1, L + 1)]
                                           for i in range(1, L + 1)]), -1, 0)
    ks = np.array(sorted((set(k_a.flat) | set(k_b.flat)) - {m - n}) + [m - n])
    index = np.zeros(2 * L + 1, dtype=int)  # of every k in -L..L, which holds ks
    index[ks + L] = np.arange(len(ks))
    table = sign.astype(float), index[k_a + L], index[k_b + L], ks
    for a in table:
        a.setflags(write=False)
    return table


def _cartan_inverse(rank: SuperRank, nums: np.ndarray) -> np.ndarray:
    """The closed-form inverse from nums, the values num(k) of the integers
    ks of _inverse_table along the last axis, the divisor num(M-N) last, which
    must not vanish: one gather, leading axes of nums giving a stack of
    inverses with the matrix axes last.  The one formula of the inverse, read
    by bq_inverse_closed, c_matrix and the U_n of cartanweyl's level data."""
    sign, a, b, _ = _inverse_table(rank)
    return sign * nums[..., a] * nums[..., b] / nums[..., -1:, None]


def bq_inverse_closed(rank: SuperRank, ctx: QContext, scale=1) -> np.ndarray:
    """Closed-form inverse of the q-Cartan matrix at base q**scale; an array of
    scales gives the stack of inverses, shape scale.shape + (L, L).  The
    q-numbers the closed form reads, the divisor [M-N]_{q**scale} among them,
    come from one evaluation; the divisor is refused by require_nonzero when
    it vanishes and the matrix is singular."""
    scale = np.asarray(scale)
    ks = _inverse_table(rank)[3]
    nums = ctx.qnum_scaled(ks, scale[..., None])
    require_nonzero(nums[..., -1], ks[-1], scale)
    return _cartan_inverse(rank, nums)


def c_matrix(rank: SuperRank) -> np.ndarray:
    """Inverse of the symmetrized Cartan matrix B itself: the q -> 1 limit of
    the closed form, with every q-number replaced by the plain number."""
    return _cartan_inverse(rank, _inverse_table(rank)[3].astype(float))
