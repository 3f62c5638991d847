"""Super linear algebra on parity-indexed matrices.

The graded tensor product of operators is realized as an ordinary matrix on
the tensor-product space via the sign-twisted Kronecker embedding

    embed(a (x) b)[(i,k),(j,l)] = (-1)^([k]([i]+[j])) a_ij b_kl,

which turns the Koszul product rule (a1 (x) b1)(a2 (x) b2)
= (-1)^([b1][a2]) a1 a2 (x) b1 b2 into plain matrix multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rootdata import AffineRoot, SuperRank, bilinear, lattice_sign, parity
from .scalars import QContext

__all__ = [
    "matrix_unit",
    "supertrace",
    "koszul_sign",
    "graded_kron",
    "composite_parity",
    "GradedElement",
    "graded_element",
    "q_supercommutator",
]


def matrix_unit(dim: int, i: int, j: int) -> np.ndarray:
    """The matrix unit E_ij (1-based indices) of size dim."""
    if not (1 <= i <= dim and 1 <= j <= dim):
        raise ValueError(f"matrix unit indices ({i}, {j}) out of range 1..{dim}")
    out = np.zeros((dim, dim), dtype=complex)
    out[i - 1, j - 1] = 1.0
    return out


def supertrace(x: np.ndarray, parity_vec: np.ndarray) -> complex:
    """sum_k (-1)^[k] x_kk."""
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError("supertrace expects a square matrix")
    signs = np.where(np.asarray(parity_vec) % 2 == 0, 1.0, -1.0)
    return complex(np.sum(signs * np.diag(x)))


def composite_parity(pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """Parity vector of V (x) W ordered with the first factor slowest."""
    return (np.add.outer(np.asarray(pa), np.asarray(pb)) % 2).reshape(-1)


def koszul_sign(pk, pi, pj):
    """(-1)^([k]([i]+[j])), the sign of the embedding at (i,k),(j,l): a float
    for integer parities, entrywise for broadcasting integer arrays."""
    return (-1.0) ** ((pk * (pi + pj)) % 2)


def graded_kron(a: np.ndarray, b: np.ndarray, pa, pb) -> np.ndarray:
    """Sign-twisted Kronecker embedding of a (x) b; see the module docstring.

    ``pa`` and ``pb`` are the parity vectors of the two factors, so the sign
    is computed entrywise and inhomogeneous matrices are handled correctly.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    pa, pb = np.asarray(pa), np.asarray(pb)
    da, db = a.shape[0], b.shape[0]
    if a.shape != (da, da) or b.shape != (db, db):
        raise ValueError("graded_kron expects square matrices")
    if len(pa) != da or len(pb) != db:
        raise ValueError("parity vector length mismatch")
    sign = koszul_sign(pb[None, None, :], pa[:, None, None], pa[None, :, None])
    out = np.einsum("ij,kl,ijk->ikjl", a, b, sign)
    return np.ascontiguousarray(out.reshape(da * db, da * db))


@dataclass(frozen=True)
class GradedElement:
    """A matrix tagged with its root-lattice weight and Z2 parity."""

    root: AffineRoot
    matrix: np.ndarray
    parity: int


def graded_element(rank: SuperRank, root: AffineRoot, matrix: np.ndarray) -> GradedElement:
    return GradedElement(root=root, matrix=np.asarray(matrix, dtype=complex),
                         parity=parity(rank, root))


def q_supercommutator(
    rank: SuperRank, ctx: QContext, x: GradedElement, y: GradedElement
) -> GradedElement:
    """Three-case q-supercommutator of root-graded elements.

    For weights alpha, beta both positive:  x y - (-1)^([x][y]) q^-(a|b) y x;
    both negative:                          y x - (-1)^([x][y]) q^+(a|b) x y;
    opposite lattice signs:                 x y - (-1)^([x][y]) y x.
    """
    sx = lattice_sign(x.root)
    sy = lattice_sign(y.root)
    if sx not in (1, -1) or sy not in (1, -1):
        raise ValueError("q_supercommutator needs sign-homogeneous nonzero roots")
    sgn = -1.0 if (x.parity * y.parity) % 2 else 1.0
    pair = bilinear(rank, x.root, y.root)
    xm, ym = x.matrix, y.matrix
    if sx > 0 and sy > 0:
        mat = xm @ ym - sgn * ctx.qpow(-pair) * (ym @ xm)
    elif sx < 0 and sy < 0:
        mat = ym @ xm - sgn * ctx.qpow(pair) * (xm @ ym)
    else:
        mat = xm @ ym - sgn * (ym @ xm)
    return graded_element(rank, x.root + y.root, mat)
