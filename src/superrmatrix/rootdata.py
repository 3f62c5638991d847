"""Root system of sl(M|N) and its affinization.

Slots of the defining superspace are numbered 1..M+N; slot k is even for
k <= M and odd otherwise.  SuperRank.parity_vector is the one statement of
these slot parities, read as they are by the Koszul signs; cartan_data
derives from it the slot signs D_k = (-1)^[k], the node parities, the node
signs d_simple, the signs o_i and the slot pairing, and every other sign or
parity is read there.  Simple roots carry indices 0..L with L = M+N-1; index
0 is the affine node.  A root is stored by its integer coefficient vector
(m_0, ..., m_L) over the simple roots, so that delta = sum of all simple
roots has coefficients (1, ..., 1).

The simple roots on the slot basis, (epsilon_k | epsilon_l) = D_k delta_kl,
are the rows of one integer matrix e (cartan_data): alpha_i = epsilon_i -
epsilon_{i+1} and alpha_0 = delta - (epsilon_1 - epsilon_{M+N}), delta zero on
the slots, so (delta | gamma) = 0 identically.  The bilinear form is
(alpha_i | alpha_j) = B1_ij with B1 = e D e^T, and A1 = D1 B1.

The distinguished order, slots 1..M even and then N odd, is still assumed
beyond parity_vector in these places only: the closed-form oracles
cartanweyl.real_root_monomial, cartanweyl.closed_form_imaginary and
tridiag._inverse_table; the attachment rule of cartanweyl._ladder_table; and
the relation triples of reps.check_defining_relations.

The normal order of the positive roots, the order of the factors of the
R-operator, is alpha_ij + n delta by (i, j) with n increasing, then the
imaginary roots n delta by (n, attachment), then (delta - alpha_ij) + n delta
by (i, j) with n decreasing; positive_roots generates the roots in it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SuperRank",
    "AffineRoot",
    "CartanData",
    "simple_root",
    "real_plus_root",
    "real_wrap_root",
    "imaginary_root",
    "parity",
    "bilinear",
    "cartan_data",
    "lattice_sign",
    "classify",
    "positive_roots",
    "root_label",
]


class HashedValue:
    """Base of the frozen value types that key the package's caches
    (SuperRank, AffineRoot, GradingVector, QContext): each keeps its field
    values as one tuple, hashed once at construction by _freeze, called from
    __post_init__.  Equality is identity first, then that tuple compared field
    by field, and NotImplemented for any other type, as a dataclass compares."""

    __slots__ = ()

    def _freeze(self, *fields) -> None:
        object.__setattr__(self, "_fields", fields)
        object.__setattr__(self, "_hash", hash(fields))

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields == other._fields

    def __hash__(self) -> int:
        return self._hash


@dataclass(frozen=True, eq=False)
class SuperRank(HashedValue):
    """Pair (M, N) fixing gl(M|N); requires M, N >= 1 and M != N."""

    m: int
    n: int

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("need M >= 1 and N >= 1")
        if self.m == self.n:
            raise ValueError("M and N must differ")
        self._freeze(self.m, self.n)

    @property
    def dim(self) -> int:
        return self.m + self.n

    @property
    def L(self) -> int:
        return self.m + self.n - 1

    def parity_vector(self) -> np.ndarray:
        """0-based slot parities as an int array of length M+N: the one
        statement of which slots are odd, read through cartan_data."""
        return np.array([0] * self.m + [1] * self.n, dtype=int)


@dataclass(frozen=True, eq=False)
class AffineRoot(HashedValue):
    """Element of the affine root lattice: coefficients over alpha_0..alpha_L.

    ``attach`` distinguishes the L independent root vectors sitting on one
    imaginary root n*delta; it is ignored by lattice arithmetic, not by
    equality.
    """

    coeffs: tuple[int, ...]
    attach: int | None = None

    def __post_init__(self):
        self._freeze(self.coeffs, self.attach)

    def __add__(self, other: "AffineRoot") -> "AffineRoot":
        if len(self.coeffs) != len(other.coeffs):
            raise ValueError("rank mismatch in root addition")
        return AffineRoot(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "AffineRoot":
        return AffineRoot(tuple(-a for a in self.coeffs), attach=self.attach)

    def vector(self) -> np.ndarray:
        return np.array(self.coeffs, dtype=int)


def simple_root(rank: SuperRank, i: int) -> AffineRoot:
    if not 0 <= i <= rank.L:
        raise ValueError(f"simple-root index {i} out of range")
    c = [0] * (rank.L + 1)
    c[i] = 1
    return AffineRoot(tuple(c))


def _alpha_ij(rank: SuperRank, i: int, j: int) -> list[int]:
    if not 1 <= i < j <= rank.dim:
        raise ValueError(f"need 1 <= i < j <= {rank.dim}, got ({i}, {j})")
    c = [0] * (rank.L + 1)
    for k in range(i, j):
        c[k] = 1
    return c


def real_plus_root(rank: SuperRank, i: int, j: int, n: int = 0) -> AffineRoot:
    """alpha_ij + n*delta for 1 <= i < j <= M+N, n >= 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    c = _alpha_ij(rank, i, j)
    return AffineRoot(tuple(ck + n for ck in c))


def real_wrap_root(rank: SuperRank, i: int, j: int, n: int = 0) -> AffineRoot:
    """(delta - alpha_ij) + n*delta for 1 <= i < j <= M+N, n >= 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    c = _alpha_ij(rank, i, j)
    return AffineRoot(tuple((n + 1) - ck for ck in c))


def imaginary_root(rank: SuperRank, n: int, attach: int) -> AffineRoot:
    """n*delta carrying the simple-root attachment index 1 <= attach <= L."""
    if n < 1:
        raise ValueError("imaginary roots need n >= 1")
    if not 1 <= attach <= rank.L:
        raise ValueError(f"attachment index {attach} out of range 1..{rank.L}")
    return AffineRoot((n,) * (rank.L + 1), attach=attach)


def parity(rank: SuperRank, root: AffineRoot) -> int:
    """Z2 parity: the sum of the coefficients on the odd simple roots."""
    return sum(c for c, odd in zip(root.coeffs, cartan_data(rank).parity) if odd) % 2


@dataclass(frozen=True)
class CartanData:
    """The simple roots as the rows of e over the slots, +1 at slots[0, i] and
    -1 at slots[1, i] (0-based, the unit of e_i), what the slot parities give
    them: the node parities [alpha_i] = [slots[0, i]] + [slots[1, i]] mod 2,
    the node signs d_simple (d_0 = 1, d_i = D_i), the signs
    o_i = (-1)^(i-1) D_i and the slot pairing P = e D,
    P_ik = (alpha_i | epsilon_k); and the Cartan matrices: B1 = P e^T,
    A1 = D1 B1, and B, A their finite blocks.  Read-only, since the cache
    hands them to every caller."""

    a: np.ndarray
    b: np.ndarray
    a1: np.ndarray
    b1: np.ndarray
    d_simple: tuple[int, ...]  # d_0..d_L
    parity: tuple[int, ...]    # [alpha_0]..[alpha_L]
    o: tuple[int, ...]         # o_1..o_L
    slots: np.ndarray          # (2, L+1)
    e: np.ndarray              # (L+1, M+N)
    pairing: np.ndarray        # (L+1, M+N)


@functools.lru_cache(maxsize=None)
def cartan_data(rank: SuperRank) -> CartanData:
    p = rank.parity_vector()
    nodes, d = np.arange(rank.L + 1), 1 - 2 * p
    slots = np.stack([(nodes - 1) % rank.dim, nodes])
    e = np.zeros((rank.L + 1, rank.dim), dtype=int)
    e[nodes, slots[0]] = 1
    e[nodes, slots[1]] = -1
    d1, pairing = np.array([1, *d[:-1]]), e * d
    b1 = pairing @ e.T
    a1 = d1[:, None] * b1
    data = CartanData(a=a1[1:, 1:], b=b1[1:, 1:], a1=a1, b1=b1,
                      d_simple=tuple(int(x) for x in d1),
                      parity=tuple(int(x) for x in (p[slots[0]] + p[slots[1]]) % 2),
                      o=tuple(int(d[i]) * (-1) ** (i - 1) for i in range(1, rank.L + 1)),
                      slots=slots, e=e, pairing=pairing)
    for array in (data.a, data.b, a1, b1, slots, e, pairing):
        array.setflags(write=False)
    return data


def bilinear(rank: SuperRank, g1: AffineRoot, g2: AffineRoot) -> int:
    """(g1 | g2), an integer; (delta | anything) = 0 by construction."""
    data = cartan_data(rank)
    return int(g1.vector() @ data.b1 @ g2.vector())


def lattice_sign(root: AffineRoot) -> int | None:
    """+1 / -1 for sign-homogeneous nonzero lattice elements, 0 for the zero
    element, None for mixed signs."""
    pos = any(c > 0 for c in root.coeffs)
    neg = any(c < 0 for c in root.coeffs)
    if pos and neg:
        return None
    if pos:
        return 1
    if neg:
        return -1
    return 0


def classify(rank: SuperRank, root: AffineRoot):
    """Classify a positive root: ("real_plus", i, j, n), ("real_wrap", i, j, n)
    or ("imaginary", n, attach); anything else returns ("other",)."""
    k = int(root.coeffs[0])
    fin = [int(c) - k for c in root.coeffs[1:]]  # finite part over alpha_1..alpha_L
    if not any(fin):
        if k > 0:
            return ("imaginary", k, root.attach)
        return ("zero",) if k == 0 else ("other",)
    for sign, kind in ((1, "real_plus"), (-1, "real_wrap")):
        ones = [t for t, c in enumerate(fin) if sign * c == 1]
        if {sign * c for c in fin} <= {0, 1} and ones[-1] - ones[0] + 1 == len(ones):
            n = k if kind == "real_plus" else k - 1
            if n >= 0:
                return (kind, ones[0] + 1, ones[-1] + 2, n)
    return ("other",)


def positive_roots(rank: SuperRank, n_max: int) -> list[AffineRoot]:
    """All positive roots with at most n_max deltas, generated in normal order
    (see the module docstring)."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    pairs = [(i, j) for i in range(1, rank.dim) for j in range(i + 1, rank.dim + 1)]
    return ([real_plus_root(rank, i, j, n) for i, j in pairs for n in range(n_max + 1)]
            + [imaginary_root(rank, n, attach)
               for n in range(1, n_max + 1) for attach in range(1, rank.L + 1)]
            + [real_wrap_root(rank, i, j, n) for i, j in pairs for n in range(n_max, -1, -1)])


def root_label(rank: SuperRank, root: AffineRoot) -> str:
    kind = classify(rank, root)
    if kind[0] == "real_plus":
        _, i, j, n = kind
        return f"alpha[{i},{j}]" + (f"+{n}d" if n else "")
    if kind[0] == "real_wrap":
        _, i, j, n = kind
        return f"d-alpha[{i},{j}]" + (f"+{n}d" if n else "")
    if kind[0] == "imaginary":
        _, n, attach = kind
        return f"{n}d;{attach}"
    return str(root.coeffs)
