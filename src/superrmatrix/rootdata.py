"""Root system of sl(M|N) and its affinization.

Slots of the defining superspace are numbered 1..M+N; slot k is even for
k <= M and odd otherwise, with sign d_k = (-1)^[k].  Simple roots carry
indices 0..L with L = M+N-1; index 0 is the affine node.  A root is stored
by its integer coefficient vector (m_0, ..., m_L) over the simple roots,
so that delta = sum of all simple roots has coefficients (1, ..., 1).

The symmetric bilinear form is (alpha_i | alpha_j) = d_i A_ij = B_ij
extended bilinearly; because the all-ones vector lies in the kernel of the
extended symmetrized Cartan matrix, (delta | gamma) = 0 holds identically.
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
    "delta_root",
    "real_plus_root",
    "real_wrap_root",
    "imaginary_root",
    "parity",
    "bilinear",
    "pairing_h",
    "h_gamma",
    "cartan_data",
    "lattice_sign",
    "classify",
    "normal_order_key",
    "normal_order_cmp",
    "positive_roots",
    "root_label",
]


@dataclass(frozen=True)
class SuperRank:
    """Pair (M, N) fixing gl(M|N); requires M, N >= 1 and M != N."""

    m: int
    n: int

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("need M >= 1 and N >= 1")
        if self.m == self.n:
            raise ValueError("M and N must differ")

    @property
    def dim(self) -> int:
        return self.m + self.n

    @property
    def L(self) -> int:
        return self.m + self.n - 1

    def slot_parity(self, k: int) -> int:
        """Parity [k] of basis slot k (1-based)."""
        if not 1 <= k <= self.dim:
            raise ValueError(f"slot {k} out of range 1..{self.dim}")
        return 0 if k <= self.m else 1

    def d(self, k: int) -> int:
        """Sign d_k = (-1)^[k] for slots 1..M+N, with the convention d_0 = 1."""
        if k == 0:
            return 1
        return 1 if self.slot_parity(k) == 0 else -1

    def parity_vector(self) -> np.ndarray:
        """0-based slot parities as an int array of length M+N."""
        return np.array([0] * self.m + [1] * self.n, dtype=int)

    def simple_parity(self, i: int) -> int:
        """Parity of the simple root alpha_i, i = 0..L (odd at 0 and M)."""
        if not 0 <= i <= self.L:
            raise ValueError(f"simple-root index {i} out of range 0..{self.L}")
        return 1 if i in (0, self.m) else 0

    def o(self, i: int) -> int:
        """Signs o_i attached to the imaginary-root families, i = 1..L."""
        if not 1 <= i <= self.L:
            raise ValueError(f"index {i} out of range 1..{self.L}")
        return (-1) ** (i - 1) if i < self.m else (-1) ** i


@dataclass(frozen=True)
class AffineRoot:
    """Element of the affine root lattice: coefficients over alpha_0..alpha_L.

    ``attach`` distinguishes the L independent root vectors sitting on one
    imaginary root n*delta; it is ignored by lattice arithmetic.
    """

    coeffs: tuple[int, ...]
    attach: int | None = None

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


def delta_root(rank: SuperRank, n: int = 1) -> AffineRoot:
    return AffineRoot((n,) * (rank.L + 1))


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
    """Z2 parity: the sum of coefficients on the odd simple roots (0 and M)."""
    return (root.coeffs[0] + root.coeffs[rank.m]) % 2


@dataclass(frozen=True)
class CartanData:
    """Cartan matrix A, its symmetrization B = D A, and the extended pair."""

    a: np.ndarray
    b: np.ndarray
    a1: np.ndarray
    b1: np.ndarray
    d_simple: tuple[int, ...]  # d_0..d_L
    o: tuple[int, ...]         # o_1..o_L


@functools.lru_cache(maxsize=None)
def cartan_data(rank: SuperRank) -> CartanData:
    L = rank.L
    a = np.zeros((L, L), dtype=int)
    for i in range(1, L + 1):
        a[i - 1, i - 1] = 0 if i == rank.m else 2
        if i > 1:
            a[i - 1, i - 2] = -1
        if i < L:
            a[i - 1, i] = 1 if i == rank.m else -1
    d_fin = np.array([rank.d(i) for i in range(1, L + 1)], dtype=int)
    b = d_fin[:, None] * a

    a1 = np.zeros((L + 1, L + 1), dtype=int)
    a1[1:, 1:] = a
    # affine node: h_0 = c - sum_i d_i h_i and alpha_0 = delta - alpha_{1,M+N}
    a1[0, 1:] = -d_fin @ a
    a1[1:, 0] = -a.sum(axis=1)
    a1[0, 0] = d_fin @ a.sum(axis=1)
    d1 = np.array([rank.d(0)] + list(d_fin), dtype=int)
    b1 = d1[:, None] * a1
    if not np.array_equal(b1, b1.T):
        raise AssertionError("extended symmetrized Cartan matrix not symmetric")
    return CartanData(
        a=a,
        b=b,
        a1=a1,
        b1=b1,
        d_simple=tuple(int(x) for x in d1),
        o=tuple(rank.o(i) for i in range(1, L + 1)),
    )


def bilinear(rank: SuperRank, g1: AffineRoot, g2: AffineRoot) -> int:
    """(g1 | g2), an integer; (delta | anything) = 0 by construction."""
    data = cartan_data(rank)
    return int(g1.vector() @ data.b1 @ g2.vector())


def pairing_h(rank: SuperRank, root: AffineRoot, i: int) -> int:
    """<root, h_i> for i = 0..L."""
    data = cartan_data(rank)
    return int(data.a1[i] @ root.vector())


def h_gamma(rank: SuperRank, root: AffineRoot) -> tuple[int, ...]:
    """Coefficients of h_root = sum_i d_i m_i h_i over h_0..h_L."""
    data = cartan_data(rank)
    return tuple(d * m for d, m in zip(data.d_simple, root.coeffs))


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


_KIND_BUCKET = {"real_plus": 0, "imaginary": 1, "real_wrap": 2}


def normal_order_key(rank: SuperRank, root: AffineRoot):
    """Sort key realizing the normal order on positive roots.

    Finite parts are ordered by (i, j); real roots on a fixed finite part are
    ordered by increasing n below delta and by decreasing n above it, and all
    imaginary roots sit in between, mutually ordered by (n, attachment).
    """
    kind = classify(rank, root)
    if kind[0] == "real_plus":
        _, i, j, n = kind
        return (0, i, j, n)
    if kind[0] == "imaginary":
        _, n, attach = kind
        return (1, n, attach if attach is not None else 0)
    if kind[0] == "real_wrap":
        _, i, j, n = kind
        return (2, i, j, -n)
    raise ValueError(f"not a positive root: {root}")


def normal_order_cmp(rank: SuperRank, g1: AffineRoot, g2: AffineRoot) -> int:
    k1, k2 = normal_order_key(rank, g1), normal_order_key(rank, g2)
    return (k1 > k2) - (k1 < k2)


def positive_roots(rank: SuperRank, n_max: int) -> list[AffineRoot]:
    """All positive roots with at most n_max deltas, normally ordered."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    roots: list[AffineRoot] = []
    for i in range(1, rank.dim):
        for j in range(i + 1, rank.dim + 1):
            for n in range(n_max + 1):
                roots.append(real_plus_root(rank, i, j, n))
                roots.append(real_wrap_root(rank, i, j, n))
    for n in range(1, n_max + 1):
        for attach in range(1, rank.L + 1):
            roots.append(imaginary_root(rank, n, attach))
    roots.sort(key=lambda r: normal_order_key(rank, r))
    return roots


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
