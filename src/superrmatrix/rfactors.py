"""Assembly of the R-operator on V (x) V.

The operator factorizes as rho * R_below * R_diag * R_above * K, where
R_below and R_above collect rank-one q-exponential factors over the real
roots below and above the imaginary sector, R_diag exponentiates the
imaginary-sector pairing, and K is the diagonal Cartan twist.  Each factor is
available both as a truncated product/series and in resummed closed form, and
the full product collapses to a trigonometric vertex-model R-matrix whose
closed form is evaluated directly by ``r_operator(mode="closed")``.

The vertex-model form is stated once: _slot_pairs gives per rank each slot
pair's diagonal and swap index, kind and hop sign, _hops per grading the
swap indices, signs and z-powers of both hop families, and _vertex writes K,
the real factors and the closed R_diag and R from them.  In product mode
every hop term H of a real-root family squares to zero, so its truncated
levels multiply to 1 - (sum_n c_n) H, and no hop of a family reads a column
that another hop of it writes: the product is the closed factor with the
resummed level sum replaced by the truncated one, and both modes fill the
same entries.  The series R_diag is diagonal: its exponent sum_n E_n^T W_n F_n
over the stacked unprimed diagonals E_n, F_n of the two tables and the level
weights W_n is formed as matmuls and written on the diagonal of one zeroed
matrix.  Each level q-number is read from the one function that defines
it: W_n = -(q - q^-1) signs_n U_n from u_matrices at levels 1..n_max, and
both F_{M-N} sums of rho and of the closed R_diag from one f_m call; both
gather from the one table of powers of q (QContext.powers).  Levels beyond
ctx.series_order are rejected, so the root-of-unity guard covers every
level used.

All spectral dependence enters through the ratio z = zeta1/zeta2, which must
be finite.  Each factor has one kernel, which takes checked inputs, and
each public factor runs its own checks and then its kernel: the grading and
the domain, which rejects z**s unless |z**s| < 1 and
|q**(+-(M-N-1)) z**s| < 1 (the f_m sums of rho), the level counts and, for
the series, the series order and the tables it is passed.  build_rfactors
runs the same checks once, before it builds any table, then calls the
kernels, with one level sum for both real-root families, and reads its own
tables unchecked.  The true convergence region of the imaginary-sector
series is smaller than that domain: at q = 1.1+0.2i the (2,1) series already
diverges at |z**s| = 0.8.  Poles of the closed form at q**2 z**s = 1 are
rejected, by build_rfactors too, though it forms the closed R only when it
is read.
"""

from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass

import numpy as np

from .cartanweyl import RootVectorTable, _levels, _read_only, build_root_vectors, u_matrices
from .reps import EvaluationRep, GradingVector
from .rootdata import SuperRank, cartan_data
from .scalars import _NOT_FINITE, QContext, _finite, f_m
from .tridiag import c_matrix

__all__ = [
    "Zeta12",
    "RFactorSet",
    "k_operator_closed",
    "k_operator_weights",
    "r_prec_delta",
    "r_succ_delta",
    "r_sim_delta",
    "rho",
    "r_operator",
    "build_rfactors",
]

POLE_TOL = 1e-8
PRODUCT_LEVELS = 60  # default truncation of each real-root product
SERIES_LEVELS = 40  # default truncation of the imaginary-sector series


@dataclass(frozen=True)
class Zeta12:
    """Spectral-parameter ratio with its integer powers."""

    z: complex
    s_total: int

    @classmethod
    def from_pair(cls, zeta1: complex, zeta2: complex, grading: GradingVector) -> "Zeta12":
        if zeta1 == 0 or zeta2 == 0:
            raise ValueError("spectral parameters must be nonzero")
        if not (cmath.isfinite(zeta1) and cmath.isfinite(zeta2)):
            raise ValueError(f"spectral parameters must be finite, got {zeta1}, {zeta2}")
        z = zeta1 / zeta2
        if not cmath.isfinite(z):
            raise OverflowError(_NOT_FINITE.format("the spectral ratio zeta1/zeta2"))
        return cls(z=z, s_total=grading.total)

    @functools.cached_property
    def zs(self) -> complex:
        return self.z ** self.s_total


def _require_series_domain(rank: SuperRank, ctx: QContext, z12: Zeta12,
                           grading: GradingVector):
    """The one domain check of the series factors, run before any of them is
    built: the grading must have M+N grades and z12 be made on it, the
    real-root products and the imaginary-sector series need |z**s| < 1, the
    f_m sums of rho and of the closed imaginary sector |q**(+-(M-N-1)) z**s| < 1,
    the bound of the last read from the level data of the (rank, q)."""
    grading.checked(rank)
    if z12.s_total != grading.total:
        raise ValueError(f"z12 has total grade {z12.s_total}, the grading {grading.total}")
    k, bound = rank.m - rank.n, _levels(rank, ctx).bound
    if abs(z12.zs) >= bound:
        raise ValueError(
            f"|z**s| = {abs(z12.zs):g} >= {bound:g}: at q = {ctx.q:g} the series factors "
            f"need |z**s| < 1 and |q**(+-{abs(k - 1)}) z**s| < 1"
        )


def _require_off_pole(ctx: QContext, zs: complex):
    """Reject z**s at a pole q**2 z**s = 1 of the closed form."""
    if abs(1.0 - ctx.qpow(2) * zs) < POLE_TOL:
        raise ZeroDivisionError("pole: q**2 z**s too close to 1")


def _require_levels(name: str, n_max: int):
    """Reject a negative level count before any work."""
    if n_max < 0:
        raise ValueError(f"{name} must be nonnegative, got {n_max}")


def _require_series_levels(ctx: QContext, name: str, n_max: int):
    """Reject a series level count that is negative or past ctx.series_order."""
    _require_levels(name, n_max)
    if n_max > ctx.series_order:
        raise ValueError(f"{name} = {n_max} exceeds the series order {ctx.series_order}")


@functools.cache
def _slot_pairs(rank: SuperRank) -> tuple[np.ndarray, ...]:
    """The vertex-model form on V (x) V, dim V = d, as [i, k] arrays over the
    slot pairs: flat indices into the d^2 x d^2 array of the diagonal entry
    (i,k),(i,k) and the swap entry (i,k),(k,i), the kind (0: i = k even, 1: i = k
    odd, 2: i < k, 3: i > k), the sign (-1)^([i][k]) of the hop (-1)^[k]
    embed(E_ik (x) E_ki) at the swap, and the mask of the entries on neither."""
    d, p = rank.dim, rank.parity_vector()
    i, k = np.indices((d, d))
    diag, swap = (i * d + k) * (d * d + 1), (i * d + k) * d * d + k * d + i
    off = np.ones(d ** 4, dtype=bool)
    off[diag] = off[swap] = False
    table = diag, swap, np.where(i == k, p[i], 2 + (i > k)), (-1.0) ** (p[i] * p[k]), off
    for a in table:
        a.setflags(write=False)
    return table


@functools.cache
def _hops(rank: SuperRank, grading: GradingVector) -> tuple[np.ndarray, ...]:
    """Swap indices, signs and z-powers of the hops as (2, d(d-1)/2) arrays:
    row 0 the family i < k with power s_ik, row 1 the family i > k with power
    s - s_ki.  A grading of the wrong length is refused."""
    _, swap, kind, sign, _ = _slot_pairs(rank)
    cum = np.cumsum(grading.checked(rank).s)  # s_ik = cum[k] - cum[i], 0-based slots
    power = cum - cum[:, None] + grading.total * (kind == 3)
    table = tuple(np.stack([a[kind == 2], a[kind == 3]]) for a in (swap, sign, power))
    for a in table:
        a.setflags(write=False)
    return table


def _vertex(rank: SuperRank, diagonal, swap=None, values=None) -> np.ndarray:
    """The vertex-model operator with diagonal[kind] on the diagonal entry of
    each slot pair and the given values at the given swap indices."""
    d2 = rank.dim ** 2
    out = np.zeros(d2 * d2, dtype=complex)
    out[:: d2 + 1] = np.asarray(diagonal)[_slot_pairs(rank)[2].ravel()]
    if swap is not None:
        out[swap] = values
    return out.reshape(d2, d2)


def k_operator_closed(rank: SuperRank, ctx: QContext) -> np.ndarray:
    """Diagonal Cartan twist: q^{-(M-N-1)/(M-N)} times weight-pair powers of q."""
    pref = ctx.qpow(-(rank.m - rank.n - 1) / (rank.m - rank.n))
    return _vertex(rank, pref * np.array([1.0, ctx.qpow(2), ctx.qpow(1), ctx.qpow(1)]))


def k_operator_weights(rep1: EvaluationRep, rep2: EvaluationRep) -> np.ndarray:
    """The same twist built from weights: on the slot pair (k, l) the eigenvalue
    is q^{-sum_ij P_ik C_ij P_jl} over the finite nodes, with C = B^-1 and the
    slot pairing P_ik = (alpha_i|epsilon_k) of cartan_data."""
    rank, ctx = rep1.rank, rep1.ctx
    if rep2.rank != rank:
        raise ValueError("rank mismatch")
    pairing = cartan_data(rank).pairing[1:].T.astype(float)
    quad = pairing @ c_matrix(rank) @ pairing.T
    return np.diag(np.exp(-ctx.hbar * quad).reshape(-1))


def _real_factor(rank: SuperRank, ctx: QContext, z12: Zeta12, grading: GradingVector,
                 mode: str, n_max: int, wrap: bool) -> np.ndarray:
    """Factor over one real-root family, after the checks of the public
    factors: the hops (i, j) of the alpha_ij + n delta roots, or (j, i) of the
    (delta - alpha_ij) + n delta roots, for i < j."""
    _require_levels("n_max", n_max)
    _require_series_domain(rank, ctx, z12, grading)
    return _hop_factor(rank, grading, z12.z, _level_sum(ctx, z12, mode, n_max), wrap)


def _level_sum(ctx: QContext, z12: Zeta12, mode: str, n_max: int) -> complex:
    """The level sum c of both real-root families.

    Closed mode: (q - q^-1)/(1 - z^s).  Product mode: the normally ordered
    product, truncated at n_max, of the rank-one factors 1 - c_n H with
    c_n = (q - q^-1) z^{n s} and H one hop term.  A hop H = embed(E_ab (x) E_ba),
    a != b, has H^2 = 0, so the levels of one hop multiply exactly to
    1 - (sum_n c_n) H: c is the sum of the c_n, summed in level order.
    """
    kappa = ctx.qpow(1) - ctx.qpow(-1)
    if mode == "closed":
        return kappa / (1.0 - z12.zs)
    if mode == "product":
        terms = z12.z ** (np.arange(n_max + 1) * z12.s_total)
        return kappa * complex(np.cumsum(terms)[-1])  # summed in order, not pairwise
    raise ValueError(f"unknown mode {mode!r}")


def _hop_factor(rank: SuperRank, grading: GradingVector, z: complex, c: complex,
                wrap: bool) -> np.ndarray:
    """1 - c times the sum of the hop terms of one family.  Applied as a
    column update, hop (a, b) writes column (b, a) from column (a, b); within
    one family every hop has a < b, or every hop a > b, so no column it reads
    is ever written and each update sets exactly the one entry that closed
    mode assigns: both modes share this write and differ only in c."""
    swap, sign, power = (a[int(wrap)] for a in _hops(rank, grading))
    return _vertex(rank, (1.0, 1.0, 1.0, 1.0), swap, -c * (sign * z ** power))


def r_prec_delta(rank: SuperRank, ctx: QContext, z12: Zeta12, grading: GradingVector,
                 mode: str = "closed", n_max: int = PRODUCT_LEVELS) -> np.ndarray:
    """Factor over the roots below the imaginary sector (i < j families)."""
    return _real_factor(rank, ctx, z12, grading, mode, n_max, wrap=False)


def r_succ_delta(rank: SuperRank, ctx: QContext, z12: Zeta12, grading: GradingVector,
                 mode: str = "closed", n_max: int = PRODUCT_LEVELS) -> np.ndarray:
    """Factor over the roots above the imaginary sector (i > j families)."""
    return _real_factor(rank, ctx, z12, grading, mode, n_max, wrap=True)


def r_sim_delta(rank: SuperRank, ctx: QContext, z12: Zeta12, grading: GradingVector,
                mode: str = "closed", n_max: int = SERIES_LEVELS,
                tables: tuple[RootVectorTable, RootVectorTable] | None = None) -> np.ndarray:
    """Imaginary-sector factor.

    Closed mode: scalar exp(-F_{M-N}(q^{M-N-1} z^s) + F_{M-N}(q^{-(M-N-1)} z^s))
    times the diagonal with entries 1 (i = j <= M), (1-q^-2 z^s)/(1-q^2 z^s)
    (i = j > M), (1-q^-2 z^s)/(1-z^s) (i < j) and (1-z^s)/(1-q^2 z^s) (i > j).

    Series mode: exponential of the double sum
    -(q-q^-1) sum_n sum_ij (-1)^n o_i^n o_j^n d_i d_j U_nij e_{nd;i} (x) f_{nd;j}
    truncated at n_max <= ctx.series_order, with the diagonal vectors taken
    from the tables, which must be built at this rank, q and grading and at
    spectral parameters of ratio z.
    """
    _require_series_domain(rank, ctx, z12, grading)
    zs = z12.zs
    if mode == "closed":
        _require_off_pole(ctx, zs)
        return _vertex(rank, np.exp(-_imaginary_exponent(rank, ctx, zs)) * np.array([
            1.0, (1.0 - ctx.qpow(-2) * zs) / (1.0 - ctx.qpow(2) * zs),
            (1.0 - ctx.qpow(-2) * zs) / (1.0 - zs), (1.0 - zs) / (1.0 - ctx.qpow(2) * zs)]))
    if mode == "series":
        _require_series_levels(ctx, "n_max", n_max)
        if tables is None:
            raise ValueError("series mode needs the two root-vector tables")
        t1, t2 = tables
        r1, r2 = t1.rep, t2.rep
        if not (r1.rank == r2.rank == rank and r1.ctx.q == r2.ctx.q == ctx.q
                and r1.grading == r2.grading == grading
                and abs(r1.zeta / r2.zeta - z12.z) <= 1e-12 * abs(z12.z)):
            raise ValueError("the tables were built at another rank, q, grading or zeta1/zeta2")
        if t1.n_max < n_max or t2.n_max < n_max:
            raise ValueError("tables too shallow for the requested n_max")
        return _series_factor(rank, ctx, tables, n_max)
    raise ValueError(f"unknown mode {mode!r}")


def _series_factor(rank: SuperRank, ctx: QContext,
                   tables: tuple[RootVectorTable, RootVectorTable], n_max: int) -> np.ndarray:
    """The series R_diag at levels 1..n_max from two tables that match the
    point and reach n_max.  Every imaginary vector is diagonal and the
    embedding of two diagonal matrices carries no sign, so the exponent is
    diagonal: its entry on the slot pair (a, b) is
    sum_n sum_ij e_{nd;i}[a] W_nij f_{nd;j}[b]."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        w = -(ctx.qpow(1) - ctx.qpow(-1)) * _level_signs(rank, n_max) * u_matrices(
            rank, ctx, np.arange(1, n_max + 1))
    _finite(w, "a series weight")
    # the sum over n and i is one matmul over the stacked (n, i) axis
    e = tables[0].unprimed_diagonals("e", n_max)  # [n, i, a]
    wf = w @ tables[1].unprimed_diagonals("f", n_max)  # [n, i, b]
    arg = e.transpose(2, 0, 1).reshape(rank.dim, -1) @ wf.reshape(-1, rank.dim)
    d2 = rank.dim ** 2
    out = np.zeros((d2, d2), dtype=complex)
    np.exp(arg.reshape(-1), out=out.reshape(-1)[:: d2 + 1])
    return out


def _imaginary_exponent(rank: SuperRank, ctx: QContext, zs: complex) -> complex:
    """F_{M-N}(q^{M-N-1} z^s) - F_{M-N}(q^{-(M-N-1)} z^s), both sums from one
    f_m call, the arguments inside the unit disc by _require_series_domain."""
    k = rank.m - rank.n
    plus, minus = f_m(np.array([ctx.qpow(k - 1) * zs, ctx.qpow(-(k - 1)) * zs]), k, ctx)
    return plus - minus


@functools.cache
def _level_signs(rank: SuperRank, n_max: int) -> np.ndarray:
    """The signs (-1)^n o_i^n o_j^n d_i d_j of the series weights at levels
    n = 1..n_max, shape (n_max, L, L)."""
    data = cartan_data(rank)
    levels = np.arange(1, n_max + 1)
    od = np.array(data.o) ** levels[:, None] * np.array(data.d_simple[1:])
    return _read_only((-1.0) ** levels[:, None, None] * od[:, :, None] * od[:, None, :])


def rho(rank: SuperRank, ctx: QContext, z12: Zeta12, grading: GradingVector) -> complex:
    """Scalar normalization making the factorized product equal the closed-form
    R-operator: the inverse of the K prefactor times the inverse of the
    imaginary-sector scalar."""
    _require_series_domain(rank, ctx, z12, grading)
    return _rho(rank, ctx, z12.zs)


def _rho(rank: SuperRank, ctx: QContext, zs: complex) -> complex:
    """rho at z**s = zs inside the series domain."""
    k = rank.m - rank.n
    return ctx.qpow((k - 1) / k) * np.exp(_imaginary_exponent(rank, ctx, zs))


def r_operator(rank: SuperRank, ctx: QContext, zeta1: complex, zeta2: complex,
               grading: GradingVector | None = None, mode: str = "closed") -> np.ndarray:
    """R-operator on V (x) V for the spectral-parameter pair (zeta1, zeta2)."""
    grading = grading if grading is not None else GradingVector.ones(rank)
    z12 = Zeta12.from_pair(zeta1, zeta2, grading)
    if mode == "closed":
        return _r_closed(rank, ctx, z12, grading)
    if mode == "pipeline":
        return build_rfactors(rank, ctx, zeta1, zeta2, grading).r_total
    raise ValueError(f"unknown mode {mode!r}")


def _r_closed(rank: SuperRank, ctx: QContext, z12: Zeta12,
              grading: GradingVector) -> np.ndarray:
    swap, sign, power = _hops(rank, grading)
    zs = z12.zs
    _require_off_pole(ctx, zs)
    q2 = ctx.qpow(2)
    mixed = ctx.qpow(1) * (1.0 - zs) / (1.0 - q2 * zs)
    return _vertex(rank, (1.0, q2 * (1.0 - zs / q2) / (1.0 - q2 * zs), mixed, mixed),
                   swap, (1.0 - q2) / (1.0 - q2 * zs) * (sign * z12.z ** power))


@dataclass
class RFactorSet:
    """All factors of one R-operator, with the parameters that produced them;
    the closed form r_closed is formed on its first read."""

    rank: SuperRank
    ctx: QContext
    zeta1: complex
    zeta2: complex
    grading: GradingVector
    k: np.ndarray
    r_prec: np.ndarray
    r_sim: np.ndarray
    r_succ: np.ndarray
    rho: complex
    r_total: np.ndarray

    @functools.cached_property
    def r_closed(self) -> np.ndarray:
        z12 = Zeta12.from_pair(self.zeta1, self.zeta2, self.grading)
        return _r_closed(self.rank, self.ctx, z12, self.grading)

    @property
    def cross_mode_residual(self) -> float:
        return float(np.max(np.abs(self.r_total - self.r_closed)))


def build_rfactors(rank: SuperRank, ctx: QContext, zeta1: complex, zeta2: complex,
                   grading: GradingVector | None = None,
                   n_max_product: int = PRODUCT_LEVELS,
                   n_max_sim: int = SERIES_LEVELS) -> RFactorSet:
    """Assemble the factorized R-operator, with its closed form to be read
    alongside; z**s at a pole of the closed form is refused.  The series
    factor reads two root-vector tables built here at depth n_max_sim, at
    zeta1 and at zeta2, and only their series parts."""
    grading = grading if grading is not None else GradingVector.ones(rank)
    z12 = Zeta12.from_pair(zeta1, zeta2, grading)
    _require_series_domain(rank, ctx, z12, grading)
    _require_levels("n_max_product", n_max_product)
    _require_series_levels(ctx, "n_max_sim", n_max_sim)
    tables = tuple(build_root_vectors(EvaluationRep(rank, ctx, zeta, grading), n_max_sim)
                   for zeta in (zeta1, zeta2))
    # the checks above are the public factors' checks at this point, so each
    # factor is its kernel: the same numbers as r_prec_delta, r_sim_delta,
    # r_succ_delta and rho, with one level sum for both real-root families
    k = k_operator_closed(rank, ctx)
    c = _level_sum(ctx, z12, "product", n_max_product)
    rp = _hop_factor(rank, grading, z12.z, c, wrap=False)
    rs = _series_factor(rank, ctx, tables, n_max_sim)
    rg = _hop_factor(rank, grading, z12.z, c, wrap=True)
    rh = _rho(rank, ctx, z12.zs)
    total = rh * (rp @ rs @ rg @ k)
    _require_off_pole(ctx, z12.zs)
    return RFactorSet(rank=rank, ctx=ctx, zeta1=zeta1, zeta2=zeta2, grading=grading,
                      k=k, r_prec=rp, r_sim=rs, r_succ=rg, rho=rh, r_total=total)
