"""Assembly of the R-operator on V (x) V.

The operator factorizes as rho * R_below * R_diag * R_above * K, where
R_below and R_above collect rank-one q-exponential factors over the real
roots below and above the imaginary sector, R_diag exponentiates the
imaginary-sector pairing, and K is the diagonal Cartan twist.  Each factor is
available both as a truncated product/series and in resummed closed form, and
the full product collapses to a trigonometric vertex-model R-matrix whose
closed form is evaluated directly by ``r_operator(mode="closed")``.

In product mode every hop term H of a real-root family squares to zero, so
its truncated levels multiply to 1 - (sum_n c_n) H, and no hop of a family
reads a column that another hop of it writes: the product is the closed
factor with the resummed level sum replaced by the truncated one, and both
modes fill the same entries.  Every hop entry, of the real factors and of
the closed R alike, comes from one hop table per (rank, grading), built from
_hop on first use and written by one fancy-indexed assignment.  The series
R_diag is diagonal: its exponent is one contraction of the stacked unprimed
diagonals of the two tables against the stacked level weights W_n, all U_n
coming from one evaluation of the q-Cartan inverse.  Series levels beyond
ctx.series_order are rejected, so the root-of-unity guard covers every level
used.

All spectral dependence enters through the ratio z = zeta1/zeta2.  The series
branches, and build_rfactors before it builds any table, reject z**s unless
|z**s| < 1 and |q**(+-(M-N-1)) z**s| < 1 (the f_m sums of rho), but the true
convergence region of the imaginary-sector series is smaller: at
q = 1.1+0.2i the (2,1) series already diverges at |z**s| = 0.8.  Poles of the
closed form at q**2 z**s = 1 are rejected.
"""

from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass

import numpy as np

from .cartanweyl import RootVectorTable, a_gamma, build_root_vectors, u_matrices
from .gradedmatrix import graded_kron, koszul_sign
from .reps import EvaluationRep, GradingVector
from .rootdata import SuperRank, bilinear, cartan_data, parity
from .scalars import QContext, f_m, q_exponential
from .tridiag import c_matrix

__all__ = [
    "Zeta12",
    "RFactorSet",
    "k_operator_closed",
    "k_operator_weights",
    "r_prec_delta",
    "r_succ_delta",
    "r_sim_delta",
    "factor_from_table",
    "rho",
    "r_operator",
    "build_rfactors",
]

POLE_TOL = 1e-8


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
        return cls(z=zeta1 / zeta2, s_total=grading.total)

    def power(self, k: int) -> complex:
        return self.z ** k

    @property
    def zs(self) -> complex:
        return self.z ** self.s_total


def _require_series_domain(rank: SuperRank, ctx: QContext, z12: Zeta12):
    """The one domain check of the series factors, run before any of them is
    built: the real-root products and the imaginary-sector series need
    |z**s| < 1, the f_m sums of rho and of the closed imaginary sector
    |q**(+-(M-N-1)) z**s| < 1."""
    k = rank.m - rank.n
    bound = 1.0 / max(abs(ctx.qpow(k - 1)), abs(ctx.qpow(1 - k)))
    if abs(z12.zs) >= bound:
        raise ValueError(
            f"|z**s| = {abs(z12.zs):g} >= {bound:g}: at q = {ctx.q:g} the series factors "
            f"need |z**s| < 1 and |q**(+-{abs(k - 1)}) z**s| < 1"
        )


def _require_levels(name: str, n_max: int):
    """Reject a negative level count before any work."""
    if n_max < 0:
        raise ValueError(f"{name} must be nonnegative, got {n_max}")


def _slot_pair_diag(rank: SuperRank, same_even, same_odd, lower, upper) -> np.ndarray:
    """Diagonal operator on V (x) V whose entry on the slot pair (i, j) is
    same_even for i = j <= M, same_odd for i = j > M, lower for i < j and
    upper for i > j."""
    values = np.array([same_even, same_odd, lower, upper], dtype=complex)
    return np.diag(values[_slot_pair_kinds(rank)])


@functools.cache
def _slot_pair_kinds(rank: SuperRank) -> np.ndarray:
    """Index into (same_even, same_odd, lower, upper) of every slot pair."""
    dim = rank.dim
    i, j = np.indices((dim, dim))
    kinds = np.where(i < j, 2, 3)
    slots = np.arange(dim)
    kinds[slots, slots] = np.where(slots < rank.m, 0, 1)
    kinds = kinds.reshape(-1)
    kinds.setflags(write=False)
    return kinds


def _hop(rank: SuperRank, grading: GradingVector, a: int, b: int):
    """The hop term (-1)^[b] z^p embed(E_ab (x) E_ba), p = s_ab for a < b and
    p = s - s_ba for a > b, as (row, col, sign, p): its single entry is
    sign * z^p at (row, col), the embedding contributing (-1)^([b]([a]+[b]))."""
    pa, pb = rank.slot_parity(a), rank.slot_parity(b)
    sign = (-1.0) ** pb * koszul_sign(pb, pa, pb)
    p = grading.partial(a, b) if a < b else grading.total - grading.partial(b, a)
    return (a - 1) * rank.dim + b - 1, (b - 1) * rank.dim + a - 1, sign, p


@functools.cache
def _hop_table(rank: SuperRank, grading: GradingVector):
    """Every hop term (a, b), a != b, as the arrays (rows, cols, signs, powers)
    of _hop, the d(d-1)/2 hops with a < b first and those with a > b after."""
    dim = rank.dim
    pairs = [(a, b) for a in range(1, dim + 1) for b in range(a + 1, dim + 1)]
    hops = [_hop(rank, grading, a, b) for a, b in pairs + [(b, a) for a, b in pairs]]
    table = tuple(np.array(column) for column in zip(*hops))
    for column in table:
        column.setflags(write=False)
    return table


def k_operator_closed(rank: SuperRank, ctx: QContext) -> np.ndarray:
    """Diagonal Cartan twist: q^{-(M-N-1)/(M-N)} times weight-pair powers of q."""
    pref = ctx.qpow(-(rank.m - rank.n - 1) / (rank.m - rank.n))
    return pref * _slot_pair_diag(rank, 1.0, ctx.qpow(2), ctx.qpow(1), ctx.qpow(1))


def k_operator_weights(rep1: EvaluationRep, rep2: EvaluationRep) -> np.ndarray:
    """The same twist built from weights: on a weight-vector pair the
    eigenvalue is q^{-sum_ij d_i d_j C_ij <w1, h_i><w2, h_j>} with C = B^-1."""
    rank, ctx = rep1.rank, rep1.ctx
    if rep2.rank != rank:
        raise ValueError("rank mismatch")
    d = np.array([rank.d(i) for i in range(1, rank.L + 1)], dtype=float)
    w1 = rep1.weights().astype(float)
    w2 = rep2.weights().astype(float)
    quad = (w1 * d) @ c_matrix(rank) @ (w2 * d).T  # [k,l] = sum_ij d_i C_ij d_j w1[k,i] w2[l,j]
    return np.diag(np.exp(-ctx.hbar * quad).reshape(-1))


def _real_factor(rank: SuperRank, ctx: QContext, z12: Zeta12, grading: GradingVector,
                 mode: str, n_max: int, wrap: bool) -> np.ndarray:
    """Factor over one real-root family: the hops (i, j) of the alpha_ij + n delta
    roots, or (j, i) of the (delta - alpha_ij) + n delta roots, for i < j.

    Closed mode: 1 - (q - q^-1)/(1 - z^s) times the sum of the hop terms.
    Product mode: the normally ordered product, truncated at n_max, of the
    rank-one factors 1 - c_n H with c_n = (q - q^-1) z^{n s} and H one hop
    term.  A hop H = embed(E_ab (x) E_ba), a != b, has H^2 = 0, so the levels
    of one hop multiply exactly to 1 - (sum_n c_n) H.  Applied as a column
    update, hop (a, b) writes column (b, a) from column (a, b); within one
    family every hop has a < b, or every hop a > b, so no column it reads is
    ever written and each update sets exactly the one entry that closed mode
    assigns.  The two modes therefore share one assignment from the hop
    table and differ only in the level sum c, summed in level order.
    """
    _require_levels("n_max", n_max)
    _require_series_domain(rank, ctx, z12)
    kappa = ctx.qpow(1) - ctx.qpow(-1)
    if mode == "closed":
        c = kappa / (1.0 - z12.zs)
    elif mode == "product":
        terms = z12.z ** (np.arange(n_max + 1) * grading.total)
        c = kappa * complex(np.cumsum(terms)[-1])  # summed in order, not pairwise
    else:
        raise ValueError(f"unknown mode {mode!r}")
    rows, cols, signs, powers = _hop_table(rank, grading)
    half = len(rows) // 2
    family = slice(half, None) if wrap else slice(0, half)
    out = np.eye(rank.dim ** 2, dtype=complex)
    out[rows[family], cols[family]] = -c * (signs[family] * z12.z ** powers[family])
    return out


def r_prec_delta(rank: SuperRank, ctx: QContext, z12: Zeta12,
                 grading: GradingVector, mode: str = "closed",
                 n_max: int = 60) -> np.ndarray:
    """Factor over the roots below the imaginary sector (i < j families)."""
    return _real_factor(rank, ctx, z12, grading, mode, n_max, wrap=False)


def r_succ_delta(rank: SuperRank, ctx: QContext, z12: Zeta12,
                 grading: GradingVector, mode: str = "closed",
                 n_max: int = 60) -> np.ndarray:
    """Factor over the roots above the imaginary sector (i > j families)."""
    return _real_factor(rank, ctx, z12, grading, mode, n_max, wrap=True)


def factor_from_table(table1: RootVectorTable, table2: RootVectorTable,
                      root) -> np.ndarray:
    """One q-exponential factor exp_{q_g}(-(-1)^[g] (q-q^-1) a_g^-1 e_g (x) f_g)
    built from root-vector tables (e from the first, f from the second)."""
    rep1, rep2 = table1.rep, table2.rep
    rank, ctx = rep1.rank, rep1.ctx
    p = rank.parity_vector()
    par = parity(rank, root)
    gsign = -1.0 if par else 1.0
    qbase = gsign * ctx.qpow(bilinear(rank, root, root))
    a = a_gamma(rep1, table1, root)
    arg = (-gsign * (ctx.qpow(1) - ctx.qpow(-1)) / a) * graded_kron(
        table1.real("e", root), table2.real("f", root), p, p)
    return q_exponential(arg, qbase, ctx)


def r_sim_delta(rank: SuperRank, ctx: QContext, z12: Zeta12,
                grading: GradingVector, mode: str = "closed", n_max: int = 40,
                tables: tuple[RootVectorTable, RootVectorTable] | None = None) -> np.ndarray:
    """Imaginary-sector factor.

    Closed mode: scalar exp(-F_{M-N}(q^{M-N-1} z^s) + F_{M-N}(q^{-(M-N-1)} z^s))
    times the diagonal with entries 1 (i = j <= M), (1-q^-2 z^s)/(1-q^2 z^s)
    (i = j > M), (1-q^-2 z^s)/(1-z^s) (i < j) and (1-z^s)/(1-q^2 z^s) (i > j).

    Series mode: exponential of the double sum
    -(q-q^-1) sum_n sum_ij (-1)^n o_i^n o_j^n d_i d_j U_nij e_{nd;i} (x) f_{nd;j}
    truncated at n_max <= ctx.series_order, with the diagonal vectors taken
    from the tables.
    """
    _require_series_domain(rank, ctx, z12)
    zs = z12.zs
    if mode == "closed":
        if abs(1.0 - ctx.qpow(2) * zs) < POLE_TOL:
            raise ZeroDivisionError("pole: q**2 z**s too close to 1")
        return np.exp(-_imaginary_exponent(rank, ctx, zs)) * _slot_pair_diag(
            rank, 1.0, (1.0 - ctx.qpow(-2) * zs) / (1.0 - ctx.qpow(2) * zs),
            (1.0 - ctx.qpow(-2) * zs) / (1.0 - zs), (1.0 - zs) / (1.0 - ctx.qpow(2) * zs))
    if mode == "series":
        _require_levels("n_max", n_max)
        if n_max > ctx.series_order:
            raise ValueError(f"n_max = {n_max} exceeds the series order {ctx.series_order}")
        if tables is None:
            raise ValueError("series mode needs the two root-vector tables")
        t1, t2 = tables
        if t1.n_max < n_max or t2.n_max < n_max:
            raise ValueError("tables too shallow for the requested n_max")
        # every imaginary vector is diagonal and the embedding of two diagonal
        # matrices carries no sign, so the exponent is diagonal: its entry on
        # the slot pair (a, b) is sum_n sum_ij e_{nd;i}[a] W_nij f_{nd;j}[b]
        data = cartan_data(rank)
        levels = np.arange(1, n_max + 1)
        od = np.array(data.o) ** levels[:, None] * np.array(data.d_simple[1:])
        w = ((-(ctx.qpow(1) - ctx.qpow(-1)) * (-1.0) ** levels)[:, None, None]
             * od[:, :, None] * od[:, None, :] * u_matrices(rank, ctx, levels))
        arg = np.einsum("nia,nij,njb->ab", t1.unprimed_diagonals("e", n_max), w,
                        t2.unprimed_diagonals("f", n_max))
        return np.diag(np.exp(arg.reshape(-1)))
    raise ValueError(f"unknown mode {mode!r}")


def _imaginary_exponent(rank: SuperRank, ctx: QContext, zs: complex) -> complex:
    """F_{M-N}(q^{M-N-1} z^s) - F_{M-N}(q^{-(M-N-1)} z^s)."""
    k = rank.m - rank.n
    return f_m(ctx.qpow(k - 1) * zs, k, ctx) - f_m(ctx.qpow(-(k - 1)) * zs, k, ctx)


def rho(rank: SuperRank, ctx: QContext, z12: Zeta12, grading: GradingVector) -> complex:
    """Scalar normalization making the factorized product equal the closed-form
    R-operator: the inverse of the K prefactor times the inverse of the
    imaginary-sector scalar."""
    _require_series_domain(rank, ctx, z12)
    k = rank.m - rank.n
    return ctx.qpow((k - 1) / k) * np.exp(_imaginary_exponent(rank, ctx, z12.zs))


def r_operator(rank: SuperRank, ctx: QContext, zeta1: complex, zeta2: complex,
               grading: GradingVector | None = None, mode: str = "closed",
               n_max_product: int = 60, n_max_sim: int = 40) -> np.ndarray:
    """R-operator on V (x) V for the spectral-parameter pair (zeta1, zeta2)."""
    grading = grading if grading is not None else GradingVector.ones(rank)
    z12 = Zeta12.from_pair(zeta1, zeta2, grading)
    if mode == "closed":
        return _r_closed(rank, ctx, z12, grading)
    if mode == "pipeline":
        return build_rfactors(rank, ctx, zeta1, zeta2, grading,
                              n_max_product=n_max_product,
                              n_max_sim=n_max_sim).r_total
    raise ValueError(f"unknown mode {mode!r}")


def _r_closed(rank: SuperRank, ctx: QContext, z12: Zeta12,
              grading: GradingVector) -> np.ndarray:
    zs = z12.zs
    q2 = ctx.qpow(2)
    if abs(1.0 - q2 * zs) < POLE_TOL:
        raise ZeroDivisionError("pole: q**2 z**s too close to 1")
    mixed = ctx.qpow(1) * (1.0 - zs) / (1.0 - q2 * zs)
    out = _slot_pair_diag(rank, 1.0, q2 * (1.0 - zs / q2) / (1.0 - q2 * zs), mixed, mixed)
    rows, cols, signs, powers = _hop_table(rank, grading)
    out[rows, cols] = (1.0 - q2) / (1.0 - q2 * zs) * (signs * z12.z ** powers)
    return out


@dataclass
class RFactorSet:
    """All factors of one R-operator, with the parameters that produced them."""

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
    r_closed: np.ndarray

    @property
    def cross_mode_residual(self) -> float:
        return float(np.max(np.abs(self.r_total - self.r_closed)))


def build_rfactors(rank: SuperRank, ctx: QContext, zeta1: complex, zeta2: complex,
                   grading: GradingVector | None = None, n_max_product: int = 60,
                   n_max_sim: int = 40,
                   tables: tuple[RootVectorTable, RootVectorTable] | None = None) -> RFactorSet:
    """Assemble the factorized R-operator and its closed form side by side."""
    grading = grading if grading is not None else GradingVector.ones(rank)
    z12 = Zeta12.from_pair(zeta1, zeta2, grading)
    _require_series_domain(rank, ctx, z12)
    _require_levels("n_max_product", n_max_product)
    _require_levels("n_max_sim", n_max_sim)
    if n_max_sim > ctx.series_order:
        raise ValueError(f"n_max_sim = {n_max_sim} exceeds the series order {ctx.series_order}")
    if tables is None:
        rep1 = EvaluationRep(rank, ctx, zeta1, grading)
        rep2 = EvaluationRep(rank, ctx, zeta2, grading)
        tables = (build_root_vectors(rep1, n_max_sim),
                  build_root_vectors(rep2, n_max_sim))
    k = k_operator_closed(rank, ctx)
    rp = r_prec_delta(rank, ctx, z12, grading, mode="product", n_max=n_max_product)
    rs = r_sim_delta(rank, ctx, z12, grading, mode="series", n_max=n_max_sim,
                     tables=tables)
    rg = r_succ_delta(rank, ctx, z12, grading, mode="product", n_max=n_max_product)
    rh = rho(rank, ctx, z12, grading)
    total = rh * (rp @ rs @ rg @ k)
    closed = _r_closed(rank, ctx, z12, grading)
    return RFactorSet(rank=rank, ctx=ctx, zeta1=zeta1, zeta2=zeta2, grading=grading,
                      k=k, r_prec=rp, r_sim=rs, r_succ=rg, rho=rh,
                      r_total=total, r_closed=closed)
