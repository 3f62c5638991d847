"""Vector representation, grading automorphism and evaluation representation.

The evaluation representation phi_zeta of the q-deformed loop superalgebra is
the composition of the vector representation of the finite quantum
superalgebra with the homomorphism that folds the affine generators back into
finite Cartan-Weyl elements, twisted by the grading automorphism
Gamma_zeta(e_i) = zeta^{s_i} e_i.  All images live on C^(M+N).

The generator images admit simple closed forms; they are used directly and
the composed construction is kept alongside as a cross-check.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .gradedmatrix import (
    GradedElement,
    graded_element,
    graded_kron,
    matrix_unit,
    q_supercommutator,
)
from .rootdata import SuperRank, cartan_data, simple_root
from .scalars import QContext

__all__ = [
    "GradingVector",
    "EvaluationRep",
    "PiGenerators",
    "pi_generators",
    "pi_root_vector",
    "coproduct_image",
    "check_defining_relations",
]


@dataclass(frozen=True)
class GradingVector:
    """Integer grades s_0..s_L assigned to the generator pairs (e_i, f_i)."""

    s: tuple[int, ...]

    def __post_init__(self):
        if not self.s:
            raise ValueError("empty grading")
        if sum(self.s) == 0:
            raise ValueError("total grade s must be nonzero")

    @classmethod
    def ones(cls, rank: SuperRank) -> "GradingVector":
        return cls((1,) * (rank.L + 1))

    @property
    def total(self) -> int:
        return sum(self.s)

    def partial(self, i: int, j: int) -> int:
        """s_ij = s_i + ... + s_{j-1} (slot indices, 1 <= i < j <= M+N)."""
        return sum(self.s[i:j])


@dataclass
class PiGenerators:
    """Generator images of the finite quantum superalgebra on C^(M+N)."""

    rank: SuperRank
    ctx: QContext

    def k(self, i: int, nu: complex = 1.0) -> np.ndarray:
        """pi(q^{nu K_i}): diagonal with q^nu in slot i."""
        d = np.ones(self.rank.dim, dtype=complex)
        d[i - 1] = self.ctx.qpow(nu)
        return np.diag(d)

    def h(self, i: int, nu: complex = 1.0) -> np.ndarray:
        """pi(q^{nu H_i}) with H_i = K_i - (-1)^([i]+[i+1]) K_{i+1}."""
        sgn = self.rank.d(i) * self.rank.d(i + 1)
        d = np.ones(self.rank.dim, dtype=complex)
        d[i - 1] = self.ctx.qpow(nu)
        d[i] = self.ctx.qpow(-nu * sgn)
        return np.diag(d)

    def e(self, i: int) -> np.ndarray:
        return matrix_unit(self.rank.dim, i, i + 1)

    def f(self, i: int) -> np.ndarray:
        return matrix_unit(self.rank.dim, i + 1, i)


def pi_generators(rank: SuperRank, ctx: QContext) -> PiGenerators:
    return PiGenerators(rank, ctx)


def pi_root_vector(rank: SuperRank, ctx: QContext, i: int, j: int, which: str) -> np.ndarray:
    """Image of the finite Cartan-Weyl element E_ij (which='e') or F_ij ('f'),
    built by the nested-bracket recursion in the vector representation."""
    if not 1 <= i < j <= rank.dim:
        raise ValueError("need 1 <= i < j <= M+N")
    gen = pi_generators(rank, ctx)
    mk = gen.e if which == "e" else gen.f
    rt = lambda k: simple_root(rank, k) if which == "e" else -simple_root(rank, k)
    cur = graded_element(rank, rt(i), mk(i))
    for k in range(i + 1, j):
        step = graded_element(rank, rt(k), mk(k))
        cur = q_supercommutator(rank, ctx, cur, step)
    return cur.matrix


class EvaluationRep:
    """Generator images of the evaluation representation phi_zeta."""

    def __init__(self, rank: SuperRank, ctx: QContext, zeta: complex,
                 grading: GradingVector | None = None):
        if zeta == 0 or not cmath.isfinite(zeta):
            raise ValueError(f"zeta must be finite and nonzero, got {zeta}")
        grading = grading if grading is not None else GradingVector.ones(rank)
        if len(grading.s) != rank.L + 1:
            raise ValueError("grading length must be M+N")
        self.rank = rank
        self.ctx = ctx
        self.zeta = complex(zeta)
        self.grading = grading

    # -- closed-form generator images ------------------------------------

    def e(self, i: int) -> np.ndarray:
        rank, s = self.rank, self.grading.s
        if i == 0:
            return -(self.zeta ** s[0]) * self.ctx.qpow(1) * matrix_unit(rank.dim, rank.dim, 1)
        return (self.zeta ** s[i]) * matrix_unit(rank.dim, i, i + 1)

    def f(self, i: int) -> np.ndarray:
        rank, s = self.rank, self.grading.s
        if i == 0:
            return (self.zeta ** (-s[0])) * self.ctx.qpow(-1) * matrix_unit(rank.dim, 1, rank.dim)
        return (self.zeta ** (-s[i])) * matrix_unit(rank.dim, i + 1, i)

    def cartan_diag(self, i: int, nu: complex = 1.0) -> np.ndarray:
        """Diagonal of phi_zeta(q^{nu h_i}) as a vector."""
        rank = self.rank
        d = np.ones(rank.dim, dtype=complex)
        if i == 0:
            d[0] = self.ctx.qpow(-nu)
            d[rank.dim - 1] = self.ctx.qpow(-nu)
        else:
            d[i - 1] = self.ctx.qpow(nu)
            d[i] = self.ctx.qpow(-nu * rank.d(i) * rank.d(i + 1))
        return d

    def cartan(self, i: int, nu: complex = 1.0) -> np.ndarray:
        return np.diag(self.cartan_diag(i, nu))

    def cartan_weight_diag(self, hcoeffs, nu: complex = 1.0) -> np.ndarray:
        """Diagonal of phi_zeta(q^{nu sum_i c_i h_i}) for integer/real c_i."""
        d = np.ones(self.rank.dim, dtype=complex)
        for i, c in enumerate(hcoeffs):
            if c != 0:
                d = d * self.cartan_diag(i, nu * c)
        return d

    def cartan_weight(self, hcoeffs, nu: complex = 1.0) -> np.ndarray:
        return np.diag(self.cartan_weight_diag(hcoeffs, nu))

    def weights(self) -> np.ndarray:
        """Integer table w[k-1][i-1] = <lambda_k, h_i> for slots k and the
        finite Cartan indices i = 1..L, read off the diagonal images."""
        rank = self.rank
        out = np.zeros((rank.dim, rank.L), dtype=int)
        for i in range(1, rank.L + 1):
            diag = self.cartan_diag(i, 1.0)
            for k in range(rank.dim):
                w = np.log(diag[k]) / self.ctx.hbar
                wi = int(round(w.real))
                if abs(w - wi) > 1e-8:
                    raise AssertionError("non-integer weight read from Cartan image")
                out[k, i - 1] = wi
        return out

    def element_e(self, i: int) -> GradedElement:
        return graded_element(self.rank, simple_root(self.rank, i), self.e(i))

    def element_f(self, i: int) -> GradedElement:
        return graded_element(self.rank, -simple_root(self.rank, i), self.f(i))

    # -- composed construction, kept as a cross-check --------------------

    def jimbo_e(self, i: int) -> np.ndarray:
        rank, ctx, s = self.rank, self.ctx, self.grading.s
        if i == 0:
            fmat = pi_root_vector(rank, ctx, 1, rank.dim, "f")
            diag = np.ones(rank.dim, dtype=complex)
            diag[0] = ctx.qpow(rank.d(1))
            diag[-1] = ctx.qpow(rank.d(rank.dim))
            return (self.zeta ** s[0]) * (-(fmat @ np.diag(diag)))
        return (self.zeta ** s[i]) * pi_generators(rank, ctx).e(i)

    def jimbo_f(self, i: int) -> np.ndarray:
        rank, ctx, s = self.rank, self.ctx, self.grading.s
        if i == 0:
            emat = pi_root_vector(rank, ctx, 1, rank.dim, "e")
            diag = np.ones(rank.dim, dtype=complex)
            diag[0] = ctx.qpow(-rank.d(1))
            diag[-1] = ctx.qpow(-rank.d(rank.dim))
            return (self.zeta ** (-s[0])) * (np.diag(diag) @ emat)
        return (self.zeta ** (-s[i])) * pi_generators(rank, ctx).f(i)

    def jimbo_cartan(self, i: int, nu: complex = 1.0) -> np.ndarray:
        rank, ctx = self.rank, self.ctx
        gen = pi_generators(rank, ctx)
        if i == 0:
            return gen.k(rank.dim, -nu) @ gen.k(1, -nu)
        return gen.k(i, nu) @ gen.k(i + 1, -nu * rank.d(i) * rank.d(i + 1))


# -- coproduct images -----------------------------------------------------

def _realize(rep: EvaluationRep, op) -> np.ndarray:
    kind = op[0]
    if kind == "id":
        return np.eye(rep.rank.dim, dtype=complex)
    if kind == "e":
        return rep.e(op[1])
    if kind == "f":
        return rep.f(op[1])
    if kind == "h":
        return rep.cartan(op[1], op[2])
    raise ValueError(f"unknown generator tag {op}")


def _op_parity(rank: SuperRank, op) -> int:
    if op[0] in ("e", "f"):
        return rank.simple_parity(op[1])
    return 0


def _coproduct_terms(rank: SuperRank, gen):
    """Term list [(op_left, op_right)] of the coproduct of one generator."""
    kind = gen[0]
    if kind == "h":
        _, i, nu = gen
        return [(("h", i, nu), ("h", i, nu))]
    i = gen[1]
    di = cartan_data(rank).d_simple[i]
    if kind == "e":
        return [(("e", i), ("id",)), (("h", i, di), ("e", i))]
    if kind == "f":
        return [(("f", i), ("h", i, -di)), (("id",), ("f", i))]
    raise ValueError(f"unknown generator tag {gen}")


def coproduct_image(rep1: EvaluationRep, rep2: EvaluationRep, gen,
                    opposite: bool = False) -> np.ndarray:
    """Image of Delta(gen) (or of the opposite coproduct) on V (x) V.

    The first tensor slot is always evaluated in rep1 and the second in rep2;
    the opposite coproduct applies the graded flip to the abstract terms
    before evaluating.
    """
    rank = rep1.rank
    if rep2.rank != rank:
        raise ValueError("rank mismatch between the two representations")
    p = rank.parity_vector()
    total = np.zeros((rank.dim ** 2, rank.dim ** 2), dtype=complex)
    for left, right in _coproduct_terms(rank, gen):
        sign = 1.0
        if opposite:
            if _op_parity(rank, left) and _op_parity(rank, right):
                sign = -1.0
            left, right = right, left
        total += sign * graded_kron(_realize(rep1, left), _realize(rep2, right), p, p)
    return total


# -- defining relations ----------------------------------------------------

def _maxabs(x) -> float:
    x = np.asarray(x)
    return float(np.max(np.abs(x))) if x.size else 0.0


def check_defining_relations(rep: EvaluationRep, nu_probe: complex = 0.7 - 0.3j) -> dict:
    """Residuals of the defining relations of the loop superalgebra under
    phi_zeta, one entry per relation family.  All residuals should vanish."""
    rank, ctx = rep.rank, rep.ctx
    data = cartan_data(rank)
    L = rank.L
    res: dict[str, float] = {}

    e = {i: rep.element_e(i) for i in range(L + 1)}
    f = {i: rep.element_f(i) for i in range(L + 1)}
    ident = np.eye(rank.dim, dtype=complex)

    # q^{nu c} = 1 : the central element acts trivially
    central = rep.cartan_weight(data.d_simple, nu_probe)
    res["central"] = _maxabs(central - ident)

    # weight relations: q^{nu h_i} x q^{-nu h_i} = q^{+-nu <alpha_j, h_i>} x
    worst = 0.0
    for i in range(L + 1):
        ci = rep.cartan(i, nu_probe)
        ci_inv = rep.cartan(i, -nu_probe)
        for j in range(L + 1):
            w = ctx.qpow(nu_probe * data.a1[i, j])
            worst = max(worst, _maxabs(ci @ e[j].matrix @ ci_inv - w * e[j].matrix))
            worst = max(worst, _maxabs(ci @ f[j].matrix @ ci_inv - f[j].matrix / w))
    res["weight"] = worst

    # [e_i, f_j] = delta_ij (q_i^{h_i} - q_i^{-h_i}) / (q_i - q_i^{-1})
    worst = 0.0
    for i in range(L + 1):
        for j in range(L + 1):
            br = q_supercommutator(rank, ctx, e[i], f[j]).matrix
            if i == j:
                di = data.d_simple[i]
                qi = ctx.qpow(di)
                target = (rep.cartan(i, di) - rep.cartan(i, -di)) / (qi - 1.0 / qi)
                worst = max(worst, _maxabs(br - target))
            else:
                worst = max(worst, _maxabs(br))
    res["ef_pairing"] = worst

    # [e_i, e_j] = 0 and [f_i, f_j] = 0 whenever (alpha_i | alpha_j) = 0
    worst = 0.0
    for i in range(L + 1):
        for j in range(L + 1):
            if data.b1[i, j] == 0:
                worst = max(worst, _maxabs(q_supercommutator(rank, ctx, e[i], e[j]).matrix))
                worst = max(worst, _maxabs(q_supercommutator(rank, ctx, f[i], f[j]).matrix))
    res["isotropic_vanishing"] = worst

    # cubic Serre relations at non-isotropic nodes, neighbors on the cycle
    worst = 0.0
    for i in range(L + 1):
        if data.b1[i, i] == 0:
            continue
        for j in ((i + 1) % (L + 1), (i - 1) % (L + 1)):
            if j == i:
                continue
            inner = q_supercommutator(rank, ctx, e[i], e[j])
            worst = max(worst, _maxabs(q_supercommutator(rank, ctx, e[i], inner).matrix))
            inner = q_supercommutator(rank, ctx, f[i], f[j])
            worst = max(worst, _maxabs(q_supercommutator(rank, ctx, f[i], inner).matrix))
    res["serre_cubic"] = worst

    # quartic relations at an odd node with two even neighbors
    def quartic(a, mid, b):
        t = q_supercommutator(rank, ctx, a, mid)
        t = q_supercommutator(rank, ctx, t, b)
        return q_supercommutator(rank, ctx, t, mid).matrix

    worst = 0.0
    if rank.m >= 2 and rank.n >= 2:
        worst = max(worst, _maxabs(quartic(e[rank.m - 1], e[rank.m], e[rank.m + 1])))
        worst = max(worst, _maxabs(quartic(f[rank.m - 1], f[rank.m], f[rank.m + 1])))
    if rank.dim > 3:
        # at M+N = 3 the two odd nodes are adjacent and the quartic at the
        # affine node is replaced by the quintic relations below
        worst = max(worst, _maxabs(quartic(e[1], e[0], e[L])))
        worst = max(worst, _maxabs(quartic(f[1], f[0], f[L])))
    res["serre_quartic"] = worst

    # extra quintic relations, specific to M+N = 3
    if rank.dim == 3:
        def nest(chain):
            cur = chain[-1]
            for g in reversed(chain[:-1]):
                cur = q_supercommutator(rank, ctx, g, cur)
            return cur.matrix

        worst = 0.0
        for g in (e, f):
            lhs = nest([g[0], g[2], g[0], g[2], g[1]])
            rhs = nest([g[2], g[0], g[2], g[0], g[1]])
            worst = max(worst, _maxabs(lhs - rhs))
        res["quintic"] = worst

    res["max"] = max(v for k, v in res.items() if k != "max")
    return res
