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
import functools
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
    "coproduct_stack",
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


@functools.cache
def _cartan_exponents(rank: SuperRank) -> np.ndarray:
    """Slot exponents of h_0..h_L: phi_zeta(q^{nu h_i}) = diag(q^{nu x_i}) for
    row x_i, with h_0 = -(K_1 + K_{M+N}) and H_i = K_i - d_i d_{i+1} K_{i+1}."""
    out = np.zeros((rank.L + 1, rank.dim), dtype=int)
    out[0, [0, -1]] = -1
    for i in range(1, rank.L + 1):
        out[i, i - 1] = 1
        out[i, i] = -rank.d(i) * rank.d(i + 1)
    out.setflags(write=False)
    return out


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

    def e_stack(self) -> np.ndarray:
        """phi_zeta(e_i) for i = 0..L as one (L+1, dim, dim) stack:
        zeta^{s_i} E_{i,i+1}, and -zeta^{s_0} q E_{M+N,1} at the affine node."""
        coeff = [self.zeta ** k for k in self.grading.s]
        coeff[0] *= -self.ctx.qpow(1)
        return self._unit_stack(coeff, lowering=False)

    def f_stack(self) -> np.ndarray:
        """phi_zeta(f_i) for i = 0..L as one (L+1, dim, dim) stack:
        zeta^{-s_i} E_{i+1,i}, and zeta^{-s_0} q^-1 E_{1,M+N} at the affine node."""
        coeff = [self.zeta ** (-k) for k in self.grading.s]
        coeff[0] *= self.ctx.qpow(-1)
        return self._unit_stack(coeff, lowering=True)

    def _unit_stack(self, coeff, lowering: bool) -> np.ndarray:
        # e_i has its entry at 0-based (i-1 mod M+N, i), f_i at the transpose
        nodes = np.arange(self.rank.L + 1)
        rows, cols = (nodes - 1) % self.rank.dim, nodes
        if lowering:
            rows, cols = cols, rows
        out = np.zeros((len(nodes), self.rank.dim, self.rank.dim), dtype=complex)
        out[nodes, rows, cols] = coeff
        return out

    def cartan_diags(self, nu=1.0) -> np.ndarray:
        """Diagonals of phi_zeta(q^{nu_i h_i}) for i = 0..L as an
        (..., L+1, dim) array; ``nu`` broadcasts against the node axis."""
        return np.exp(self.ctx.hbar * (np.asarray(nu)[..., None] * _cartan_exponents(self.rank)))

    def _node(self, i: int) -> int:
        if not 0 <= i <= self.rank.L:
            raise ValueError(f"generator index {i} out of range 0..{self.rank.L}")
        return i

    def e(self, i: int) -> np.ndarray:
        return self.e_stack()[self._node(i)]

    def f(self, i: int) -> np.ndarray:
        return self.f_stack()[self._node(i)]

    def cartan_diag(self, i: int, nu: complex = 1.0) -> np.ndarray:
        """Diagonal of phi_zeta(q^{nu h_i}) as a vector."""
        return self.cartan_diags(nu)[self._node(i)]

    def cartan(self, i: int, nu: complex = 1.0) -> np.ndarray:
        return np.diag(self.cartan_diag(i, nu))

    def cartan_weight_diag(self, hcoeffs, nu: complex = 1.0) -> np.ndarray:
        """Diagonal of phi_zeta(q^{nu sum_i c_i h_i}) for integer/real c_0..c_L."""
        return np.prod(self.cartan_diags(nu * np.asarray(hcoeffs)), axis=0)

    def cartan_weight(self, hcoeffs, nu: complex = 1.0) -> np.ndarray:
        return np.diag(self.cartan_weight_diag(hcoeffs, nu))

    def weights(self) -> np.ndarray:
        """Integer table w[k-1][i-1] = <lambda_k, h_i> for slots k and the
        finite Cartan indices i = 1..L: the slot exponents of h_1..h_L."""
        return _cartan_exponents(self.rank)[1:].T

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

# Coproduct terms as indices into the operator stack of _coproduct_operators,
# one row per term and one column per generator kind (h, e, f), for the first
# and the second tensor factor:
#   Delta(q^{nu h_i}) = q^{nu h_i} (x) q^{nu h_i}  (second term zero),
#   Delta(e_i) = e_i (x) 1 + q^{d_i h_i} (x) e_i,
#   Delta(f_i) = f_i (x) q^{-d_i h_i} + 1 (x) f_i.
# The opposite coproduct swaps the two factors of every term; each term has
# an even factor, so the graded flip carries no sign.
_ONE, _ZERO, _H, _E, _F, _K_UP, _K_DOWN = range(7)
_FIRST = np.array([[_H, _E, _F], [_ZERO, _K_UP, _ONE]])
_SECOND = np.array([[_H, _ONE, _K_DOWN], [_ZERO, _E, _F]])
# [term, coproduct (Delta, Delta'), kind, node] index of each slot's operator
_SLOT1 = np.stack([_FIRST, _SECOND], axis=1)[..., None]
_SLOT2 = np.stack([_SECOND, _FIRST], axis=1)[..., None]
_KINDS = ("h", "e", "f")


def _coproduct_operators(rep: EvaluationRep, nu) -> np.ndarray:
    """The (7, L+1, dim, dim) stack 1, 0, q^{nu h_i}, e_i, f_i, q^{d_i h_i},
    q^{-d_i h_i} of one evaluation representation."""
    rank = rep.rank
    d = np.array(cartan_data(rank).d_simple)
    diags = np.zeros((7, rank.L + 1, rank.dim), dtype=complex)
    diags[_ONE] = 1.0
    diags[[_H, _K_UP, _K_DOWN]] = rep.cartan_diags(np.array([np.full(rank.L + 1, nu), d, -d]))
    ops = diags[..., None] * np.eye(rank.dim)
    ops[_E] = rep.e_stack()
    ops[_F] = rep.f_stack()
    return ops


def coproduct_stack(rep1: EvaluationRep, rep2: EvaluationRep, nu: complex = 1.0) -> np.ndarray:
    """Images of Delta and of the opposite coproduct of q^{nu h_i}, e_i and f_i,
    i = 0..L, on V (x) V as one (2, 3, L+1, d^2, d^2) stack: axis 0 is
    (Delta, Delta'), axis 1 the kind (h, e, f), axis 2 the node i.

    The first tensor slot is always evaluated in rep1 and the second in rep2;
    all 4 * 3(L+1) terms embed in one stacked graded_kron.
    """
    rank = rep1.rank
    if rep2.rank != rank:
        raise ValueError("rank mismatch between the two representations")
    nodes = np.arange(rank.L + 1)
    first = _coproduct_operators(rep1, nu)[_SLOT1, nodes]
    second = _coproduct_operators(rep2, nu)[_SLOT2, nodes]
    p = rank.parity_vector()
    terms = graded_kron(first, second, p, p)
    return terms[0] + terms[1]


def coproduct_image(rep1: EvaluationRep, rep2: EvaluationRep, gen,
                    opposite: bool = False) -> np.ndarray:
    """Image of Delta(gen) (or of the opposite coproduct) on V (x) V, for gen
    ("h", i, nu), ("e", i) or ("f", i): one slice of coproduct_stack."""
    kind, i = gen[0], gen[1]
    if kind not in _KINDS or len(gen) != (3 if kind == "h" else 2):
        raise ValueError(f"unknown generator tag {gen}")
    nu = gen[2] if kind == "h" else 1.0
    return coproduct_stack(rep1, rep2, nu)[int(opposite), _KINDS.index(kind), rep1._node(i)]


# -- defining relations ----------------------------------------------------

def _maxabs(x) -> float:
    x = np.asarray(x)
    return float(np.max(np.abs(x))) if x.size else 0.0


# the generic exponent nu at which the q^{nu h_i} relations are probed
_NU_PROBE = 0.7 - 0.3j


def check_defining_relations(rep: EvaluationRep) -> dict:
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
    central = rep.cartan_weight(data.d_simple, _NU_PROBE)
    res["central"] = _maxabs(central - ident)

    # weight relations: q^{nu h_i} x q^{-nu h_i} = q^{+-nu <alpha_j, h_i>} x
    worst = 0.0
    for i in range(L + 1):
        ci = rep.cartan(i, _NU_PROBE)
        ci_inv = rep.cartan(i, -_NU_PROBE)
        for j in range(L + 1):
            w = ctx.qpow(_NU_PROBE * data.a1[i, j])
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
