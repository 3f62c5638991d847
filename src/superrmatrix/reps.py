"""Vector representation, grading automorphism and evaluation representation.

The evaluation representation phi_zeta of the q-deformed loop superalgebra is
the composition of the vector representation of the finite quantum
superalgebra with the homomorphism that folds the affine generators back into
finite Cartan-Weyl elements, twisted by the grading automorphism
Gamma_zeta(e_i) = zeta^{s_i} e_i.  All images live on C^(M+N).

The generator images admit simple closed forms, used directly; the tests keep
the composed construction as their cross-check.  The coproduct images on
V (x) V are the three Hopf formulas for q^{nu h_i}, e_i and f_i, written out
once as arrays of term factors (coproduct_stack).
"""

from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass

import numpy as np

from .gradedmatrix import graded_kron, q_supercommutator
from .rootdata import HashedValue, SuperRank, cartan_data, simple_root
from .scalars import QContext

__all__ = [
    "GradingVector",
    "EvaluationRep",
    "coproduct_stack",
    "check_defining_relations",
]


@dataclass(frozen=True, eq=False)
class GradingVector(HashedValue):
    """Integer grades s_0..s_L assigned to the generator pairs (e_i, f_i)."""

    s: tuple[int, ...]

    def __post_init__(self):
        if not self.s:
            raise ValueError("empty grading")
        if sum(self.s) == 0:
            raise ValueError("total grade s must be nonzero")
        self._freeze(self.s)

    @classmethod
    def ones(cls, rank: SuperRank) -> "GradingVector":
        return cls((1,) * (rank.L + 1))

    @property
    def total(self) -> int:
        return sum(self.s)

    def partial(self, i: int, j: int) -> int:
        """s_ij = s_i + ... + s_{j-1} (slot indices, 1 <= i < j <= M+N)."""
        return sum(self.s[i:j])

    def checked(self, rank: SuperRank) -> "GradingVector":
        """This grading, refused unless it has the M+N grades of the rank."""
        if len(self.s) != rank.dim:
            raise ValueError(f"grading length must be M+N = {rank.dim}, got {len(self.s)}")
        return self


def _unit_slots(rank: SuperRank, side: str) -> tuple[np.ndarray, np.ndarray]:
    """The 0-based rows and cols of the generator units of one side, i = 0..L:
    those of cartan_data's slots on "e" and their transposes on "f"."""
    rows, cols = cartan_data(rank).slots
    return (rows, cols) if side == "e" else (cols, rows)


@functools.cache
def _cartan_exponents(rank: SuperRank) -> np.ndarray:
    """Slot exponents of h_0..h_L: phi_zeta(q^{nu h_i}) = diag(q^{nu x_i}) for
    row x_i = d_i (alpha_i | epsilon_k) = d_i P[i, k] with cartan_data's slot
    pairing P, so h_0 = -(K_1 + K_{M+N}) and H_i = K_i - d_i d_{i+1} K_{i+1}."""
    data = cartan_data(rank)
    out = np.array(data.d_simple)[:, None] * data.pairing
    out.setflags(write=False)
    return out


class EvaluationRep:
    """Generator images of the evaluation representation phi_zeta."""

    def __init__(self, rank: SuperRank, ctx: QContext, zeta: complex,
                 grading: GradingVector | None = None):
        if zeta == 0 or not cmath.isfinite(zeta):
            raise ValueError(f"zeta must be finite and nonzero, got {zeta}")
        self.rank = rank
        self.ctx = ctx
        self.zeta = complex(zeta)
        self.grading = (grading if grading is not None else GradingVector.ones(rank)).checked(rank)
        top = abs(max(self.grading.s, key=abs))  # every other zeta**(+-s_i) lies between
        try:
            low, high = self.zeta ** top, self.zeta ** -top
        except ArithmeticError:  # complex ** int raises on some overflows
            low = high = 0j
        if 0 in (low, high) or not (cmath.isfinite(low) and cmath.isfinite(high)):
            raise OverflowError(f"zeta**(+-{top}) at zeta = {self.zeta} passes the float range")

    # -- closed-form generator images ------------------------------------

    def units(self, side: str) -> tuple[np.ndarray, np.ndarray, list]:
        """The generator images of one side, i = 0..L, each one matrix unit, as
        0-based rows, cols and coefficients: phi_zeta(e_i) = zeta^{s_i} E_{i,i+1}
        and -zeta^{s_0} q E_{M+N,1} at the affine node on "e", phi_zeta(f_i)
        their transposes with zeta^{-s_i}, and q^-1 in place of -q, on "f"."""
        sign = 1 if side == "e" else -1
        coeff = [self.zeta ** (sign * k) for k in self.grading.s]
        coeff[0] *= -self.ctx.qpow(1) if side == "e" else self.ctx.qpow(-1)
        return (*_unit_slots(self.rank, side), coeff)

    def e_stack(self) -> np.ndarray:
        """phi_zeta(e_i) for i = 0..L as one (L+1, dim, dim) stack of units."""
        return self._unit_stack("e")

    def f_stack(self) -> np.ndarray:
        """phi_zeta(f_i) for i = 0..L as one (L+1, dim, dim) stack of units."""
        return self._unit_stack("f")

    def _unit_stack(self, side: str) -> np.ndarray:
        rows, cols, coeff = self.units(side)
        out = np.zeros((len(rows), self.rank.dim, self.rank.dim), dtype=complex)
        out[np.arange(len(rows)), rows, cols] = coeff
        return out

    def cartan_diags(self, nu=1.0) -> np.ndarray:
        """Diagonals of phi_zeta(q^{nu_i h_i}) for i = 0..L as an
        (..., L+1, dim) array; ``nu`` broadcasts against the node axis."""
        return np.exp(self.ctx.hbar * (np.asarray(nu)[..., None] * _cartan_exponents(self.rank)))

    def cartan(self, i: int, nu: complex = 1.0) -> np.ndarray:
        """phi_zeta(q^{nu h_i}) as a matrix."""
        return np.diag(self.cartan_diags(nu)[i])

    def cartan_weight(self, hcoeffs, nu: complex = 1.0) -> np.ndarray:
        """phi_zeta(q^{nu sum_i c_i h_i}) for integer/real c_0..c_L."""
        return np.diag(np.prod(self.cartan_diags(nu * np.asarray(hcoeffs)), axis=0))


# -- coproduct images -----------------------------------------------------

def coproduct_stack(rep1: EvaluationRep, rep2: EvaluationRep, nu: complex = 1.0) -> np.ndarray:
    """Images of Delta and of the opposite coproduct Delta' of q^{nu h_i}, e_i
    and f_i, i = 0..L, on V (x) V as one (2, 3, L+1, d^2, d^2) stack: axis 0
    is (Delta, Delta'), axis 1 the kind (h, e, f), axis 2 the node i, with
        Delta(q^{nu h_i}) = q^{nu h_i} (x) q^{nu h_i},
        Delta(e_i) = e_i (x) 1 + q^{d_i h_i} (x) e_i,
        Delta(f_i) = f_i (x) q^{-d_i h_i} + 1 (x) f_i,
    and Delta' swapping the two factors of every term; each term has an even
    factor, so the graded flip carries no sign.  The first tensor slot is
    evaluated in rep1 and the second in rep2; all 4 * 3(L+1) terms embed in
    one stacked graded_kron.
    """
    rank = rep1.rank
    if rep2.rank != rank:
        raise ValueError("rank mismatch between the two representations")
    d = np.array(cartan_data(rank).d_simple)
    slots = []  # per slot, its operators as a [term, coproduct, kind, node] stack
    for slot, rep in enumerate((rep1, rep2)):
        diags = rep.cartan_diags(np.array([np.full(rank.L + 1, nu), d, -d, 0 * d]))
        h, k_up, k_down, one = diags[..., None] * np.eye(rank.dim)  # one = q^{0 h_i}
        e, f, zero = rep.e_stack(), rep.f_stack(), np.zeros_like(h)
        left = [[h, e, f], [zero, k_up, one]]  # [term, kind] of Delta's first factor
        right = [[h, one, k_down], [zero, e, f]]  # and of its second
        slots.append(np.array([left, right] if slot == 0 else [right, left]).swapaxes(0, 1))
    p = rank.parity_vector()
    terms = graded_kron(*slots, p, p)
    return terms[0] + terms[1]


# -- defining relations ----------------------------------------------------

def _maxabs(x) -> float:
    x = np.asarray(x)
    return float(np.max(np.abs(x))) if x.size else 0.0


def _worst(residuals) -> float:
    """Largest |entry| over an iterable of residual arrays, 0.0 for none; NaN
    if any entry is NaN, which a running max(worst, x) would drop."""
    return float(np.max([_maxabs(r) for r in residuals], initial=0.0))


# the generic exponent nu at which the q^{nu h_i} relations are probed
_NU_PROBE = 0.7 - 0.3j


def check_defining_relations(rep: EvaluationRep) -> dict:
    """Residuals of the defining relations of the loop superalgebra under
    phi_zeta, one entry per relation family.  All residuals should vanish.
    The same-sign relations are written once, over the two families of
    generators with their weights, (e_i, alpha_i) and (f_i, -alpha_i)."""
    rank, ctx = rep.rank, rep.ctx
    data = cartan_data(rank)
    L = rank.L
    res: dict[str, float] = {}

    e, f = rep.e_stack(), rep.f_stack()
    roots = [simple_root(rank, i) for i in range(L + 1)]
    families = (list(zip(e, roots)), list(zip(f, [-root for root in roots])))
    ident = np.eye(rank.dim, dtype=complex)

    def bracket(x, y):  # of (matrix, weight) pairs; the weights add
        return q_supercommutator(rank, ctx, x[0], y[0], x[1], y[1]), x[1] + y[1]

    # q^{nu c} = 1 : the central element acts trivially
    central = rep.cartan_weight(data.d_simple, _NU_PROBE)
    res["central"] = _maxabs(central - ident)

    # weight relations: q^{nu h_i} x q^{-nu h_i} = q^{+-nu <alpha_j, h_i>} x
    residuals = []
    for i in range(L + 1):
        ci = rep.cartan(i, _NU_PROBE)
        ci_inv = rep.cartan(i, -_NU_PROBE)
        for j in range(L + 1):
            w = ctx.qpow(_NU_PROBE * data.a1[i, j])
            residuals += [ci @ e[j] @ ci_inv - w * e[j], ci @ f[j] @ ci_inv - f[j] / w]
    res["weight"] = _worst(residuals)

    # [e_i, f_j] = delta_ij (q_i^{h_i} - q_i^{-h_i}) / (q_i - q_i^{-1})
    residuals = []
    for i in range(L + 1):
        for j in range(L + 1):
            br = bracket(families[0][i], families[1][j])[0]
            if i == j:
                di = data.d_simple[i]
                qi = ctx.qpow(di)
                br = br - (rep.cartan(i, di) - rep.cartan(i, -di)) / (qi - 1.0 / qi)
            residuals.append(br)
    res["ef_pairing"] = _worst(residuals)

    # [g_i, g_j] = 0 whenever (alpha_i | alpha_j) = 0
    res["isotropic_vanishing"] = _worst(
        bracket(g[i], g[j])[0] for g in families
        for i in range(L + 1) for j in range(L + 1) if data.b1[i, j] == 0)

    # cubic Serre relations at non-isotropic nodes, neighbors on the cycle
    res["serre_cubic"] = _worst(
        bracket(g[i], bracket(g[i], g[j]))[0] for g in families
        for i in range(L + 1) if data.b1[i, i] != 0
        for j in ((i + 1) % (L + 1), (i - 1) % (L + 1)) if j != i)

    # quartic relations [[[a, mid], b], mid] = 0, mid an odd node and a, b its
    # neighbors on the cycle: (M-1, M, M+1) for M, N >= 2, and (1, 0, L) for
    # M+N > 3, where a = alpha_1 is odd too at M = 1 and b = alpha_L at N = 1
    triples = []
    if rank.m >= 2 and rank.n >= 2:
        triples.append((rank.m - 1, rank.m, rank.m + 1))
    if rank.dim > 3:
        # at M+N = 3 the two odd nodes are adjacent and the quartic at the
        # affine node is replaced by the quintic relations below
        triples.append((1, 0, L))
    res["serre_quartic"] = _worst(
        bracket(bracket(bracket(g[a], g[mid]), g[b]), g[mid])[0]
        for g in families for a, mid, b in triples)

    # extra quintic relations, specific to M+N = 3
    if rank.dim == 3:
        def nest(chain):
            cur = chain[-1]
            for x in reversed(chain[:-1]):
                cur = bracket(x, cur)
            return cur[0]

        res["quintic"] = _worst(nest([g[0], g[2], g[0], g[2], g[1]])
                                - nest([g[2], g[0], g[2], g[0], g[1]]) for g in families)

    res["max"] = _worst(res.values())
    return res
