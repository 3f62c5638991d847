import cmath
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import superrmatrix
from superrmatrix import cartanweyl
from superrmatrix.cartanweyl import RootVectorTable
from superrmatrix.gradedmatrix import (
    _unit_terms,
    graded_kron,
    koszul_sign,
    matrix_unit,
    q_supercommutator,
)
from superrmatrix.rootdata import bilinear, cartan_data, parity, simple_root
from superrmatrix.scalars import _NOT_FINITE, _finite, q_exponential

TEST_RANKS = [(2, 1), (1, 2), (3, 1), (1, 3), (3, 2), (2, 3)]


def rand_q(rng, u_scale=0.08, v_lo=0.1, v_hi=0.6):
    """Generic q = exp(u + i v) off the real axis and away from roots of unity."""
    u = rng.uniform(-u_scale, u_scale)
    v = rng.uniform(v_lo, v_hi)
    return cmath.exp(complex(u, v))


def rand_zeta(rng, lo=0.85, hi=1.2):
    """zeta of near-unit modulus so monomial magnitudes stay O(1)."""
    r = rng.uniform(lo, hi)
    phi = rng.uniform(0, 2 * np.pi)
    return r * cmath.exp(1j * phi)


def zeta_pair_bounded(rng, s_total, bound=0.8, floor=0.05):
    """(zeta1, zeta2) with floor <= |(zeta1/zeta2)**s| <= bound."""
    r = rng.uniform(floor ** (1 / s_total), bound ** (1 / s_total))
    phi = rng.uniform(0, 2 * np.pi)
    z2 = rand_zeta(rng)
    return r * cmath.exp(1j * phi) * z2, z2


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def fresh_plans():
    """The per-rank table plans cleared before and after the test, so that a
    plan made under a patched bracket rule is neither read nor kept."""
    cartanweyl._plan.cache_clear()
    yield
    cartanweyl._plan.cache_clear()


def run_fresh(code: str, **env: str) -> str:
    """The stdout of ``code`` run by a fresh interpreter that imports this
    package's source tree, with ``env`` added to the environment."""
    src = str(Path(superrmatrix.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, **env}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True).stdout


def maxabs(x):
    x = np.asarray(x)
    return float(np.max(np.abs(x))) if x.size else 0.0


def series_log(c):
    """Coefficients a of log f for the truncated power series f with
    coefficients c_0 = 1, c_1.., c_N along the first axis, entrywise over
    trailing axes: the recurrence u_n = n c_n - sum_{0<k<n} u_k c_{n-k} on
    u_k = k a_k, one contraction per level.  The reference route for the
    unprimed imaginary diagonals, which the package forms in closed form."""
    c = np.asarray(c, dtype=complex)
    k = np.arange(len(c)).reshape((-1,) + (1,) * (c.ndim - 1))
    u = k * c
    for n in range(2, len(c)):
        u[n] -= np.einsum("k...,k...->...", u[1:n], c[n - 1:0:-1])
    u[1:] /= k[1:]
    return u


def diag_stack(diagonals):
    """The diagonal matrices of a stack of diagonals: np.diag over the last axis."""
    diagonals = np.asarray(diagonals)
    return diagonals[..., None] * np.eye(diagonals.shape[-1])


def load_matrix(payload: dict) -> np.ndarray:
    """The matrix of an `rmatrix` JSON payload."""
    entries = np.array([complex(re, im) for re, im in payload["entries"]])
    return entries.reshape(payload["rows"], payload["cols"])


# -- the hand-written sign rules of the distinguished order, the reference of cartan_data --

def slot_sign(rank, k: int) -> int:
    """d_k = (-1)^[k] of slot k = 1..M+N, slot k even for k <= M; d_0 = 1."""
    return 1 if k <= rank.m else -1


def node_parity(rank, i: int) -> int:
    """The parity of the simple root alpha_i, i = 0..L: odd at 0 and M."""
    return 1 if i in (0, rank.m) else 0


def o_sign(rank, i: int) -> int:
    """The sign o_i, i = 1..L, of the imaginary-root family attached to alpha_i."""
    return (-1) ** (i - 1) if i < rank.m else (-1) ** i


# -- the root-vector normalizations and factors, the reference of the product route --

def h_gamma(rank, root) -> tuple:
    """Coefficients of h_root = sum_i d_i m_i h_i over h_0..h_L."""
    return tuple(d * m for d, m in zip(cartan_data(rank).d_simple, root.coeffs))


def a_gamma(rep, table: RootVectorTable, root) -> complex:
    """Normalization a solving [e_g, f_g] = a (q^{h_g} - q^{-h_g})/(q - q^{-1})
    in the representation (least squares over the diagonal)."""
    rank, ctx = rep.rank, rep.ctx
    w = q_supercommutator(rank, ctx, table.real("e", root), table.real("f", root), root, -root)
    hc = h_gamma(rank, root)
    target = np.diag(rep.cartan_weight(hc, 1.0) - rep.cartan_weight(hc, -1.0)) / (
        ctx.qpow(1) - ctx.qpow(-1)
    )
    wd = np.diag(w)
    denom = np.vdot(target, target)
    if abs(denom) == 0:
        raise ZeroDivisionError("degenerate pairing target")
    a = complex(np.vdot(target, wd) / denom)
    resid = float(np.max(np.abs(w - np.diag(a * target))))
    if not resid <= 1e-8 * max(1.0, float(np.max(np.abs(wd)))):
        raise ArithmeticError(f"pairing of e and f vectors at {root} is not proportional to "
                              f"the Cartan combination (residual {resid:.2e})")
    return a


def factor_from_table(table1: RootVectorTable, table2: RootVectorTable, root) -> np.ndarray:
    """One q-exponential factor exp_{q_g}(-(-1)^[g] (q-q^-1) a_g^-1 e_g (x) f_g)
    built from root-vector tables (e from the first, f from the second)."""
    rep1 = table1.rep
    rank, ctx = rep1.rank, rep1.ctx
    p = rank.parity_vector()
    gsign = -1.0 if parity(rank, root) else 1.0
    qbase = gsign * ctx.qpow(bilinear(rank, root, root))
    a = a_gamma(rep1, table1, root)
    arg = (-gsign * (ctx.qpow(1) - ctx.qpow(-1)) / a) * graded_kron(
        table1.real("e", root), table2.real("f", root), p, p)
    return q_exponential(arg, qbase, ctx)


# -- dense embeddings into V (x) V (x) V, the reference of verify_ybe ------------

def composite_parity(pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """Parity vector of V (x) W ordered with the first factor slowest."""
    return (np.add.outer(np.asarray(pa), np.asarray(pb)) % 2).reshape(-1)


def lift_12(r2, p):
    """Embed a V (x) V operator into slots 1 and 2 of V (x) V (x) V."""
    p2 = composite_parity(p, p)
    return graded_kron(r2, np.eye(len(p), dtype=complex), p2, p)


def lift_23(r2, p):
    """The identity in the first slot carries no Koszul sign: a plain
    Kronecker product."""
    return np.kron(np.eye(len(p), dtype=complex), r2)


def lift_13(r2, p):
    """Embed a V (x) V operator into slots 1 and 3 of V (x) V (x) V.

    Writing the operator as sum c_ijkl E_ij (x) E_kl, the recursive embedding
    with an identity in the middle reduces to
    out[(i,x,k),(j,x,l)] = (-1)^([x]([i]+[j])) R[(i,k),(j,l)].
    """
    d = len(p)
    p = np.asarray(p)
    r4 = np.asarray(r2, dtype=complex).reshape(d, d, d, d)  # [i, k, j, l]
    sign = koszul_sign(p[None, None, :], p[:, None, None], p[None, :, None])  # [i, j, x]
    out = np.einsum("xy,ijx,ikjl->ixkjyl", np.eye(d), sign, r4)
    return np.ascontiguousarray(out.reshape(d ** 3, d ** 3))


# -- the composed construction of the generator images ---------------------------

def pi_root_vector(rank, ctx, i: int, j: int, which: str) -> np.ndarray:
    """Image of the finite Cartan-Weyl element E_ij (which='e') or F_ij ('f'),
    built by the nested-bracket recursion in the vector representation."""
    if not 1 <= i < j <= rank.dim:
        raise ValueError("need 1 <= i < j <= M+N")

    def generator(k):  # pi(E_k) = E_{k,k+1} of weight alpha_k, pi(F_k) = E_{k+1,k} of -alpha_k
        if which == "e":
            return matrix_unit(rank.dim, k, k + 1), simple_root(rank, k)
        return matrix_unit(rank.dim, k + 1, k), -simple_root(rank, k)

    cur, root = generator(i)
    for k in range(i + 1, j):
        mat, step = generator(k)
        cur, root = q_supercommutator(rank, ctx, cur, mat, root, step), root + step
    return cur


def jimbo_e(rep, i: int) -> np.ndarray:
    """phi_zeta(e_i) by the composed construction: the affine node folds to
    -F_{1,M+N} times a Cartan twist."""
    rank, ctx, s = rep.rank, rep.ctx, rep.grading.s
    if i == 0:
        fmat = pi_root_vector(rank, ctx, 1, rank.dim, "f")
        diag = np.ones(rank.dim, dtype=complex)
        diag[0] = ctx.qpow(slot_sign(rank, 1))
        diag[-1] = ctx.qpow(slot_sign(rank, rank.dim))
        return (rep.zeta ** s[0]) * (-(fmat @ np.diag(diag)))
    return (rep.zeta ** s[i]) * matrix_unit(rank.dim, i, i + 1)


def jimbo_f(rep, i: int) -> np.ndarray:
    """phi_zeta(f_i) by the composed construction: the affine node folds to
    a Cartan twist times E_{1,M+N}."""
    rank, ctx, s = rep.rank, rep.ctx, rep.grading.s
    if i == 0:
        emat = pi_root_vector(rank, ctx, 1, rank.dim, "e")
        diag = np.ones(rank.dim, dtype=complex)
        diag[0] = ctx.qpow(-slot_sign(rank, 1))
        diag[-1] = ctx.qpow(-slot_sign(rank, rank.dim))
        return (rep.zeta ** (-s[0])) * (np.diag(diag) @ emat)
    return (rep.zeta ** (-s[i])) * matrix_unit(rank.dim, i + 1, i)


def jimbo_cartan(rep, i: int, nu: complex = 1.0) -> np.ndarray:
    """q^nu in slot i and q^{-nu d_i d_{i+1}} in slot i+1 of the diagonal,
    q^-nu in slots 1 and M+N at the affine node."""
    rank, ctx = rep.rank, rep.ctx
    diag = np.ones(rank.dim, dtype=complex)
    if i == 0:
        diag[[0, -1]] = ctx.qpow(-nu)
    else:
        diag[i - 1] = ctx.qpow(nu)
        diag[i] = ctx.qpow(-nu * slot_sign(rank, i) * slot_sign(rank, i + 1))
    return np.diag(diag)


# -- the bracket-by-bracket root-vector tables, the reference of the planned ones --

def unit_supercommutator(rank, ctx, x: tuple, y: tuple, root_x, root_y) -> tuple:
    """q_supercommutator of x = c_x E_ab and y = c_y E_cd, each given as a
    0-based entry (row, col, coefficient): the terms of _unit_terms, each its
    product of the two coefficients times its weight, as a tuple of zero, one
    or two entries (row, col, value)."""
    (a, b, cx), (c, d, cy) = x, y
    out = []
    for row, col, swap, weight in _unit_terms(rank, (a, b), (c, d), root_x, root_y):
        product = cy * cx if swap else cx * cy
        out.append((row, col, product if weight is None
                    else weight[0] * ctx.qpow(weight[1]) * product))
    return tuple(out)


class BracketTable(RootVectorTable):
    """A root-vector table whose build brackets every level-zero entry on its
    own, one unit_supercommutator call and one rule lookup each, and keeps the
    entries in a dict row -> (row, col, coefficient): the same accessors, and
    the same arithmetic in the same order, as the planned table, so that the
    two must agree bit for bit."""

    def _build_series(self, side: str) -> dict:
        rank = self.rep.rank
        dim, L = rank.dim, rank.L
        rows, cols, coeffs = self.rep.units(side)
        zero = dict(zip([("real_wrap", 1, dim)] + [("real_plus", i, i + 1) for i in range(1, dim)],
                        zip(rows.tolist(), cols.tolist(), coeffs)))
        self._add_zero_entries(side, zero, "series")
        family, r, c, values = zip(*self._primed_level_one(side, zero))
        if not all(map(cmath.isfinite, values)):
            raise OverflowError(_NOT_FINITE.format("a primed level-one vector"))
        if r != c:
            raise AssertionError("primed level-one vector is not diagonal")
        p = np.zeros((L, dim), dtype=complex)
        p[family, r] = values
        s = np.zeros(L, dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            if self.n_max:
                s = self._row_steps(side, p, rows[1:], cols[1:])
            unprimed = _finite(self._log_levels(side, s, p), "an unprimed imaginary vector")
        return {"zero": zero, "s": s, "p": p, "unprimed": unprimed}

    def _build_rest(self, side: str) -> dict:
        series = self._series_part(side)
        zero = dict(series["zero"])
        self._add_zero_entries(side, zero, "rest")
        climbing = cartanweyl._ladder_table(self.rep.rank)[0]
        rows, cols, coeffs = (np.array(a) for a in zip(*(zero[row] for row in climbing)))
        levels = np.empty((self.n_max + 1, len(climbing)), dtype=complex)
        levels[0] = coeffs
        with np.errstate(over="ignore", invalid="ignore"):
            if self.n_max:
                np.cumprod(np.broadcast_to(self._row_steps(side, series["p"], rows, cols),
                                           levels[1:].shape), axis=0, out=levels[1:])
                levels[1:] *= levels[0]
            _finite(levels, "a climbed row")
        return {row: (*zero[row][:2], levels[:, k]) for k, row in enumerate(climbing)}

    def _add_zero_entries(self, side: str, zero: dict, part: str) -> None:
        rank, ctx = self.rep.rank, self.rep.ctx
        roots = cartanweyl._row_roots(rank, side)
        for row, (x, y) in cartanweyl._zero_rows(rank, part):
            (zero[row],) = unit_supercommutator(rank, ctx, zero[x], zero[y], roots[x], roots[y])

    def _primed_level_one(self, side: str, zero: dict) -> list:
        rank, ctx = self.rep.rank, self.rep.ctx
        roots = cartanweyl._row_roots(rank, side)
        entries = []
        for i in range(1, rank.L + 1):
            x, y = ("real_plus", i, i + 1), ("real_wrap", i, i + 1)
            sign = -1.0 if node_parity(rank, i) else 1.0
            entries += [(i - 1, r, c, sign * v) for r, c, v in unit_supercommutator(
                rank, ctx, zero[x], zero[y], roots[x], roots[y])]
        return entries

    def _row_steps(self, side: str, p, rows, cols):
        _, attach, _, _, _, plus = cartanweyl._ladder_table(self.rep.rank)
        factor = self._ladder[0] * plus if side == "e" else self._ladder[1] * -plus
        count = len(rows)
        p = p[attach[:count]]
        return factor[:count] * (p[np.arange(count), cols] - p[np.arange(count), rows])

    def _log_levels(self, side: str, s, p):
        ctx = self.rep.ctx
        out = np.zeros((self.n_max,) + p.shape, dtype=complex)
        family, slot = np.nonzero(p)
        kappa = (np.array(cartan_data(self.rep.rank).d_simple[1:])[family]
                 * (ctx.qpow(1) - ctx.qpow(-1)))
        sign = -1.0 if side == "e" else 1.0
        n, s, p = np.arange(1, self.n_max + 1)[:, None], s[family], p[family, slot]
        out[:, family, slot] = (sign / kappa) * (s ** n - (s - sign * kappa * p) ** n) / n
        return out
