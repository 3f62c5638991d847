"""Recursive construction of loop-algebra root vectors in the evaluation
representation, their closed forms, and the level-n pairing matrices.

The recursion seeds the finite ladder operators with the simple generator
images, wraps around the affine node for the (delta - alpha_ij) family, and
climbs in the imaginary direction by bracketing with level-one diagonal
vectors.  Every real-root image is a monomial in zeta and q times a single
matrix unit; the diagonal (imaginary) vectors come in a primed family
straight out of the recursion and an unprimed family obtained through a
series logarithm of the primed generating function.

The climb brackets row (i, j) with the primed vector attached to alpha_i for
i < M and to alpha_{i-1} for i >= M (the detour avoids the isotropic node,
where the q-number normalizer would vanish).  At M = 1 the first row has no
left neighbor; its ladder is instead normalized through the level-pairing
identity against the unprimed vector of the adjacent node, longer first-row
roots are composed from the simple one, and the wrap row brackets with the
isotropic level-one vector, rescaled so its per-level multiplier matches the
generic odd-node wrap row.  All rows then satisfy one closed-form table.

A table computes each piece on its first read and keeps it; values do not
depend on the order of the reads.  The pieces are:

- the level-zero entries (generators, finite ladders, wrap steps), one at a
  time;
- the L adjacent rows real_plus (i, i+1) at levels 0..n_max, as one stack
  that climbs one level per bracket, and the other climbing rows as two more
  such stacks, one per kind (so that each stack takes its operands in one
  order), built only when one of their rows is read;
- at M = 1, each first row outside the climb, as one bracket over all its
  levels;
- the primed vectors of all levels, as one bracket of the adjacent stack with
  the level-zero wraps, and the unprimed vectors of one side, as one
  (n_max, L, dim) array of diagonals from one series log over all families.

A pipeline build reads only the unprimed vectors, so it climbs only the
adjacent rows.  Because (delta | .) = 0 and delta is even, the coefficient of
a bracket depends on its rule, not on the level, so one coefficient per row
serves a whole stack.  The imaginary-sector series reads a slice of the
unprimed array per side (unprimed_diagonals); the pairing inverses U_n of all
levels come from one array-valued evaluation of the q-Cartan inverse
(u_matrices).

Readers get bare arrays: real(side, root) for every real positive root with
at most n_max deltas (KeyError for any other root), primed(side) at levels
1..max(1, n_max) and unprimed_diagonals(side, n) at levels 1..n <= n_max.  A
caller that needs a root-graded element, as q_supercommutator does, tags the
array with graded_element itself.
"""

from __future__ import annotations

import functools

import numpy as np

from .gradedmatrix import graded_element, matrix_unit, q_supercommutator
from .reps import EvaluationRep
from .rootdata import (
    AffineRoot,
    SuperRank,
    bilinear,
    cartan_data,
    classify,
    h_gamma,
    imaginary_root,
    parity,
    real_plus_root,
    real_wrap_root,
    simple_root,
)
from .scalars import DegenerateQError, series_log
from .tridiag import bq_inverse_closed, bq_matrix

__all__ = [
    "RootVectorTable",
    "build_root_vectors",
    "unprimed_imaginary",
    "real_root_monomial",
    "closed_form_root_vector",
    "closed_form_imaginary",
    "t_matrix",
    "u_matrix",
    "u_matrices",
    "a_gamma",
]

_ROOT = {"real_plus": real_plus_root, "real_wrap": real_wrap_root}


@functools.lru_cache(maxsize=None)
def _climbing_rows(rank: SuperRank) -> dict:
    """The rows that climb by a primed level-one vector, the L adjacent rows
    real_plus (i, i+1) first and in the order of i, as the primed vectors are:
    (kind, i, j) -> (attachment a, (alpha_ij | alpha_a)); the pairing is None
    on the M = 1 first and wrap rows, which are normalized otherwise (see the
    module docstring)."""
    dim = rank.dim
    rows = dict.fromkeys(("real_plus", i, i + 1) for i in range(1, dim))
    for i in range(2 if rank.m == 1 else 1, dim):
        a = i if i < rank.m else i - 1
        for j in range(i + 1, dim + 1):
            pairing = bilinear(rank, real_plus_root(rank, i, j), simple_root(rank, a))
            rows["real_plus", i, j] = rows["real_wrap", i, j] = (a, pairing)
    if rank.m == 1:
        rows["real_plus", 1, 2], rows["real_wrap", 1, dim] = (2, None), (1, None)
    return rows


def _group(row: tuple) -> str:
    """The stack of a climbing row: "adjacent" for the L rows real_plus (i, i+1),
    which a pipeline build reads, else its kind; the operands of one stack come
    in one order."""
    kind, i, j = row
    return "adjacent" if kind == "real_plus" and j == i + 1 else kind


def _level_zero_inputs(rank: SuperRank, kind: str, i: int, j: int) -> tuple:
    """The rows whose level-zero entries the level-zero rule of row (kind, i, j)
    brackets, in e-side order; () for a generator."""
    dim = rank.dim
    if j == i + 1 if kind == "real_plus" else (i, j) == (1, dim):
        return ()  # simple or affine generator
    if kind == "real_plus":  # finite ladder
        return ("real_plus", i, j - 1), ("real_plus", j - 1, j)
    if j == dim:  # wrap seed steps
        return ("real_plus", i - 1, i), ("real_wrap", i - 1, j)
    return ("real_plus", j, j + 1), ("real_wrap", i, j + 1)  # wrap steps


@functools.lru_cache(maxsize=None)
def _pairing(rank: SuperRank, x: tuple, y: tuple) -> tuple[int, bool]:
    """((x | y), whether both are odd) for the roots of two e-side keys."""
    x, y = _key_root(rank, x), _key_root(rank, y)
    return bilinear(rank, x, y), bool(parity(rank, x) * parity(rank, y))


def _ladder_factors(rank: SuperRank, ctx, rows: dict) -> dict:
    """(factor on e, factor on f) of the delta ladder of each climbing row, the
    q-numbers of all rows from one evaluation."""
    data = cartan_data(rank)
    # the M = 1 rows have no pairing; the first row is normalized by [B_12]_q
    nus = np.array([int(data.b[0, 1]) if pairing is None else pairing
                    for _, pairing in rows.values()])
    dens = ctx.qnum(nus)
    bad = np.abs(dens) <= ctx.tolerance
    if np.any(bad):
        raise DegenerateQError(f"vanishing q-number [{nus[bad][0]}]_q in the delta ladder")
    ladder = {}
    for (row, (a, pairing)), den in zip(rows.items(), dens):
        if pairing is None and row[0] == "real_plus":  # M = 1 first row
            norm = data.d_simple[2] * rank.o(1) * rank.o(2) * den
            ladder[row] = (1.0 / norm, 1.0 / norm)
        elif pairing is None:  # M = 1 wrap row
            ladder[row] = (ctx.qpow(1), ctx.qpow(-1))
        else:
            sgn = -1.0 if rank.simple_parity(a) else 1.0
            ladder[row] = (sgn / den, sgn / den)
    return ladder


class RootVectorTable:
    """Images of the root vectors under one evaluation representation up to
    n_max deltas, handed out as arrays by three accessors:

    - real(side, root): the (dim, dim) image of a real positive root with at
      most n_max deltas, of e_root on the e side and of f_root on the f side;
    - primed(side): the primed vectors at levels 1..max(1, n_max), shape
      (levels, L, dim, dim);
    - unprimed_diagonals(side, n): the diagonals of the unprimed vectors at
      levels 1..n, shape (n, L, dim).

    One rule set computes the pieces of both sides ("e" or "f"), which differ
    in the sign of the roots, in the order of the operands and in the
    coefficients; each piece is computed on first use and kept in one memo:

    - (side, kind, i, j, 0): the level-zero entry of a row;
    - (side, "adjacent"), (side, "real_plus"), (side, "real_wrap"): levels
      0..n_max of the climbing rows of one group (see _group), shape
      (n_max + 1, rows, dim, dim);
    - (side, kind, i, j): levels 1..n_max of a row, shape (n_max, dim, dim);
    - (side, "prime", 1), (side, "prime"): the primed vectors at level one and
      at levels 1..max(1, n_max), shape (L, dim, dim) and (levels, L, dim, dim);
    - (side, "log"): the (n_max, L, dim) diagonals of every unprimed vector.
    """

    def __init__(self, rep: EvaluationRep, n_max: int):
        if n_max < 0:
            raise ValueError(f"n_max must be nonnegative, got {n_max}")
        self.rep, self.n_max, self._memo = rep, n_max, {}
        self._rows = _climbing_rows(rep.rank)
        # computed here so that a degenerate q fails when the table is built
        self._ladder = _ladder_factors(rep.rank, rep.ctx, self._rows) if n_max >= 1 else {}

    def real(self, side: str, root: AffineRoot) -> np.ndarray:
        """The image of the real positive root vector at root on one side;
        KeyError for any other root or one with more than n_max deltas."""
        _check_side(side)
        kind = classify(self.rep.rank, root)
        if kind[0] not in _ROOT or kind[3] > self.n_max:
            raise KeyError(f"no real root vector at {root} with at most {self.n_max} deltas")
        kind, i, j, n = kind
        if n == 0:
            return self._level_zero(side, kind, i, j)
        return self._levels(side, kind, i, j)[n - 1]

    def primed(self, side: str) -> np.ndarray:
        """The primed vectors at levels 1..max(1, n_max), one bracket over the
        adjacent stack."""
        _check_side(side)
        return self._cached((side, "prime"), lambda: self._primed_from(
            side, self._climb(side, "adjacent")[:max(1, self.n_max)]))

    def unprimed_diagonals(self, side: str, n: int) -> np.ndarray:
        """The diagonals of the unprimed imaginary vectors of one side at
        levels 1..n, shape (n, L, dim); KeyError for n > n_max.  One series
        log over all families of the side computes every level."""
        _check_side(side)
        if n < 0:
            raise ValueError(f"level count must be nonnegative, got {n}")
        if n > self.n_max:
            raise KeyError(f"unprimed imaginary vectors at level {n} exceed n_max = {self.n_max}")
        return self._cached((side, "log"), lambda: self._unprimed(
            side, self.primed(side)[:self.n_max]))[:n]

    def _cached(self, key: tuple, compute) -> np.ndarray:
        """The memo entry at key, from compute() on first use."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def _c(self, side: str, x: tuple, y: tuple) -> complex:
        """c = (-1)^([x][y]) q^(-+(x|y)) of the bracket of the entries at the
        e-side keys x and y."""
        pair, odd = _pairing(self.rep.rank, x, y)
        return (-1.0 if odd else 1.0) * self.rep.ctx.qpow(-pair if side == "e" else pair)

    def _level_zero(self, side: str, kind: str, i: int, j: int) -> np.ndarray:
        key = (side, kind, i, j, 0)
        if key not in self._memo:
            inputs = _level_zero_inputs(self.rep.rank, kind, i, j)
            if not inputs:
                gen = i if kind == "real_plus" else 0
                value = self.rep.e(gen) if side == "e" else self.rep.f(gen)
            else:
                x, y = (self._level_zero(side, *row) for row in inputs)
                c = self._c(side, *(row + (0,) for row in inputs))
                value = _bracket(x, y, c) if side == "e" else _bracket(y, x, c)
            self._memo[key] = value
        return self._memo[key]

    def _levels(self, side: str, kind: str, i: int, j: int) -> np.ndarray:
        """Levels 1..n_max of row (kind, i, j)."""
        key = (side, kind, i, j)
        if key not in self._memo:
            if key[1:] in self._rows:
                self._climb(side, _group(key[1:]))  # stores the levels of each of its rows
            else:
                self._memo[key] = self._first_row(side, kind, j)
        return self._memo[key]

    def _climb(self, side: str, group: str) -> np.ndarray:
        """Levels 0..n_max of the climbing rows of one group (see _group) as one
        (n_max + 1, rows, dim, dim) stack: level n of a row brackets its level
        n - 1 with the primed level-one vector of its attachment, (row, primed)
        on a real_plus row and (primed, row) on a real_wrap row, all rows of
        one level in one bracket."""
        key = (side, group)
        if key in self._memo:
            return self._memo[key]
        rank = self.rep.rank
        rows = [row for row in self._rows if _group(row) == group]
        stack = np.empty((self.n_max + 1, len(rows), rank.dim, rank.dim), dtype=complex)
        stack[0] = [self._level_zero(side, *row) for row in rows]
        if self.n_max:
            attach = [self._rows[row][0] for row in rows]
            primed = self._primed_one(side)[[a - 1 for a in attach]]
            c = np.array([self._c(side, row + (0,), ("prime", 1, a))
                          for row, a in zip(rows, attach)])[:, None, None]
            factor = np.array([self._ladder[row][0 if side == "e" else 1]
                               for row in rows])[:, None, None]
            left = (group != "real_wrap") == (side == "e")
            for n in range(1, self.n_max + 1):
                x, y = (stack[n - 1], primed) if left else (primed, stack[n - 1])
                stack[n] = _bracket(x, y, c, factor)
        self._memo[key] = stack
        for r, row in enumerate(rows):
            self._memo[(side,) + row] = stack[1:, r]
        return stack

    def _first_row(self, side: str, kind: str, j: int) -> np.ndarray:
        """Levels 1..n_max of an M = 1 first row outside the climb, one bracket
        over all levels: real_plus (1, j > 2) brackets real_plus (1, 2) with the
        level-zero real_plus (2, j), and real_wrap (1, j < dim) brackets the
        level-zero real_plus (j, j+1) with real_wrap (1, j+1)."""
        if kind == "real_plus":
            keys = ("real_plus", 1, 2, 1), ("real_plus", 2, j, 0)
            x, y = self._levels(side, *keys[0][:3]), self._level_zero(side, *keys[1][:3])
        else:
            keys = ("real_plus", j, j + 1, 0), ("real_wrap", 1, j + 1, 1)
            x, y = self._level_zero(side, *keys[0][:3]), self._levels(side, *keys[1][:3])
        c = self._c(side, *keys)
        return _bracket(x, y, c) if side == "e" else _bracket(y, x, c)

    def _primed_from(self, side: str, plus: np.ndarray) -> np.ndarray:
        """The primed vectors one level above the adjacent-row entries plus,
        shape (..., L, dim, dim): the one attached to alpha_i brackets
        real_plus (i, i+1) with the level-zero real_wrap (i, i+1)."""
        rank = self.rep.rank
        attach = range(1, rank.L + 1)
        wraps = np.array([self._level_zero(side, "real_wrap", i, i + 1) for i in attach])
        c = np.array([self._c(side, ("real_plus", i, i + 1, 0), ("real_wrap", i, i + 1, 0))
                      for i in attach])[:, None, None]
        sign = np.array([-1.0 if rank.simple_parity(i) else 1.0 for i in attach])[:, None, None]
        return _bracket(plus, wraps, c, sign) if side == "e" else _bracket(wraps, plus, c, sign)

    def _primed_one(self, side: str) -> np.ndarray:
        """The primed vectors at level one, which every climb brackets with."""
        adjacent = range(1, self.rep.rank.L + 1)
        return self._cached((side, "prime", 1), lambda: self._primed_from(side, np.array(
            [self._level_zero(side, "real_plus", i, i + 1) for i in adjacent])))

    def _unprimed(self, side: str, primed: np.ndarray) -> np.ndarray:
        """The generating function of the unprimed family attached to alpha_i
        is the series log of 1 -+ (q_i - q_i^{-1}) times the primed one, taken
        entrywise on the diagonals of all families at once."""
        rank, ctx, dim = self.rep.rank, self.rep.ctx, self.rep.rank.dim
        kappa = np.array([ctx.qpow(rank.d(i)) - ctx.qpow(-rank.d(i))  # q_i - q_i^{-1}
                          for i in range(1, rank.L + 1)])[:, None]
        sign = -1.0 if side == "e" else 1.0
        mats = primed.reshape(-1, dim, dim)
        off = np.abs(mats * (1.0 - np.eye(dim))).max(axis=(1, 2), initial=0.0)
        scale = np.maximum(1.0, np.abs(mats).max(axis=(1, 2), initial=0.0))
        if np.any(off > 1e-12 * scale):
            raise AssertionError("primed imaginary vector is not diagonal")
        diags = np.diagonal(mats, axis1=1, axis2=2).reshape(self.n_max, rank.L, dim)
        coeffs = np.ones((self.n_max + 1, rank.L * dim), dtype=complex)
        coeffs[1:] = ((sign * kappa) * diags).reshape(self.n_max, rank.L * dim)
        log = series_log(coeffs, tol=1e-9)[1:].reshape(self.n_max, rank.L, dim)
        return (sign / kappa) * log


def _check_side(side: str) -> None:
    if side not in ("e", "f"):
        raise ValueError(f"side must be 'e' or 'f', got {side!r}")


def _bracket(x: np.ndarray, y: np.ndarray, c, factor=None) -> np.ndarray:
    """The one bracket of the recursion, x y - c y x, rescaled unless factor is
    None: the q-supercommutator of two same-sign root vectors, with x, y in
    rule order on the e side and swapped on the f side.  It broadcasts over
    leading axes, with c and factor scalars or arrays of shape (rows, 1, 1)."""
    mat = x @ y - c * (y @ x)
    return mat if factor is None else factor * mat


def _key_root(rank: SuperRank, key: tuple) -> AffineRoot:
    """The e-side root of a real (kind, i, j, n) or primed ("prime", n, i) key."""
    if key[0] == "prime":
        return imaginary_root(rank, key[1], key[2])
    return _ROOT[key[0]](rank, *key[1:])


def build_root_vectors(rep: EvaluationRep, n_max: int,
                       with_unprimed: bool = True) -> RootVectorTable:
    """The table of root-vector images up to n_max deltas.  Every piece is
    computed on its first read, so with_unprimed changes nothing; it is kept
    with unprimed_imaginary for the two-step build that bench/workloads.py
    times layer by layer."""
    return RootVectorTable(rep, n_max)


def unprimed_imaginary(table: RootVectorTable) -> RootVectorTable:
    """The table as it is.  The unprimed vectors are computed on the first
    call of unprimed_diagonals; computing them here would climb both sides of
    every table.  Kept because bench/workloads.py times it as its own layer."""
    return table


# -- closed forms ----------------------------------------------------------

def real_root_monomial(rep: EvaluationRep, root: AffineRoot, which: str):
    """Monomial data (zeta_power, sign, q_power, (row, col)) of a real-root
    image: the image equals sign * zeta**zeta_power * q**q_power * E_row,col."""
    rank, grading = rep.rank, rep.grading
    kind = classify(rank, root)
    if kind[0] not in ("real_plus", "real_wrap"):
        raise ValueError(f"not a real positive root: {root}")
    _, i, j, n = kind
    m, s = rank.m, grading.total
    sij = grading.partial(i, j)
    if kind[0] == "real_plus":
        if i < m and j == i + 1:
            se, qp = n * (i + 1), n * (i + 1)
        elif i < m:
            se, qp = n * (i + 1), n * i
        else:
            se, qp = n * i, n * (2 * m - i + 1)
        zp = sij + n * s
        unit = (i, j)
        if which == "f":
            # mirrored monomial: inverse powers, level sign shifted by (-1)^n
            se, qp, zp, unit = se + n, -qp, -zp, (j, i)
    else:
        if i < m and j == i + 1:
            se, qp = (n + 1) * i + n, (n + 1) * i + n
        elif i < m:
            se, qp = (n + 1) * i + n, (n + 1) * i
        elif i == m:
            se, qp = (n + 1) * m, (n + 1) * m + n
        else:
            se, qp = (n + 1) * i + 1, (n + 1) * (2 * m - i + 1) + 1
        zp = (s - sij) + n * s
        unit = (j, i)
        if which == "f":
            se, qp, zp, unit = se + n + 1, -qp, -zp, (i, j)
    return zp, (-1) ** (se % 2), qp, unit


def closed_form_root_vector(rep: EvaluationRep, root: AffineRoot, which: str = "e") -> np.ndarray:
    """Closed-form image of a real positive-root vector (which = 'e' or 'f')."""
    zp, sgn, qp, (a, b) = real_root_monomial(rep, root, which)
    coeff = sgn * (rep.zeta ** zp) * rep.ctx.qpow(qp)
    return coeff * matrix_unit(rep.rank.dim, a, b)


def closed_form_imaginary(rep: EvaluationRep, n: int, i: int, which: str = "e",
                          primed: bool = False) -> np.ndarray:
    """Closed-form image of an imaginary-root vector at level n, attached to
    simple root i: a diagonal matrix supported on slots {i, i+1}."""
    if n < 1:
        raise ValueError("imaginary level must be >= 1")
    if not 1 <= i <= rep.rank.L:
        raise ValueError("attachment index out of range")
    rank, ctx = rep.rank, rep.ctx
    m, s = rank.m, rep.grading.total
    esign = 1 if which == "e" else -1
    k = 1 if primed else n  # exponent of q in the block
    # (q-power unprimed, q-power primed, weight of E_{i+1,i+1} against E_ii)
    if i < m:
        qp, qp_primed, other = n * i, n * (i + 1) - 1, ctx.qpow(2 * k * esign)
    elif i == m:
        qp, qp_primed, other = n * m, n * (m + 1) - 1, -1.0
    else:
        qp, qp_primed, other = (n * (2 * m - i + 2), n * (2 * m - i + 1) + 1,
                                ctx.qpow(-2 * k * esign))
    se = n * i + 1 + (n if (which == "e") == (i < m) else 0)
    scale = 1.0 if primed else ctx.qnum(n) / n
    coeff = ((-1) ** (se % 2)) * (rep.zeta ** (esign * n * s)) \
        * ctx.qpow(esign * (qp_primed if primed else qp)) * scale
    return coeff * (matrix_unit(rank.dim, i, i) - other * matrix_unit(rank.dim, i + 1, i + 1))


# -- level-n pairing matrices -----------------------------------------------

def t_matrix(rank: SuperRank, ctx, n: int) -> np.ndarray:
    """T_n with entries [n B_ij]_q / n = ([n]_q / n) [B_ij]_{q**n} over the
    finite Cartan indices."""
    if n < 1:
        raise ValueError("n must be positive")
    return (ctx.qnum(n) / n) * bq_matrix(rank, ctx, scale=n)


def u_matrices(rank: SuperRank, ctx, levels) -> np.ndarray:
    """U_n = T_n^{-1} for every n in levels, shape (len(levels), L, L): one
    evaluation of the closed-form q-Cartan inverse at the bases q**n,
    rescaled via [n b]_q = [n]_q [b]_{q**n}."""
    levels = np.asarray(levels, dtype=int).reshape(-1)
    if np.any(levels < 1):
        raise ValueError("n must be positive")
    qn = ctx.qnum(levels)
    bad = np.abs(qn) <= ctx.tolerance
    if np.any(bad):
        raise DegenerateQError(f"[{levels[bad][0]}]_q vanishes")
    return (levels / qn)[:, None, None] * bq_inverse_closed(rank, ctx, scale=levels)


def u_matrix(rank: SuperRank, ctx, n: int) -> np.ndarray:
    """U_n = T_n^{-1}: the level-n slice of u_matrices."""
    return u_matrices(rank, ctx, [n])[0]


def a_gamma(rep: EvaluationRep, table: RootVectorTable, root: AffineRoot) -> complex:
    """Normalization a solving [e_g, f_g] = a (q^{h_g} - q^{-h_g})/(q - q^{-1})
    in the representation (least squares over the diagonal)."""
    rank, ctx = rep.rank, rep.ctx
    w = q_supercommutator(rank, ctx, graded_element(rank, root, table.real("e", root)),
                          graded_element(rank, -root, table.real("f", root))).matrix
    hc = h_gamma(rank, root)
    target = (rep.cartan_weight_diag(hc, 1.0) - rep.cartan_weight_diag(hc, -1.0)) / (
        ctx.qpow(1) - ctx.qpow(-1)
    )
    wd = np.diag(w)
    off = w - np.diag(wd)
    denom = np.vdot(target, target)
    if abs(denom) == 0:
        raise ZeroDivisionError("degenerate pairing target")
    a = complex(np.vdot(target, wd) / denom)
    resid = max(
        float(np.max(np.abs(wd - a * target))),
        float(np.max(np.abs(off))) if off.size else 0.0,
    )
    scale = max(1.0, float(np.max(np.abs(wd))))
    if resid > 1e-8 * scale:
        raise ArithmeticError(
            f"pairing of e and f vectors at {root} is not proportional to the "
            f"Cartan combination (residual {resid:.2e})"
        )
    return a
