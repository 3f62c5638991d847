"""Recursive construction of loop-algebra root vectors in the evaluation
representation, their closed forms, and the level-n pairing matrices.

The recursion seeds the finite ladder operators with the simple generator
images, wraps around the affine node for the (delta - alpha_ij) family, and
climbs in the imaginary direction by bracketing with level-one diagonal
vectors, each such bracket only rescaling every entry of the vector it
climbs.  Every real-root image is a monomial in zeta and q times a single
matrix unit; the diagonal (imaginary) vectors come in a primed family
straight out of the recursion and an unprimed family, the logarithm of the
primed generating function.

The climb brackets row (i, j) with the primed vector attached to alpha_i for
i < M and to alpha_{i-1} for i >= M (the detour avoids the isotropic node,
where the q-number normalizer would vanish).  At M = 1 the first row has no
left neighbor; its ladder is instead normalized through the level-pairing
identity against the unprimed vector of the adjacent node, longer first-row
roots are composed from the simple one, and the wrap row brackets with the
isotropic level-one vector, rescaled so its per-level multiplier matches the
generic odd-node wrap row.  All rows then satisfy one closed-form table.

A row climbs by bracketing with the primed level-one vector of its
attachment.  Because (delta | .) = 0 and delta is even, that bracket has
coefficient 1, and the vector is diagonal, so the bracket only rescales each
entry: a climb is level zero times the cumulative product, over the levels,
of one entrywise step per row, and the order of the operands is the sign of
the step.  Each generator image is one matrix unit, so the adjacent row
real_plus (i, i+1) at level n is its generator times s_i^n, s_i its step at
that entry, and the primed vectors attached to alpha_i are s_i^(n-1) times
the level-one one: their generating function is rational, and its log, the
unprimed generating function, has closed-form coefficients.

A table builds each side ("e" or "f") in two parts, each once, on its first
read: the series part, everything the imaginary-sector series reads (the
generators from one e_stack or f_stack, the level-zero wraps one bracket
each, the primed level-one vectors in one bracket, then the primed and
unprimed vectors of all levels from s_i), and the rest, read only by real()
of any other entry (the finite-ladder level-zero entries, levels 1..n_max of
every climbing row as one climb and, at M = 1, each first row outside the
climb as one bracket over all its levels).  A pipeline build climbs no row
and never builds the rest.  The pairing inverses U_n of all levels come from
one array-valued evaluation of the q-Cartan inverse (u_matrices).

Readers get bare read-only arrays: real(side, root) for every real positive
root with at most n_max deltas (KeyError for any other root), primed(side) at
levels 1..max(1, n_max) and unprimed_diagonals(side, n) at levels
1..n <= n_max.  A caller that needs a root-graded element, as
q_supercommutator does, tags the array with graded_element itself.
"""

from __future__ import annotations

import functools

import numpy as np

from .gradedmatrix import graded_element, matrix_unit, q_supercommutator
from .reps import EvaluationRep, GradingVector
from .rootdata import (
    AffineRoot,
    SuperRank,
    bilinear,
    cartan_data,
    classify,
    h_gamma,
    parity,
    real_plus_root,
    real_wrap_root,
    simple_root,
)
from .scalars import DegenerateQError
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


@functools.lru_cache(maxsize=None)
def _classify(rank: SuperRank, root: AffineRoot) -> tuple:
    """classify(rank, root), kept per root for the lookups of RootVectorTable.real."""
    return classify(rank, root)


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
    """((x | y), whether both are odd) for the e-side roots of two rows
    (kind, i, j) at level zero; neither depends on the level."""
    x, y = (_ROOT[kind](rank, i, j) for kind, i, j in (x, y))
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

    One rule set computes both sides ("e" or "f"), which differ in the sign of
    the roots, in the order of the operands and in the coefficients.  Each side
    has two parts, each built once, on its first read, and kept read-only in
    its own cache, side -> arrays: _series for the series part and _rest for
    the rest (see the module docstring).  Real entries sit in a dict "zero"
    of level-zero entries, row (kind, i, j) -> (dim, dim), and, in the rest, a
    dict "levels" of levels 1..n_max, row -> (n_max, dim, dim).
    """

    def __init__(self, rep: EvaluationRep, n_max: int):
        if n_max < 0:
            raise ValueError(f"n_max must be nonnegative, got {n_max}")
        self.rep, self.n_max = rep, n_max
        self._series, self._rest = {}, {}
        self._rows = _climbing_rows(rep.rank)
        # computed here so that a degenerate q fails when the table is built
        self._ladder = _ladder_factors(rep.rank, rep.ctx, self._rows) if n_max >= 1 else {}

    def real(self, side: str, root: AffineRoot) -> np.ndarray:
        """The image of the real positive root vector at root on one side;
        KeyError for any other root or one with more than n_max deltas."""
        _check_side(side)
        kind = _classify(self.rep.rank, root)
        if kind[0] not in _ROOT or kind[3] > self.n_max:
            raise KeyError(f"no real root vector at {root} with at most {self.n_max} deltas")
        row, n = kind[:3], kind[3]
        zero = self._series_part(side)["zero"]
        if n == 0 and row in zero:
            return zero[row]
        part = self._rest_part(side)
        return part["zero"][row] if n == 0 else part["levels"][row][n - 1]

    def primed(self, side: str) -> np.ndarray:
        """The primed vectors at levels 1..max(1, n_max)."""
        _check_side(side)
        return self._series_part(side)["primed"]

    def unprimed_diagonals(self, side: str, n: int) -> np.ndarray:
        """The diagonals of the unprimed imaginary vectors of one side at
        levels 1..n, shape (n, L, dim); KeyError for n > n_max."""
        _check_side(side)
        if n < 0:
            raise ValueError(f"level count must be nonnegative, got {n}")
        if n > self.n_max:
            raise KeyError(f"unprimed imaginary vectors at level {n} exceed n_max = {self.n_max}")
        return self._series_part(side)["unprimed"][:n]

    def _series_part(self, side: str) -> dict:
        if side not in self._series:
            self._series[side] = _read_only(self._build_series(side))
        return self._series[side]

    def _rest_part(self, side: str) -> dict:
        if side not in self._rest:
            self._rest[side] = _read_only(self._build_rest(side))
        return self._rest[side]

    def _build_series(self, side: str) -> dict:
        """The series part of one side (see the module docstring): s_i is the
        climb step of real_plus (i, i+1) at the one entry of its generator."""
        rank = self.rep.rank
        dim, attach = rank.dim, range(1, rank.L + 1)
        gens = self.rep.e_stack() if side == "e" else self.rep.f_stack()
        units = np.abs(gens[1:]).reshape(rank.L, -1).argmax(axis=1)
        _require_support(gens[1:], np.arange(dim * dim).reshape(dim, dim) == units[:, None, None],
                         "generator image is not a single matrix unit")
        zero = {("real_wrap", 1, dim): gens[0]}
        zero.update((("real_plus", i, i + 1), gens[i]) for i in attach)
        self._add_zero_entries(side, zero, [("real_wrap", i, j) for i in range(1, dim)
                                            for j in range(dim, i, -1) if (i, j) != (1, dim)])
        wraps = np.array([zero["real_wrap", i, i + 1] for i in attach])
        level_one = self._primed_from(side, gens[1:], wraps)
        p = _diagonals(level_one, "primed level-one vector")
        s = np.zeros(rank.L, dtype=complex)  # not read at n_max = 0, which has no ladder
        if self.n_max:
            steps = self._steps(side, list(self._rows)[:rank.L], p)
            s = steps.reshape(rank.L, -1)[np.arange(rank.L), units]
        powers = s ** np.arange(max(1, self.n_max))[:, None]
        return {"zero": zero, "p": p, "primed": powers[:, :, None, None] * level_one,
                "unprimed": self._unprimed(side, s, p)}

    def _build_rest(self, side: str) -> dict:
        """The rest of one side (see the module docstring).  At M = 1,
        real_plus (1, j > 2) brackets real_plus (1, 2) with the level-zero
        real_plus (2, j), and real_wrap (1, j < dim) the level-zero real_plus
        (j, j+1) with real_wrap (1, j+1), so the wrap rows go from j = dim - 1 down."""
        rank, series = self.rep.rank, self._series_part(side)
        dim = rank.dim
        zero = dict(series["zero"])
        ladders = [("real_plus", i, j) for i in range(1, dim - 1) for j in range(i + 2, dim + 1)]
        self._add_zero_entries(side, zero, ladders)
        rows = list(self._rows)
        climb = self._climb(side, rows, np.array([zero[row] for row in rows]), series["p"])
        levels = {row: climb[1:, r] for r, row in enumerate(rows)}
        if rank.m == 1:
            for j in range(3, dim + 1):
                x, y = ("real_plus", 1, 2), ("real_plus", 2, j)
                levels["real_plus", 1, j] = _side_bracket(side, levels[x], zero[y],
                                                          self._c(side, x, y))
            for j in range(dim - 1, 1, -1):
                x, y = ("real_plus", j, j + 1), ("real_wrap", 1, j + 1)
                levels["real_wrap", 1, j] = _side_bracket(side, zero[x], levels[y],
                                                          self._c(side, x, y))
        return {"zero": {row: zero[row] for row in ladders}, "levels": levels}

    def _c(self, side: str, x: tuple, y: tuple) -> complex:
        """c = (-1)^([x][y]) q^(-+(x|y)) of the bracket of the entries of the
        rows x and y."""
        pair, odd = _pairing(self.rep.rank, x, y)
        return (-1.0 if odd else 1.0) * self.rep.ctx.qpow(-pair if side == "e" else pair)

    def _add_zero_entries(self, side: str, zero: dict, rows: list) -> None:
        """Add the level-zero entries of rows to zero, each the bracket of two
        entries already there, so rows come in the order of their inputs."""
        for row in rows:
            x, y = _level_zero_inputs(self.rep.rank, *row)
            zero[row] = _side_bracket(side, zero[x], zero[y], self._c(side, x, y))

    def _steps(self, side: str, rows: list, p: np.ndarray) -> np.ndarray:
        """The entrywise climb step of each row, shape (rows, dim, dim), from
        the diagonals p of the primed level-one vectors: the bracket [X, P]
        of a real_plus row has entries X_ab (p_b - p_a), [P, X] of a
        real_wrap row their negatives, each times the ladder factor."""
        p = p[[self._rows[row][0] - 1 for row in rows]]
        factor = np.array([self._ladder[row][0 if side == "e" else 1]
                           * (1.0 if (row[0] == "real_plus") == (side == "e") else -1.0)
                           for row in rows])[:, None, None]
        return factor * (p[:, None, :] - p[:, :, None])

    def _climb(self, side: str, rows: list, zero: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Levels 0..n_max of climbing rows as one (n_max + 1, rows, dim, dim)
        stack: level zero times the cumulative product of their steps."""
        stack = np.empty((self.n_max + 1,) + zero.shape, dtype=complex)
        stack[0] = zero
        if self.n_max:
            np.cumprod(np.broadcast_to(self._steps(side, rows, p), stack[1:].shape),
                       axis=0, out=stack[1:])
            stack[1:] *= stack[0]
        return stack

    def _primed_from(self, side: str, plus: np.ndarray, wraps: np.ndarray) -> np.ndarray:
        """The primed vectors one level above the adjacent-row entries plus,
        shape (..., L, dim, dim): the one attached to alpha_i brackets
        real_plus (i, i+1) with the level-zero real_wrap (i, i+1), wraps[i-1]."""
        rank = self.rep.rank
        attach = range(1, rank.L + 1)
        c = np.array([self._c(side, ("real_plus", i, i + 1), ("real_wrap", i, i + 1))
                      for i in attach])[:, None, None]
        sign = np.array([-1.0 if rank.simple_parity(i) else 1.0 for i in attach])[:, None, None]
        return _side_bracket(side, plus, wraps, c, sign)

    def _unprimed(self, side: str, s: np.ndarray, p: np.ndarray) -> np.ndarray:
        """The unprimed diagonals at levels 1..n_max, (n_max, L, dim), from
        the ratios s and level-one diagonals p of the primed families: the
        log of 1 + sigma kappa_i sum_n P_n x^n over sigma kappa_i, with
        kappa_i = q_i - q_i^{-1}, sigma = -1 on e and +1 on f.  Entrywise its
        argument is (1 - t x)/(1 - s_i x), t = s_i - sigma kappa_i p, so level
        n is (s_i^n - t^n)/n over sigma kappa_i."""
        rank, ctx = self.rep.rank, self.rep.ctx
        kappa = np.array([ctx.qpow(rank.d(i)) - ctx.qpow(-rank.d(i))
                          for i in range(1, rank.L + 1)])[:, None]
        sign = -1.0 if side == "e" else 1.0
        n, s = np.arange(1, self.n_max + 1)[:, None, None], s[:, None]
        return (sign / kappa) * (s ** n - (s - sign * kappa * p) ** n) / n


def _check_side(side: str) -> None:
    if side not in ("e", "f"):
        raise ValueError(f"side must be 'e' or 'f', got {side!r}")


def _read_only(part: dict) -> dict:
    """Mark every array of a part read-only: the accessors hand out the arrays
    themselves, so a caller's write must not change later reads."""
    for value in part.values():
        for array in value.values() if isinstance(value, dict) else (value,):
            array.setflags(write=False)
    return part


def _require_support(mats: np.ndarray, support: np.ndarray, what: str) -> None:
    """Raise AssertionError(what) unless every entry of a stack of square
    matrices is finite and every one outside the boolean mask support is
    within 1e-12 of max(1, the largest entry of its matrix)."""
    mags = np.abs(mats)
    scale = np.maximum(1.0, mags.max(axis=(-2, -1), initial=0.0))
    off = np.where(support, 0.0, mags).max(axis=(-2, -1), initial=0.0)
    if not (np.all(np.isfinite(mats)) and np.all(off <= 1e-12 * scale)):
        raise AssertionError(what)


def _diagonals(mats: np.ndarray, what: str) -> np.ndarray:
    """The diagonals of a stack of square matrices, each of which must be
    diagonal (see _require_support)."""
    _require_support(mats, np.eye(mats.shape[-1], dtype=bool), f"{what} is not diagonal")
    return np.diagonal(mats, axis1=-2, axis2=-1)


def _bracket(x: np.ndarray, y: np.ndarray, c, factor=None) -> np.ndarray:
    """The one bracket of the recursion, x y - c y x, rescaled unless factor is
    None.  It broadcasts over leading axes, with c and factor scalars or
    arrays of shape (rows, 1, 1)."""
    mat = x @ y - c * (y @ x)
    return mat if factor is None else factor * mat


def _side_bracket(side: str, x: np.ndarray, y: np.ndarray, c, factor=None) -> np.ndarray:
    """The q-supercommutator of two same-sign root vectors given in e-side rule
    order: _bracket(x, y) on the e side, _bracket(y, x) on the f side."""
    return _bracket(x, y, c, factor) if side == "e" else _bracket(y, x, c, factor)


def build_root_vectors(rep: EvaluationRep, n_max: int,
                       with_unprimed: bool = True) -> RootVectorTable:
    """The table of root-vector images up to n_max deltas.  Each part is built
    on its first read, so with_unprimed changes nothing; it is kept with
    unprimed_imaginary for the two-step build bench/workloads.py times."""
    return RootVectorTable(rep, n_max)


def unprimed_imaginary(table: RootVectorTable) -> RootVectorTable:
    """The table as it is: the unprimed vectors of a side are built on its
    first read, and building them here would build both sides of every table."""
    return table


# -- closed forms ----------------------------------------------------------

def real_root_monomial(rank: SuperRank, grading: GradingVector, root: AffineRoot, which: str):
    """Monomial data (zeta_power, sign, q_power, (row, col)) of a real-root
    image under any evaluation representation of this rank and grading: the
    image equals sign * zeta**zeta_power * q**q_power * E_row,col."""
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
    zp, sgn, qp, (a, b) = real_root_monomial(rep.rank, rep.grading, root, which)
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
    denom = np.vdot(target, target)
    if abs(denom) == 0:
        raise ZeroDivisionError("degenerate pairing target")
    a = complex(np.vdot(target, wd) / denom)
    resid = float(np.max(np.abs(w - np.diag(a * target))))
    if not resid <= 1e-8 * max(1.0, float(np.max(np.abs(wd)))):
        raise ArithmeticError(f"pairing of e and f vectors at {root} is not proportional to "
                              f"the Cartan combination (residual {resid:.2e})")
    return a
