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
left neighbor; it climbs by the vector attached to alpha_2 under the same
rule, longer first-row roots are composed from the simple one, and the wrap
row, the isotropic modification, brackets with the isotropic level-one
vector, rescaled so its per-level multiplier matches the generic odd-node
wrap row.  All rows then satisfy one closed-form table.

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

Every other bracket of the recursion goes through the one rule of
gradedmatrix, passed the level-zero roots of the two rows whose entries it
brackets, negated on the f side: for the same reason one rule serves every
level.  A table keeps every real row as its one matrix unit, a fixed (row,
col), and its coefficients over the levels; each bracket is
gradedmatrix.unit_supercommutator, one or two complex products at known
positions, on one coefficient or on the coefficients of all levels at once.
The primed and unprimed vectors are kept as their diagonals.

A table builds each side ("e" or "f") in two parts, each once, on its first
read: the series part, everything the imaginary-sector series reads (the
generators from one e_stack or f_stack, the level-zero wraps one unit
bracket each, the primed level-one diagonals one unit bracket per
attachment, s_i and the unprimed diagonals of all levels), and the rest,
read only by real() of any other entry (the finite-ladder level-zero
entries, one unit bracket each, the coefficients of every climbing row at
levels 1..n_max as one cumulative product and, at M = 1, of each first row
outside the climb as one unit bracket over those levels).  A pipeline build
climbs no row and never builds the rest.  The ladder factors of all rows
come from one evaluation of their q-numbers, and the pairing inverses U_n
of all levels from one evaluation of the q-Cartan inverse, gathered by its
integer table (u_matrices).

Readers get bare read-only arrays: real(side, root), one (dim, dim) matrix,
for every real positive root with at most n_max deltas (KeyError for any
other root), primed_diagonals(side) at levels 1..max(1, n_max) and
unprimed_diagonals(side, n) at levels 1..n <= n_max.
"""

from __future__ import annotations

import cmath
import functools

import numpy as np

from .gradedmatrix import matrix_unit, q_supercommutator, unit_supercommutator
from .reps import EvaluationRep, GradingVector
from .rootdata import (
    AffineRoot,
    SuperRank,
    bilinear,
    cartan_data,
    classify,
    h_gamma,
    real_plus_root,
    real_wrap_root,
    simple_root,
)
from .tridiag import bq_inverse_closed, bq_matrix

__all__ = [
    "RootVectorTable",
    "build_root_vectors",
    "unprimed_imaginary",
    "real_root_monomial",
    "closed_form_root_vector",
    "closed_form_imaginary",
    "t_matrix",
    "u_matrices",
    "a_gamma",
]

_ROOT = {"real_plus": real_plus_root, "real_wrap": real_wrap_root}


@functools.lru_cache(maxsize=None)
def _climbing_rows(rank: SuperRank) -> dict:
    """The rows that climb by a primed level-one vector, the L adjacent rows
    real_plus (i, i+1) first and in the order of i, as the primed vectors are:
    (kind, i, j) -> (attachment a, (alpha_ij | alpha_a)); the pairing is None
    on the M = 1 wrap row, which is normalized otherwise (see the module
    docstring)."""
    dim = rank.dim
    rows = dict.fromkeys(("real_plus", i, i + 1) for i in range(1, dim))
    for i in range(2 if rank.m == 1 else 1, dim):
        a = i if i < rank.m else i - 1
        for j in range(i + 1, dim + 1):
            pairing = bilinear(rank, real_plus_root(rank, i, j), simple_root(rank, a))
            rows["real_plus", i, j] = rows["real_wrap", i, j] = (a, pairing)
    if rank.m == 1:
        pairing = bilinear(rank, real_plus_root(rank, 1, 2), simple_root(rank, 2))
        rows["real_plus", 1, 2], rows["real_wrap", 1, dim] = (2, pairing), (1, None)
    return rows


@functools.lru_cache(maxsize=None)
def _classify(rank: SuperRank, root: AffineRoot) -> tuple:
    """classify(rank, root), kept per root for the lookups of RootVectorTable.real."""
    return classify(rank, root)


@functools.lru_cache(maxsize=None)
def _zero_rows(rank: SuperRank, part: str) -> tuple:
    """The rows whose level-zero entries a part of a table brackets, each with
    the two rows its level-zero rule brackets, in e-side order, and listed
    after both: for "series" the wraps but the affine generator, a seed
    (i, dim) stepping from (i-1, i) and (i-1, dim), the others (i, j) from
    (j, j+1) and (i, j+1); for "rest" the finite ladders (i, j) from (i, j-1)
    and (j-1, j)."""
    dim = rank.dim
    if part == "series":
        return tuple((("real_wrap", i, j), (("real_plus", i - 1, i), ("real_wrap", i - 1, j))
                      if j == dim else (("real_plus", j, j + 1), ("real_wrap", i, j + 1)))
                     for i in range(1, dim) for j in range(dim, i, -1) if (i, j) != (1, dim))
    return tuple((("real_plus", i, j), (("real_plus", i, j - 1), ("real_plus", j - 1, j)))
                 for i in range(1, dim - 1) for j in range(i + 2, dim + 1))


@functools.lru_cache(maxsize=None)
def _row_roots(rank: SuperRank, side: str) -> dict:
    """The level-zero root of every row (kind, i, j), negated on the f side:
    the weight a bracket passes for the row's entries at any level, since
    (delta | .) = 0 and delta is even."""
    dim = rank.dim
    roots = {(kind, i, j): _ROOT[kind](rank, i, j)
             for kind in _ROOT for i in range(1, dim) for j in range(i + 1, dim + 1)}
    return roots if side == "e" else {row: -root for row, root in roots.items()}


@functools.lru_cache(maxsize=None)
def _ladder_table(rank: SuperRank) -> tuple:
    """The integer data of the climbing rows, in the order of _climbing_rows,
    as arrays: the 0-based attachment, the pairing whose q-number the ladder
    factor divides by (1 on the M = 1 wrap row), the sign -1 when alpha_a is
    odd, the mask of the M = 1 wrap row and the kind, +1 on real_plus and -1
    on real_wrap rows."""
    rows = _climbing_rows(rank)
    attach = np.array([a - 1 for a, _ in rows.values()])
    nus = np.array([1 if pairing is None else pairing for _, pairing in rows.values()])
    sign = np.array([-1.0 if rank.simple_parity(a) else 1.0 for a, _ in rows.values()])
    wrap = np.array([pairing is None for _, pairing in rows.values()])
    plus = np.array([1.0 if kind == "real_plus" else -1.0 for kind, _, _ in rows])
    return attach, nus, sign, wrap, plus


@functools.lru_cache(maxsize=16)
def _ladder_factors(rank: SuperRank, ctx) -> np.ndarray:
    """The factors of the delta ladder of the climbing rows as a (2, rows)
    array, on e and on f, from one evaluation of their q-numbers; the M = 1
    wrap row has q on e and 1/q on f.  Kept for the few latest (rank, q), so
    that the two tables of one build share them."""
    _, nus, sign, wrap, _ = _ladder_table(rank)
    ladder = np.stack([sign / ctx.qnum_nonzero(nus)] * 2)
    ladder[:, wrap] = [[ctx.qpow(1)], [ctx.qpow(-1)]]
    ladder.setflags(write=False)
    return ladder


class RootVectorTable:
    """Images of the root vectors under one evaluation representation up to
    n_max deltas, handed out as arrays by three accessors:

    - real(side, root): the (dim, dim) image of a real positive root with at
      most n_max deltas, of e_root on the e side and of f_root on the f side;
    - primed_diagonals(side): the diagonals of the primed vectors at levels
      1..max(1, n_max), shape (levels, L, dim);
    - unprimed_diagonals(side, n): the diagonals of the unprimed vectors at
      levels 1..n, shape (n, L, dim).

    One rule set computes both sides ("e" or "f"), which differ in the sign of
    the roots, in the order of the operands and in the coefficients.  Each side
    has two parts, each built once, on its first read, and kept in its own
    cache, side -> dict: _series for the series part and _rest for the rest
    (see the module docstring).  Every real row (kind, i, j) is one matrix
    unit at one 0-based (row, col) on all levels: the series part keeps the
    level-zero entries it brackets in a dict "zero", row -> (row, col,
    coefficient), and the rest is a dict of every row, row -> (row, col,
    coefficients at levels 0..n_max).
    """

    def __init__(self, rep: EvaluationRep, n_max: int):
        if n_max < 0:
            raise ValueError(f"n_max must be nonnegative, got {n_max}")
        self.rep, self.n_max = rep, n_max
        self._series, self._rest = {}, {}
        # computed here so that a degenerate q fails when the table is built
        self._ladder = _ladder_factors(rep.rank, rep.ctx) if n_max >= 1 else None

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
            r, c, coeff = zero[row]
        else:
            r, c, coeffs = self._rest_part(side)[row]
            coeff = coeffs[n]
        out = np.zeros((self.rep.rank.dim,) * 2, dtype=complex)
        out[r, c] = coeff
        return _read_only(out)

    def primed_diagonals(self, side: str) -> np.ndarray:
        """The diagonals of the primed vectors at levels 1..max(1, n_max),
        shape (levels, L, dim): level n is s_i^(n-1) times level one."""
        _check_side(side)
        part = self._series_part(side)
        powers = part["s"] ** np.arange(max(1, self.n_max))[:, None]
        return _read_only(powers[:, :, None] * part["p"])

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
            self._series[side] = self._build_series(side)
        return self._series[side]

    def _rest_part(self, side: str) -> dict:
        if side not in self._rest:
            self._rest[side] = self._build_rest(side)
        return self._rest[side]

    def _build_series(self, side: str) -> dict:
        """The series part of one side (see the module docstring): s_i is the
        climb step of real_plus (i, i+1) at the one entry of its generator."""
        rank = self.rep.rank
        dim, L = rank.dim, rank.L
        gens = self.rep.e_stack() if side == "e" else self.rep.f_stack()
        units = np.abs(gens).reshape(L + 1, -1).argmax(axis=1)
        _require_support(gens, np.arange(dim * dim).reshape(dim, dim) == units[:, None, None],
                         "generator image is not a single matrix unit")
        rows, cols = np.divmod(units, dim)
        coeffs = gens.reshape(L + 1, -1)[np.arange(L + 1), units]
        zero = dict(zip([("real_wrap", 1, dim)] + [("real_plus", i, i + 1) for i in range(1, dim)],
                        zip(rows.tolist(), cols.tolist(), coeffs.tolist())))
        self._add_zero_entries(side, zero, "series")
        p = _diagonals(self._primed_level_one(side, zero), (L, dim), "primed level-one vector")
        s = np.zeros(L, dtype=complex)  # not read at n_max = 0, which has no ladder
        if self.n_max:
            s = self._steps(side, p, rows[1:], cols[1:])
        unprimed = self._unprimed(side, s, p)
        return {"zero": zero, "s": _read_only(s), "p": _read_only(p),
                "unprimed": _read_only(unprimed)}

    def _build_rest(self, side: str) -> dict:
        """The rest of one side (see the module docstring).  A climbing row
        at levels 1..n_max is its level zero times the cumulative product of
        its step.  At M = 1, real_plus (1, j > 2) brackets real_plus (1, 2)
        with the level-zero real_plus (2, j), and real_wrap (1, j < dim) the
        level-zero real_plus (j, j+1) with real_wrap (1, j+1), so the wrap rows
        go from j = dim - 1 down: each is one unit bracket over levels 1..n_max,
        which must come out as one entry."""
        rank, ctx, series = self.rep.rank, self.rep.ctx, self._series_part(side)
        dim, roots = rank.dim, _row_roots(rank, side)
        zero = dict(series["zero"])
        self._add_zero_entries(side, zero, "rest")
        climbing = list(_climbing_rows(rank))
        rows, cols, coeffs = (np.array(a) for a in zip(*(zero[row] for row in climbing)))
        levels = np.empty((self.n_max + 1, len(climbing)), dtype=complex)
        levels[0] = coeffs
        if self.n_max:
            np.cumprod(np.broadcast_to(self._steps(side, series["p"], rows, cols),
                                       levels[1:].shape), axis=0, out=levels[1:])
            levels[1:] *= levels[0]
        rest = {row: (*zero[row][:2], levels[:, k]) for k, row in enumerate(climbing)}
        composites = [] if rank.m != 1 else (
            [(("real_plus", 1, j), ("real_plus", 1, 2), ("real_plus", 2, j))
             for j in range(3, dim + 1)]
            + [(("real_wrap", 1, j), ("real_plus", j, j + 1), ("real_wrap", 1, j + 1))
               for j in range(dim - 1, 1, -1)])
        for row, x, y in composites:
            ex, ey = zero[x], zero[y]
            if row[0] == "real_plus":
                ex = (*ex[:2], rest[x][2][1:])
            else:
                ey = (*ey[:2], rest[y][2][1:])
            ((r, c, above),) = unit_supercommutator(rank, ctx, ex, ey, roots[x], roots[y])
            rest[row] = r, c, np.concatenate(([zero[row][2]], above))
        return rest

    def _add_zero_entries(self, side: str, zero: dict, part: str) -> None:
        """Add to zero the level-zero entries a part brackets (_zero_rows), each
        the unit bracket of two entries already there."""
        rank, ctx, roots = self.rep.rank, self.rep.ctx, _row_roots(self.rep.rank, side)
        for row, (x, y) in _zero_rows(rank, part):
            (zero[row],) = unit_supercommutator(rank, ctx, zero[x], zero[y], roots[x], roots[y])

    def _primed_level_one(self, side: str, zero: dict) -> list:
        """The primed level-one vectors as entries (family, row, col, value),
        0-based: the one attached to alpha_i is (-1)^[alpha_i] times the unit
        bracket of real_plus (i, i+1) with the level-zero real_wrap (i, i+1),
        whose two terms lie on the diagonal."""
        rank, ctx, roots = self.rep.rank, self.rep.ctx, _row_roots(self.rep.rank, side)
        entries = []
        for i in range(1, rank.L + 1):
            x, y = ("real_plus", i, i + 1), ("real_wrap", i, i + 1)
            sign = -1.0 if rank.simple_parity(i) else 1.0
            entries += [(i - 1, r, c, sign * v) for r, c, v in unit_supercommutator(
                rank, ctx, zero[x], zero[y], roots[x], roots[y])]
        return entries

    def _steps(self, side: str, p: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The climb step of the first len(rows) climbing rows, each at its
        one entry (row, col), from the diagonals p of the primed level-one
        vectors: the bracket [X, P] of a real_plus row has entries
        X_ab (p_b - p_a), [P, X] of a real_wrap row their negatives, each
        times the ladder factor."""
        attach, _, _, _, plus = _ladder_table(self.rep.rank)
        factor = self._ladder[0] * plus if side == "e" else self._ladder[1] * -plus
        count = len(rows)
        p = p[attach[:count]]
        return factor[:count] * (p[np.arange(count), cols] - p[np.arange(count), rows])

    def _unprimed(self, side: str, s: np.ndarray, p: np.ndarray) -> np.ndarray:
        """The unprimed diagonals at levels 1..n_max, (n_max, L, dim), from
        the ratios s and level-one diagonals p of the primed families: the
        log of 1 + sigma kappa_i sum_n P_n x^n over sigma kappa_i, with
        kappa_i = q_i - q_i^{-1} = d_i (q - q^{-1}), sigma = -1 on e and +1 on
        f.  Entrywise its argument is (1 - t x)/(1 - s_i x),
        t = s_i - sigma kappa_i p, so level n is (s_i^n - t^n)/n over
        sigma kappa_i, and 0 where p is 0."""
        ctx = self.rep.ctx
        out = np.zeros((self.n_max,) + p.shape, dtype=complex)
        family, slot = np.nonzero(p)
        kappa = (np.array(cartan_data(self.rep.rank).d_simple[1:])[family]
                 * (ctx.qpow(1) - ctx.qpow(-1)))
        sign = -1.0 if side == "e" else 1.0
        n, s, p = np.arange(1, self.n_max + 1)[:, None], s[family], p[family, slot]
        out[:, family, slot] = (sign / kappa) * (s ** n - (s - sign * kappa * p) ** n) / n
        return out


def _check_side(side: str) -> None:
    if side not in ("e", "f"):
        raise ValueError(f"side must be 'e' or 'f', got {side!r}")


def _read_only(array: np.ndarray) -> np.ndarray:
    """Mark an array read-only: the accessors hand out the arrays themselves,
    so a caller's write must not change later reads."""
    array.setflags(write=False)
    return array


def _require_support(mats: np.ndarray, support: np.ndarray, what: str) -> None:
    """Raise AssertionError(what) unless every entry of a stack of square
    matrices is finite and every one outside the boolean mask support is
    within 1e-12 of max(1, the largest entry of its matrix)."""
    mags = np.abs(mats)
    scale = mags.max(axis=(-2, -1), initial=1.0)  # not finite if some entry is not
    off = np.where(support, 0.0, mags).max(axis=(-2, -1), initial=0.0)
    if not (np.isfinite(scale).all() and (off <= 1e-12 * scale).all()):
        raise AssertionError(what)


def _diagonals(entries: list, shape: tuple, what: str) -> np.ndarray:
    """The diagonals, of the given (stack, dim) shape, of a stack of square
    matrices given by its entries (matrix, row, col, value); AssertionError
    unless every entry is finite and on the diagonal."""
    if not all(r == c and cmath.isfinite(v) for _, r, c, v in entries):
        raise AssertionError(f"{what} is not diagonal")
    out = np.zeros(shape, dtype=complex)
    matrix, rows, _, values = zip(*entries)
    out[matrix, rows] = values
    return out


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
    qn = ctx.qnum_nonzero(levels)
    return (levels / qn)[:, None, None] * bq_inverse_closed(rank, ctx, scale=levels)


def a_gamma(rep: EvaluationRep, table: RootVectorTable, root: AffineRoot) -> complex:
    """Normalization a solving [e_g, f_g] = a (q^{h_g} - q^{-h_g})/(q - q^{-1})
    in the representation (least squares over the diagonal)."""
    rank, ctx = rep.rank, rep.ctx
    w = q_supercommutator(rank, ctx, table.real("e", root), table.real("f", root), root, -root)
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
