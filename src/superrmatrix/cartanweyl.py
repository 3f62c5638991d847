"""Loop-algebra root vectors in the evaluation representation, their closed
forms, and the level-n pairing matrices.

build_root_vectors(rep, n_max) gives a RootVectorTable whose readers hand out
bare read-only arrays, on the side "e" or "f": real(side, root), one matrix
unit times a coefficient, for every real positive root with at most n_max
deltas (KeyError for any other root); primed_diagonals(side) at levels
1..max(1, n_max); and unprimed_diagonals(side, n) at levels 1..n <= n_max.

Invariants of the recursion:
- It seeds the finite ladders with the generator images, wraps around the
  affine node for the (delta - alpha_ij) family, and climbs in the imaginary
  direction by bracketing with the primed level-one vector of the row's
  attachment.  Since (delta | .) = 0 and delta is even, that bracket only
  rescales each entry: every real row is one matrix unit at a fixed
  (row, col) on all levels, and its level n is level zero times the
  cumulative product of one entrywise step.
- Row (i, j) attaches to alpha_i for i < M and to alpha_{i-1} for i >= M,
  away from the isotropic node, where the q-number normalizer would vanish.
  At M = 1 the rows (1, 2) attach to alpha_2 and the other first rows to the
  isotropic alpha_1, with ladder factor q on e and 1/q on f.
- The unprimed diagonals are the log of the primed generating function,
  which is rational, so each level has a closed form per entry.
- The shape of every bracket, which term survives at which unit with which
  sign and power of q, depends on the rank alone.  _plan fixes it once per
  (rank, side, part); a build only multiplies coefficients along it.
- Each side is built in two parts, each on its first read: the series part,
  everything the imaginary-sector series reads, and the rest, which real()
  reads.  The ladder factors of one (rank, q) are formed once (_ladder),
  and a table forms no other level q-number.
- A non-finite ladder factor, primed or unprimed entry or climbed row is
  refused with OverflowError, formed without a numpy warning.

real_root_monomial, closed_form_root_vector and closed_form_imaginary are the
closed forms the recursion is checked against; t_matrix and u_matrices give
the level pairing T_n and its inverse U_n.
"""
from __future__ import annotations

import cmath
import functools

import numpy as np

from .gradedmatrix import _unit_terms, matrix_unit
from .reps import EvaluationRep, GradingVector, _unit_slots
from .rootdata import (
    AffineRoot,
    SuperRank,
    bilinear,
    cartan_data,
    classify,
    real_plus_root,
    real_wrap_root,
    simple_root,
)
from .scalars import _NOT_FINITE, _finite, require_nonzero
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
]

_ROOT = {"real_plus": real_plus_root, "real_wrap": real_wrap_root}


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
    """Every real row (kind, i, j), each climbing by a primed level-one vector,
    the L adjacent rows real_plus (i, i+1) first and in the order of i, as the
    primed vectors are; then their data as arrays in that order: the 0-based
    attachment a, the pairing (alpha_ij | alpha_a) whose q-number the ladder
    factor divides by (1 on the isotropic rows, the M = 1 first rows attached
    to alpha_1, normalized otherwise: see the module docstring), the sign -1
    when alpha_a is odd, the isotropic mask and the kind, +1 on real_plus and
    -1 on real_wrap rows."""
    dim = rank.dim
    rows = dict.fromkeys(("real_plus", i, i + 1) for i in range(1, dim))
    for i in range(1, dim):
        for j in range(i + 1, dim + 1):
            a = i if i < rank.m else i - 1
            if a == 0:  # M = 1: (1, 2) on alpha_2, the others on the isotropic alpha_1
                a = 2 if j == 2 else 1
            pairing = (None if a == i == rank.m else
                       bilinear(rank, real_plus_root(rank, i, j), simple_root(rank, a)))
            rows["real_plus", i, j] = rows["real_wrap", i, j] = (a, pairing)
    attach = np.array([a - 1 for a, _ in rows.values()])
    nus = np.array([1 if pairing is None else pairing for _, pairing in rows.values()])
    sign = np.array([-1.0 if cartan_data(rank).parity[a] else 1.0 for a, _ in rows.values()])
    isotropic = np.array([pairing is None for _, pairing in rows.values()])
    plus = np.array([1.0 if kind == "real_plus" else -1.0 for kind, _, _ in rows])
    return tuple(rows), attach, nus, sign, isotropic, plus


@functools.lru_cache(maxsize=16)
def _ladder(rank: SuperRank, ctx) -> np.ndarray:
    """The delta-ladder factors of the climbing rows at one (rank, q), a (2, rows)
    array on e and on f: sign / [pairing]_q, and q on e, 1/q on f on the
    isotropic rows.  Formed without a warning, then refused if a divisor
    vanishes or a factor is not finite; cached so that a build's tables share it."""
    _, _, nus, sign, isotropic, _ = _ladder_table(rank)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        qn = ctx.qnum_scaled(nus, 1)
        ladder = np.stack([sign / qn] * 2)
    ladder[:, isotropic] = [[ctx.qpow(1)], [ctx.qpow(-1)]]
    require_nonzero(qn, nus, 1)
    return _read_only(_finite(ladder, "a ladder factor"))


@functools.lru_cache(maxsize=None)
def _plan(rank: SuperRank, side: str, part: str) -> dict:
    """The shape of every bracket one part of a table side makes, the same at
    every q, zeta and grading, from the one bracket rule
    (gradedmatrix._unit_terms) run once over the level-zero rows of
    _zero_rows(rank, part) and, for the series part, the primed level-one
    brackets.  The entries of a side are numbered: the generator units 0..L
    (real_wrap (1, dim), then real_plus (i, i+1)), the series rows, the
    primed level-one terms, then the rest rows.  Keys of both parts:

    - "brackets": per entry the part adds, in that order, (first, second,
      weight): its coefficient is that of entry first times that of entry
      second, times weight[0] q^weight[1] unless weight is None (see
      _products).

    The series part adds "index" and "at", the entry of each row and the
    (row, col) of each entry, which the rest part continues from; "primed",
    per primed level-one term (entry, sign), sign = (-1)^[alpha_i] for the
    vector attached to alpha_i; "primed_at", the (family, slot) arrays of
    those terms in the level-one diagonals; "d", the d_i of their families;
    and "step_sign", the sign of the climb step of every climbing row of
    _ladder_table, +1 on real_plus and -1 on real_wrap rows on e, the
    opposite on f.  The rest part adds "climb", the entry of every climbing
    row, and "climb_at", their (rows, cols).  The rest is planned on the
    first read of real() at its rank and side, so a pipeline build plans only
    the series part.

    A level-zero bracket that is not one unit is refused with ValueError, a
    primed level-one term off the diagonal with AssertionError."""
    dim, L, roots = rank.dim, rank.L, _row_roots(rank, side)
    if part == "series":
        index = dict(zip([("real_wrap", 1, dim)] + [("real_plus", i, i + 1) for i in range(1, dim)],
                         range(L + 1)))
        at = list(zip(*(a.tolist() for a in _unit_slots(rank, side))))
    else:
        series = _plan(rank, side, "series")
        index, at = dict(series["index"]), list(series["at"])
    brackets = []

    def bracket(x, y) -> tuple:
        terms = _unit_terms(rank, at[index[x]], at[index[y]], roots[x], roots[y])
        for r, c, swap, weight in terms:
            brackets.append((index[y], index[x], weight) if swap else (index[x], index[y], weight))
            at.append((r, c))
        return terms

    for row, (x, y) in _zero_rows(rank, part):
        if len(bracket(x, y)) != 1:
            raise ValueError(f"the level-zero bracket of {row} is not one matrix unit")
        index[row] = len(at) - 1
    if part == "rest":
        climb = np.array([index[row] for row in _ladder_table(rank)[0]])
        rows, cols = (_read_only(np.array(a)) for a in zip(*(at[k] for k in climb)))
        return {"brackets": tuple(brackets), "climb": _read_only(climb), "climb_at": (rows, cols)}
    primed, primed_at = [], []
    for i in range(1, L + 1):
        sign, first = (-1.0 if cartan_data(rank).parity[i] else 1.0), len(at)
        for k, (r, c, _, _) in enumerate(bracket(("real_plus", i, i + 1), ("real_wrap", i, i + 1)),
                                         first):
            if r != c:
                raise AssertionError("primed level-one vector is not diagonal")
            primed.append((k, sign))
            primed_at.append((i - 1, r))
    family, slot = (_read_only(np.array(a)) for a in zip(*primed_at))
    plus = _ladder_table(rank)[5]
    return {"brackets": tuple(brackets), "index": index, "at": tuple(at),
            "primed": tuple(primed), "primed_at": (family, slot),
            "d": _read_only(np.array(cartan_data(rank).d_simple[1:])[family]),
            "step_sign": _read_only(plus.copy() if side == "e" else -plus)}


def _products(ctx, coeffs: list, brackets: tuple) -> None:
    """Append to coeffs the coefficient of each planned bracket in plan order
    (see _plan): the product of two coefficients, times the weight
    -(-1)^([x][y]) q^(-case (x|y)) of gradedmatrix._unit_terms on the term
    the rule subtracts."""
    for first, second, weight in brackets:
        product = coeffs[first] * coeffs[second]
        coeffs.append(product if weight is None else weight[0] * ctx.qpow(weight[1]) * product)


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
    the roots, in the order of the operands and in the coefficients; the shape
    of every bracket of a side is planned once per rank (_plan).  Each side
    has two parts, each built once, on its first read, and kept in its own
    cache, side -> dict: _series for the series part and _rest for the rest
    (see the module docstring).  Every real row (kind, i, j) is one matrix
    unit at one 0-based (row, col) on all levels: the series part keeps the
    level-zero coefficients of the plan's entries in a tuple "coeffs", and the
    rest, which real() reads, is a dict of every row, row -> (row, col,
    coefficients at levels 0..n_max).
    """

    def __init__(self, rep: EvaluationRep, n_max: int):
        if n_max < 0:
            raise ValueError(f"n_max must be nonnegative, got {n_max}")
        self.rep, self.n_max = rep, n_max
        self._series, self._rest = {}, {}
        # computed here so that a degenerate q fails when the table is built
        self._ladder = _ladder(rep.rank, rep.ctx) if n_max >= 1 else None

    def real(self, side: str, root: AffineRoot) -> np.ndarray:
        """The image of the real positive root vector at root on one side;
        KeyError for any other root or one with more than n_max deltas."""
        _check_side(side)
        kind = classify(self.rep.rank, root)
        if kind[0] not in _ROOT or kind[3] > self.n_max:
            raise KeyError(f"no real root vector at {root} with at most {self.n_max} deltas")
        r, c, coeffs = self._rest_part(side)[kind[:3]]
        out = np.zeros((self.rep.rank.dim,) * 2, dtype=complex)
        out[r, c] = coeffs[kind[3]]
        return _read_only(out)

    def primed_diagonals(self, side: str) -> np.ndarray:
        """The diagonals of the primed vectors at levels 1..max(1, n_max),
        shape (levels, L, dim): level n is s_i^(n-1) times level one."""
        _check_side(side)
        part = self._series_part(side)
        with np.errstate(over="ignore", invalid="ignore"):
            powers = part["s"] ** np.arange(max(1, self.n_max))[:, None]
            return _read_only(_finite(powers[:, :, None] * part["p"], "a primed vector"))

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
        """The series part of one side (see the module docstring): the
        coefficients of the generators, of the level-zero wraps and of the
        primed level-one terms along the plan; the primed level-one entries
        are refused unless finite (OverflowError), and s_i is the climb step
        of real_plus (i, i+1) at the one entry of its generator."""
        rank, plan = self.rep.rank, _plan(self.rep.rank, side, "series")
        rows, cols, coeffs = self.rep.units(side)
        _products(self.rep.ctx, coeffs, plan["brackets"])
        values = [sign * coeffs[k] for k, sign in plan["primed"]]
        if not all(map(cmath.isfinite, values)):
            raise OverflowError(_NOT_FINITE.format("a primed level-one vector"))
        p = np.zeros((rank.L, rank.dim), dtype=complex)
        p[plan["primed_at"]] = values
        s = np.zeros(rank.L, dtype=complex)  # not read at n_max = 0, which has no ladder
        with np.errstate(over="ignore", invalid="ignore"):
            if self.n_max:
                s = self._steps(side, p, rows[1:], cols[1:])
            unprimed = _finite(self._unprimed(side, s, p), "an unprimed imaginary vector")
        return {"coeffs": tuple(coeffs), "s": _read_only(s), "p": _read_only(p),
                "unprimed": _read_only(unprimed)}

    def _build_rest(self, side: str) -> dict:
        """The rest of one side (see the module docstring): the finite ladders
        along the plan, then every real row at levels 1..n_max is its level
        zero times the cumulative product of its climb step."""
        series, plan = self._series_part(side), _plan(self.rep.rank, side, "rest")
        coeffs = list(series["coeffs"])
        _products(self.rep.ctx, coeffs, plan["brackets"])
        rows, cols = plan["climb_at"]
        levels = np.empty((self.n_max + 1, len(rows)), dtype=complex)
        levels[0] = np.array(coeffs)[plan["climb"]]
        with np.errstate(over="ignore", invalid="ignore"):
            if self.n_max:
                np.cumprod(np.broadcast_to(self._steps(side, series["p"], rows, cols),
                                           levels[1:].shape), axis=0, out=levels[1:])
                levels[1:] *= levels[0]
            _finite(levels, "a climbed row")
        climbing = _ladder_table(self.rep.rank)[0]
        return {row: (r, c, levels[:, k])
                for k, (row, r, c) in enumerate(zip(climbing, rows.tolist(), cols.tolist()))}

    def _steps(self, side: str, p: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The climb step of the first len(rows) climbing rows, each at its
        one entry (row, col), from the diagonals p of the primed level-one
        vectors: the bracket [X, P] of a real_plus row has entries
        X_ab (p_b - p_a), [P, X] of a real_wrap row their negatives, each
        times the ladder factor."""
        count, attach = len(rows), _ladder_table(self.rep.rank)[1]
        factor = self._ladder[0 if side == "e" else 1][:count] * _plan(
            self.rep.rank, side, "series")["step_sign"][:count]
        return factor * (p[attach[:count], cols] - p[attach[:count], rows])

    def _unprimed(self, side: str, s: np.ndarray, p: np.ndarray) -> np.ndarray:
        """The unprimed diagonals at levels 1..n_max, (n_max, L, dim), from
        the ratios s and level-one diagonals p of the primed families: the
        log of 1 + sigma kappa_i sum_n P_n x^n over sigma kappa_i, with
        kappa_i = q_i - q_i^{-1} = d_i (q - q^{-1}), sigma = -1 on e and +1 on
        f.  Entrywise its argument is (1 - t x)/(1 - s_i x),
        t = s_i - sigma kappa_i p, so level n is (s_i^n - t^n)/n over
        sigma kappa_i, and 0 off the entries of the primed vectors."""
        ctx = self.rep.ctx
        plan = _plan(self.rep.rank, side, "series")
        (family, slot), d = plan["primed_at"], plan["d"]
        out = np.zeros((self.n_max,) + p.shape, dtype=complex)
        kappa = d * (ctx.qpow(1) - ctx.qpow(-1))
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
    rescaled via [n b]_q = [n]_q [b]_{q**n}, after one of [n]_q.  Refuses a
    vanishing [n]_q first, then a vanishing divisor [M-N]_{q**n}, at the
    levels it forms, then a U_n past the float range; the series weights of a
    build are read from it."""
    levels = np.asarray(levels, dtype=int).reshape(-1)
    if np.any(levels < 1):
        raise ValueError("n must be positive")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        qn = ctx.qnum_nonzero(levels)
        u = (levels / qn)[:, None, None] * bq_inverse_closed(rank, ctx, scale=levels)
    return _finite(u, "a level pairing matrix U_n")

