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

A table computes each entry on its first lookup and keeps it, so a caller
pays only for the entries it reads; values do not depend on the lookup order.
Key sets: e and f, every real positive root with at most n_max deltas;
e_prime and f_prime, (n, i) for 1 <= n <= max(1, n_max); e_imag and f_imag,
(n, i) for 1 <= n <= n_max once the unprimed family is attached.

The memo holds bare arrays: the views attach root and parity on lookup.
Because (delta | .) = 0 and delta is even, the coefficient of a bracket
depends on the shape of its rule, not on its level, so it is computed once
per shape when the table is built.  Each unprimed family is one (n_max, dim)
array of diagonals from one series log, and the imaginary-sector series reads
both sides as stacked (n_max, L, dim) diagonals (unprimed_diagonals); the
pairing inverses U_n of all levels come from one array-valued evaluation of
the q-Cartan inverse (u_matrices).
"""

from __future__ import annotations

import functools
from collections.abc import Mapping

import numpy as np

from .gradedmatrix import GradedElement, matrix_unit, q_supercommutator
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
from .scalars import DegenerateQError, TruncatedSeries
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
def _integer_rules(rank: SuperRank) -> tuple[dict, dict]:
    """The q-free data of a rank's rules, shared by all its tables.

    rows: the rows climbing by a primed level-one vector, (kind, i, j) ->
    (attachment a, (alpha_ij | alpha_a)); the pairing is None on the M = 1
    first row, which is normalized otherwise (see the module docstring).
    pairs: bracket shape (see _shape) -> ((x | y), whether both inputs are
    odd), read off the inputs of the level-zero or level-one key of that
    shape: (delta | .) = 0 and delta is even, so neither depends on the level.
    """
    dim = rank.dim
    rows = {}
    for i in range(2 if rank.m == 1 else 1, dim):
        a = i if i < rank.m else i - 1
        for j in range(i + 1, dim + 1):
            pairing = bilinear(rank, real_plus_root(rank, i, j), simple_root(rank, a))
            rows["real_plus", i, j] = rows["real_wrap", i, j] = (a, pairing)
    if rank.m == 1:
        rows["real_plus", 1, 2], rows["real_wrap", 1, dim] = (2, None), (1, None)
    keys = [("e", kind, i, j, n) for kind in _ROOT for i in range(1, dim)
            for j in range(i + 1, dim + 1) for n in (0, 1)]
    pairs = {}
    for key in keys + [("e", "prime", 1, i) for i in range(1, dim)]:
        inputs = _inputs(rank, rows, 0, key)
        if inputs:  # not a generator
            x, y = (_key_root(rank, k) for k in inputs)
            pairs[_shape(key)] = (bilinear(rank, x, y), parity(rank, x) * parity(rank, y))
    return rows, pairs


def _inputs(rank: SuperRank, rows: dict, n_max: int, key: tuple) -> tuple:
    """The keys of the entries that the rule at key brackets (or takes the
    log of)."""
    side, kind = key[0], key[1]
    if kind == "log":
        return tuple((side, "prime", n, key[2]) for n in range(1, n_max + 1))
    if kind == "prime":  # primed imaginary vector at level n from reals at n - 1
        _, _, n, i = key
        return (side, "real_plus", i, i + 1, n - 1), (side, "real_wrap", i, i + 1, 0)
    _, _, i, j, n = key
    dim = rank.dim
    if n and (kind, i, j) in rows:  # delta ladder
        prime, prev = (side, "prime", 1, rows[kind, i, j][0]), (side, kind, i, j, n - 1)
        return (prev, prime) if kind == "real_plus" else (prime, prev)
    if n == 0 and (j == i + 1 if kind == "real_plus" else (i, j) == (1, dim)):
        return ()  # simple or affine generator
    if kind == "real_plus" and n == 0:  # finite ladder
        return (side, kind, i, j - 1, 0), (side, kind, j - 1, j, 0)
    if kind == "real_plus":  # M = 1 first row: simple ladder times finite tail
        return (side, kind, 1, 2, n), (side, kind, 2, j, 0)
    if j == dim:  # level-zero wrap seed steps
        return (side, "real_plus", i - 1, i, 0), (side, kind, i - 1, j, 0)
    # wrap steps: level zero, and the M = 1 first row at every level
    return (side, "real_plus", j, j + 1, 0), (side, kind, i, j + 1, n)


def _ladder_factors(rank: SuperRank, ctx, rows: dict) -> dict:
    """(factor on e, factor on f) of the delta ladder of each climbing row."""
    ladder = {}
    for row, (a, pairing) in rows.items():
        if pairing is None and row[0] == "real_plus":  # M = 1 first row
            data = cartan_data(rank)
            norm = data.d_simple[2] * rank.o(1) * rank.o(2) * ctx.qnum(int(data.b[0, 1]))
            ladder[row] = (1.0 / norm, 1.0 / norm)
        elif pairing is None:  # M = 1 wrap row
            ladder[row] = (ctx.qpow(1), ctx.qpow(-1))
        else:
            den = ctx.qnum(pairing)
            if abs(den) <= ctx.tolerance:
                raise DegenerateQError(f"vanishing q-number [{pairing}]_q in the delta ladder")
            sgn = -1.0 if rank.simple_parity(a) else 1.0
            ladder[row] = (sgn / den, sgn / den)
    return ladder


class _Recursion:
    """The memoized entries of one table, as bare arrays, and the one rule set
    that computes them for both sides.  Keys: (side, "real_plus" | "real_wrap",
    i, j, n), (side, "prime", n, i) and (side, "log", i), the (n_max, dim)
    diagonals of the whole unprimed family attached to alpha_i; side is "e"
    or "f"."""

    def __init__(self, rep: EvaluationRep, n_max: int):
        rank, ctx = rep.rank, rep.ctx
        self.rep, self.n_max, self.memo = rep, n_max, {}
        self.rows, pairs = _integer_rules(rank)
        # computed here so that a degenerate q fails when the table is built
        ladder = _ladder_factors(rank, ctx, self.rows) if n_max >= 1 else {}
        # per side and bracket shape, (c, factor) of the bracket
        # factor * (x y - c y x); c = (-1)^([x][y]) q^(-+(x|y))
        self.coeff: dict[str, dict] = {"e": {}, "f": {}}
        for shape, (pair, odd) in pairs.items():
            if shape[0] == "prime":
                factors = (-1.0 if rank.simple_parity(shape[1]) else 1.0,) * 2
            else:
                factors = ladder.get(shape[:3], (None, None)) if shape[3] else (None, None)
            sgn = -1.0 if odd else 1.0
            self.coeff["e"][shape] = (sgn * ctx.qpow(-pair), factors[0])
            self.coeff["f"][shape] = (sgn * ctx.qpow(pair), factors[1])

    def get(self, key: tuple) -> np.ndarray:
        """The entry at key; its inputs are resolved with an explicit stack, so
        a deep level costs no Python recursion."""
        memo, stack = self.memo, [key]
        while stack:
            top = stack[-1]
            if top in memo:
                stack.pop()
                continue
            inputs = _inputs(self.rep.rank, self.rows, self.n_max, top)
            missing = [k for k in inputs if k not in memo]
            if missing:
                stack.extend(missing)
            else:
                memo[stack.pop()] = self._value(top, [memo[k] for k in inputs])
        return memo[key]

    def _value(self, key: tuple, args: list) -> np.ndarray:
        """The entry at key from the values of its inputs."""
        side, kind = key[0], key[1]
        if kind == "log":
            return self._unprimed(side, key[2], args)
        if not args:  # simple or affine generator
            gen = key[2] if kind == "real_plus" else 0
            return self.rep.e(gen) if side == "e" else self.rep.f(gen)
        c, factor = self.coeff[side][_shape(key)]
        return _bracket(*(args if side == "e" else args[::-1]), c, factor)

    def _unprimed(self, side: str, i: int, primed: list) -> np.ndarray:
        """Diagonals of levels 1..n_max of the unprimed family attached to
        alpha_i: its generating function is the series log of 1 -+ (q_i -
        q_i^{-1}) times the primed one, taken entrywise on the diagonals."""
        rank, ctx, dim = self.rep.rank, self.rep.ctx, self.rep.rank.dim
        kappa = ctx.qpow(rank.d(i)) - ctx.qpow(-rank.d(i))  # q_i - q_i^{-1}
        sign = -1.0 if side == "e" else 1.0
        mats = np.array(primed, dtype=complex).reshape(-1, dim, dim)
        off = np.abs(mats * (1.0 - np.eye(dim))).max(axis=(1, 2), initial=0.0)
        scale = np.maximum(1.0, np.abs(mats).max(axis=(1, 2), initial=0.0))
        if np.any(off > 1e-12 * scale):
            raise AssertionError("primed imaginary vector is not diagonal")
        coeffs = np.ones((self.n_max + 1, dim), dtype=complex)
        coeffs[1:] = (sign * kappa) * np.diagonal(mats, axis1=1, axis2=2)
        return (sign / kappa) * TruncatedSeries(coeffs).log(tol=1e-9).c[1:]


def _shape(key: tuple) -> tuple:
    """What a bracket coefficient depends on: (kind, i, j, n > 0) of a real
    key, ("prime", i) of a primed one."""
    return ("prime", key[3]) if key[1] == "prime" else (key[1], key[2], key[3], key[4] > 0)


def _bracket(x: np.ndarray, y: np.ndarray, c: complex, factor) -> np.ndarray:
    """The one bracket of the recursion, x y - c y x, rescaled unless factor is
    None: the q-supercommutator of two same-sign root vectors, with x, y in
    rule order on the e side and swapped on the f side."""
    mat = x @ y - c * (y @ x)
    return mat if factor is None else factor * mat


def _key_root(rank: SuperRank, key: tuple) -> AffineRoot:
    """The signed root of a real, primed or unprimed recursion key."""
    side, kind = key[0], key[1]
    root = (imaginary_root(rank, key[2], key[3]) if kind in ("prime", "imag")
            else _ROOT[kind](rank, *key[2:]))
    return root if side == "e" else -root


class _Family(Mapping):
    """Read-only view of one family of a table over the given levels; a
    lookup computes the entry, and what it brackets, on first use, and wraps
    it with its root and parity."""

    def __init__(self, recursion: _Recursion, side: str, family: str, levels: range):
        self._rec, self._side, self._family, self._levels = recursion, side, family, levels

    @functools.cached_property
    def _index(self) -> dict:
        """Public key -> recursion key."""
        rank, side, family = self._rec.rep.rank, self._side, self._family
        if family != "real":
            return {(n, i): (side, family, n, i)
                    for n in self._levels for i in range(1, rank.dim)}
        return {_ROOT[kind](rank, i, j, n): (side, kind, i, j, n)
                for i in range(1, rank.dim) for j in range(i + 1, rank.dim + 1)
                for n in self._levels for kind in _ROOT}

    def __getitem__(self, key) -> GradedElement:
        rec, index = self._rec, self._index[key]
        if self._family == "imag":
            side, _, n, i = index
            matrix = np.diag(rec.get((side, "log", i))[n - 1])
        else:
            matrix = rec.get(index)
        root = _key_root(rec.rep.rank, index)
        return GradedElement(root=root, matrix=matrix, parity=parity(rec.rep.rank, root))

    def __contains__(self, key) -> bool:
        return key in self._index

    def __iter__(self):
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)


class RootVectorTable:
    """Images of the positive-root vectors (and their negatives) under one
    evaluation representation up to n_max deltas, as read-only mappings:
    ``e``/``f`` keyed by every real positive root, ``e_prime``/``f_prime`` by
    (n, i) for 1 <= n <= max(1, n_max), ``e_imag``/``f_imag`` by (n, i) for
    1 <= n <= n_max once attached (empty before).  An entry is computed on its
    first lookup, with the entries it brackets, and kept."""

    def __init__(self, rep: EvaluationRep, n_max: int):
        if n_max < 0:
            raise ValueError("n_max must be nonnegative")
        self.rep, self.n_max = rep, n_max
        rec = self._recursion = _Recursion(rep, n_max)
        self.e, self.f = (_Family(rec, s, "real", range(n_max + 1)) for s in "ef")
        self.e_prime, self.f_prime = (_Family(rec, s, "prime", range(1, max(1, n_max) + 1))
                                      for s in "ef")
        self.e_imag, self.f_imag = (_Family(rec, s, "imag", range(0)) for s in "ef")

    def unprimed_diagonals(self, side: str, n_max: int) -> np.ndarray:
        """The diagonals of the unprimed imaginary vectors of one side ("e" or
        "f") at levels 1..n_max as one (n_max, L, dim) array; KeyError past
        the attached levels."""
        family = self.e_imag if side == "e" else self.f_imag
        if n_max > len(family._levels):
            raise KeyError(f"unprimed imaginary vectors at level {n_max} are not attached")
        rec = self._recursion
        return np.stack([rec.get((side, "log", i))[:n_max]
                         for i in range(1, self.rep.rank.L + 1)], axis=1)


def build_root_vectors(rep: EvaluationRep, n_max: int,
                       with_unprimed: bool = True) -> RootVectorTable:
    """The table of root-vector images up to n_max deltas; with_unprimed=False
    leaves e_imag/f_imag empty until unprimed_imaginary attaches them."""
    table = RootVectorTable(rep, n_max)
    return unprimed_imaginary(table) if with_unprimed else table


def unprimed_imaginary(table: RootVectorTable) -> RootVectorTable:
    """Attach the unprimed imaginary vectors: e_imag/f_imag take levels
    1..n_max, each family computed from the primed one on first lookup."""
    rec, levels = table._recursion, range(1, table.n_max + 1)
    table.e_imag, table.f_imag = (_Family(rec, s, "imag", levels) for s in "ef")
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
    qn = (np.exp(ctx.hbar * levels) - np.exp(-ctx.hbar * levels)) / (ctx.qpow(1) - ctx.qpow(-1))
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
    w = q_supercommutator(rank, ctx, table.e[root], table.f[root]).matrix
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
