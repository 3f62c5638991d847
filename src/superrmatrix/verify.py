"""End-to-end verification: Yang-Baxter, intertwining, and a check suite.

R(z1, z2) is a vertex-model matrix: its only entries are the diagonal ones
(i,k),(i,k) and the swaps (i,k),(k,i).  The r_sparsity check and the guard
of verify_ybe read that pattern from index arithmetic of their own
(_off_pattern), not from rfactors._slot_pairs, the table R is written with,
so a fault in that table shows as entries off the pattern.  Lifted to a
slot pair of V (x) V (x) V, with the identity in the remaining (spectator)
slot, such an R is the sum of two monomial operators, one entry per row:
its diagonal with the identity column map, and its swap entries, times the
Koszul factor of the spectator, with the column map that exchanges the two
slots.  verify_ybe forms R12 R13 R23 - R23 R13 R12 as the 16 monomial
products of those, sums the entries that land on one (row, column) and
takes the largest: O(d^3) work and no d^3 x d^3 array, where dense lifts
multiply in O(d^9).  Column maps, signs and bins are planned once per
rank; the dense lifts are the tests' reference (tests/conftest.py).  The
intertwining residuals of all generators come from one stacked coproduct
image and one batched product.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
import time
from dataclasses import dataclass, field

import numpy as np

from .cartanweyl import (
    build_root_vectors,
    closed_form_imaginary,
    closed_form_root_vector,
    t_matrix,
    u_matrices,
)
from .gradedmatrix import _rule, koszul_sign, q_supercommutator
from .reps import (
    EvaluationRep,
    GradingVector,
    _maxabs,
    _worst,
    check_defining_relations,
    coproduct_stack,
)
from .rootdata import (
    SuperRank,
    cartan_data,
    classify,
    imaginary_root,
    positive_roots,
    real_plus_root,
)
from .rfactors import (
    Zeta12,
    _require_series_domain,
    _slot_pairs,
    build_rfactors,
    k_operator_closed,
    k_operator_weights,
    r_operator,
    r_prec_delta,
    r_sim_delta,
    r_succ_delta,
)
from .scalars import DegenerateQError, QContext, f_m, q_exponential
from .tridiag import bq_inverse_closed, bq_matrix, c_matrix, tridiag_inverse

__all__ = [
    "verify_ybe",
    "verify_intertwining",
    "CheckResult",
    "VerificationReport",
    "VerifyConfig",
    "run_suite",
    "DEFAULT_TOLERANCES",
]


@functools.cache
def _off_pattern(rank: SuperRank) -> np.ndarray:
    """The mask of the d^4 entries of an operator on V (x) V, flat, that lie
    off the vertex-model pattern: (i,k),(j,l) is on it when (j, l) = (i, k)
    or (j, l) = (k, i)."""
    i, k, j, l = np.indices((rank.dim,) * 4)
    off = ~(((j == i) & (l == k)) | ((j == k) & (l == i)))
    off = off.reshape(-1)
    off.setflags(write=False)
    return off


@functools.cache
def _ybe_plan(rank: SuperRank) -> tuple[np.ndarray, ...]:
    """R12 R13 R23 - R23 R13 R12 as 16 monomial products (v1, c1)(v2, c2)
    = (v1 v2[c1], c2[c1]) of the lifts (D, identity) + (S, swap of slots a
    and b) of its factors: per product entry its three indices into the
    table (R12, R13, R23), its sign and its (row, column) bin, twice for
    complex weights read as float pairs, and the key row * d^3 + column of
    every bin.  The Koszul factor s_y(u, v) s_y(v, u) of a swap entry is
    (-1)^([y]([u] + [v])) for the spectator index y in slot 2 and 1 for y in
    slot 1 or 3, since its parity meets only the acting slots to its left.
    A swap entry at u = v is zero and left out."""
    p, d = rank.parity_vector(), rank.dim
    diag, swap = _slot_pairs(rank)[:2]
    rows = np.indices((d,) * 3).reshape(3, -1)
    gathers, signs, bins = [], [], []
    for side, order in ((1.0, (0, 1, 2)), (-1.0, (2, 1, 0))):
        for kinds in itertools.product((diag, swap), repeat=3):
            at, keep, sign, index = rows, np.ones(d ** 3, bool), np.full(d ** 3, side), []
            for f, kind in zip(order, kinds):
                a, b = ((0, 1), (0, 2), (1, 2))[f]
                u, v = at[a], at[b]
                index.append(f * d ** 4 + kind[u, v])
                if kind is swap:
                    keep &= u != v
                    if f == 1:
                        sign = sign * koszul_sign(p[at[1]], p[u], p[v])
                    at = at.copy()
                    at[[a, b]] = v, u
            gathers.append(np.array(index)[:, keep])
            signs.append(sign[keep])
            bins.append((np.arange(d ** 3) * d ** 3 + np.ravel_multi_index(at, (d,) * 3))[keep])
    keys, inverse = np.unique(np.concatenate(bins), return_inverse=True)
    plan = (np.concatenate(gathers, axis=1), np.concatenate(signs),
            (2 * inverse[:, None] + np.arange(2)).reshape(-1), keys)
    for a in plan:
        a.setflags(write=False)
    return plan


def _ybe_entries(table: np.ndarray, rank: SuperRank) -> tuple[np.ndarray, np.ndarray]:
    """The entries of R12 R13 R23 - R23 R13 R12 that the monomial products
    reach, from the (3, d^4) table of R12, R13 and R23 on the vertex-model
    pattern, as their keys row * d^3 + column and their values."""
    gathers, signs, bins, keys = _ybe_plan(rank)
    table = table.reshape(-1)
    terms = signs * table[gathers[0]] * table[gathers[1]] * table[gathers[2]]
    sums = np.bincount(bins, weights=terms.view(float), minlength=2 * len(keys))
    return keys, sums.view(complex)


def verify_ybe(rank: SuperRank, ctx: QContext, zeta1: complex, zeta2: complex,
               zeta3: complex, grading: GradingVector | None = None) -> float:
    """Max-entry residual of R12 R13 R23 - R23 R13 R12 on V (x) V (x) V, from
    its monomial products; an R with an entry off the vertex-model pattern
    has residual inf."""
    grading = grading if grading is not None else GradingVector.ones(rank)
    table = np.array([r_operator(rank, ctx, za, zb, grading) for za, zb in
                      ((zeta1, zeta2), (zeta1, zeta3), (zeta2, zeta3))]).reshape(3, -1)
    if table[:, _off_pattern(rank)].any():
        return float("inf")
    return _maxabs(_ybe_entries(table, rank)[1])


def verify_intertwining(rank: SuperRank, ctx: QContext, zeta1: complex,
                        zeta2: complex, grading: GradingVector | None = None) -> dict[str, float]:
    """Residuals of Delta'(a) R = R Delta(a) for every generator a, all of
    them from one coproduct stack and one batched product."""
    grading = grading if grading is not None else GradingVector.ones(rank)
    rep1 = EvaluationRep(rank, ctx, zeta1, grading)
    rep2 = EvaluationRep(rank, ctx, zeta2, grading)
    r = r_operator(rank, ctx, zeta1, zeta2, grading)
    delta, delta_op = coproduct_stack(rep1, rep2)
    res = delta_op @ r
    res -= r @ delta
    res = np.abs(res).max(axis=(-2, -1))  # [kind, i]
    out = {f"{kind}{i}": float(res[k, i])
           for i in range(rank.L + 1) for k, kind in enumerate(("h", "e", "f"))}
    out["max"] = float(res.max())
    return out


# -- the suite ---------------------------------------------------------------

DEFAULT_TOLERANCES = {
    "scalars": 1e-9,
    "relations": 1e-10,
    "root_vectors_closed_form": 1e-10,
    "level_pairing": 1e-10,
    "qcartan_inverse": 1e-12,
    "k_two_path": 1e-10,
    "factor_convergence": 1e-8,
    "r_two_path": 1e-8,
    "r_homogeneity": 1e-10,
    "r_sparsity": 1e-10,
    "intertwining": 1e-9,
    "ybe": 1e-9,
}


@dataclass
class CheckResult:
    """One check's outcome; a check refused by a degenerate q-number has no
    residual (NaN) and fails with the refusal's message as its error."""

    name: str
    params: str
    residual: float
    tolerance: float
    seconds: float
    error: str | None = None

    @property
    def passed(self) -> bool:
        return self.error is None and self.residual < self.tolerance

    def line(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        outcome = f"error: {self.error}" if self.error else f"residual={self.residual:.3e}"
        return (f"{flag}  {self.name:<28s} {outcome} "
                f"tol={self.tolerance:.1e}  ({self.seconds * 1e3:.2f} ms)  {self.params}")


@dataclass
class VerificationReport:
    config: dict
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def render(self) -> str:
        lines = [c.line() for c in self.checks]
        lines.append(f"{'ALL CHECKS PASSED' if self.all_passed else 'FAILURES PRESENT'}"
                     f" ({sum(c.passed for c in self.checks)}/{len(self.checks)})")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "all_passed": self.all_passed,
            "checks": [
                {"name": c.name, "params": c.params,
                 "residual": None if c.error else c.residual,
                 "tolerance": c.tolerance, "passed": c.passed, "seconds": c.seconds,
                 "error": c.error}
                for c in self.checks
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


@dataclass
class VerifyConfig:
    rank: SuperRank
    q: complex = 1.1 + 0.2j
    zeta1: complex = 0.6 + 0.0j
    zeta2: complex = 1.0 + 0.0j
    zeta3: complex = 1.7 + 0.0j
    grading: GradingVector | None = None
    n_max: int = 4
    seed: int = 0
    checks: tuple[str, ...] | None = None  # subset filter by name

    def context(self) -> QContext:
        return QContext(q=self.q)

    def grading_vector(self) -> GradingVector:
        return self.grading if self.grading is not None else GradingVector.ones(self.rank)


def run_suite(cfg: VerifyConfig) -> VerificationReport:
    """Run the verification checks in dependency order; deterministic for a
    fixed seed.  Individual check failures are recorded, not raised, and so
    is a check refused by a degenerate q-number, which fails with its message
    while the other checks still run; configuration errors (bad q, an empty or
    unknown check selection, a negative n_max or seed, n_max = 0 when
    level_pairing runs, a zero zeta3, a point outside the series domain when
    a check needs the series) are raised before any check runs.
    A randomized check seeds its own stdlib generator from cfg.seed and its
    name when it runs; random.Random hashes that str seed with SHA-512, so the
    draws do not depend on PYTHONHASHSEED, and numpy.random is never imported."""
    rank = cfg.rank
    ctx = cfg.context()
    grading = cfg.grading_vector()
    if cfg.checks is not None:
        if not cfg.checks:
            raise ValueError("empty check selection: name at least one check")
        unknown = set(cfg.checks) - set(DEFAULT_TOLERANCES)
        if unknown:
            raise ValueError(f"unknown check names: {sorted(unknown)}")
    if cfg.n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {cfg.n_max}")
    if cfg.n_max < 1 and (cfg.checks is None or "level_pairing" in cfg.checks):
        raise ValueError(f"level_pairing needs n_max >= 1, got {cfg.n_max}: "
                         "below it the check compares nothing")
    if cfg.seed < 0:
        raise ValueError(f"seed must be nonnegative, got {cfg.seed}")
    if cfg.zeta3 == 0:
        raise ValueError("spectral parameters must be nonzero")
    report = VerificationReport(config={
        "m": rank.m, "n": rank.n, "q": [ctx.q.real, ctx.q.imag],
        "zeta1": [complex(cfg.zeta1).real, complex(cfg.zeta1).imag],
        "zeta2": [complex(cfg.zeta2).real, complex(cfg.zeta2).imag],
        "zeta3": [complex(cfg.zeta3).real, complex(cfg.zeta3).imag],
        "grading": list(grading.s), "n_max": cfg.n_max,
        "series_order": ctx.series_order, "seed": cfg.seed,
    })

    def run(name, params, fn):
        if cfg.checks is not None and name not in cfg.checks:
            return
        t0 = time.perf_counter()
        try:
            residual, error = float(fn()), None
        except DegenerateQError as exc:
            residual, error = float("nan"), str(exc)
        report.checks.append(CheckResult(
            name=name, params=params, residual=residual,
            tolerance=DEFAULT_TOLERANCES[name], seconds=time.perf_counter() - t0, error=error))

    rep1 = EvaluationRep(rank, ctx, cfg.zeta1, grading)
    rep2 = EvaluationRep(rank, ctx, cfg.zeta2, grading)
    if cfg.checks is None or {"factor_convergence", "r_two_path"} & set(cfg.checks):
        _require_series_domain(rank, ctx, Zeta12.from_pair(cfg.zeta1, cfg.zeta2, grading), grading)

    @functools.cache
    def table():
        # the one table of rep1 that root_vectors_closed_form and
        # level_pairing read, at their depth
        return build_root_vectors(rep1, cfg.n_max)

    @functools.cache
    def factors():
        # the default build, read by factor_convergence and r_two_path
        return build_rfactors(rank, ctx, cfg.zeta1, cfg.zeta2, grading)

    run("scalars", "q-number identities", lambda: _check_scalars(ctx, cfg.seed))
    run("relations", f"defining relations at zeta={cfg.zeta1}",
        lambda: check_defining_relations(rep1)["max"])
    run("root_vectors_closed_form", f"all roots, n <= {cfg.n_max}, relative",
        lambda: _check_root_vectors(rep1, table(), cfg.n_max))
    run("level_pairing", f"bracket identity, m+n <= {cfg.n_max}",
        lambda: _check_level_pairing(rep1, table(), cfg.n_max))
    run("qcartan_inverse", "closed form vs recurrences vs dense solve",
        lambda: _check_qcartan(rank, ctx))
    run("k_two_path", "weight construction vs closed form",
        lambda: _maxabs(k_operator_weights(rep1, rep2) - k_operator_closed(rank, ctx)))
    run("factor_convergence", "products/series vs closed factors",
        lambda: _check_factor_convergence(factors()))
    run("r_two_path", "factorized product vs closed form",
        lambda: factors().cross_mode_residual)
    run("r_homogeneity", "R(c z1, c z2) = R(z1, z2)",
        lambda: _check_homogeneity(rank, ctx, cfg, grading))
    run("r_sparsity", "vertex-model sparsity pattern",
        lambda: _check_sparsity(rank, ctx, cfg, grading))
    run("intertwining", "all generators",
        lambda: verify_intertwining(rank, ctx, cfg.zeta1, cfg.zeta2, grading)["max"])
    run("ybe", f"zetas=({cfg.zeta1}, {cfg.zeta2}, {cfg.zeta3})",
        lambda: verify_ybe(rank, ctx, cfg.zeta1, cfg.zeta2, cfg.zeta3, grading))
    return report


# -- individual checks -------------------------------------------------------

def _check_scalars(ctx: QContext, seed: int) -> float:
    rng = random.Random(f"{seed}:scalars")
    residuals = []
    for _ in range(20):
        nu = complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
        residuals.append(ctx.qnum(nu) + ctx.qnum(-nu))
    # nilpotent argument: exp_q = 1 + x for any base
    x = np.zeros((3, 3), dtype=complex)
    x[0, 2] = 1.7 - 0.4j
    residuals.append(q_exponential(x, 2.0, ctx) - np.eye(3) - x)
    # the transcendental sum at m = 1 is a plain logarithm, up to its tail
    z = 0.31 + 0.11j
    log_ref = -np.log(1 - z)
    tail = abs(z) ** (ctx.series_order + 1) / (1 - abs(z))
    residuals.append(np.maximum(0.0, abs(f_m(z, 1, ctx) - log_ref) - tail))
    return _worst(residuals)


def _check_root_vectors(rep: EvaluationRep, table, n_max: int) -> float:
    """Worst ||A - B||_max / max(1, ||B||_max) of a recursion image A against
    its closed form B: the images scale like zeta**(+-n s), so an absolute
    residual would measure their size rather than the agreement."""
    rank = rep.rank

    def rel(a, b):
        return _maxabs(a - b) / max(1.0, _maxabs(b))

    residuals = []
    for side in "ef":
        primed = table.primed_diagonals(side)
        unprimed = table.unprimed_diagonals(side, n_max)
        for root in positive_roots(rank, n_max):
            kind = classify(rank, root)
            if kind[0] == "imaginary":
                _, n, i = kind
                residuals.append(rel(np.diag(unprimed[n - 1, i - 1]),
                                     closed_form_imaginary(rep, n, i, side)))
                residuals.append(rel(np.diag(primed[n - 1, i - 1]),
                                     closed_form_imaginary(rep, n, i, side, primed=True)))
            else:
                residuals.append(rel(table.real(side, root),
                                     closed_form_root_vector(rep, root, side)))
    return _worst(residuals)


def _check_level_pairing(rep: EvaluationRep, table, n_max: int) -> float:
    """U_n T_n = 1, relative to |U_n|_max |T_n|_max, the scale of the rounding
    in the product, and the bracket identities of the unprimed vectors, the
    one of level m relative to |x_m|_max |diag|_max, the same scale of its two
    operands, since the ladder vectors x_m shrink like zeta^{m s}.  Each
    (n, i, j) bracket is taken once, over the stack of the ladder vectors at
    levels m = 0..n_max-n, with the rule of level m = 0, which (delta|.) = 0
    and an even delta make the rule of every level.  That is read, not
    assumed: the rule of the top level m = n_max-n is compared with it, which
    puts every bracketed ladder level through the rule once, and a stack
    whose rule moves with the level is bracketed one level at a time, each
    with its own root."""
    rank, ctx = rep.rank, rep.ctx
    data = cartan_data(rank)
    unprimed = table.unprimed_diagonals("e", n_max)
    u = u_matrices(rank, ctx, np.arange(1, n_max + 1))
    roots = [[real_plus_root(rank, i, i + 1, m_lv) for m_lv in range(n_max + 1)]
             for i in range(1, rank.L + 1)]
    ladders = [np.array([table.real("e", root) for root in row]) for row in roots]
    residuals = []
    for n in range(1, n_max + 1):
        tn, un = t_matrix(rank, ctx, n), u[n - 1]
        residuals.append((un @ tn - np.eye(rank.L)) / max(1.0, _maxabs(un) * _maxabs(tn)))
        for i in range(1, rank.L + 1):
            levels, stack = roots[i - 1][: n_max - n + 1], ladders[i - 1][: n_max - n + 1]
            for j in range(1, rank.L + 1):
                imag, diag = imaginary_root(rank, n, j), np.diag(unprimed[n - 1, j - 1])
                if _rule(rank, levels[-1], imag) == _rule(rank, levels[0], imag):
                    lhs = q_supercommutator(rank, ctx, stack, diag, levels[0], imag)
                else:
                    lhs = np.array([q_supercommutator(rank, ctx, x, diag, root, imag)
                                    for x, root in zip(stack, levels)])
                dress = (data.o[i - 1] * data.o[j - 1]) ** n
                rhs = data.d_simple[j] * dress * tn[i - 1, j - 1] * ladders[i - 1][n:]
                # a product p rounds by at most eps/2 (|p| + tiny), so a level
                # whose operands underflow is read against tiny
                scale = np.maximum(np.abs(stack).max(axis=(1, 2)) * _maxabs(diag),
                                   np.finfo(float).tiny)
                residuals.append((lhs - rhs) / scale[:, None, None])
    return _worst(residuals)


def _check_qcartan(rank: SuperRank, ctx: QContext) -> float:
    """The five-case closed inverse of the q-Cartan matrix against the minor
    recurrences on its bands, against a dense solve, and as an inverse."""
    residuals = []
    for scale in (1, 2, 3):
        bq = bq_matrix(rank, ctx, scale)
        closed = bq_inverse_closed(rank, ctx, scale)
        residuals += [closed - tridiag_inverse(bq), closed @ bq - np.eye(rank.L),
                      closed - np.linalg.inv(bq)]
    residuals.append(c_matrix(rank) @ cartan_data(rank).b.astype(float) - np.eye(rank.L))
    return _worst(residuals)


def _check_factor_convergence(f) -> float:
    """The product and series factors of a build against their closed forms."""
    z12 = Zeta12.from_pair(f.zeta1, f.zeta2, f.grading)
    args = (f.rank, f.ctx, z12, f.grading, "closed")
    return _worst([f.r_prec - r_prec_delta(*args), f.r_succ - r_succ_delta(*args),
                   f.r_sim - r_sim_delta(*args)])


def _check_homogeneity(rank, ctx, cfg, grading) -> float:
    rng = random.Random(f"{cfg.seed}:r_homogeneity")
    c = complex(0.7 + 0.4 * rng.random(), 0.3 * rng.random() - 0.15)
    base = r_operator(rank, ctx, cfg.zeta1, cfg.zeta2, grading)
    moved = r_operator(rank, ctx, c * cfg.zeta1, c * cfg.zeta2, grading)
    return _maxabs(base - moved)


def _check_sparsity(rank, ctx, cfg, grading) -> float:
    """Largest entry of R outside the vertex-model pattern: R[(i,k),(j,l)] may
    be nonzero only for (i, k) = (j, l) or (i, k) = (l, j)."""
    r = r_operator(rank, ctx, cfg.zeta1, cfg.zeta2, grading)
    return float(np.max(np.abs(r.reshape(-1)[_off_pattern(rank)]), initial=0.0))
