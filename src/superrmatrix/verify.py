"""End-to-end verification: Yang-Baxter, intertwining, and a check suite.

Operators on V (x) V (x) V are applied as slot contractions, not built as
recursive dense embeddings.  With the identity in the remaining (spectator)
slot, the graded lift of a pair operator R is block diagonal over the
spectator's basis index y, with the entry s_y(row) s_y(col) R[row, col]: the
Koszul sign splits into a row and a column factor.  Folded into d copies of
R, the product with a d^3 x d^3 operand becomes one batched d^2 x d^2 matmul
over y, O(d^8) instead of the O(d^9) of a dense product, for every operator,
even or not.  The operand keeps its row slots in an order where the acting
pair is adjacent, so it is never copied.  The dense lifts lift_12/13/23 stay
as the reference.  The intertwining residuals of all generators come from
one stacked coproduct image and one batched product.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field

import numpy as np

from .cartanweyl import (
    build_root_vectors,
    closed_form_imaginary,
    closed_form_root_vector,
    t_matrix,
    u_matrix,
)
from .gradedmatrix import (
    composite_parity,
    graded_element,
    graded_kron,
    koszul_sign,
    q_supercommutator,
)
from .reps import (
    EvaluationRep,
    GradingVector,
    _maxabs,
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
    build_rfactors,
    k_operator_closed,
    k_operator_weights,
    r_operator,
    r_prec_delta,
    r_sim_delta,
    r_succ_delta,
)
from .scalars import QContext, q_exponential, q_number, series_exp, series_log
from .tridiag import bq_inverse_closed, bq_matrix, bq_tridiagonal, c_matrix, tridiag_inverse

__all__ = [
    "lift_12",
    "lift_23",
    "lift_13",
    "apply_12",
    "apply_13",
    "apply_23",
    "verify_ybe",
    "verify_intertwining",
    "CheckResult",
    "VerificationReport",
    "VerifyConfig",
    "run_suite",
    "DEFAULT_TOLERANCES",
]


# -- triple-tensor embeddings -----------------------------------------------

def lift_12(r2: np.ndarray, p: np.ndarray) -> np.ndarray:
    p2 = composite_parity(p, p)
    return graded_kron(r2, np.eye(len(p), dtype=complex), p2, p)


def lift_23(r2: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The identity in the first slot carries no Koszul sign: a plain
    Kronecker product."""
    return np.kron(np.eye(len(p), dtype=complex), r2)


def lift_13(r2: np.ndarray, p: np.ndarray) -> np.ndarray:
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


@functools.cache
def _pair_signs(p: tuple[int, ...], x: int) -> np.ndarray:
    """Koszul factors s[y, (u, v)] of a pair operator with the identity in slot
    x (0, 1 or 2) of V (x) V (x) V, y the basis index in that slot: the lift
    has the entry s[y, row] s[y, col] R[row, col] on the block of y, since
    the spectator's parity meets only the acting slots to its left."""
    p = np.array(p)
    d = len(p)
    sign = koszul_sign(p[:, None, None], p[None, :, None] * (x >= 1),
                       p[None, None, :] * (x >= 2)).reshape(d, d * d)
    sign.setflags(write=False)
    return sign


def _lift_blocks(r2: np.ndarray, p: np.ndarray, pair: tuple[int, int],
                 swapped: bool = False) -> np.ndarray:
    """The d diagonal blocks, one per spectator index, of the lift of r2 to
    the slot pair (a, b), a < b, as a (d, d^2, d^2) stack with the signs folded
    in; ``swapped`` orders rows and columns as (b, a) instead of (a, b)."""
    d = len(p)
    sign = _pair_signs(tuple(np.asarray(p).tolist()), 3 - sum(pair))
    blocks = sign[:, :, None] * r2 * sign[:, None, :]
    if swapped:
        blocks = blocks.reshape((d,) * 5).transpose(0, 2, 1, 4, 3).reshape(d, d * d, d * d)
    return blocks


# An operand on V (x) V (x) V is held as a (d, d, d, n) array whose first three
# axes are the row slots in the order ``layout``; a pair acts without copying
# the operand when its two slots are adjacent there.

def _slot_lift(r2: np.ndarray, p: np.ndarray, pair: tuple[int, int],
               layout: tuple[int, int, int]) -> np.ndarray:
    """The dense lift of r2 to ``pair`` as an operand: rows in ``layout``,
    columns in slot order, written by one assignment of its blocks."""
    d = len(p)
    x = 3 - sum(pair)
    out = np.zeros((d,) * 6, dtype=complex)
    index = [slice(None)] * 6
    index[x] = index[3 + x] = np.arange(d)
    view = out.transpose(tuple(layout.index(k) for k in range(3)) + (3, 4, 5))
    view[tuple(index)] = _lift_blocks(r2, p, pair).reshape((d,) * 5)
    return out.reshape(d, d, d, d ** 3)


def _slot_act(r2: np.ndarray, p: np.ndarray, pair: tuple[int, int], t: np.ndarray,
              layout: tuple[int, int, int]) -> np.ndarray:
    """lift(r2) @ t as a contraction over the pair's row slots, adjacent in
    ``layout``: one batched d^2 x d^2 matmul over the spectator index, on
    contiguous blocks when the spectator leads and on strided ones when it
    trails, so O(d^8) for a d^3 x d^3 operand and no copy of it."""
    d, n = len(p), t.shape[-1]
    a, b = pair
    blocks = _lift_blocks(r2, p, pair, swapped=layout.index(a) > layout.index(b))
    if layout[0] not in pair:
        return (blocks @ t.reshape(d, d * d, n)).reshape(t.shape)
    out = np.empty_like(t)
    np.matmul(blocks, t.reshape(d * d, d, n).transpose(1, 0, 2),
              out=out.reshape(d * d, d, n).transpose(1, 0, 2))
    return out


def _apply(r2: np.ndarray, p: np.ndarray, m: np.ndarray, pair: tuple[int, int]) -> np.ndarray:
    d = len(p)
    # slots 1 and 3 are adjacent once slots 1 and 2 trade places; the layout
    # is its own inverse
    layout = (1, 0, 2) if pair == (0, 2) else (0, 1, 2)
    t = np.ascontiguousarray(m.reshape(d, d, d, -1).transpose(layout + (3,)))
    out = _slot_act(r2, p, pair, t, layout).transpose(layout + (3,))
    return np.ascontiguousarray(out).reshape(m.shape)


def apply_12(r2: np.ndarray, p: np.ndarray, m: np.ndarray) -> np.ndarray:
    """lift_12(r2) @ m as a slot contraction, O(d^8) for a d^3 x d^3 operand."""
    return _apply(r2, p, m, (0, 1))


def apply_13(r2: np.ndarray, p: np.ndarray, m: np.ndarray) -> np.ndarray:
    """lift_13(r2) @ m as a slot contraction."""
    return _apply(r2, p, m, (0, 2))


def apply_23(r2: np.ndarray, p: np.ndarray, m: np.ndarray) -> np.ndarray:
    """lift_23(r2) @ m as a slot contraction."""
    return _apply(r2, p, m, (1, 2))


def verify_ybe(rank: SuperRank, ctx: QContext, zeta1: complex, zeta2: complex,
               zeta3: complex, grading: GradingVector | None = None,
               mode: str = "closed") -> float:
    """Max-entry residual of R12 R13 R23 - R23 R13 R12 on V (x) V (x) V.

    Each side starts from the dense lift of its innermost factor and applies
    the other two as slot contractions, R12 R13 R23 with the rows in slot
    order (2, 1, 3) and R23 R13 R12 in (1, 3, 2): in each, both pairs acted
    on are adjacent."""
    grading = grading if grading is not None else GradingVector.ones(rank)
    p = rank.parity_vector()
    r12 = r_operator(rank, ctx, zeta1, zeta2, grading, mode=mode)
    r13 = r_operator(rank, ctx, zeta1, zeta3, grading, mode=mode)
    r23 = r_operator(rank, ctx, zeta2, zeta3, grading, mode=mode)
    left, right = (1, 0, 2), (0, 2, 1)
    lhs = _slot_act(r12, p, (0, 1), _slot_act(
        r13, p, (0, 2), _slot_lift(r23, p, (1, 2), left), left), left)
    rhs = _slot_act(r23, p, (1, 2), _slot_act(
        r13, p, (0, 2), _slot_lift(r12, p, (0, 1), right), right), right)
    lhs, rhs = lhs.transpose(1, 0, 2, 3), rhs.transpose(0, 2, 1, 3)  # slot order
    return _maxabs(np.subtract(lhs, rhs, out=lhs))


def verify_intertwining(rank: SuperRank, ctx: QContext, zeta1: complex,
                        zeta2: complex, grading: GradingVector | None = None,
                        mode: str = "closed") -> dict[str, float]:
    """Residuals of Delta'(a) R = R Delta(a) for every generator a, all of
    them from one coproduct stack and one batched product."""
    grading = grading if grading is not None else GradingVector.ones(rank)
    rep1 = EvaluationRep(rank, ctx, zeta1, grading)
    rep2 = EvaluationRep(rank, ctx, zeta2, grading)
    r = r_operator(rank, ctx, zeta1, zeta2, grading, mode=mode)
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
    name: str
    params: str
    residual: float
    tolerance: float
    seconds: float

    @property
    def passed(self) -> bool:
        return self.residual < self.tolerance

    def line(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        return (f"{flag}  {self.name:<28s} residual={self.residual:.3e} "
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
                {"name": c.name, "params": c.params, "residual": c.residual,
                 "tolerance": c.tolerance, "passed": c.passed, "seconds": c.seconds}
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
    series_order: int = 40
    seed: int = 0
    tol_override: float | None = None
    checks: tuple[str, ...] | None = None  # subset filter by name

    def context(self) -> QContext:
        return QContext(q=self.q, series_order=self.series_order)

    def grading_vector(self) -> GradingVector:
        return self.grading if self.grading is not None else GradingVector.ones(self.rank)


def run_suite(cfg: VerifyConfig) -> VerificationReport:
    """Run the verification checks in dependency order; deterministic for a
    fixed seed.  Individual check failures are recorded, not raised;
    configuration errors (bad q, unknown check names) are raised."""
    rank = cfg.rank
    ctx = cfg.context()
    grading = cfg.grading_vector()
    if cfg.checks is not None:
        unknown = set(cfg.checks) - set(DEFAULT_TOLERANCES)
        if unknown:
            raise ValueError(f"unknown check names: {sorted(unknown)}")
    rng = np.random.default_rng(cfg.seed)
    report = VerificationReport(config={
        "m": rank.m, "n": rank.n, "q": [ctx.q.real, ctx.q.imag],
        "zeta1": [complex(cfg.zeta1).real, complex(cfg.zeta1).imag],
        "zeta2": [complex(cfg.zeta2).real, complex(cfg.zeta2).imag],
        "zeta3": [complex(cfg.zeta3).real, complex(cfg.zeta3).imag],
        "grading": list(grading.s), "n_max": cfg.n_max,
        "series_order": cfg.series_order, "seed": cfg.seed,
        "tolerance_override": cfg.tol_override,
    })

    def tol(name):
        return cfg.tol_override if cfg.tol_override is not None else DEFAULT_TOLERANCES[name]

    def run(name, params, fn):
        if cfg.checks is not None and name not in cfg.checks:
            return
        t0 = time.perf_counter()
        residual = float(fn())
        report.checks.append(CheckResult(
            name=name, params=params, residual=residual,
            tolerance=tol(name), seconds=time.perf_counter() - t0))

    rep1 = EvaluationRep(rank, ctx, cfg.zeta1, grading)
    rep2 = EvaluationRep(rank, ctx, cfg.zeta2, grading)
    n_sim = min(40, cfg.series_order)

    @functools.cache
    def tables():
        # one pair for every check that reads root vectors; levels up to
        # n_max of a deeper table equal those of a shallower one
        depth = max(cfg.n_max, n_sim)
        return build_root_vectors(rep1, depth), build_root_vectors(rep2, depth)

    run("scalars", "q-number and series identities", lambda: _check_scalars(ctx, rng))
    run("relations", f"defining relations at zeta={cfg.zeta1}",
        lambda: check_defining_relations(rep1)["max"])
    run("root_vectors_closed_form", f"all roots, n <= {cfg.n_max}, relative",
        lambda: _check_root_vectors(rep1, tables()[0], cfg.n_max))
    run("level_pairing", f"bracket identity, m+n <= {cfg.n_max}",
        lambda: _check_level_pairing(rep1, tables()[0], cfg.n_max))
    run("qcartan_inverse", "closed form vs recurrences vs dense solve",
        lambda: _check_qcartan(rank, ctx))
    run("k_two_path", "weight construction vs closed form",
        lambda: _maxabs(k_operator_weights(rep1, rep2) - k_operator_closed(rank, ctx)))
    run("factor_convergence", "products/series vs closed factors",
        lambda: _check_factor_convergence(rank, ctx, cfg, grading, tables(), n_sim))
    run("r_two_path", "factorized product vs closed form",
        lambda: build_rfactors(rank, ctx, cfg.zeta1, cfg.zeta2, grading,
                               n_max_product=60, n_max_sim=n_sim, tables=tables()
                               ).cross_mode_residual)
    run("r_homogeneity", "R(c z1, c z2) = R(z1, z2)",
        lambda: _check_homogeneity(rank, ctx, cfg, grading, rng))
    run("r_sparsity", "vertex-model sparsity pattern",
        lambda: _check_sparsity(rank, ctx, cfg, grading))
    run("intertwining", "all generators",
        lambda: verify_intertwining(rank, ctx, cfg.zeta1, cfg.zeta2, grading)["max"])
    run("ybe", f"zetas=({cfg.zeta1}, {cfg.zeta2}, {cfg.zeta3})",
        lambda: verify_ybe(rank, ctx, cfg.zeta1, cfg.zeta2, cfg.zeta3, grading))
    return report


# -- individual checks -------------------------------------------------------

def _check_scalars(ctx: QContext, rng) -> float:
    worst = 0.0
    for _ in range(20):
        nu = complex(rng.normal(), rng.normal())
        worst = max(worst, abs(q_number(nu, ctx) + q_number(-nu, ctx)))
    # series log inverts series exp
    coeffs = np.array([1.0] + [complex(rng.normal(), rng.normal()) * 0.3 for _ in range(8)])
    worst = max(worst, _maxabs(series_exp(series_log(coeffs)) - coeffs))
    # nilpotent argument: exp_q = 1 + x for any base
    x = np.zeros((3, 3), dtype=complex)
    x[0, 2] = 1.7 - 0.4j
    worst = max(worst, _maxabs(q_exponential(x, 2.0, ctx) - np.eye(3) - x))
    # the transcendental sum at m = 1 is a plain logarithm
    from .scalars import f_m as _fm

    z = 0.31 + 0.11j
    log_ref = -np.log(1 - z)
    tail = abs(z) ** (ctx.series_order + 1) / (1 - abs(z))
    worst = max(worst, max(0.0, abs(_fm(z, 1, ctx) - log_ref) - tail))
    return worst


def _check_root_vectors(rep: EvaluationRep, table, n_max: int) -> float:
    """Worst ||A - B||_max / max(1, ||B||_max) of a recursion image A against
    its closed form B: the images scale like zeta**(+-n s), so an absolute
    residual would measure their size rather than the agreement."""
    rank = rep.rank

    def rel(a, b):
        return _maxabs(a - b) / max(1.0, _maxabs(b))

    worst = 0.0
    for side in "ef":
        primed = table.primed(side)
        unprimed = table.unprimed_diagonals(side, n_max)
        for root in positive_roots(rank, n_max):
            kind = classify(rank, root)
            if kind[0] == "imaginary":
                _, n, i = kind
                worst = max(worst, rel(np.diag(unprimed[n - 1, i - 1]),
                                       closed_form_imaginary(rep, n, i, side)))
                worst = max(worst, rel(primed[n - 1, i - 1],
                                       closed_form_imaginary(rep, n, i, side, primed=True)))
            else:
                worst = max(worst, rel(table.real(side, root),
                                       closed_form_root_vector(rep, root, side)))
    return worst


def _check_level_pairing(rep: EvaluationRep, table, n_max: int) -> float:
    rank, ctx = rep.rank, rep.ctx
    data = cartan_data(rank)
    unprimed = table.unprimed_diagonals("e", n_max)
    worst = 0.0
    for n in range(1, n_max + 1):
        tn = t_matrix(rank, ctx, n)
        worst = max(worst, _maxabs(u_matrix(rank, ctx, n) @ tn - np.eye(rank.L)))
        for m_lv in range(0, n_max - n + 1):
            for i in range(1, rank.L + 1):
                root = real_plus_root(rank, i, i + 1, m_lv)
                for j in range(1, rank.L + 1):
                    lhs = q_supercommutator(
                        rank, ctx, graded_element(rank, root, table.real("e", root)),
                        graded_element(rank, imaginary_root(rank, n, j),
                                       np.diag(unprimed[n - 1, j - 1]))).matrix
                    dress = (data.o[i - 1] * data.o[j - 1]) ** n
                    rhs = (data.d_simple[j] * dress * tn[i - 1, j - 1]
                           * table.real("e", real_plus_root(rank, i, i + 1, m_lv + n)))
                    worst = max(worst, _maxabs(lhs - rhs))
    return worst


def _check_qcartan(rank: SuperRank, ctx: QContext) -> float:
    worst = 0.0
    for scale in (1, 2, 3):
        bq = bq_matrix(rank, ctx, scale)
        tri = bq_tridiagonal(rank, ctx, scale)
        worst = max(worst, _maxabs(tri.dense() - bq))
        closed = bq_inverse_closed(rank, ctx, scale)
        worst = max(worst, _maxabs(closed - tridiag_inverse(tri)))
        worst = max(worst, _maxabs(closed @ bq - np.eye(rank.L)))
        worst = max(worst, _maxabs(closed - np.linalg.inv(bq)))
    worst = max(worst, _maxabs(c_matrix(rank) @ cartan_data(rank).b.astype(float)
                               - np.eye(rank.L)))
    return worst


def _check_factor_convergence(rank, ctx, cfg, grading, tables, n_sim) -> float:
    z12 = Zeta12.from_pair(cfg.zeta1, cfg.zeta2, grading)
    worst = _maxabs(r_prec_delta(rank, ctx, z12, grading, "product", 60)
                    - r_prec_delta(rank, ctx, z12, grading, "closed"))
    worst = max(worst, _maxabs(r_succ_delta(rank, ctx, z12, grading, "product", 60)
                               - r_succ_delta(rank, ctx, z12, grading, "closed")))
    worst = max(worst, _maxabs(
        r_sim_delta(rank, ctx, z12, grading, "series", n_sim, tables=tables)
        - r_sim_delta(rank, ctx, z12, grading, "closed")))
    return worst


def _check_homogeneity(rank, ctx, cfg, grading, rng) -> float:
    c = complex(0.7 + 0.4 * rng.random(), 0.3 * rng.random() - 0.15)
    base = r_operator(rank, ctx, cfg.zeta1, cfg.zeta2, grading)
    moved = r_operator(rank, ctx, c * cfg.zeta1, c * cfg.zeta2, grading)
    return _maxabs(base - moved)


def _check_sparsity(rank, ctx, cfg, grading) -> float:
    """Largest entry of R outside the vertex-model pattern: R[(i,k),(j,l)] may
    be nonzero only for (i, k) = (j, l) or (i, k) = (l, j)."""
    r = r_operator(rank, ctx, cfg.zeta1, cfg.zeta2, grading)
    dim = rank.dim
    i, k, j, l = np.indices((dim,) * 4)
    allowed = ((i == j) & (k == l)) | ((i == l) & (k == j))
    return float(np.max(np.abs(r.reshape(dim, dim, dim, dim))[~allowed], initial=0.0))
