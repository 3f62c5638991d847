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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gradedmatrix import GradedElement, graded_element, matrix_unit, q_supercommutator
from .reps import EvaluationRep
from .rootdata import (
    AffineRoot,
    SuperRank,
    bilinear,
    cartan_data,
    classify,
    h_gamma,
    imaginary_root,
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
    "a_gamma",
]


@dataclass
class RootVectorTable:
    """Images of the positive-root vectors (and their negatives) under one
    evaluation representation, keyed by the positive root."""

    rep: EvaluationRep
    n_max: int
    e: dict[AffineRoot, GradedElement] = field(default_factory=dict)
    f: dict[AffineRoot, GradedElement] = field(default_factory=dict)
    e_prime: dict[tuple[int, int], GradedElement] = field(default_factory=dict)
    f_prime: dict[tuple[int, int], GradedElement] = field(default_factory=dict)
    e_imag: dict[tuple[int, int], GradedElement] = field(default_factory=dict)
    f_imag: dict[tuple[int, int], GradedElement] = field(default_factory=dict)


def _scaled(el: GradedElement, factor: complex) -> GradedElement:
    return GradedElement(root=el.root, matrix=factor * el.matrix, parity=el.parity)


def build_root_vectors(rep: EvaluationRep, n_max: int,
                       with_unprimed: bool = True) -> RootVectorTable:
    """Populate the full table of root-vector images up to n_max deltas."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    rank, ctx = rep.rank, rep.ctx
    dim = rank.dim
    table = RootVectorTable(rep=rep, n_max=n_max)
    br = lambda x, y: q_supercommutator(rank, ctx, x, y)

    # finite ladder: alpha_ij by increasing length
    for i in range(1, dim):
        r = real_plus_root(rank, i, i + 1)
        table.e[r] = rep.element_e(i)
        table.f[r] = graded_element(rank, -r, rep.f(i))
    for span in range(2, dim):
        for i in range(1, dim - span + 1):
            j = i + span
            r = real_plus_root(rank, i, j)
            prev = real_plus_root(rank, i, j - 1)
            last = real_plus_root(rank, j - 1, j)
            table.e[r] = br(table.e[prev], table.e[last])
            table.f[r] = br(table.f[prev], table.f[last])

    # wrap family at level zero, seeded by the affine generators
    r = real_wrap_root(rank, 1, dim)
    table.e[r] = graded_element(rank, r, rep.e(0))
    table.f[r] = graded_element(rank, -r, rep.f(0))
    for i in range(2, dim):
        r = real_wrap_root(rank, i, dim)
        prev = real_wrap_root(rank, i - 1, dim)
        step = real_plus_root(rank, i - 1, i)
        table.e[r] = br(table.e[step], table.e[prev])
        table.f[r] = br(table.f[step], table.f[prev])
    for i in range(1, dim):
        for j in range(dim - 1, i, -1):
            r = real_wrap_root(rank, i, j)
            prev = real_wrap_root(rank, i, j + 1)
            step = real_plus_root(rank, j, j + 1)
            table.e[r] = br(table.e[step], table.e[prev])
            table.f[r] = br(table.f[step], table.f[prev])

    _primed_level(table, 1)

    for n in range(1, n_max + 1):
        first = 2 if rank.m == 1 else 1
        for i in range(first, dim):
            a = i if i < rank.m else i - 1
            for j in range(i + 1, dim + 1):
                pref = _ladder_prefactor(rank, ctx, i, j, a)
                rp, rp_prev = real_plus_root(rank, i, j, n), real_plus_root(rank, i, j, n - 1)
                table.e[rp] = _scaled(br(table.e[rp_prev], table.e_prime[(1, a)]), pref)
                table.f[rp] = _scaled(br(table.f[rp_prev], table.f_prime[(1, a)]), pref)
                rw, rw_prev = real_wrap_root(rank, i, j, n), real_wrap_root(rank, i, j, n - 1)
                table.e[rw] = _scaled(br(table.e_prime[(1, a)], table.e[rw_prev]), pref)
                table.f[rw] = _scaled(br(table.f_prime[(1, a)], table.f[rw_prev]), pref)
        if rank.m == 1:
            _first_row_level(table, n)
        if n + 1 <= n_max:
            _primed_level(table, n + 1)

    if with_unprimed and n_max >= 1:
        unprimed_imaginary(table)
    return table


def _primed_level(table: RootVectorTable, n: int) -> None:
    """Primed imaginary vectors at level n from reals at level n - 1."""
    rep = table.rep
    rank, ctx = rep.rank, rep.ctx
    for i in range(1, rank.dim):
        sgn = -1.0 if rank.simple_parity(i) else 1.0
        ei = q_supercommutator(rank, ctx, table.e[real_plus_root(rank, i, i + 1, n - 1)],
                               table.e[real_wrap_root(rank, i, i + 1)])
        fi = q_supercommutator(rank, ctx, table.f[real_plus_root(rank, i, i + 1, n - 1)],
                               table.f[real_wrap_root(rank, i, i + 1)])
        table.e_prime[(n, i)] = GradedElement(
            root=imaginary_root(rank, n, i), matrix=sgn * ei.matrix, parity=0)
        table.f_prime[(n, i)] = GradedElement(
            root=-imaginary_root(rank, n, i), matrix=sgn * fi.matrix, parity=0)


def _first_row_level(table: RootVectorTable, n: int) -> None:
    """Level-n vectors of the row i = 1 when M = 1 (no left neighbor).

    The simple root alpha_1 is isotropic, so the generic normalizer is not
    available.  The ladder of alpha_12 + n delta is normalized through the
    level-pairing identity against the unprimed vector of node 2; longer
    roots alpha_1j + n delta are composed with the finite tail alpha_2j, and
    the wrap row brackets with the isotropic level-one vector, rescaled by q
    so its per-level multiplier matches the generic odd-node wrap row.
    """
    rep = table.rep
    rank, ctx = rep.rank, rep.ctx
    dim = rank.dim
    br = lambda x, y: q_supercommutator(rank, ctx, x, y)
    data = cartan_data(rank)

    norm = data.d_simple[2] * rank.o(1) * rank.o(2) * ctx.qnum(int(data.b[0, 1]))
    r, prev = real_plus_root(rank, 1, 2, n), real_plus_root(rank, 1, 2, n - 1)
    table.e[r] = _scaled(br(table.e[prev], table.e_prime[(1, 2)]), 1.0 / norm)
    table.f[r] = _scaled(br(table.f[prev], table.f_prime[(1, 2)]), 1.0 / norm)
    for j in range(3, dim + 1):
        r = real_plus_root(rank, 1, j, n)
        tail = real_plus_root(rank, 2, j)
        table.e[r] = br(table.e[real_plus_root(rank, 1, 2, n)], table.e[tail])
        table.f[r] = br(table.f[real_plus_root(rank, 1, 2, n)], table.f[tail])

    r, prev = real_wrap_root(rank, 1, dim, n), real_wrap_root(rank, 1, dim, n - 1)
    table.e[r] = _scaled(br(table.e_prime[(1, 1)], table.e[prev]), ctx.qpow(1))
    table.f[r] = _scaled(br(table.f_prime[(1, 1)], table.f[prev]), ctx.qpow(-1))
    for j in range(dim - 1, 1, -1):
        r = real_wrap_root(rank, 1, j, n)
        prev = real_wrap_root(rank, 1, j + 1, n)
        step = real_plus_root(rank, j, j + 1)
        table.e[r] = br(table.e[step], table.e[prev])
        table.f[r] = br(table.f[step], table.f[prev])


def _ladder_prefactor(rank: SuperRank, ctx, i: int, j: int, a: int) -> complex:
    pairing = bilinear(rank, real_plus_root(rank, i, j), simple_root(rank, a))
    den = ctx.qnum(pairing)
    if abs(den) <= ctx.tolerance:
        raise DegenerateQError(f"vanishing q-number [{pairing}]_q in the delta ladder")
    sgn = -1.0 if rank.simple_parity(a) else 1.0
    return sgn / den


def unprimed_imaginary(table: RootVectorTable) -> RootVectorTable:
    """Fill the unprimed imaginary vectors from the primed ones.

    The generating function of the unprimed family is the series logarithm of
    1 -+ (q_i - q_i^{-1}) times the primed generating function.  All the
    matrices here are diagonal, so the log is taken entrywise on diagonals.
    """
    rep, n_max = table.rep, table.n_max
    rank, ctx = rep.rank, rep.ctx
    if n_max >= 1 and any((n_max, i) not in table.e_prime for i in range(1, rank.dim)):
        raise ValueError("primed imaginary vectors missing up to n_max")
    for i in range(1, rank.dim):
        kappa = ctx.qpow(rank.d(i)) - ctx.qpow(-rank.d(i))  # q_i - q_i^{-1}
        for which, prime, out, sign in (
            ("e", table.e_prime, table.e_imag, -1.0),
            ("f", table.f_prime, table.f_imag, +1.0),
        ):
            coeffs = np.ones((n_max + 1, rank.dim), dtype=complex)
            for n in range(1, n_max + 1):
                mat = prime[(n, i)].matrix
                off = mat - np.diag(np.diag(mat))
                if np.max(np.abs(off)) > 1e-12 * max(1.0, float(np.max(np.abs(mat)))):
                    raise AssertionError("primed imaginary vector is not diagonal")
                coeffs[n] = sign * kappa * np.diag(mat)
            logseries = TruncatedSeries(coeffs).log(tol=1e-9)
            for n in range(1, n_max + 1):
                root = imaginary_root(rank, n, i)
                out[(n, i)] = GradedElement(
                    root=root if which == "e" else -root,
                    matrix=np.diag((sign / kappa) * logseries.coeffs[n]),
                    parity=0,
                )
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


def u_matrix(rank: SuperRank, ctx, n: int) -> np.ndarray:
    """U_n = T_n^{-1}, from the closed-form q-Cartan inverse at base q**n
    rescaled via [n b]_q = [n]_q [b]_{q**n}."""
    if n < 1:
        raise ValueError("n must be positive")
    qn = ctx.qnum(n)
    if abs(qn) <= ctx.tolerance:
        raise DegenerateQError(f"[{n}]_q vanishes")
    return (n / qn) * bq_inverse_closed(rank, ctx, scale=n)


def a_gamma(rep: EvaluationRep, table: RootVectorTable, root: AffineRoot) -> complex:
    """Normalization a solving [e_g, f_g] = a (q^{h_g} - q^{-h_g})/(q - q^{-1})
    in the representation (least squares over the diagonal)."""
    rank, ctx = rep.rank, rep.ctx
    if root not in table.e or root not in table.f:
        raise KeyError(f"root {root} not in table")
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
