"""Check that this tree computes the same numbers as another revision.

    python tools/same_numbers.py REV

exports REV with `git archive` into a temporary directory, then, in a fresh
interpreter per tree (this working tree and the export, each importing its
own src/), dumps every number of a fixed grid and compares the two dumps
with np.array_equal (NaN equal to NaN).  It prints the array count and every
key that differs, and exits 1 if any does, 0 if none does.

The grid is the ranks (2,1), (1,2), (3,1), (1,3), (3,2), (2,3), (1,4), (1,5),
(4,3), each with the principal grading and with s_0 = 2, at
q = 1.1+0.2i, e^(0.05+0.4i) and 0.93+0.31i and two spectral pairs
(zeta1, zeta2), zeta3 = 1.7.  At each point it dumps every build_rfactors
field; the level q-numbers the build reads, u_matrices at levels 1..40 and
f_m at rho's two arguments; the ladder factors of the rank and q; both
root-vector tables' real() of every real positive root with at most 6
deltas, primed_diagonals and unprimed_diagonals to depth 6, on both sides,
and their series part at the build's own depth 40 (primed_diagonals and
unprimed_diagonals to depth 40, both sides); verify_ybe and
verify_intertwining; and every residual and error of the default run_suite.
A point that raises is dumped up to the call that raised and then as its
exception type and message, so a refusal must match too.  A few points apart
from the grid (REFUSALS), where a level q-number vanishes or a level
overflows, dump each level reader and the build on its own, so that each
refusal is compared.  Every rank with M+N <= 10 dumps its integer tables:
cartan_data's matrices and signs, the slot exponents of the Cartan
generators, the rows and cols of the generator units on both sides,
k_operator_weights at q = 1.1+0.2i, the parity of every positive root with at
most 2 deltas, and the signs of the climbing rows' ladder factors.
"""

from __future__ import annotations

import cmath
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent.parent  # the working tree
RANKS = [(2, 1), (1, 2), (3, 1), (1, 3), (3, 2), (2, 3), (1, 4), (1, 5), (4, 3)]
QS = [1.1 + 0.2j, cmath.exp(0.05 + 0.4j), 0.93 + 0.31j]
ZETAS = [(0.6 + 0.1j, 1.0 + 0.05j), (0.5 - 0.2j, 0.9 + 0.3j)]
ZETA3 = 1.7
DEPTH = 6
BUILD_DEPTH = 40  # the depth build_rfactors builds its tables at by default
# (rank, q) at the first spectral pair: at e^(i pi/60) the divisor
# [M-N]_(q**30) vanishes; at 1000 an unprimed level, at 1e150 a level U_n
# passes the float range
REFUSALS = [((3, 1), cmath.exp(1j * cmath.pi / 60)), ((1, 3), cmath.exp(1j * cmath.pi / 60)),
            ((2, 1), 1000.0), ((2, 1), 1e150)]
TABLE_DIM = 10


def _level_readers(rank, ctx, zeta1, zeta2, grading):
    """The level q-numbers a build reads, as (name, thunk) pairs: U_n at
    levels 1..series_order and f_m at rho's two arguments."""
    from superrmatrix.cartanweyl import u_matrices
    from superrmatrix.rfactors import Zeta12
    from superrmatrix.scalars import f_m

    k, zs = rank.m - rank.n, Zeta12.from_pair(zeta1, zeta2, grading).zs
    yield "u_matrices", lambda: u_matrices(rank, ctx, np.arange(1, ctx.series_order + 1))
    yield "f_m", lambda: f_m(np.array([ctx.qpow(k - 1) * zs, ctx.qpow(1 - k) * zs]), k, ctx)


def _point_arrays(rank, grading, q, zeta1, zeta2):
    """Every number of one grid point, as (name, value) pairs."""
    from superrmatrix import rfactors, verify
    from superrmatrix.cartanweyl import _ladder, build_root_vectors
    from superrmatrix.reps import EvaluationRep
    from superrmatrix.rootdata import real_plus_root, real_wrap_root
    from superrmatrix.scalars import QContext

    ctx = QContext(q=q)
    factors = rfactors.build_rfactors(rank, ctx, zeta1, zeta2, grading)
    for name in ("k", "r_prec", "r_sim", "r_succ", "rho", "r_total", "r_closed"):
        yield f"build_rfactors/{name}", getattr(factors, name)
    for name, read in _level_readers(rank, ctx, zeta1, zeta2, grading):
        yield name, read()
    yield "ladder", _ladder(rank, ctx)
    roots = {"real_plus": real_plus_root, "real_wrap": real_wrap_root}
    for t, zeta in enumerate((zeta1, zeta2)):
        rep = EvaluationRep(rank, ctx, zeta, grading)
        table, deep = build_root_vectors(rep, DEPTH), build_root_vectors(rep, BUILD_DEPTH)
        for side in "ef":
            yield f"table{t}/{side}/primed{BUILD_DEPTH}", deep.primed_diagonals(side)
            yield (f"table{t}/{side}/unprimed{BUILD_DEPTH}",
                   deep.unprimed_diagonals(side, BUILD_DEPTH))
            yield f"table{t}/{side}/primed", table.primed_diagonals(side)
            yield f"table{t}/{side}/unprimed", table.unprimed_diagonals(side, DEPTH)
            for kind, root in roots.items():
                for i in range(1, rank.dim):
                    for j in range(i + 1, rank.dim + 1):
                        for n in range(DEPTH + 1):
                            yield (f"table{t}/{side}/{kind}/{i},{j},{n}",
                                   table.real(side, root(rank, i, j, n)))
    yield "verify_ybe", verify.verify_ybe(rank, ctx, zeta1, zeta2, ZETA3, grading)
    residuals = verify.verify_intertwining(rank, ctx, zeta1, zeta2, grading)
    yield "verify_intertwining", [residuals[key] for key in sorted(residuals)]
    report = verify.run_suite(verify.VerifyConfig(rank=rank, q=q, zeta1=zeta1, zeta2=zeta2,
                                                  zeta3=ZETA3, grading=grading))
    for check in report.checks:
        yield f"run_suite/{check.name}/residual", check.residual
        yield f"run_suite/{check.name}/error", str(check.error)


def _rank_tables(rank):
    """The per-rank integer tables, and K from weights, as (name, value) pairs;
    only names that every compared revision has."""
    from superrmatrix import reps
    from superrmatrix.cartanweyl import _ladder_table
    from superrmatrix.rfactors import k_operator_weights
    from superrmatrix.rootdata import cartan_data, parity, positive_roots
    from superrmatrix.scalars import QContext

    data = cartan_data(rank)
    for name in ("a", "b", "a1", "b1", "d_simple", "o"):
        yield f"cartan_data/{name}", getattr(data, name)
    yield "cartan_exponents", reps._cartan_exponents(rank)
    rep = reps.EvaluationRep(rank, QContext(q=QS[0]), 1.0)
    for side in "ef":
        rows, cols, _ = rep.units(side)
        yield f"units/{side}/rows", rows
        yield f"units/{side}/cols", cols
    yield "k_operator_weights", k_operator_weights(rep, rep)
    yield "parity", [parity(rank, root) for root in positive_roots(rank, 2)]
    yield "ladder_sign", _ladder_table(rank)[3]


def _collect(arrays: dict, point: str, pairs) -> None:
    """Add the (name, value) pairs to arrays under point, up to the first that
    raises, and then that exception's type and message."""
    try:
        for name, value in pairs:
            arrays[f"{point}/{name}"] = np.asarray(value)
    except Exception as exc:  # a refused point must be refused alike
        arrays[f"{point}/raised"] = np.array(f"{type(exc).__name__}: {exc}")


def _dump(path: str) -> None:
    """Write every number of the grid and of the refusal points, keyed by
    point and name, to path (.npz)."""
    from superrmatrix.rfactors import build_rfactors
    from superrmatrix.reps import GradingVector
    from superrmatrix.rootdata import SuperRank
    from superrmatrix.scalars import QContext

    arrays = {}
    for m, n in RANKS:
        rank = SuperRank(m, n)
        for s0 in (1, 2):
            grading = GradingVector((s0,) + (1,) * rank.L)
            for a, q in enumerate(QS):
                for b, (zeta1, zeta2) in enumerate(ZETAS):
                    _collect(arrays, f"{m},{n}/s0={s0}/q{a}/zeta{b}",
                             _point_arrays(rank, grading, q, zeta1, zeta2))
    for c, ((m, n), q) in enumerate(REFUSALS):
        rank, ctx, (zeta1, zeta2) = SuperRank(m, n), QContext(q=q), ZETAS[0]
        grading = GradingVector.ones(rank)
        readers = [*_level_readers(rank, ctx, zeta1, zeta2, grading),
                   ("build_rfactors", lambda: build_rfactors(rank, ctx, zeta1, zeta2).r_total)]
        for name, read in readers:
            _collect(arrays, f"refusal{c}/{m},{n}/{name}", (("value", read()) for _ in [0]))
    for dim in range(3, TABLE_DIM + 1):
        for m in range(1, dim):
            if 2 * m != dim:
                rank = SuperRank(m, dim - m)
                _collect(arrays, f"tables/{m},{dim - m}", _rank_tables(rank))
    np.savez(path, **arrays)


def _run_dump(tree: Path, out: Path) -> None:
    """Dump the grid from tree's own src/ in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    code = (f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); "
            f"import superrmatrix, same_numbers; "
            f"assert superrmatrix.__file__.startswith({str(tree)!r}), superrmatrix.__file__; "
            f"same_numbers._dump({str(out)!r})")
    subprocess.run([sys.executable, "-c", code], cwd=tree, env=env, check=True)


def _same(x: np.ndarray, y: np.ndarray) -> bool:
    if x.dtype.kind in "fc" and y.dtype.kind in "fc":
        return np.array_equal(x, y, equal_nan=True)
    return x.dtype == y.dtype and np.array_equal(x, y)


def export(rev: str, dest: Path) -> None:
    """Write the committed files of rev, and nothing else, into dest."""
    dest.mkdir()
    archive = subprocess.run(["git", "-C", str(HERE), "archive", rev],
                             stdout=subprocess.PIPE, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def main(argv: list[str]) -> int:
    if len(argv) != 1 or argv[0].startswith("-"):
        print("usage: python tools/same_numbers.py REV", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        export(argv[0], tmp / "rev")
        _run_dump(tmp / "rev", tmp / "rev.npz")
        _run_dump(HERE, tmp / "tree.npz")
        with np.load(tmp / "rev.npz") as rev, np.load(tmp / "tree.npz") as tree:
            differ = sorted(set(rev.files) ^ set(tree.files))
            differ += [key for key in sorted(set(rev.files) & set(tree.files))
                       if not _same(rev[key], tree[key])]
            print(f"{len(tree.files)} arrays in this tree, {len(rev.files)} at {argv[0]}")
    for key in differ:
        print(f"differs: {key}")
    print(f"{len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
