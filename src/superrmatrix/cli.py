"""Command-line front end.

Subcommands:
  rmatrix  compute the R-operator and export it (JSON or CSV)
  verify   run the verification suite; exit 0 only if every check passes
  roots    dump the normally ordered positive roots with parities and
           closed-form monomial data

Exit codes: 0 success, 1 verification failure, 2 configuration error (a bad
option, an input outside a domain, a pole, an overflow, or an output path
that cannot be written).
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import io
import json
import math
import os
import sys

import numpy as np

# what every subcommand reads; each command imports the rest of what it runs
from .reps import GradingVector
from .rootdata import SuperRank, bilinear, classify, parity, positive_roots, root_label
from .scalars import QContext

OUTPUT_DIR_ENV = "SUPERRMATRIX_OUTDIR"


def parse_complex(text: str) -> complex:
    """Accept '1.2', '1.2+0.3j', or '1.2,0.3'; reject nan and inf."""
    text = text.strip()
    if "," in text:
        re_s, im_s = text.split(",", 1)
        value = complex(float(re_s), float(im_s))
    else:
        value = complex(text)
    if not cmath.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def parse_float(text: str) -> float:
    """A finite float; reject nan and inf."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def parse_grading(text: str, rank: SuperRank) -> GradingVector:
    try:
        parts = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse grading {text!r}") from None
    return GradingVector(parts).checked(rank)


def build_parser() -> argparse.ArgumentParser:
    """Each subcommand declares only the options it reads."""
    parser = argparse.ArgumentParser(
        prog="superrmatrix",
        description="Trigonometric R-operators for the q-deformed loop "
                    "superalgebra of sl(M|N)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_rm = sub.add_parser("rmatrix", help="compute and export the R-operator")
    p_v = sub.add_parser("verify", help="run the verification suite")
    p_r = sub.add_parser("roots", help="dump the ordered positive roots")
    for p in (p_rm, p_v, p_r):
        p.add_argument("--m", type=int, default=2)
        p.add_argument("--n", type=int, default=1)
        p.add_argument("--grading", type=str, default=None,
                       help='comma-separated integers s_0..s_L, e.g. "1,1,1"')
        p.add_argument("--output", type=str, default=None)
    for p in (p_rm, p_v):
        p.add_argument("--q-re", type=parse_float, default=1.1)
        p.add_argument("--q-im", type=parse_float, default=0.2)
        p.add_argument("--zeta1", type=parse_complex, default=0.6 + 0j)
        p.add_argument("--zeta2", type=parse_complex, default=1.0 + 0j)
    for p in (p_v, p_r):
        p.add_argument("--nmax", type=int, default=4)
    p_rm.add_argument("--format", choices=("json", "csv"), default="json")
    p_rm.add_argument("--mode", choices=("closed", "pipeline"), default="closed")
    p_v.add_argument("--zeta3", type=parse_complex, default=1.7 + 0j)
    p_v.add_argument("--seed", type=int, default=0)
    p_v.add_argument("--checks", type=str, default=None,
                     help="comma-separated subset of check names")
    return parser


def _resolve_rank(args):
    rank = SuperRank(args.m, args.n)
    if args.grading is not None:
        return rank, parse_grading(args.grading, rank)
    return rank, GradingVector.ones(rank)


def _resolve_setup(args):
    rank, grading = _resolve_rank(args)
    return rank, QContext(q=complex(args.q_re, args.q_im)), grading


@contextlib.contextmanager
def _output_path(args, default_name: str):
    """The output file, None for stdout.  It is opened here for appending, so
    that a path that cannot be written fails before any work and an existing
    file is kept until the output replaces it; a file this opening created
    is removed again if the run then fails."""
    outdir = os.environ.get(OUTPUT_DIR_ENV)
    path = args.output or (os.path.join(outdir, default_name) if outdir else None)
    created = path is not None and not os.path.lexists(path)
    if path is not None:
        open(path, "a").close()
    try:
        yield path
    except BaseException:
        if created:
            os.remove(path)
        raise


def _complex_pair(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def matrix_payload(rank, ctx, args, grading, matrix, mode, metadata) -> dict:
    return {
        "m": rank.m,
        "n": rank.n,
        "q": _complex_pair(ctx.q),
        "zeta1": _complex_pair(args.zeta1),
        "zeta2": _complex_pair(args.zeta2),
        "grading": list(grading.s),
        "mode": mode,
        "rows": matrix.shape[0],
        "cols": matrix.shape[1],
        "entries": [_complex_pair(v) for v in matrix.reshape(-1)],
        "metadata": metadata,
    }


def _write_csv(matrix: np.ndarray, stream) -> None:
    for row in matrix:
        cells = []
        for v in row:
            cells.append(repr(float(v.real)))
            cells.append(repr(float(v.imag)))
        stream.write(",".join(cells) + "\n")


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(path, "w") as fh:
            fh.write(text)


def cmd_rmatrix(args, path: str | None) -> int:
    from .rfactors import PRODUCT_LEVELS, SERIES_LEVELS, build_rfactors, r_operator

    rank, ctx, grading = _resolve_setup(args)
    levels = {"n_max_product": PRODUCT_LEVELS, "n_max_sim": SERIES_LEVELS}
    try:
        factors = build_rfactors(rank, ctx, args.zeta1, args.zeta2, grading, **levels)
        if not np.isfinite(factors.r_total).all():
            raise ValueError(f"the pipeline R-operator is not finite at q = {ctx.q}: "
                             "a level of its factors overflows")
    except (ValueError, OverflowError):
        if args.mode == "pipeline":
            raise
        # outside the series disc, where a level q-number vanishes, or where a
        # level overflows, only the closed form is available
        factors = None
    if args.mode == "pipeline":
        matrix = factors.r_total
    else:
        matrix = r_operator(rank, ctx, args.zeta1, args.zeta2, grading, mode="closed")
    if factors is None:  # no build ran
        meta = dict.fromkeys(["cross_mode_residual", *levels])
    else:
        meta = {"cross_mode_residual": factors.cross_mode_residual, **levels}
    if args.format == "json":
        _emit(json.dumps(matrix_payload(rank, ctx, args, grading, matrix,
                                        args.mode, meta)), path)
    else:
        buf = io.StringIO()
        _write_csv(matrix, buf)
        _emit(buf.getvalue(), path)
    return 0


def cmd_verify(args, path: str | None) -> int:
    from .verify import VerifyConfig, run_suite

    rank, ctx, grading = _resolve_setup(args)
    names = args.checks.split(",") if args.checks else []  # --checks "" selects none
    checks = None if args.checks is None else tuple(names)
    cfg = VerifyConfig(rank=rank, q=ctx.q, zeta1=args.zeta1, zeta2=args.zeta2,
                       zeta3=args.zeta3, grading=grading, n_max=args.nmax,
                       seed=args.seed, checks=checks)
    report = run_suite(cfg)
    if path is not None:
        _emit(report.to_json(), path)
    print(report.render())
    return 0 if report.all_passed else 1


def cmd_roots(args, path: str | None) -> int:
    from .cartanweyl import real_root_monomial

    rank, grading = _resolve_rank(args)
    entries = []
    for root in positive_roots(rank, args.nmax):
        kind = classify(rank, root)
        item = {
            "label": root_label(rank, root),
            "kind": kind[0],
            "coefficients": list(root.coeffs),
            "parity": parity(rank, root),
            "self_pairing": bilinear(rank, root, root),
        }
        if kind[0] in ("real_plus", "real_wrap"):
            for which in ("e", "f"):
                zp, sgn, qp, unit = real_root_monomial(rank, grading, root, which)
                item[which] = {"zeta_power": zp, "sign": sgn, "q_power": qp,
                               "unit": list(unit)}
        else:
            item["attach"] = kind[2]
        entries.append(item)
    payload = {"m": rank.m, "n": rank.n, "grading": list(grading.s),
               "n_max": args.nmax, "roots": entries}
    _emit(json.dumps(payload, indent=2), path)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    command = {"rmatrix": cmd_rmatrix, "verify": cmd_verify, "roots": cmd_roots}[args.command]
    default_name = f"{args.command}.{getattr(args, 'format', 'json')}"  # rmatrix has --format
    try:
        with _output_path(args, default_name) as path:
            return command(args, path)
    except OverflowError as exc:  # a power of q or zeta beyond the float range
        print(f"error: overflow: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError, OSError) as exc:  # input, domain, pole, file
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
