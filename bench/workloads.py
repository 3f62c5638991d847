"""Workloads, oracles and metric reduction of the superrmatrix benchmark.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned.  Inputs come from a ``numpy`` generator
seeded by ``--seed``; the package only ever sees the generated numbers.
Verdicts use the tolerances fixed below, never the package's own
``DEFAULT_TOLERANCES``, so that a change to the package's gates cannot move
the benchmark's verdicts.

Every timed operation is expected to pass, so ``failed`` counts only
regressions and any failure makes the run incorrect.  The package's known
defects are kept out of the timed inputs and reproduced instead, once per
run on fixed inputs, by the probes in ``DEFECT_PROBES``; what each probe saw
is recorded with its inputs under ``known_defects``.
"""

from __future__ import annotations

import bisect
import cmath
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from unittest import mock

import numpy as np
import scipy

import superrmatrix as sm
from superrmatrix import cli
from superrmatrix.rootdata import positive_roots, root_label

from spans import Tracer

RANKS = ((2, 1), (1, 2), (3, 1), (1, 3), (3, 2), (2, 3))

# |z**s| range of the closed sweep.
ZS_LO, ZS_HI = 0.05, 0.8
# The pipeline diverges silently from |z**s| of about 0.6 (the known defect
# "pipeline_divergence", reproduced by its probe), so its builds draw |z**s|
# below that edge, where every q drawn passes the two-path oracle.
PIPELINE_ZS_HI = 0.5
N_PRODUCT, N_SIM = 60, 40  # build_rfactors defaults

# Fixed scale-relative verdicts: residual / max(1, operand scale) < tol.
YBE_TOL = 1e-9
INTERTWINING_TOL = 1e-9
TWO_PATH_TOL = 1e-8

NONPRINCIPAL_EVERY = 3  # every third sweep over the ranks uses a non-principal grading
SETUP_REPEATS = 5
# Operation times of the in-process workloads are reported at a nominal
# machine speed.  The run times a fixed reference kernel between operations,
# and each operation's time is scaled by REF_NOMINAL_S over the mean of the
# REF_WINDOW kernel times nearest to it.  The machine is shared and its speed
# drifts by up to a factor of two over minutes; for in-process numerical work
# the kernel follows that drift closely.  It does not follow process start-up
# and import, so terminal commands and setup_s stay wall times.  Unscaled
# times are kept in the record under "raw".
REF_NOMINAL_S = 0.0125
REF_EVERY_S = 0.25
REF_WINDOW = 3
SCALED_WORKLOADS = ("closed_sweep", "pipeline_two_path")
# Tail percentiles, fixed so that a 30-second run of the baseline commit has
# at least ten samples beyond them (about 3000 points, 23 or more builds).
# A terminal run has 16 or 24 commands, too few for any percentile above the
# median to have ten beyond it, so its tail is reported at the median.
TAIL_PCT = {"closed_sweep": 99.0, "pipeline_two_path": 55.0, "terminal": 50.0}

VERIFY_NAMED_CHECKS = ("factor_convergence", "r_two_path", "root_vectors_closed_form",
                       "level_pairing", "intertwining", "ybe")

KNOWN_DEFECTS = {
    "pipeline_divergence": (
        "mode='pipeline' returns a wrong matrix, or rho refuses, for |z**s| >= 0.6 "
        "although the accepted domain is |z**s| < 1"),
    "verify_scale_blind": (
        "default `verify --m 3 --n 2` exits 1: root_vectors_closed_form compares an "
        "absolute residual of 1.18e-10 on entries of size 7.7e4 against 1e-10"),
}
# Fixed inputs of the probes.  q lies outside the range the workloads draw
# from, as in the measurement the divergence was first reported with.
PROBE_Q = 1.1 + 0.2j
PROBE_ZS = 0.8

SPAN_NAMES = (
    "cartanweyl.build_root_vectors",
    "cartanweyl.unprimed_imaginary",
    "rfactors.r_prec_delta.product",
    "rfactors.r_sim_delta.series",
    "rfactors.r_succ_delta.product",
    "rfactors.rho",
    "rfactors.k_operator_closed",
    "rfactors.r_operator.closed",
    "verify.verify_ybe",
    "verify.verify_intertwining",
    *(f"verify.check.{name}" for name in VERIFY_NAMED_CHECKS),
    "cli.import",
    "cli.cmd.rmatrix",
    "cli.cmd.roots",
    "cli.cmd.verify",
)
LAYERS = ("cartanweyl", "rfactors", "verify", "cli")

# Every end-to-end metric is reported on every workload, so that each pair
# of metric and workload can be compared across commits; the
# workload-specific names of each value are kept in the record under "named".
E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_per_s": "1/s",
    "op_p50_ms": "ms",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.p50_ms"] = "ms"
        units[f"{name}.share"] = "frac"
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.errors"] = "count"
    units["trace.untraced_op_p50_ms"] = "ms"
    units["trace.traced_op_p50_ms"] = "ms"
    units["trace.overhead_frac"] = "frac"
    units["trace.unattributed_frac"] = "frac"
    return units


# -- inputs ----------------------------------------------------------------------

def rand_q(rng) -> complex:
    """Generic q = exp(u + iv) with |q|**2 <= 1.18, away from roots of unity."""
    return cmath.exp(complex(rng.uniform(-0.08, 0.08), rng.uniform(0.1, 0.6)))


def rand_zeta(rng) -> complex:
    return rng.uniform(0.85, 1.2) * cmath.exp(1j * rng.uniform(0, 2 * np.pi))


def ratio_with_power(rng, zs_abs: float, s_total: int) -> complex:
    """A spectral ratio z with |z**s| = zs_abs and a random phase."""
    return zs_abs ** (1.0 / s_total) * cmath.exp(1j * rng.uniform(0, 2 * np.pi))


def maxabs(x) -> float:
    return float(np.max(np.abs(x)))


def c2s(z: complex) -> str:
    z = complex(z)
    return f"{z.real!r},{z.imag!r}"


def nospan(name):
    return contextlib.nullcontext()


# -- running and timing ------------------------------------------------------------

@dataclass
class Timed:
    value: object = None
    error: Exception | None = None
    seconds: float = 0.0
    start: float = 0.0


def timed(fn, *args) -> Timed:
    t0 = time.perf_counter()
    try:
        value = fn(*args)
    except Exception as exc:  # a failing operation is recorded, not fatal
        return Timed(error=exc, seconds=time.perf_counter() - t0, start=t0)
    return Timed(value=value, seconds=time.perf_counter() - t0, start=t0)


@dataclass
class Op:
    """One operation: its program time, verdict and, for a failure, inputs."""

    seconds: float
    ok: bool
    detail: dict = field(default_factory=dict)
    kind: str = ""  # rank or command; medians are taken per kind
    start: float = 0.0


@dataclass
class Run:
    ops: list[Op] = field(default_factory=list)
    sessions: list[float] = field(default_factory=list)  # terminal only
    twins: list[tuple[float, float]] = field(default_factory=list)  # (untraced, traced) s
    mismatches: list[dict] = field(default_factory=list)  # traced twin differs
    params: tuple = ()  # current terminal session's (q, zeta1)


def reference_kernel() -> None:
    """Fixed work of the same mix as the package: many numpy calls on tiny
    complex arrays (as in the series arithmetic) and small complex matrix
    products.  It takes about REF_NOMINAL_S on the baseline machine."""
    a = np.exp(1j * np.arange(5))
    b = a.conj()
    c = np.zeros(5, dtype=complex)
    for _ in range(3000):
        c = c * 0.5 + a * b
    x = np.exp(1j * np.arange(48 * 48).reshape(48, 48)) / 48
    m = np.eye(48, dtype=complex)
    for _ in range(50):
        m = m @ x + 0.5 * np.eye(48)


class Loop:
    """Closed-loop pacing: repeat until the deadline, at least once, and at
    most ``max_ops`` times when a cap is given.  Between operations, and at
    most every REF_EVERY_S, it times the reference kernel, so that each run
    knows how fast the machine was while it ran."""

    def __init__(self, seconds: float, max_ops: int | None):
        self.max_ops = max_ops
        self.count = 0
        self.ref: list[tuple[float, float]] = []  # (start, seconds) of kernel runs
        self._last_ref = -math.inf
        self._sample_reference()
        self.deadline = time.perf_counter() + seconds

    def _sample_reference(self) -> None:
        if time.perf_counter() - self._last_ref >= REF_EVERY_S:
            t0 = time.perf_counter()
            reference_kernel()
            self._last_ref = time.perf_counter()
            self.ref.append((t0, self._last_ref - t0))

    def __iter__(self):
        while (self.max_ops is None or self.count < self.max_ops) and (
                self.count == 0 or time.perf_counter() < self.deadline):
            self._sample_reference()
            self.count += 1
            yield self.count - 1


def twins(run: Run, k: int, plain, traced) -> tuple[Timed, Timed]:
    """Run an operation untraced and traced on identical inputs, alternating
    which twin goes first, and keep both times for the overhead figure."""
    if k % 2:
        t = traced()
        p = plain()
    else:
        p = plain()
        t = traced()
    run.twins.append((p.seconds, t.seconds))
    return p, t


def traced_op(tracer: Tracer, fn, *args) -> Timed:
    with tracer.op():
        return timed(fn, *args, tracer.span)


def same_outcome(a: Timed, b: Timed) -> bool:
    if a.error is not None or b.error is not None:
        return type(a.error) is type(b.error)
    if isinstance(a.value, np.ndarray):
        return np.array_equal(a.value, b.value)
    return all(np.array_equal(x, y) for x, y in zip(a.value, b.value))


# -- closed_sweep --------------------------------------------------------------------

def closed_inputs(rng, k: int, ranks):
    rank = sm.SuperRank(*ranks[k % len(ranks)])
    if (k // len(ranks)) % NONPRINCIPAL_EVERY == NONPRINCIPAL_EVERY - 1:
        s = [1] * (rank.L + 1)
        s[int(rng.integers(rank.L + 1))] = 2
        grading = sm.GradingVector(tuple(s))
    else:
        grading = sm.GradingVector.ones(rank)
    ctx = sm.QContext(q=rand_q(rng))
    z3 = rand_zeta(rng)
    z2 = ratio_with_power(rng, rng.uniform(ZS_LO, ZS_HI), grading.total) * z3
    z1 = ratio_with_power(rng, rng.uniform(ZS_LO, ZS_HI), grading.total) * z2
    return rank, ctx, grading, z1, z2, z3


def closed_point(rank, ctx, grading, z1, z2, z3, span=nospan):
    with span("rfactors.r_operator.closed"):
        r = sm.r_operator(rank, ctx, z1, z2, grading, mode="closed")
    with span("verify.verify_ybe"):
        ybe = sm.verify_ybe(rank, ctx, z1, z2, z3, grading)
    with span("verify.verify_intertwining"):
        intw = sm.verify_intertwining(rank, ctx, z1, z2, grading)["max"]
    return r, ybe, intw


def closed_verdict(args, res: Timed) -> Op:
    """YBE residual relative to the cube of the largest entry of the three R's,
    intertwining residual relative to the largest entry of R(z1, z2)."""
    rank, ctx, grading, z1, z2, z3 = args
    detail = {"rank": [rank.m, rank.n], "q": c2s(ctx.q), "grading": list(grading.s),
              "zeta": [c2s(z1), c2s(z2), c2s(z3)]}
    if res.error is not None:
        return Op(res.seconds, False, detail={**detail, "error": repr(res.error)})
    r, ybe, intw = res.value
    scale = max(1.0, maxabs(r), maxabs(sm.r_operator(rank, ctx, z1, z3, grading)),
                maxabs(sm.r_operator(rank, ctx, z2, z3, grading)))
    ybe_rel = ybe / scale ** 3
    intw_rel = intw / max(1.0, maxabs(r))
    ok = ybe_rel < YBE_TOL and intw_rel < INTERTWINING_TOL
    return Op(res.seconds, ok, detail={} if ok else {
        **detail, "ybe_rel": ybe_rel, "intertwining_rel": intw_rel})


def run_closed(rng, loop: Loop, ranks, tracer: Tracer | None, ctx: dict) -> Run:
    run = Run()
    for k in loop:
        args = closed_inputs(rng, k, ranks)
        if tracer is None:
            res = timed(closed_point, *args)
        else:
            res, tres = twins(run, k, lambda: timed(closed_point, *args),
                              lambda: traced_op(tracer, closed_point, *args))
            if not same_outcome(res, tres):
                run.mismatches.append({"op": k, "what": "traced closed point differs"})
        op = closed_verdict(args, res)
        op.kind, op.start = f"{args[0].m},{args[0].n}", res.start
        run.ops.append(op)
    return run


# -- pipeline_two_path -----------------------------------------------------------------

def pipeline_inputs(rng, k: int, ranks):
    rank = sm.SuperRank(*ranks[k % len(ranks)])
    grading = sm.GradingVector.ones(rank)
    ctx = sm.QContext(q=rand_q(rng))
    z2 = rand_zeta(rng)
    zs = rng.uniform(ZS_LO, PIPELINE_ZS_HI)
    z1 = ratio_with_power(rng, zs, grading.total) * z2
    return rank, ctx, grading, z1, z2, zs


def pipeline_build(rank, ctx, grading, z1, z2):
    return sm.build_rfactors(rank, ctx, z1, z2, grading,
                             n_max_product=N_PRODUCT, n_max_sim=N_SIM).r_total


def pipeline_composed(rank, ctx, grading, z1, z2, span):
    """build_rfactors spelled out as the public calls it is made of, each in
    its own span; the product is formed exactly as build_rfactors forms it."""
    z12 = sm.Zeta12.from_pair(z1, z2, grading)
    tables = []
    for zeta in (z1, z2):
        with span("cartanweyl.build_root_vectors"):
            tables.append(sm.build_root_vectors(sm.EvaluationRep(rank, ctx, zeta, grading),
                                                N_SIM, with_unprimed=False))
    for table in tables:
        with span("cartanweyl.unprimed_imaginary"):
            sm.unprimed_imaginary(table)
    with span("rfactors.r_prec_delta.product"):
        rp = sm.r_prec_delta(rank, ctx, z12, grading, mode="product", n_max=N_PRODUCT)
    with span("rfactors.r_sim_delta.series"):
        rs = sm.r_sim_delta(rank, ctx, z12, grading, mode="series", n_max=N_SIM,
                            tables=tuple(tables))
    with span("rfactors.r_succ_delta.product"):
        rg = sm.r_succ_delta(rank, ctx, z12, grading, mode="product", n_max=N_PRODUCT)
    with span("rfactors.rho"):
        rh = sm.rho(rank, ctx, z12, grading)
    with span("rfactors.k_operator_closed"):
        k = sm.k_operator_closed(rank, ctx)
    with span("rfactors.r_operator.closed"):
        sm.r_operator(rank, ctx, z1, z2, grading, mode="closed")
    return rh * (rp @ rs @ rg @ k)


def pipeline_verdict(args, res: Timed) -> Op:
    """r_total against an independently evaluated closed R, relative to
    max(1, |R_closed|_max)."""
    rank, ctx, grading, z1, z2, zs = args
    detail = {"rank": [rank.m, rank.n], "q": c2s(ctx.q), "zeta": [c2s(z1), c2s(z2)],
              "abs_zs": zs}
    if res.error is not None:
        return Op(res.seconds, False, {**detail, "error": repr(res.error)})
    ref = sm.r_operator(rank, ctx, z1, z2, grading, mode="closed")
    rel = maxabs(res.value - ref) / max(1.0, maxabs(ref))
    if rel < TWO_PATH_TOL:
        return Op(res.seconds, True)
    return Op(res.seconds, False, {**detail, "rel_residual": rel})


def run_pipeline(rng, loop: Loop, ranks, tracer: Tracer | None, ctx: dict) -> Run:
    run = Run()
    for k in loop:
        args = pipeline_inputs(rng, k, ranks)
        build_args = args[:5]
        if tracer is None:
            res = timed(pipeline_build, *build_args)
        else:
            res, tres = twins(run, k, lambda: timed(pipeline_build, *build_args),
                              lambda: traced_op(tracer, pipeline_composed, *build_args))
            if not same_outcome(res, tres):
                run.mismatches.append({"op": k, "what": "composed pipeline != build_rfactors"})
        op = pipeline_verdict(args, res)
        op.kind, op.start = f"{args[0].m},{args[0].n}", res.start
        run.ops.append(op)
    return run


# -- terminal ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    rank: tuple[int, int]
    seeded: bool = False  # takes the session's q and zeta1; otherwise CLI defaults

    def full_argv(self, q: complex, zeta1: complex) -> list[str]:
        argv = list(self.argv)
        if self.seeded:
            argv += [f"--q-re={q.real!r}", f"--q-im={q.imag!r}", f"--zeta1={c2s(zeta1)}"]
        return argv


# Ordered so that every subcommand appears within the first five commands.
SCRIPT = (
    Command(("rmatrix", "--m", "2", "--n", "1"), (2, 1), seeded=True),
    Command(("rmatrix", "--m", "2", "--n", "1", "--mode", "pipeline"), (2, 1), seeded=True),
    Command(("roots", "--nmax", "1"), (2, 1)),
    Command(("verify",), (2, 1)),
    Command(("verify", "--checks", "ybe,intertwining"), (2, 1), seeded=True),
    Command(("rmatrix", "--m", "3", "--n", "2"), (3, 2), seeded=True),
    Command(("rmatrix", "--m", "3", "--n", "2", "--mode", "pipeline"), (3, 2), seeded=True),
    # Every default check but root_vectors_closed_form, which fails for (3,2)
    # (the known defect "verify_scale_blind", reproduced by its probe).
    Command(("verify", "--m", "3", "--n", "2", "--checks",
             "factor_convergence,r_two_path,level_pairing,intertwining,ybe"), (3, 2)),
)


def session_params(rng) -> tuple[complex, complex]:
    """q and zeta1 for the seeded commands; |zeta1| stays near the CLI default
    0.6 (zeta2 = 1), where the pipeline converges."""
    return rand_q(rng), rng.uniform(0.5, 0.7) * cmath.exp(1j * rng.uniform(0, 2 * np.pi))


def child_env(ctx: dict) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ctx["src"])
    env["SUPERRMATRIX_OUTDIR"] = str(ctx["outdir"])
    return env


def child_import_seconds(ctx: dict, module: str) -> float:
    """Cold import of ``module`` in a fresh interpreter, timed inside it."""
    code = ("import time; t0 = time.perf_counter(); import " + module
            + "; print(repr(time.perf_counter() - t0))")
    out = subprocess.run([sys.executable, "-c", code], env=child_env(ctx),
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def clear_outputs(outdir: Path) -> None:
    for name in ("rmatrix.json", "verify.json", "roots.json"):
        (outdir / name).unlink(missing_ok=True)


def read_matrix(payload: dict) -> np.ndarray:
    entries = np.array([complex(re, im) for re, im in payload["entries"]])
    return entries.reshape(payload["rows"], payload["cols"])


def terminal_verdict(cmd: Command, q: complex, zeta1: complex, code: int,
                     outdir: Path, seconds: float) -> Op:
    """Exit code, JSON all_passed flag, and rmatrix output against an
    in-process closed R."""
    detail = {"argv": cmd.full_argv(q, zeta1), "exit": code}
    sub = cmd.argv[0]
    rank = sm.SuperRank(*cmd.rank)
    try:
        if sub == "rmatrix":
            matrix = read_matrix(json.loads((outdir / "rmatrix.json").read_text()))
            ref = sm.r_operator(rank, sm.QContext(q=q), zeta1, 1.0 + 0j, mode="closed")
            if "pipeline" in cmd.argv:
                rel = maxabs(matrix - ref) / max(1.0, maxabs(ref))
                ok = code == 0 and rel < TWO_PATH_TOL
                detail["rel_residual"] = rel
            else:
                ok = code == 0 and np.array_equal(matrix, ref)
            return Op(seconds, ok, detail={} if ok else detail)
        if sub == "roots":
            payload = json.loads((outdir / "roots.json").read_text())
            labels = [r["label"] for r in payload["roots"]]
            ok = code == 0 and labels == [root_label(rank, r) for r in positive_roots(rank, 1)]
            return Op(seconds, ok, detail={} if ok else detail)
        report = json.loads((outdir / "verify.json").read_text())
    except (OSError, ValueError, KeyError) as exc:
        return Op(seconds, False, detail={**detail, "error": repr(exc)})
    flag = report["all_passed"]
    if code == 0 and flag is True:
        return Op(seconds, True)
    failing = [c["name"] for c in report["checks"] if not c["passed"]]
    return Op(seconds, False, {**detail, "all_passed": flag, "failing": failing})


def run_command(cmd: Command, q, zeta1, ctx: dict) -> Op:
    clear_outputs(ctx["outdir"])
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "superrmatrix.cli", *cmd.full_argv(q, zeta1)],
                          env=child_env(ctx), capture_output=True, timeout=150)
    seconds = time.perf_counter() - t0
    op = terminal_verdict(cmd, q, zeta1, proc.returncode, ctx["outdir"], seconds)
    op.kind, op.start = " ".join(cmd.argv), t0
    return op


def cli_in_process(argv: list[str], span=nospan) -> int:
    with span(f"cli.cmd.{argv[0]}"), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def verify_configs(cmd: Command, q, zeta1):
    """One single-check run_suite config per named check of a verify command."""
    rank = sm.SuperRank(*cmd.rank)
    if "--checks" in cmd.argv:
        names = tuple(cmd.argv[cmd.argv.index("--checks") + 1].split(","))
    else:
        names = VERIFY_NAMED_CHECKS
    extra = {"q": q, "zeta1": zeta1} if cmd.seeded else {}
    return [(name, sm.VerifyConfig(rank=rank, checks=(name,), **extra)) for name in names]


def run_terminal(rng, loop: Loop, script, tracer: Tracer | None, ctx: dict) -> Run:
    run = Run()
    if tracer is None:
        for _ in loop:  # one iteration is one whole session
            q, zeta1 = session_params(rng)
            ops = [run_command(cmd, q, zeta1, ctx) for cmd in script]
            run.ops.extend(ops)
            run.sessions.append(sum(op.seconds for op in ops))
        return run

    with mock.patch.dict(os.environ, {"SUPERRMATRIX_OUTDIR": str(ctx["outdir"])}):
        for k in loop:
            run_traced_command(run, tracer, k, script, rng, ctx)
    return run


def run_traced_command(run: Run, tracer: Tracer, k: int, script, rng, ctx: dict) -> None:
    """Traced terminal operation: one command, run in process so that a span
    can be opened around cli.main; the cold import the command would pay is
    timed in a child.  A verify command is followed by one single-check
    run_suite per named check."""
    if k % len(script) == 0:
        run.params = session_params(rng)
    q, zeta1 = run.params
    cmd = script[k % len(script)]
    argv = cmd.full_argv(q, zeta1)

    def traced():
        with tracer.op():
            tracer.add("cli.import", child_import_seconds(ctx, "superrmatrix.cli"))
            clear_outputs(ctx["outdir"])
            res = timed(cli_in_process, argv, tracer.span)
            if cmd.argv[0] == "verify":
                for name, cfg in verify_configs(cmd, q, zeta1):
                    with tracer.span(f"verify.check.{name}"):
                        sm.run_suite(cfg)
        op = terminal_verdict(cmd, q, zeta1, res.value, ctx["outdir"], res.seconds)
        res.value = (res.value, op)
        return res

    def plain():
        clear_outputs(ctx["outdir"])
        return timed(cli_in_process, argv)

    pres, tres = twins(run, k, plain, traced)
    code, op = tres.value
    op.kind = " ".join(cmd.argv)
    if pres.value != code:
        run.mismatches.append({"op": k, "what": "traced cli.main exit code differs"})
    run.ops.append(op)


# -- known-defect probes ----------------------------------------------------------------

def probe_pipeline_divergence(ctx: dict) -> dict:
    """One (2,1) build at |z**s| = PROBE_ZS against the closed R."""
    rank = sm.SuperRank(2, 1)
    grading = sm.GradingVector.ones(rank)
    qctx = sm.QContext(q=PROBE_Q)
    z1, z2 = complex(PROBE_ZS ** (1.0 / grading.total)), 1.0 + 0j
    inputs = {"rank": [2, 1], "q": c2s(PROBE_Q), "zeta": [c2s(z1), c2s(z2)],
              "abs_zs": PROBE_ZS}
    res = timed(pipeline_build, rank, qctx, grading, z1, z2)
    if res.error is not None:
        return {"inputs": inputs, "observed": {"error": repr(res.error)}, "reproduced": True}
    ref = sm.r_operator(rank, qctx, z1, z2, grading, mode="closed")
    rel = maxabs(res.value - ref) / max(1.0, maxabs(ref))
    return {"inputs": inputs, "observed": {"rel_residual": rel},
            "reproduced": rel >= TWO_PATH_TOL}


def probe_verify_scale_blind(ctx: dict) -> dict:
    """The failing check of the default `verify --m 3 --n 2`, in a fresh CLI
    process."""
    argv = ["verify", "--m", "3", "--n", "2", "--checks", "root_vectors_closed_form"]
    clear_outputs(ctx["outdir"])
    proc = subprocess.run([sys.executable, "-m", "superrmatrix.cli", *argv],
                          env=child_env(ctx), capture_output=True, timeout=150)
    observed = {"exit": proc.returncode}
    try:
        check = json.loads((ctx["outdir"] / "verify.json").read_text())["checks"][0]
        observed.update(residual=check["residual"], tolerance=check["tolerance"])
        failed_check = not check["passed"]
    except (OSError, ValueError, KeyError, IndexError) as exc:
        observed["error"] = repr(exc)
        failed_check = False
    return {"inputs": {"argv": argv}, "observed": observed,
            "reproduced": proc.returncode == 1 and failed_check}


# The known defect each workload would meet, reproduced once per run.
PROBES = {"pipeline_two_path": {"pipeline_divergence": probe_pipeline_divergence},
          "terminal": {"verify_scale_blind": probe_verify_scale_blind}}


def probe_defects(workload: str, ctx: dict) -> list[dict]:
    return [{"defect": name, "description": KNOWN_DEFECTS[name], **probe(ctx)}
            for name, probe in PROBES.get(workload, {}).items()]


# -- reduction ------------------------------------------------------------------------------

def speed_factors(ops: list[Op], ref: list[tuple[float, float]]) -> list[float]:
    """Per operation, REF_NOMINAL_S over the mean of the REF_WINDOW kernel
    times nearest to it: the last kernel run before it and its neighbours."""
    starts = [t for t, _ in ref]
    secs = [s for _, s in ref]
    factors = []
    for op in ops:
        i = bisect.bisect_right(starts, op.start) - 1
        lo = max(0, min(i - REF_WINDOW // 2, len(secs) - REF_WINDOW))
        factors.append(REF_NOMINAL_S / statistics.fmean(secs[lo:lo + REF_WINDOW]))
    return factors


def kind_medians(ops: list[Op], secs: list[float]) -> dict[str, float]:
    by_kind: dict[str, list[float]] = {}
    for op, sec in zip(ops, secs):
        by_kind.setdefault(op.kind, []).append(sec)
    return {kind: statistics.median(v) for kind, v in by_kind.items()}


def end_to_end(workload: str, run: Run, setup: list[float], peak_rss_mb: float,
               ref: list[tuple[float, float]]):
    """The end-to-end metrics of a run, and the values under the names
    specific to the workload, with the per-kind medians and the tail.

    ``op_p50_ms`` is the median time of each kind of operation (rank, or CLI
    command), averaged over the kinds.  A median over the pooled operations
    would sit in the gap between the fast and the slow ranks and jump with
    the mix a run happens to complete.  ``ok_per_s`` is the share of
    operations that pass the oracle divided by that typical time: a refused
    or wrong operation counts as not done however fast it returns, and a
    stall caused by another process on the machine moves a median less than
    a sum.  Operation times of in-process workloads are scaled to the
    nominal machine speed (see REF_NOMINAL_S).
    """
    raw_secs = [op.seconds for op in run.ops]
    factors = (speed_factors(run.ops, ref) if workload in SCALED_WORKLOADS
               else [1.0] * len(raw_secs))
    secs = [sec * f for sec, f in zip(raw_secs, factors)]
    n = len(secs)
    failed = sum(not op.ok for op in run.ops)
    kind_p50 = kind_medians(run.ops, secs)
    pct = TAIL_PCT[workload]
    values = {"setup_s": statistics.median(setup), "peak_rss_mb": peak_rss_mb,
              "op_p50_ms": 1e3 * statistics.fmean(kind_p50.values())}
    values["ok_per_s"] = (n - failed) / n / (values["op_p50_ms"] / 1e3)
    tail = {"value_ms": 1e3 * float(np.percentile(secs, pct)), "percentile": pct,
            "samples": n, "beyond": int(n * (1 - pct / 100))}
    raw = {"op_p50_ms": 1e3 * statistics.fmean(kind_medians(run.ops, raw_secs).values()),
           "tail_ms": 1e3 * float(np.percentile(raw_secs, pct)),
           "ops_per_busy_s": n / sum(raw_secs)}
    prefix = {"closed_sweep": "closed", "pipeline_two_path": "pipeline",
              "terminal": "terminal"}[workload]
    named = {f"{prefix}_fail_frac": failed / n}
    if workload == "closed_sweep":
        named.update(closed_points_per_s=values["ok_per_s"],
                     closed_point_p50_ms=values["op_p50_ms"],
                     closed_point_tail_ms=tail["value_ms"])
    elif workload == "pipeline_two_path":
        named.update(pipeline_ok_per_s=values["ok_per_s"],
                     pipeline_build_p50_s=values["op_p50_ms"] / 1e3,
                     pipeline_build_tail_s=tail["value_ms"] / 1e3)
    else:
        named.update(terminal_session_s=statistics.median(run.sessions),
                     terminal_cmd_p50_s=values["op_p50_ms"] / 1e3)
    return values, {
        "named": named, "tail": tail, "raw": raw, "kind_p50_s": kind_p50,
        "reference": {"median_s": statistics.median(s for _, s in ref), "samples": len(ref),
                      "mean_factor": statistics.fmean(factors)}}


def per_layer(run: Run, tracer: Tracer) -> dict:
    own = tracer.self_times()
    roots = [i for i, s in enumerate(tracer.spans) if s.name == "op"]
    op_time = sum(tracer.spans[i].end - tracer.spans[i].start for i in roots)
    values = {}
    for name in SPAN_NAMES:
        idx = [i for i, s in enumerate(tracer.spans) if s.name == name]
        self_s = sum(own[i] for i in idx)
        durations = [tracer.spans[i].end - tracer.spans[i].start for i in idx]
        values[f"{name}.calls"] = len(idx)
        values[f"{name}.self_s"] = self_s
        values[f"{name}.p50_ms"] = 1e3 * statistics.median(durations) if durations else 0.0
        values[f"{name}.share"] = self_s / op_time
    for layer in LAYERS:
        in_layer = [s for s in tracer.spans if s.name.split(".")[0] == layer]
        values[f"{layer}.calls"] = len(in_layer)
        values[f"{layer}.errors"] = sum(s.error for s in in_layer)
    untraced = sum(u for u, _ in run.twins)
    values["trace.untraced_op_p50_ms"] = 1e3 * statistics.median(u for u, _ in run.twins)
    values["trace.traced_op_p50_ms"] = 1e3 * statistics.median(t for _, t in run.twins)
    values["trace.overhead_frac"] = (sum(t for _, t in run.twins) - untraced) / untraced
    values["trace.unattributed_frac"] = sum(own[i] for i in roots) / op_time
    return values


# -- environment and entry ------------------------------------------------------------------

def environment(root: Path) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, timeout=30).stdout.strip() or None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "superrmatrix").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "superrmatrix": sm.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "machine": platform.machine(),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process or of its largest child, in MB."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


WORKLOADS = {"closed_sweep": run_closed, "pipeline_two_path": run_pipeline,
             "terminal": run_terminal}


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, root: Path,
                  max_ops: int | None = None, ranks=RANKS,
                  setup_repeats: int = SETUP_REPEATS) -> dict:
    """Run one workload and return its full record (see ``summary_line``).

    ``max_ops`` and ``ranks`` exist for the harness smoke test; the
    benchmark itself runs every rank until the deadline.
    """
    rng = np.random.default_rng(seed)
    outdir = root / ".bench_tmp" / str(os.getpid())
    outdir.mkdir(parents=True, exist_ok=True)
    ctx = {"src": root / "src", "outdir": outdir}
    try:
        setup = [] if trace else [child_import_seconds(ctx, "superrmatrix")
                                  for _ in range(setup_repeats)]
        probes = probe_defects(workload, ctx)
        tracer = Tracer() if trace else None
        if workload == "terminal":
            script = tuple(c for c in SCRIPT if c.rank in ranks)
            if max_ops is not None:
                script = script[:max_ops]
            spec = script
        else:
            spec = ranks
        loop = Loop(seconds, max_ops)
        run = WORKLOADS[workload](rng, loop, spec, tracer, ctx)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            outdir.parent.rmdir()

    failures = [op.detail for op in run.ops if not op.ok]
    declared = json.loads((root / "BENCHMARK.json").read_text())["workloads"]
    record = {
        "workload": workload,
        "why": next(w["why"] for w in declared if w["name"] == workload),
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "params": workload_params(workload, ranks),
        "env": environment(root),
        "attempted": len(run.ops),
        "failed": len(failures),
        "correct": not failures and not run.mismatches,
        "failures": failures,
        "mismatches": run.mismatches,
        "known_defects": probes,
    }
    if trace:
        units = per_layer_units()
        values = per_layer(run, tracer)
    else:
        units = E2E_UNITS
        values, extra = end_to_end(workload, run, setup, peak_rss_mb(), loop.ref)
        record.update(extra, setup_samples_s=setup)
    record["metrics"] = {name: {"value": values[name], "unit": unit}
                         for name, unit in units.items()}
    return record


def workload_params(workload: str, ranks) -> dict:
    params = {"ranks": [list(r) for r in ranks], "client": "closed loop, 1 client",
              "setup_repeats": SETUP_REPEATS, "tail_pct": TAIL_PCT[workload],
              "ref_nominal_s": REF_NOMINAL_S, "scaled": workload in SCALED_WORKLOADS}
    if workload == "closed_sweep":
        params.update(abs_zs=[ZS_LO, ZS_HI], nonprincipal_every=NONPRINCIPAL_EVERY,
                      ybe_tol=YBE_TOL, intertwining_tol=INTERTWINING_TOL)
    elif workload == "pipeline_two_path":
        params.update(abs_zs=[ZS_LO, PIPELINE_ZS_HI], n_max_product=N_PRODUCT,
                      n_max_sim=N_SIM, two_path_tol=TWO_PATH_TOL)
    else:
        params.update(script=[" ".join(c.argv) + (" +seeded q,zeta1" if c.seeded else "")
                              for c in SCRIPT], two_path_tol=TWO_PATH_TOL)
    return params


def summary_line(record: dict) -> dict:
    return {key: record[key] for key in ("correct", "attempted", "failed", "metrics")}
