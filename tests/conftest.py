import cmath
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import superrmatrix
from superrmatrix.gradedmatrix import graded_kron, koszul_sign

TEST_RANKS = [(2, 1), (1, 2), (3, 1), (1, 3), (3, 2), (2, 3)]


def rand_q(rng, u_scale=0.08, v_lo=0.1, v_hi=0.6):
    """Generic q = exp(u + i v) off the real axis and away from roots of unity."""
    u = rng.uniform(-u_scale, u_scale)
    v = rng.uniform(v_lo, v_hi)
    return cmath.exp(complex(u, v))


def rand_zeta(rng, lo=0.85, hi=1.2):
    """zeta of near-unit modulus so monomial magnitudes stay O(1)."""
    r = rng.uniform(lo, hi)
    phi = rng.uniform(0, 2 * np.pi)
    return r * cmath.exp(1j * phi)


def zeta_pair_bounded(rng, s_total, bound=0.8, floor=0.05):
    """(zeta1, zeta2) with floor <= |(zeta1/zeta2)**s| <= bound."""
    r = rng.uniform(floor ** (1 / s_total), bound ** (1 / s_total))
    phi = rng.uniform(0, 2 * np.pi)
    z2 = rand_zeta(rng)
    return r * cmath.exp(1j * phi) * z2, z2


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def run_fresh(code: str, **env: str) -> str:
    """The stdout of ``code`` run by a fresh interpreter that imports this
    package's source tree, with ``env`` added to the environment."""
    src = str(Path(superrmatrix.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, **env}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True).stdout


def maxabs(x):
    x = np.asarray(x)
    return float(np.max(np.abs(x))) if x.size else 0.0


def series_log(c):
    """Coefficients a of log f for the truncated power series f with
    coefficients c_0 = 1, c_1.., c_N along the first axis, entrywise over
    trailing axes: the recurrence u_n = n c_n - sum_{0<k<n} u_k c_{n-k} on
    u_k = k a_k, one contraction per level.  The reference route for the
    unprimed imaginary diagonals, which the package forms in closed form."""
    c = np.asarray(c, dtype=complex)
    k = np.arange(len(c)).reshape((-1,) + (1,) * (c.ndim - 1))
    u = k * c
    for n in range(2, len(c)):
        u[n] -= np.einsum("k...,k...->...", u[1:n], c[n - 1:0:-1])
    u[1:] /= k[1:]
    return u


def diag_stack(diagonals):
    """The diagonal matrices of a stack of diagonals: np.diag over the last axis."""
    diagonals = np.asarray(diagonals)
    return diagonals[..., None] * np.eye(diagonals.shape[-1])


def load_matrix(payload: dict) -> np.ndarray:
    """The matrix of an `rmatrix` JSON payload."""
    entries = np.array([complex(re, im) for re, im in payload["entries"]])
    return entries.reshape(payload["rows"], payload["cols"])


# -- dense embeddings into V (x) V (x) V, the reference of verify_ybe ------------

def composite_parity(pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """Parity vector of V (x) W ordered with the first factor slowest."""
    return (np.add.outer(np.asarray(pa), np.asarray(pb)) % 2).reshape(-1)


def lift_12(r2, p):
    """Embed a V (x) V operator into slots 1 and 2 of V (x) V (x) V."""
    p2 = composite_parity(p, p)
    return graded_kron(r2, np.eye(len(p), dtype=complex), p2, p)


def lift_23(r2, p):
    """The identity in the first slot carries no Koszul sign: a plain
    Kronecker product."""
    return np.kron(np.eye(len(p), dtype=complex), r2)


def lift_13(r2, p):
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
