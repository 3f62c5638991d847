import cmath

import numpy as np
import pytest

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
