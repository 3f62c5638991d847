"""q-number arithmetic, q-exponentials and truncated power series.

Conventions used throughout the package: the deformation parameter is
q = exp(hbar) with hbar on the principal branch of the logarithm, complex
powers are q**nu = exp(hbar*nu), and q-numbers are

    [nu]_q = (q**nu - q**-nu) / (q - q**-1).

Every q-number, at base q or q**scale, is formed by QContext.qnum_scaled,
entrywise when nu or the scale is an array, and that is the one place that
rejects a vanishing denominator q**scale - q**-scale.

A truncated power series is its (N+1, ...) array of coefficients c_0..c_N,
with any trailing axes taken entrywise (commuting diagonal entries, say);
series_log and series_exp map such arrays to arrays of the same shape and
never read or write a coefficient beyond c_N.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "QContext",
    "DegenerateQError",
    "q_exponential",
    "f_m",
    "series_log",
    "series_exp",
]


class DegenerateQError(ValueError):
    """q too close to a root of unity (or another vanishing q-denominator)."""


@dataclass(frozen=True)
class QContext:
    """Deformation parameter together with numerical guards.

    ``unity_tol`` controls the root-of-unity rejection |q**n - 1| < unity_tol
    for n up to ``series_order``; it is configurable because legitimate
    classical-limit studies sit at q = 1 + eps with eps near the default
    threshold.
    """

    q: complex
    tolerance: float = 1e-10
    series_order: int = 40
    unity_tol: float = 1e-6
    hbar: complex = field(init=False)

    def __post_init__(self):
        q = complex(self.q)
        if q == 0 or not cmath.isfinite(q):
            raise ValueError(f"q must be finite and nonzero, got {q}")
        if self.series_order < 1:
            raise ValueError("series_order must be positive")
        if not 0 <= self.tolerance < float("inf"):
            raise ValueError(f"tolerance must be finite and nonnegative, got {self.tolerance}")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "hbar", cmath.log(q))
        orders = np.arange(1, self.series_order + 1)
        near_one = np.abs(np.exp(self.hbar * orders) - 1.0) < self.unity_tol
        if np.any(near_one):
            raise DegenerateQError(
                f"q**{orders[near_one][0]} is within {self.unity_tol:g} of 1; "
                "pick a generic q or lower unity_tol"
            )
        self.qnum_scaled(1, orders)  # raises if some q**n - q**-n vanishes

    def qpow(self, nu: complex) -> complex:
        """q**nu = exp(hbar*nu)."""
        return cmath.exp(self.hbar * nu)

    def qnum(self, nu):
        """[nu]_q, entrywise like qnum_scaled."""
        return self.qnum_scaled(nu, 1)

    def qnum_scaled(self, nu, scale):
        """[nu]_{q**scale}, i.e. the q-number taken at base q**scale; entrywise
        (broadcast) when nu or scale is an array.  The one place that forms a
        q-number and rejects a vanishing denominator q**scale - q**-scale."""
        scale = np.asarray(scale)
        den = np.exp(self.hbar * scale) - np.exp(self.hbar * -scale)
        bad = np.abs(den) <= self.tolerance
        if np.any(bad):
            k = scale[bad][0]
            raise DegenerateQError(f"q**{k} - q**-{k} vanishes")
        return (np.exp(self.hbar * (scale * nu)) - np.exp(self.hbar * (-scale * nu))) / den


def q_exponential(x: np.ndarray, q_base: complex, ctx: QContext) -> np.ndarray:
    """exp_t(x) = sum_n x**n / ((1)_t (2)_t ... (n)_t) with (n)_t = (1-t**n)/(1-t).

    Truncated at ctx.series_order.  A nilpotent argument terminates the sum
    early, before any potentially vanishing (n)_t is needed, so the base
    convention is immaterial whenever x**2 = 0.
    """
    x = np.asarray(x, dtype=complex)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError("q_exponential expects a square matrix")
    t = complex(q_base)
    result = np.eye(x.shape[0], dtype=complex)
    acc = result
    for n in range(1, ctx.series_order + 1):
        acc = acc @ x
        if not np.any(np.abs(acc) > 0.0):
            break
        if abs(1.0 - t) <= ctx.tolerance:
            raise DegenerateQError("q_exponential base too close to 1")
        factor = (1.0 - t**n) / (1.0 - t)
        if abs(factor) <= ctx.tolerance:
            raise DegenerateQError(f"({n})_t vanishes for base {t}")
        acc = acc / factor
        result = result + acc
    return result


def f_m(zeta: complex, m: int, ctx: QContext) -> complex:
    """sum_{n>=1} zeta**n / (n [m]_{q**n}), truncated at ctx.series_order."""
    if m == 0:
        raise ValueError("m must be nonzero")
    if abs(zeta) >= 1.0:
        raise ValueError(f"|zeta| = {abs(zeta):g} >= 1: series diverges")
    levels = np.arange(1, ctx.series_order + 1)
    qm = ctx.qnum_scaled(m, levels)
    bad = np.abs(qm) <= ctx.tolerance
    if np.any(bad):
        raise DegenerateQError(f"[{m}]_(q**{levels[bad][0]}) vanishes")
    terms = np.cumprod(np.full(len(levels), complex(zeta))) / (levels * qm)
    return complex(np.cumsum(terms)[-1])  # summed in order, not pairwise


# how far the constant term of a series_log input may sit from one
_LOG_CONSTANT_TOL = 1e-9


def _series(c) -> tuple[np.ndarray, np.ndarray]:
    """The coefficients as a complex (N+1, ...) array, and 0..N shaped to
    broadcast against it."""
    c = np.asarray(c, dtype=complex)
    if c.ndim == 0 or len(c) == 0:
        raise ValueError("empty coefficient array")
    return c, np.arange(len(c)).reshape((-1,) + (1,) * (c.ndim - 1))


def series_log(c) -> np.ndarray:
    """Coefficients a of log f for f with coefficients c and constant term
    one, entrywise over trailing axes.  It solves for u_k = k a_k by the
    recurrence u_n = n c_n - sum_{0<k<n} u_k c_{n-k}, one contraction per
    level, and divides by k once at the end."""
    c, k = _series(c)
    if not float(np.max(np.abs(c[0] - 1.0))) <= _LOG_CONSTANT_TOL:  # NaN fails too
        raise ValueError("series_log needs constant coefficient equal to one")
    u = k * c
    for n in range(2, len(c)):
        u[n] -= np.einsum("k...,k...->...", u[1:n], c[n - 1:0:-1])
    u[1:] /= k[1:]
    return u


def series_exp(a) -> np.ndarray:
    """Coefficients b of exp g for g with coefficients a and vanishing
    constant term, entrywise over trailing axes, by the recurrence
    n b_n = sum_{0<k<=n} v_k b_{n-k} on v_k = k a_k, one contraction per
    level; the inverse of series_log."""
    a, k = _series(a)
    if not float(np.max(np.abs(a[0]))) == 0.0:  # NaN fails too
        raise ValueError("series_exp needs vanishing constant coefficient")
    v = k * a
    b = np.zeros_like(a)
    b[0] = 1.0
    for n in range(1, len(a)):
        b[n] = np.einsum("k...,k...->...", v[1:n + 1], b[n - 1::-1]) / n
    return b
