"""q-number arithmetic, q-exponentials and truncated power series.

Conventions used throughout the package: the deformation parameter is
q = exp(hbar) with hbar on the principal branch of the logarithm, complex
powers are q**nu = exp(hbar*nu), and q-numbers are

    [nu]_q = (q**nu - q**-nu) / (q - q**-1).

Series are always truncated at a fixed order; arithmetic never reads or
writes coefficients beyond it.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "QContext",
    "DegenerateQError",
    "q_number",
    "q_exponential",
    "f_m",
    "TruncatedSeries",
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
        if q == 0:
            raise ValueError("q must be nonzero")
        if self.series_order < 1:
            raise ValueError("series_order must be positive")
        if self.tolerance < 0:
            raise ValueError("tolerance must be nonnegative")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "hbar", cmath.log(q))
        qn = 1.0 + 0.0j
        for n in range(1, self.series_order + 1):
            qn *= q
            if abs(qn - 1.0) < self.unity_tol:
                raise DegenerateQError(
                    f"q**{n} is within {self.unity_tol:g} of 1; "
                    "pick a generic q or lower unity_tol"
                )
            if abs(qn - 1.0 / qn) <= self.tolerance:
                raise DegenerateQError(f"|q**{n} - q**-{n}| below tolerance")

    def qpow(self, nu: complex) -> complex:
        """q**nu = exp(hbar*nu)."""
        return cmath.exp(self.hbar * nu)

    def qnum(self, nu: complex) -> complex:
        """[nu]_q."""
        return self.qnum_scaled(nu, 1)

    def qnum_scaled(self, nu: complex, scale: int) -> complex:
        """[nu]_{q**scale}, i.e. the q-number taken at base q**scale."""
        den = self.qpow(scale) - self.qpow(-scale)
        if abs(den) <= self.tolerance:
            raise DegenerateQError(f"q**{scale} - q**-{scale} vanishes")
        return (self.qpow(scale * nu) - self.qpow(-scale * nu)) / den


def q_number(nu: complex, ctx: QContext) -> complex:
    """[nu]_q = (q**nu - q**-nu)/(q - q**-1)."""
    return ctx.qnum(nu)


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
    total = 0.0 + 0.0j
    zn = 1.0 + 0.0j
    for n in range(1, ctx.series_order + 1):
        zn *= zeta
        qm = ctx.qnum_scaled(m, n)
        if abs(qm) <= ctx.tolerance:
            raise DegenerateQError(f"[{m}]_(q**{n}) vanishes")
        total += zn / (n * qm)
    return total


class TruncatedSeries:
    """Formal power series in one indeterminate, truncated at a fixed order.

    The coefficients are stored as one ``(order + 1, ...)`` array and multiply
    entrywise: complex scalars, 1-d arrays standing for commuting diagonal
    matrices, or 2-d arrays that must themselves be diagonal.
    """

    __slots__ = ("c",)

    def __init__(self, coeffs, order: int | None = None):
        c = np.asarray(coeffs, dtype=complex)
        if c.ndim == 0 or len(c) == 0:
            raise ValueError("empty coefficient list")
        if order is None:
            order = len(c) - 1
        if order < 0:
            raise ValueError("order must be nonnegative")
        if c.ndim > 3 or (c.ndim == 3 and np.any(c * (1 - np.eye(*c.shape[1:])))):
            raise ValueError("matrix coefficients must be diagonal")
        out = np.zeros((order + 1,) + c.shape[1:], dtype=complex)
        out[:len(c)] = c[:order + 1]
        self.c = out

    @property
    def order(self) -> int:
        return len(self.c) - 1

    @property
    def coeffs(self) -> list:
        return list(self.c)

    def _unit(self) -> np.ndarray:
        """The constant coefficient of the series one (identity for matrices)."""
        shape = self.c.shape[1:]
        return np.eye(*shape, dtype=complex) if len(shape) == 2 else np.ones(shape, complex)

    def _weights(self) -> np.ndarray:
        """0..order shaped to broadcast against the coefficient array."""
        return np.arange(len(self.c)).reshape((-1,) + (1,) * (self.c.ndim - 1))

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order) + 1
        return TruncatedSeries(self.c[:n] + other.c[:n])

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order) + 1
        return TruncatedSeries(self.c[:n] - other.c[:n])

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        a, b = self.c, other.c
        return TruncatedSeries([np.sum(a[:n + 1] * b[n::-1], axis=0)
                                for n in range(min(self.order, other.order) + 1)])

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.c)))

    def log(self, tol: float = 1e-9) -> "TruncatedSeries":
        """log of a series with constant term one, by the recurrence
        n a_n = n c_n - sum_{0<k<n} k a_k c_{n-k}."""
        c, k = self.c, self._weights()
        if float(np.max(np.abs(c[0] - self._unit()))) > tol:
            raise ValueError("series_log needs constant coefficient equal to one")
        a = np.zeros_like(c)
        for n in range(1, len(c)):
            a[n] = c[n] - np.sum(k[1:n] * a[1:n] * c[n - 1:0:-1], axis=0) / n
        return TruncatedSeries(a)

    def exp(self) -> "TruncatedSeries":
        """exp of a series with vanishing constant term, by the recurrence
        n b_n = sum_{0<k<=n} k a_k b_{n-k}."""
        a, k = self.c, self._weights()
        if float(np.max(np.abs(a[0]))) > 0.0:
            raise ValueError("series_exp needs vanishing constant coefficient")
        b = np.zeros_like(a)
        b[0] = self._unit()
        for n in range(1, len(a)):
            b[n] = np.sum(k[1:n + 1] * a[1:n + 1] * b[n - 1::-1], axis=0) / n
        return TruncatedSeries(b)


def series_log(f: TruncatedSeries, tol: float = 1e-9) -> TruncatedSeries:
    """Truncated logarithm; inverse of series_exp up to the common order."""
    return f.log(tol=tol)


def series_exp(f: TruncatedSeries) -> TruncatedSeries:
    return f.exp()
