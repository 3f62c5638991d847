"""q-number arithmetic, q-exponentials and the transcendental sums f_m.

Conventions used throughout the package: the deformation parameter is
q = exp(hbar) with hbar on the principal branch of the logarithm, complex
powers are q**nu = exp(hbar*nu), and q-numbers are

    [nu]_q = (q**nu - q**-nu) / (q - q**-1).

A q-number at any nu, at base q or q**scale, is formed by
QContext.qnum_scaled, entrywise when nu or the scale is an array; it rejects
a vanishing denominator q**scale - q**-scale by require_denominator.  A
q-number that some caller divides by is refused when it vanishes by
require_nonzero, which names the first vanishing entry.  Both tests, and the
q-exponential's, compare with DEGENERATE_TOL.  A value formed under
np.errstate is refused by _finite when it passes the float range.

The level q-numbers of a pipeline build, [nu]_{q**n} at integer nu and n,
are ratios of integer powers of q.  Each q has one table of them,
QContext.powers, formed in one evaluation on its first read and formed
again, wider, when a reader needs a higher power; f_m and the level data of
cartanweyl gather from it.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np

from .rootdata import HashedValue

__all__ = [
    "QContext",
    "DegenerateQError",
    "q_exponential",
    "f_m",
]

# a q-number or q-denominator at most this large in modulus makes q degenerate
DEGENERATE_TOL = 1e-10


class DegenerateQError(ValueError):
    """q too close to a root of unity (or another vanishing q-denominator)."""


@dataclass(frozen=True, eq=False)
class QContext(HashedValue):
    """Deformation parameter together with numerical guards.

    ``unity_tol`` controls the root-of-unity rejection |q**n - 1| < unity_tol
    for n up to ``series_order``; it is configurable because legitimate
    classical-limit studies sit at q = 1 + eps with eps near the default
    threshold.  A q whose powers pass the float range is accepted: the guards
    read an overflowed power as far from 1, without a warning.
    """

    q: complex
    series_order: int = 40
    unity_tol: float = 1e-6
    hbar: complex = field(init=False)

    def __post_init__(self):
        q = complex(self.q)
        if q == 0 or not cmath.isfinite(q):
            raise ValueError(f"q must be finite and nonzero, got {q}")
        if self.series_order < 1:
            raise ValueError("series_order must be positive")
        if not 0 <= self.unity_tol < float("inf"):  # NaN fails too
            raise ValueError(f"unity_tol must be finite and nonnegative, got {self.unity_tol}")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "hbar", cmath.log(q))
        self._freeze(self.q, self.series_order, self.unity_tol, self.hbar)
        orders = np.arange(1, self.series_order + 1)
        with np.errstate(over="ignore", invalid="ignore"):
            near_one = np.abs(np.exp(self.hbar * orders) - 1.0) < self.unity_tol
            if np.any(near_one):
                raise DegenerateQError(
                    f"q**{orders[near_one][0]} is within {self.unity_tol:g} of 1; "
                    "pick a generic q or lower unity_tol"
                )
            self.qnum_scaled(1, orders)  # raises if some q**n - q**-n vanishes

    def powers(self, span: int) -> np.ndarray:
        """q**j for every integer |j| <= span at least, as one read-only array
        indexed by j itself, a negative j from its end; formed on the first
        call and formed again over twice its span, or span if that is more,
        when a call needs a higher power."""
        table = self.__dict__.get("_powers")
        if table is None or span > len(table) // 2:
            table = _power_table(self.hbar, span if table is None else max(span, len(table) - 1))
            object.__setattr__(self, "_powers", table)
        return table

    def qpow(self, nu: complex) -> complex:
        """q**nu = exp(hbar*nu)."""
        return cmath.exp(self.hbar * nu)

    def qnum(self, nu):
        """[nu]_q, entrywise like qnum_scaled."""
        return self.qnum_scaled(nu, 1)

    def qnum_scaled(self, nu, scale):
        """[nu]_{q**scale}, i.e. the q-number taken at base q**scale; entrywise
        (broadcast) when nu or scale is an array, after require_denominator."""
        scale = np.asarray(scale)
        den = require_denominator(np.exp(self.hbar * scale) - np.exp(self.hbar * -scale), scale)
        return (np.exp(self.hbar * (scale * nu)) - np.exp(self.hbar * (-scale * nu))) / den


def _power_table(hbar: complex, span: int) -> np.ndarray:
    """exp(hbar*j) at j = 0..span and then -span..-1, from one evaluation,
    read-only; a power past the float range is formed without a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        table = np.exp(hbar * np.concatenate((np.arange(span + 1), np.arange(-span, 0))))
    table.setflags(write=False)
    return table


def require_denominator(den, scale):
    """den, the formed values of q**scale - q**-scale (scale of its shape),
    unless one vanishes: then DegenerateQError naming the first."""
    bad = np.abs(den) <= DEGENERATE_TOL
    if bad.any():
        k = np.asarray(scale)[bad][0]
        raise DegenerateQError(f"q**{k} - q**-{k} vanishes")
    return den


def require_nonzero(qn, nu, scale):
    """qn, the formed values of [nu]_{q**scale} (nu and scale broadcasting to
    its shape), unless one vanishes: then DegenerateQError naming the first."""
    bad = np.abs(qn) <= DEGENERATE_TOL
    if bad.any():
        nus, scales = np.broadcast_arrays(nu, scale)
        raise DegenerateQError(f"[{nus[bad][0]}]_(q**{scales[bad][0]}) vanishes")
    return qn


_NOT_FINITE = "{} is not finite: it passes the float range"


def _finite(array: np.ndarray, what: str) -> np.ndarray:
    """array, refused with OverflowError unless every entry is finite: a value
    past the float range, formed without a warning under np.errstate."""
    if not np.isfinite(array).all():
        raise OverflowError(_NOT_FINITE.format(what))
    return array


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
        if abs(1.0 - t) <= DEGENERATE_TOL:
            raise DegenerateQError("q_exponential base too close to 1")
        factor = (1.0 - t**n) / (1.0 - t)
        if abs(factor) <= DEGENERATE_TOL:
            raise DegenerateQError(f"({n})_t vanishes for base {t}")
        acc = acc / factor
        result = result + acc
    return result


def f_m(zeta, m: int, ctx: QContext):
    """sum_{n>=1} zeta**n / (n [m]_{q**n}), truncated at ctx.series_order;
    entrywise for an array of zeta, each sum in level order, every
    [m]_{q**n} gathered from ctx.powers.  Refuses a vanishing [m]_{q**n} at
    any level, then a sum past the float range."""
    if m == 0:
        raise ValueError("m must be nonzero")
    zeta = np.asarray(zeta, dtype=complex)
    if (np.abs(zeta) >= 1.0).any():
        raise ValueError(f"|zeta| = {np.max(np.abs(zeta)):g} >= 1: series diverges")
    levels = np.arange(1, ctx.series_order + 1)
    # q**(m n), q**(-m n), q**n and q**-n; no q**n - q**-n vanishes at these
    # levels, since QContext refuses such a q
    p = ctx.powers(abs(m) * ctx.series_order)[np.array([[m], [-m], [1], [-1]]) * levels]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        qm = require_nonzero((p[0] - p[1]) / (p[2] - p[3]), m, levels)
        powers = np.multiply.accumulate(np.repeat(zeta[..., None], levels.size, axis=-1), axis=-1)
        return _finite(np.add.accumulate(powers / (levels * qm), axis=-1)[..., -1][()],
                       "an f_m sum")
