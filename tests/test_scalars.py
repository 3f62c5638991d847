import cmath

import mpmath
import numpy as np
import pytest

from superrmatrix import QContext
from superrmatrix.scalars import DegenerateQError, f_m, q_exponential

from conftest import maxabs, series_log


def test_q_number_basic_values():
    ctx = QContext(q=1.3 + 0.4j)
    q = ctx.q
    assert ctx.qnum(0) == 0
    assert abs(ctx.qnum(1) - 1) < 1e-15
    assert abs(ctx.qnum(2) - (q + 1 / q)) < 1e-14


def test_q_number_antisymmetry(rng):
    ctx = QContext(q=0.9 + 0.5j)
    for _ in range(50):
        nu = complex(rng.normal(), rng.normal())
        assert abs(ctx.qnum(nu) + ctx.qnum(-nu)) < 1e-12


def test_q_number_classical_limit():
    ctx = QContext(q=1 + 1e-6, unity_tol=0.0)
    for nu in (0.5, 2.0, -3.7, 1.25 + 0.5j):
        assert abs(ctx.qnum(nu) - nu) < 1e-4


def test_degenerate_q_rejected():
    with pytest.raises(DegenerateQError):
        QContext(q=cmath.exp(2j * cmath.pi / 5))  # fifth root of unity
    with pytest.raises(ValueError):
        QContext(q=0)


def test_q_exponential_trivial_cases():
    ctx = QContext(q=1.2 + 0.1j)
    zero = np.zeros((4, 4), dtype=complex)
    assert maxabs(q_exponential(zero, 2.0, ctx) - np.eye(4)) == 0
    x = np.zeros((3, 3), dtype=complex)
    x[0, 2] = 0.7 - 1.1j
    # order-2 nilpotent: exactly 1 + x, independent of the base
    for base in (2.0, -1.0, 0.3 + 0.9j):
        assert maxabs(q_exponential(x, base, ctx) - np.eye(3) - x) == 0


def test_q_exponential_matches_direct_series():
    ctx = QContext(q=1.2 + 0.1j, series_order=20)
    x = np.array([[0, 0.8, -0.3], [0, 0, 1.1], [0, 0, 0]], dtype=complex)
    t = 2.0
    # direct summation oracle at doubled order
    acc = np.eye(3, dtype=complex)
    total = np.eye(3, dtype=complex)
    for n in range(1, 41):
        acc = acc @ x / ((1 - t**n) / (1 - t))
        total += acc
    assert maxabs(q_exponential(x, t, ctx) - total) < 1e-14


def test_f_m_trivial_and_log():
    ctx = QContext(q=1.1 + 0.2j, series_order=60)
    assert f_m(0.0, 3, ctx) == 0
    z = 0.4 - 0.2j
    tail = abs(z) ** 61 / (1 - abs(z))
    assert abs(f_m(z, 1, ctx) + np.log(1 - z)) < tail + 1e-14


def test_f_m_tail_bound():
    q = 1.07 + 0.13j
    z = 0.5 + 0.1j
    lo = QContext(q=q, series_order=30)
    hi = QContext(q=q, series_order=60)
    assert abs(f_m(z, 2, lo) - f_m(z, 2, hi)) < abs(z) ** 30 / 30


def test_f_m_domain_errors():
    ctx = QContext(q=1.1 + 0.2j)
    with pytest.raises(ValueError):
        f_m(1.2, 2, ctx)
    with pytest.raises(ValueError):
        f_m(0.3, 0, ctx)


@pytest.mark.parametrize("zeta", [complex("nan"), np.array([0.5, float("nan")]),
                                  np.array([0.5, complex(0.1, float("inf"))])],
                         ids=["scalar", "array", "infinite"])
def test_f_m_refuses_a_non_finite_argument(zeta):
    # NaN compares false with 1, so the disc test is |zeta| < 1 on every
    # entry, run before any sum
    with pytest.raises(ValueError, match="finite zeta"):
        f_m(zeta, 2, QContext(q=1.1 + 0.2j))


# series_log is the reference route of test_cartanweyl, kept in conftest.py
def test_series_log_trivial():
    one = np.zeros(7, dtype=complex)
    one[0] = 1.0
    assert maxabs(series_log(one)) == 0


def test_series_log_geometric():
    a = 0.37 - 0.21j
    log = series_log([a**n for n in range(9)])
    for n in range(1, 9):
        assert abs(log[n] - a**n / n) < 1e-14


def test_series_log_diagonal_matrices_entrywise():
    # commuting (diagonal) coefficients, stored as their diagonals: log acts
    # on each eigenvalue series
    rng = np.random.default_rng(7)
    eig = [np.array([1.0] + list(0.4 * (rng.normal(size=5) + 1j * rng.normal(size=5))))
           for _ in range(3)]
    mat_log = series_log(np.stack(eig, axis=1))
    assert mat_log.shape == (6, 3)
    for k, e in enumerate(eig):
        assert maxabs(mat_log[:, k] - series_log(e)) < 1e-13


def test_series_log_matches_high_precision_log():
    # random coefficients c_n = r**n u_n with |u_n| <= 1, three series side by
    # side; on |x| = rho with r rho = 1/4, |f - 1| <= 1/3, so the principal log
    # of the truncated f is analytic out to r |x| = 1/2 and its coefficients
    # are a discrete Cauchy integral over K points on that circle, with an
    # aliasing error near 2**-K; each level is compared relative to its
    # largest coefficient over the three series
    rng = np.random.default_rng(19)
    order, r, points = 40, 1.6, 160
    u = rng.uniform(-1, 1, (order + 1, 3)) + 1j * rng.uniform(-1, 1, (order + 1, 3))
    u *= 1 / np.sqrt(2)
    u[0] = 1.0
    c = u * r ** np.arange(order + 1)[:, None]
    got = series_log(c)
    with mpmath.workdps(50):
        rho = mpmath.mpf(1) / (4 * r)
        nodes = [rho * mpmath.expjpi(mpmath.mpf(2 * t) / points) for t in range(points)]
        ref = np.zeros_like(got)
        for s in range(c.shape[1]):
            coeffs = [mpmath.mpc(x) for x in c[::-1, s]]
            logs = [mpmath.log(mpmath.polyval(coeffs, x)) for x in nodes]
            for n in range(1, order + 1):
                ref[n, s] = complex(mpmath.fsum(lg * x**-n for lg, x in zip(logs, nodes)))
    ref /= points
    assert not np.any(got[0])
    scale = np.abs(ref).max(axis=1)[1:]
    assert np.all(np.abs(got - ref).max(axis=1)[1:] <= 1e-13 * scale)
