import math

import mpmath
import numpy as np
import pytest

from oracles import gauss_legendre_by_recurrence
from wedgeqft.fields import _bump_profile
from wedgeqft.quadrature import (STIELTJES_SWITCH, _cosine_series, _stieltjes,
                                 gauss_legendre)

NODE_TOL = 1e-15
WEIGHT_TOL = 1e-12


def _legendre_pair(n, x):
    """(P_n(x), P_{n-1}(x)) by the three-term recurrence."""
    p_prev, p = mpmath.mpf(1), x
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    return p, p_prev


def _reference_node(n, i):
    """i-th ascending node and its weight at 34 digits, by Newton steps.

    The start is the Tricomi asymptotic for the k-th largest root, so the
    reference does not depend on the rule under test.
    """
    with mpmath.workdps(34):
        k = n - i
        theta = mpmath.pi * (4 * k - 1) / (4 * n + 2)
        x = mpmath.cos(theta) * (1 - mpmath.mpf(n - 1) / (8 * n ** 3))
        for _ in range(50):
            p, p_prev = _legendre_pair(n, x)
            dp = n * (x * p - p_prev) / (x * x - 1)
            step = p / dp
            x -= step
            if abs(step) < mpmath.mpf(10) ** -32:
                break
        p, p_prev = _legendre_pair(n, x)
        dp = n * (x * p - p_prev) / (x * x - 1)
        return x, 2 / ((1 - x * x) * dp * dp)


@pytest.mark.parametrize("n", [64, 400, 1537, 2048])
def test_gauss_legendre_against_mpmath(n):
    x, w = gauss_legendre(n)
    assert x.shape == w.shape == (n,)
    for i in sorted({0, 1, n // 4, n // 2 - 1, n // 2, n - 2, n - 1}):
        ref_x, ref_w = _reference_node(n, i)
        assert abs(float(x[i] - ref_x)) <= NODE_TOL, (n, i)
        assert abs(float(w[i] - ref_w)) <= WEIGHT_TOL, (n, i)
    assert math.isclose(float(np.sum(w)), 2.0, rel_tol=1e-13)


def test_gauss_legendre_is_read_only():
    x, w = gauss_legendre(64)
    with pytest.raises(ValueError):
        x[0] = 0.0
    with pytest.raises(ValueError):
        w *= 2.0
    assert gauss_legendre(64)[0] is x


@pytest.mark.parametrize("n", [100, 200, 400, 800, 1600])
def test_gauss_legendre_is_mirror_symmetric(n):
    # the real-reduced Nystrom SVD relies on this holding bit for bit
    x, w = gauss_legendre(n)
    assert np.array_equal(x[::-1], -x)
    assert np.array_equal(w[::-1], w)


@pytest.fixture(scope="module")
def bump_integral():
    """The integral of exp(-1 / (1 - u^2)) over [-1, 1], to 30 digits."""
    with mpmath.workdps(30):
        return 2 * mpmath.quad(lambda u: mpmath.exp(-1 / (1 - u * u)),
                               [0, 0.5, 1])


@pytest.mark.parametrize("n", [2048, 8192])
def test_gauss_legendre_integrates_the_bump_to_roundoff(n, bump_integral):
    # the bump profile's quadrature error is far below roundoff at these
    # orders, so the sum measures the rule alone; scipy's roots_legendre
    # misses by 2.9e-13 at 2048 and 7.2e-14 at 8192
    x, w = gauss_legendre(n)
    got = float(np.sum(_bump_profile(x) * w))
    assert abs(got - bump_integral) <= 1e-15 * bump_integral


@pytest.mark.parametrize("n", [400, 1600])
def test_gauss_legendre_end_weight_to_roundoff(n):
    # the end weights are where 1 - x^2 from a rounded node loses digits;
    # scipy's roots_legendre misses by 5.2e-10 at 400 and 1.2e-7 at 1600
    _, w = gauss_legendre(n)
    _, ref_w = _reference_node(n, 0)
    assert abs(float((w[0] - ref_w) / ref_w)) <= 1e-11
    assert w[-1] == w[0]


@pytest.mark.parametrize("n", [1, 2, 3, 5, 16, 17, 283, 566])
def test_gauss_legendre_small_and_odd_orders(n):
    # an odd order has an exact 0 node; every order integrates x^(2n-2)
    x, w = gauss_legendre(n)
    assert np.all(np.diff(x) > 0)
    if n % 2:
        assert x[n // 2] == 0.0
    assert math.isclose(float(np.sum(w * x ** (2 * n - 2))), 2 / (2 * n - 1),
                        rel_tol=1e-13)


@pytest.mark.parametrize("n", [1537, 8192])
def test_gauss_legendre_to_roundoff_against_mpmath(n):
    # the end, the last cosine-series angle and the first Stieltjes one
    # (indices 8 and 9), and a central node, whose phase is near n pi / 2;
    # the other half is their mirror image bit for bit
    x, w = gauss_legendre(n)
    for i in (0, 1, 8, 9, n // 2 - 1):
        ref_x, ref_w = _reference_node(n, i)
        assert abs(float(x[i] - ref_x)) <= 2e-16, (n, i)
        assert abs(float((w[i] - ref_w) / ref_w)) <= 2e-14, (n, i)


def _agrees_with_recurrence(n):
    # against 34-digit roots the recurrence rule's weights err by up to
    # 2.6e-14 relative at 4096 nodes and 4.6e-14 at 8192 (near x = 0),
    # and the series rule's by at most 1.1e-14: each tolerance is the sum
    x, w = gauss_legendre(n)
    ref_x, ref_w = gauss_legendre_by_recurrence(n)
    weight_tol = 4e-14 if n <= 4096 else 6e-14
    assert np.max(np.abs(x - ref_x)) <= 4.5e-16, n
    assert np.max(np.abs(w - ref_w) / ref_w) <= weight_tol, n


def test_gauss_legendre_matches_recurrence_up_to_300():
    for n in range(1, 301):
        _agrees_with_recurrence(n)


@pytest.mark.parametrize("n", [283, 400, 566, 999, 1024, 1537, 2048, 4096,
                               8192])
def test_gauss_legendre_matches_recurrence(n):
    _agrees_with_recurrence(n)


def _legendre_theta_mp(n, theta):
    """(P_n, dP_n / dtheta) at x = cos(theta), theta a double, by mpmath."""
    with mpmath.workdps(40):
        t = mpmath.mpf(theta)
        x = mpmath.cos(t)
        p, q = mpmath.legendre(n, x), mpmath.legendre(n - 1, x)
        return float(p), float(-mpmath.sin(t) * n * (x * p - q) / (x * x - 1))


@pytest.mark.parametrize("n", [30, 31, 64, 283, 1537, 8192])
def test_series_evaluators_against_mpmath(n):
    # above the switch Stieltjes' omitted tail is below 2.9e-17 of the
    # envelope C_n / (2 sin theta)^(1/2), and its phase is reduced exactly,
    # so it is within a few roundoffs of the envelope; at half the switch
    # the tail shows.  The cosine series is exact up to the rounding of
    # its phases (n - 2k) theta, on either side of the switch
    with mpmath.workdps(30):
        c_n = float(2 / mpmath.sqrt(mpmath.pi)
                    * mpmath.exp(mpmath.loggamma(n + 1)
                                 - mpmath.loggamma(n + 1.5)))
    t = np.array([0.5, 0.75, 1, 1.5, 2, 3]) * STIELTJES_SWITCH
    theta = np.concatenate([np.arcsin(t[t <= 2 * n + 1] / (2 * n + 1)),
                            [1.0, math.pi / 2]])
    ref = np.array([_legendre_theta_mp(n, th) for th in theta])
    p, dp = _cosine_series(n, theta)
    q, dq = _stieltjes(n, theta)
    eps = np.finfo(float).eps
    envelope = c_n / np.sqrt(2 * np.sin(theta))
    err_cos = np.maximum(np.abs(p - ref[:, 0]),
                         np.abs(dp - ref[:, 1]) / (n + 0.5)) / envelope
    err_st = np.maximum(np.abs(c_n * q - ref[:, 0]),
                        np.abs(c_n * dq - ref[:, 1]) / (n + 0.5)) / envelope
    above = 2 * (n + 0.5) * np.sin(theta) >= STIELTJES_SWITCH
    assert np.all(err_cos <= 2 * eps * (n + 0.5) * theta)
    assert np.all(err_st[above] <= 4 * eps)
    if n >= 64:
        assert err_st[0] > 100 * eps
