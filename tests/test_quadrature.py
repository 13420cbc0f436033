import math

import mpmath
import numpy as np
import pytest

from wedgeqft.quadrature import gauss_legendre

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


@pytest.mark.parametrize("n", [64, 400, 2048])
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
