"""The Gauss-Legendre rule shared by every quadrature in the package.

Bump Fourier transforms, the B/C line integrals and the tan-compactified
Nystrom discretizations all map this one rule on [-1, 1] onto their own
interval, so a rule of a given order is generated once and shared.

The rule is built on the half x = cos(theta) >= 0 and mirrored, so it is
symmetric bit for bit (an odd order has an exact 0 node).  The angles
start from Tricomi's asymptotic roots and take ``NEWTON_SWEEPS`` Newton
steps in theta together; one more evaluation gives the weights
w = 2 / (dP_n / dtheta)^2, with no 1 - x^2 taken from a rounded node.
P_n(cos theta) and dP_n / dtheta come from one of two evaluators, each a
fixed number of numpy calls whatever n is:

* Stieltjes' expansion (Szego, Orthogonal Polynomials, (8.21.11); Hale &
  Townsend, SIAM J. Sci. Comput. 35 (2013) A652)

      P_n(cos theta) = C_n sum_{m < M} h_m cos(alpha_m) / (2 sin theta)^(m + 1/2)

  with alpha_m = (n + m + 1/2) theta - (m + 1/2) pi / 2, h_0 = 1,
  h_m = h_{m-1} (m - 1/2)^2 / (m (n + m + 1/2)), differentiated term by
  term.  Szego bounds the omitted tail by twice the first omitted term, so
  relative to the envelope C_n / (2 sin theta)^(1/2) it is below
  2 prod_{j <= M} (j - 1/2)^2 / (j T) wherever 2 (n + 1/2) sin theta >= T,
  for every n.  At T = ``STIELTJES_SWITCH`` = 60 the smallest M for which
  that is below the unit roundoff 2^-53 is ``STIELTJES_TERMS`` = 16
  (2.9e-17).  The phase (n + 1/2) theta is reduced modulo 2 pi without
  rounding the product, so a central node does not inherit the rounding
  of a phase near n pi / 2.  C_n cancels in the Newton step, and the
  weights fix it by sum(w) = 2.
* The exact finite cosine series P_n(cos theta) =
  sum_{k=0..n} a_k a_{n-k} cos((n - 2k) theta), a_k = binom(2k, k) / 4^k,
  whose coefficients are all positive, folded k <-> n - k, for the angles
  with 2 (n + 1/2) sin theta < T: the 9 nearest the end x = 1 from 87
  nodes on (at most 13 below), and every angle of a rule of fewer than 30
  nodes.  It runs on those angles only, so its block has at most 15 rows.

Against 34-digit roots (43 nodes per order, both ends included) the nodes
err by at most 1.3e-16 and the weights by at most 1.1e-14 relative up to
8192 nodes.  Above the switch the two evaluators agree to within
2 eps (n + 1/2) theta of the envelope, the rounding of the cosine series'
phases.  The rule integrates the bump profile to within 1.6e-16 relative
from 128 to 8192 nodes.  Three Newton sweeps take Tricomi's worst start,
the end node, to roundoff.  A rule costs O(n): the series blocks are at
most (n / 2) x 16 and 15 x (n / 2 + 1).  Every sum is an einsum or a
numpy reduction, none through BLAS, so a rule does not depend on the BLAS
thread count.
"""

from functools import lru_cache
import math

import numpy as np

NEWTON_SWEEPS = 3
STIELTJES_SWITCH = 60.0
STIELTJES_TERMS = 16
# 2 pi = TWO_PI_HI + TWO_PI_LO to about 1e-26 (2.449...e-16 is 2 pi less
# math.tau), TWO_PI_HI on a grid of 2^-32 so that j TWO_PI_HI is exact
# for j < 2^18, every n below 2^20
TWO_PI_HI = round(math.tau * 2 ** 32) / 2 ** 32
TWO_PI_LO = (math.tau - TWO_PI_HI) + 2.4492935982947064e-16


def _cosine_series(n, theta):
    """(P_n, dP_n / dtheta) at x = cos(theta), from the exact cosine series."""
    j = np.arange(1, n + 1)
    a = np.concatenate([[1.0], np.cumprod((2 * j - 1) / (2 * j))])
    half = n // 2 + 1
    c = a[:half] * a[::-1][:half]
    c[:(n + 1) // 2] *= 2       # every k < n / 2 stands for k and n - k
    freq = n - 2.0 * np.arange(half)
    phase = np.multiply.outer(theta, freq)
    p = np.einsum("ij,j->i", np.cos(phase), c)
    dp = -np.einsum("ij,j->i", np.sin(phase), c * freq)
    return p, dp


def _phase(n, theta):
    """(n + 1/2) theta - pi / 4 less a multiple of 2 pi, without rounding
    the product: theta_hi has 26 fractional bits, so (n + 1/2) theta_hi
    and its difference with j TWO_PI_HI are exact."""
    q = n + 0.5
    hi = np.round(theta * 2.0 ** 26) * 2.0 ** -26
    j = np.round(q * hi / math.tau)
    return ((q * hi - j * TWO_PI_HI) - j * TWO_PI_LO + q * (theta - hi)
            - math.pi / 4)


def _stieltjes(n, theta):
    """(P_n, dP_n / dtheta) / C_n at x = cos(theta), from Stieltjes'
    expansion truncated after ``STIELTJES_TERMS`` terms."""
    m = np.arange(STIELTJES_TERMS)
    h = np.ones(STIELTJES_TERMS)
    h[1:] = np.cumprod((m[1:] - 0.5) ** 2 / (m[1:] * (n + m[1:] + 0.5)))
    r = 0.5 / np.sin(theta)
    g = np.power.outer(r, m + 0.5) * h
    alpha = np.multiply.outer(theta - math.pi / 2, m)
    alpha += _phase(n, theta)[:, None]
    cos, sin = np.cos(alpha), np.sin(alpha)
    p = np.einsum("ij,ij->i", g, cos)
    # d/dtheta (2 sin theta)^-(m + 1/2) = -(m + 1/2) cot(theta) (...)
    dp = (np.einsum("ij,ij,j->i", g, sin, n + m + 0.5)
          + 2 * r * np.cos(theta) * np.einsum("ij,ij,j->i", g, cos, m + 0.5))
    return p, -dp


def _legendre_theta(n, theta, end):
    """(P_n, dP_n / dtheta) on the first ``end`` angles, then divided by
    C_n on the rest."""
    p_end, dp_end = _cosine_series(n, theta[:end])
    p, dp = _stieltjes(n, theta[end:])
    return np.concatenate([p_end, p]), np.concatenate([dp_end, dp])


@lru_cache(maxsize=32)
def gauss_legendre(order):
    """Nodes (ascending) and weights of the ``order``-point rule on [-1, 1].

    The arrays are cached and handed to every caller, so they are
    read-only; scale them into new arrays rather than in place.
    """
    n = int(order)
    if n < 1:
        raise ValueError(f"rule order must be positive, got {order}")
    # the largest (n + 1) // 2 roots, descending; theta = pi / 2 is the 0
    # node of an odd order
    k = np.arange(1, (n + 1) // 2 + 1)
    theta = math.pi * (4 * k - 1) / (4 * n + 2)
    theta = np.arccos(np.cos(theta)
                      * (1 - (n - 1) / (8 * n ** 3)
                         - (39 - 28 / np.sin(theta) ** 2) / (384 * n ** 4)))
    end = np.count_nonzero(2 * (n + 0.5) * np.sin(theta) < STIELTJES_SWITCH)
    for _ in range(NEWTON_SWEEPS):
        p, dp = _legendre_theta(n, theta, end)
        theta -= p / dp
    _, dp = _legendre_theta(n, theta, end)
    w = 2 / dp ** 2
    if end < w.size:
        # the Stieltjes weights lack the factor 1 / C_n^2: the whole rule,
        # its mirrored half counted twice, integrates 1 to 2
        inner = 2 * np.sum(w[end:]) - (n % 2) * w[-1]
        w[end:] *= (2 - 2 * np.sum(w[:end])) / inner
    x = np.cos(theta[:n // 2])      # the strictly positive nodes
    nodes = np.concatenate([-x, np.zeros(n % 2), x[::-1]])
    weights = np.concatenate([w, w[:n // 2][::-1]])
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights
