"""The Gauss-Legendre rule shared by every quadrature in the package.

Bump Fourier transforms, the B/C line integrals and the tan-compactified
Nystrom discretizations all map this one rule on [-1, 1] onto their own
interval, so a rule of a given order is generated once and shared.
"""

from functools import lru_cache

from scipy.special import roots_legendre


@lru_cache(maxsize=32)
def gauss_legendre(order):
    """Nodes (ascending) and weights of the ``order``-point rule on [-1, 1].

    The arrays are cached and handed to every caller, so they are
    read-only; scale them into new arrays rather than in place.
    """
    nodes, weights = roots_legendre(order)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights
