"""Scattering functions of factorizing S-matrices and their analytic data.

A model is fixed by a sign, an exponential rate and a finite list of zeros
in the half-strip 0 < Im(beta) <= pi/2 of the rapidity plane:

    S2(z) = eps * exp(i*a*sinh z) * prod_k (sinh b_k - sinh z)/(sinh b_k + sinh z)

On the real line S2 is a phase and satisfies unitarity, crossing and
hermitian analyticity; these identities are what :func:`verify_relations`
samples.  The derived quantities computed here (analyticity margin of the
zero set, a certified upper bound of the sup norm on an enlarged strip,
node matrices) feed the Fock, locality and nuclearity checks downstream.
"""

from dataclasses import dataclass
from functools import cache
import cmath
import math

import numpy as np

from .errors import (ConvergenceError, ModelError, PoleProximityError,
                     StripError)

HALF_PI = math.pi / 2

# |sinh(b_k) + sinh(z)| below this floor counts as sitting on a pole
POLE_FLOOR_DEFAULT = 1e-12


@dataclass(frozen=True)
class ScatteringFunction:
    """Immutable scattering-function model.

    ``epsilon`` is the value at the origin (+1 or -1), ``a`` the
    nonnegative coefficient of ``sinh`` in the exponential prefactor,
    ``zeros`` the finite tuple of zeros in the closed half strip
    ``0 < Im(b) <= pi/2`` and ``mass`` the particle mass used by all
    downstream modules.

    The constructor validates only per-zero constraints.  Mirror pairing
    of off-axis zeros (needed for crossing symmetry) is enforced by
    :func:`build_model`; instantiating directly with an unpaired zero is
    allowed so broken models can be exercised as negative controls.
    """

    epsilon: int
    a: float = 0.0
    zeros: tuple = ()
    mass: float = 1.0

    def __post_init__(self):
        if self.epsilon not in (+1, -1):
            raise ModelError(f"epsilon must be +1 or -1, got {self.epsilon}")
        if not (self.a >= 0.0):
            raise ModelError(f"exponential rate a must be >= 0, got {self.a}")
        if not (self.mass > 0.0):
            raise ModelError(f"mass must be positive, got {self.mass}")
        object.__setattr__(self, "zeros", tuple(complex(b) for b in self.zeros))
        for b in self.zeros:
            if not (0.0 < b.imag <= HALF_PI):
                raise ModelError(
                    f"zero {b} violates 0 < Im(beta) <= pi/2")


def _mirror_partner(b):
    return complex(-b.real, b.imag)


def build_model(epsilon, a=0.0, zeros=(), m=1.0, auto_mirror=True):
    """Construct and validate a scattering-function model.

    Zeros with nonzero real part must come in mirror pairs (b, -conj(b));
    with ``auto_mirror`` a one-sided zero may be given once and the partner
    is added automatically.  Purely imaginary zeros stand alone.

    Raises :class:`ModelError` for zeros outside the half strip, negative
    ``a``, nonpositive mass, or unpaired off-axis zeros when auto-mirroring
    is disabled.
    """
    zs = [complex(b) for b in zeros]
    on_axis = [b for b in zs if b.real == 0.0]
    off_axis = [b for b in zs if b.real != 0.0]
    paired = []
    while off_axis:
        b = off_axis.pop(0)
        partner = _mirror_partner(b)
        if partner in off_axis:
            off_axis.remove(partner)
        elif not auto_mirror:
            raise ModelError(
                f"zero {b} lacks its mirror partner {partner} and "
                "auto-mirroring is disabled")
        paired.extend([b, partner])

    return ScatteringFunction(epsilon=int(epsilon), a=float(a),
                              zeros=tuple(on_axis + paired), mass=float(m))


def evaluate(S, zeta):
    """Evaluate S2 at (an array of) complex rapidity.

    Uses the product representation; 2*pi*i periodicity is automatic.
    Raises :class:`PoleProximityError` when any |sinh(b_k) + sinh(z)|
    falls below ``POLE_FLOOR_DEFAULT``.
    """
    z = np.asarray(zeta, dtype=complex)
    sz = np.sinh(z)
    out = np.full(z.shape, complex(S.epsilon), dtype=complex)
    if S.a != 0.0:
        out = out * np.exp(1j * S.a * sz)
    for b in S.zeros:
        sb = cmath.sinh(b)
        den = sb + sz
        if np.min(np.abs(den)) < POLE_FLOOR_DEFAULT:
            raise PoleProximityError(
                f"evaluation within {POLE_FLOOR_DEFAULT} of the pole "
                f"mirroring zero {b}")
        out = out * (sb - sz) / den
    if np.isscalar(zeta) or np.ndim(zeta) == 0:
        return complex(out)
    return out


def verify_relations(S, thetas):
    """Max residuals of unitarity, symmetry, crossing and unimodularity.

    Symmetry compares S2(-t) with 1/S2(t), crossing S2(t + i*pi) with
    1/S2(t), and the modulus residual is ||S2(t)| - 1|, all on ``thetas``.
    """
    t = np.asarray(thetas, dtype=float)
    v = evaluate(S, t)
    inv = 1.0 / v
    r_uni = np.max(np.abs(np.conj(v) - inv))
    r_sym = np.max(np.abs(evaluate(S, -t) - inv))
    r_cross = np.max(np.abs(evaluate(S, t + 1j * math.pi) - inv))
    r_mod = np.max(np.abs(np.abs(v) - 1.0))
    return {"unitarity": float(r_uni), "symmetry": float(r_sym),
            "crossing": float(r_cross), "modulus": float(r_mod)}


def kappa(S):
    """Analyticity margin: least Im(beta) over the zeros, capped at pi/2.

    An empty zero list yields the cap, which keeps cos(kappa) > 0 in every
    downstream formula.
    """
    if not S.zeros:
        return HALF_PI
    return min(HALF_PI, min(b.imag for b in S.zeros))


# spacing of the start scan of strip_sup_norm: 600 samples per 60 in t
_SPACING = 0.1
# relative slack of strip_sup_norm over ||S2||_kappa
SUP_RTOL = 1e-12
# cells strip_sup_norm may halve in one call before it raises
MAX_HALVINGS = 100_000


def _log_modulus(S, t, kap):
    return np.log(np.abs(evaluate(S, t - 1j * kap)))


def _cell_bounds(sb, kap, lo, hi, g_lo, g_hi):
    """Upper bounds of g(t) = log|S2(t - i*kappa)| on the cells [lo, hi],
    for the zeros b_k with sinh b_k = ``sb``.

    A C^2 function with |g''| <= M on a cell of width h stays below the
    larger end value plus M h^2 / 8.  With w = sinh z, z = t - i*kappa and
    P_k = |sinh b_k - w| |sinh b_k + w|, the k-th factor of S2 adds
    2 |sinh b_k| |w| (1 + 2 |cosh z|^2 / P_k) / P_k to a bound of |g''|.
    |sinh z| and |cosh z| grow with |t|, so their values at the cell's
    larger |t| bound them; |cosh z| also bounds |dw/dt|, so each
    |sinh b_k -+ w| is at least its smaller end value minus |cosh z| h / 2.
    A cell where that lower bound is not positive gets an infinite bound.
    """
    h = hi - lo
    sh = np.sinh(np.maximum(np.abs(lo), np.abs(hi)))
    cosh_max = np.hypot(sh, math.cos(kap))
    sinh_max = np.hypot(sh, math.sin(kap))
    u = np.concatenate((sb, -sb))[:, None]
    near = np.minimum(np.abs(u - np.sinh(lo - 1j * kap)),
                      np.abs(u - np.sinh(hi - 1j * kap)))
    d = np.maximum(near - cosh_max * h / 2, 0.0)
    p = d[:sb.size] * d[sb.size:]
    with np.errstate(divide="ignore"):
        m = np.abs(sb)[:, None] * (1 + 2 * cosh_max ** 2 / p) / p
    return np.maximum(g_lo, g_hi) + sinh_max * m.sum(axis=0) * h * h / 4


@cache
def strip_sup_norm(S, kap):
    """Certified upper bound of ||S2||_kappa, the sup of |S2| over the
    closed strip S(-kappa, pi+kappa), at most ``SUP_RTOL`` relative above
    it.  Memoized per (model, kappa): every bound that uses ||S2||_kappa
    calls this for it.  Requires a = 0 (otherwise the sup is infinite) and
    0 < kappa < kappa(S).

    By the boundary symmetries and the maximum principle the sup is that
    of g(t) = log|S2(t - i*kappa)| over real t, exponentiated, and at least
    1 (|S2| = 1 on the real line).  Beyond |t| = W each factor of S2 has
    modulus at most (sinh W + |sinh b_k|) / (sinh W - |sinh b_k|), because
    |sinh z| >= sinh |t|; W is chosen so that these tail bounds multiply
    to about exp(SUP_RTOL / 4).  A uniform scan of |t| <= W splits it
    into cells, each bounded by :func:`_cell_bounds`.  Every cell whose
    bound exceeds the largest value known (the samples, the floor 0 and
    the tail bound) by more than SUP_RTOL / 2 is halved at its midpoint,
    until none does; the result is exp(largest + SUP_RTOL).  The other
    half of SUP_RTOL covers rounding: each factor of :func:`evaluate`
    carries a few ulps, about 1e-15 in g at kappa = kappa(S) / 2.  That
    error grows like 1 / |sinh b_k + sinh z| as the line nears a pole, so
    close to kappa(S) it can exceed SUP_RTOL / 2 (for a zero at i*pi/2 it
    does at kappa = kappa(S)(1 - 1e-3)), and the result is then certified
    only up to that rounding.

    Raises :class:`ConvergenceError`, rather than return a value it cannot
    certify, when the bisection would halve more than ``MAX_HALVINGS``
    cells or a cell too narrow to have a midpoint strictly inside it.  The
    budget runs out when kappa is tiny against kappa(S) (1e-8 kappa(S) on
    models of one to three zeros): g is then so flat that the cells must
    resolve it to its own size.
    """
    kmax = kappa(S)
    if not (0.0 < kap < kmax):
        raise StripError(f"kappa must lie in (0, {kmax}), got {kap}")
    if S.a != 0.0:
        raise StripError(
            "strip sup norm is infinite for a > 0; the bounded family "
            "requires a = 0")
    if not S.zeros:
        return 1.0
    sb = np.sinh(np.array(S.zeros))
    window = math.asinh(8 * np.abs(sb).sum() / SUP_RTOL)
    t = np.linspace(-window, window, math.ceil(2 * window / _SPACING) + 1)
    g = _log_modulus(S, t, kap)
    sw = math.sinh(window)
    tail = float(np.log((sw + np.abs(sb)) / (sw - np.abs(sb))).sum())
    top = max(0.0, tail, float(g.max()))
    lo, hi, g_lo, g_hi = t[:-1], t[1:], g[:-1], g[1:]
    halved = 0
    while True:
        split = _cell_bounds(sb, kap, lo, hi, g_lo, g_hi) > top + SUP_RTOL / 2
        if not split.any():
            return math.exp(top + SUP_RTOL)
        lo, hi, g_lo, g_hi = lo[split], hi[split], g_lo[split], g_hi[split]
        halved += lo.size
        if halved > MAX_HALVINGS:
            raise ConvergenceError(
                f"strip sup norm at kappa={kap} needs more than "
                f"{MAX_HALVINGS} cell halvings")
        mid = 0.5 * (lo + hi)
        if np.any((mid <= lo) | (mid >= hi)):
            raise ConvergenceError(
                f"strip sup norm at kappa={kap} needs cells narrower than "
                "the float spacing")
        g_mid = _log_modulus(S, mid, kap)
        top = max(top, float(g_mid.max()))
        lo, hi = np.concatenate((lo, mid)), np.concatenate((mid, hi))
        g_lo = np.concatenate((g_lo, g_mid))
        g_hi = np.concatenate((g_mid, g_hi))


def node_matrix(S, grid):
    """Matrix M[i, j] = S2(theta_i - theta_j) on a rapidity grid."""
    t = grid.nodes
    return evaluate(S, t[:, None] - t[None, :])
