"""Scattering functions of factorizing S-matrices and their analytic data.

A model is fixed by a sign, an exponential rate and a finite list of zeros
in the half-strip 0 < Im(beta) <= pi/2 of the rapidity plane:

    S2(z) = eps * exp(i*a*sinh z) * prod_k (sinh b_k - sinh z)/(sinh b_k + sinh z)

On the real line S2 is a phase and satisfies unitarity, crossing and
hermitian analyticity; these identities are what :func:`verify_relations`
samples.  The derived quantities computed here (analyticity margin of the
zero set, sup norm on an enlarged strip, node matrices) feed the Fock,
locality and nuclearity checks downstream.
"""

from dataclasses import dataclass
from functools import cache
import cmath
import math

import numpy as np

from .errors import ModelError, PoleProximityError, StripError

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

    def __call__(self, zeta):
        return evaluate(self, zeta)


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


# strip_sup_norm search: the scan covers at least |t| <= _WINDOW and every
# zero's real part plus _MARGIN (the peaks of |S2(t - i kappa)| sit at
# t = +-Re b), with the sample spacing of _SAMPLES over the base window
_WINDOW = 30.0
_MARGIN = 10.0
_SAMPLES = 10_000
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_MAXFUN = 500


def _minimize_bounded(func, lo, hi, xatol):
    """(x, func(x)) at a local minimum of ``func`` on [lo, hi].

    Brent's fmin: golden-section steps with parabolic interpolation
    (Brent, Algorithms for Minimization without Derivatives (1973), ch. 5).
    Ported from SciPy's ``_minimize_scalar_bounded``
    (scipy/optimize/_optimize.py; Copyright (c) 2001-2002 Enthought, Inc.
    2003, SciPy Developers; BSD 3-clause licence) with its operation order,
    so it returns the same point and value bit for bit; like it, it stops
    after ``_MAXFUN`` evaluations.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    a, b = lo, hi
    fulc = a + _GOLDEN * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        if abs(e) > tol1:
            # parabolic fit
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = p / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 if xm >= xf else -tol1
            else:
                golden = True
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = _GOLDEN * e
        x = xf + (1.0 if rat >= 0 else -1.0) * max(abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= _MAXFUN:
            break
    return xf, fx


@cache
def strip_sup_norm(S, kap):
    """Sup of |S2| over the closed strip S(-kappa, pi+kappa), memoized per
    (model, kappa): every bound that uses ||S2||_kappa calls this for it.

    By the boundary symmetries it suffices to maximize f(t) = |S2(t - i*kappa)|
    over real t; |S2| <= 1 holds on the physical strip so the result is
    floored at 1.  The scan window reaches past every zero's real part,
    and the tail limit |S2| -> 1 covers |t| beyond it.
    Requires a = 0 (otherwise the sup is infinite) and kappa < kappa(S).

    Which scan peaks are refined: the poles of S2 sit at -b_k, at least
    d = kappa(S) - kappa below the scan line.  Near a peak f is dominated by
    the nearest pole, f(t) ~ c / sqrt((t - t*)^2 + delta^2) with delta >= d,
    so f''(t*) = -f(t*) / delta^2 and a sample within h/2 of t* (h the scan
    spacing) lies at most f(t*) h^2 / (8 d^2) below the peak value.  A peak
    can therefore hold the sup only if its highest sample is at least
    (1 - h^2 / (8 d^2)) times the highest sample overall.  Each such local
    maximum of the scan is refined by bounded Brent minimization of -f
    (:func:`_minimize_bounded`) between its two neighbouring samples, which
    bracket the peak.  Without the threshold the roundoff ripple of the
    flat tails at |S2| ~ 1 would add thousands of local maxima per scan.
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
    window = max(_WINDOW, max(abs(b.real) for b in S.zeros) + _MARGIN)
    samples = math.ceil(_SAMPLES * window / _WINDOW)
    t, h = np.linspace(-window, window, samples, retstep=True)
    vals = np.abs(evaluate(S, t - 1j * kap))
    top = float(np.max(vals))
    floor = top * (1 - h * h / (8 * (kmax - kap) ** 2))
    inner = vals[1:-1]
    peaks = 1 + np.flatnonzero((inner > vals[:-2]) & (inner >= vals[2:])
                               & (inner >= floor))
    best = max(1.0, top)
    for i in peaks:
        # offsets from t[i], so Brent's relative tolerance sqrt(eps)|x|
        # is set by the spacing, not by |t|; within 1e-12 of the peak f
        # is flat to roundoff
        _, fun = _minimize_bounded(
            lambda u: -abs(evaluate(S, t[i] + u - 1j * kap)),
            t[i - 1] - t[i], t[i + 1] - t[i], xatol=1e-12)
        best = max(best, -float(fun))
    return best


def node_matrix(S, grid):
    """Matrix M[i, j] = S2(theta_i - theta_j) on a rapidity grid."""
    t = grid.nodes
    return evaluate(S, t[:, None] - t[None, :])
