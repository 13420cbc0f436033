"""Scattering functions of factorizing S-matrices and their analytic data.

A model is fixed by a sign, an exponential rate and a finite list of zeros
in the half-strip 0 < Im(beta) <= pi/2 of the rapidity plane:

    S2(z) = eps * exp(i*a*sinh z) * prod_k (sinh b_k - sinh z)/(sinh b_k + sinh z)

On the real line S2 is a phase and satisfies unitarity, crossing and
hermitian analyticity; these identities are what :func:`verify_relations`
samples.  The derived quantities computed here (analyticity margin of the
zero set, sup norm on an enlarged strip, phase shift, pair-exchange phase
products) feed the locality and nuclearity checks downstream.
"""

from dataclasses import dataclass
from functools import lru_cache
import cmath
import math

import numpy as np

from .errors import ConvergenceError, ModelError, PoleProximityError, StripError

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
    for b in zs:
        if not (0.0 < b.imag <= HALF_PI):
            raise ModelError(f"zero {b} violates 0 < Im(beta) <= pi/2")

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


def strip_sup_norm(S, kap):
    """Sup of |S2| over the closed strip S(-kappa, pi+kappa).

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
    between its two neighbouring samples, which bracket the peak.  Without
    the threshold the roundoff ripple of the flat tails at |S2| ~ 1 would
    add thousands of local maxima per scan.
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
    # imported on use: scipy.optimize adds about 0.25 s to `import wedgeqft`
    from scipy.optimize import minimize_scalar

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
        res = minimize_scalar(
            lambda u: -abs(evaluate(S, t[i] + u - 1j * kap)),
            bounds=(t[i - 1] - t[i], t[i + 1] - t[i]), method="bounded",
            options={"xatol": 1e-12})
        best = max(best, -float(res.fun))
    return best


def phase_shift(S, zeta):
    """Phase shift delta with S2(z) = S2(0) exp(2*i*delta(z)), delta(0) = 0.

    The branch is tracked continuously along the path 0 -> Re(z) -> z;
    steps are refined adaptively until each log increment is unambiguous,
    and :class:`ConvergenceError` is raised when 2^21 steps on one leg
    still leave it ambiguous.  delta is odd and real on the real line.
    Points outside the open strip |Im z| < kappa(S) are rejected.
    """
    z = complex(zeta)
    if abs(z.imag) >= kappa(S):
        raise StripError(
            f"zeta={z} outside the analyticity strip |Im| < {kappa(S)}")

    s0 = evaluate(S, 0.0)

    def g(w):
        return evaluate(S, w) / s0

    total = 0.0 + 0.0j
    for start, end in ((0.0 + 0.0j, complex(z.real, 0.0)),
                       (complex(z.real, 0.0), z)):
        if end == start:
            continue
        n = 8
        while True:
            pts = start + (end - start) * np.arange(n + 1) / n
            vals = g(pts)
            ratios = vals[1:] / vals[:-1]
            # |log ratio| < 0.5 keeps the principal branch unambiguous
            if np.max(np.abs(np.log(ratios))) < 0.5:
                total += np.sum(np.log(ratios))
                break
            if n > 2 ** 20:
                raise ConvergenceError(
                    f"phase_shift branch still ambiguous on {start} -> {end} "
                    f"after {n} subdivisions")
            n *= 2
    return total / 2j


def y_phase(S, sign, zetas):
    """Product of pair-exchange phases prod_{k<l} sign * exp(i*delta(z_k - z_l)).

    For n <= 1 the empty product is 1.  Real inputs give a unimodular value.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    zs = [complex(z) for z in zetas]
    out = 1.0 + 0.0j
    for k in range(len(zs)):
        for l in range(k + 1, len(zs)):
            out *= sign * cmath.exp(1j * phase_shift(S, zs[k] - zs[l]))
    return out


@lru_cache(maxsize=64)
def _node_matrix_cached(S, grid):
    t = grid.nodes
    return evaluate(S, t[:, None] - t[None, :])


def node_matrix(S, grid):
    """Matrix M[i, j] = S2(theta_i - theta_j) on a rapidity grid (cached)."""
    M = _node_matrix_cached(S, grid)
    M.setflags(write=False)
    return M
