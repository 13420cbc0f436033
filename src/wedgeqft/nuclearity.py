"""Trace norms of the damped Cauchy kernels and the nuclearity bound chain.

The quantitative side of the construction reduces to singular values of a
few explicit integral operators on the line, every one built from the one
damped Cauchy kernel

    K(x, y) = e^{-a cosh x} / (x - y + i b).

The modular operator T_s is this kernel at a = m s / 2, b = kappa / 2 over
-i pi, so ||T_s||_1 is computed as the general kernel's trace norm there,
divided by pi (Buchholz & Lechner, Ann. Henri Poincare 5 (2004) 1065;
Lechner, Commun. Math. Phys. 277 (2008) 821).  The free-Bose position and
momentum kernels combine it at a = m s, b = +-pi / 2 with its reflection
in y.  Singular values are computed by a weight-symmetrized Nystrom
discretization after the substitution y = scale * tan(v), which maps the
whole line onto a finite interval; the substitution is unitary, so the
discrete singular values converge to those of the full-line operator
without any window truncation.  On top of the trace norms sit the Hardy
constant, the geometric and Pauli-improved bound series, the minimal
splitting distance (searched inside a closed-form bracket set by |tr T_s|
below and the analytic trace bound above), the free/fermionic special
cases and the heuristic partition-function bound.

The SVD runs on a smaller real matrix with the same singular values.  The
tan-mapped rule is mirror-symmetric bit for bit (y reversed is -y, w
reversed is w), and every kernel here has K(-x, -y) = +-conj K(x, y), so
with J the reversal permutation the weighted matrix A = X + iY satisfies
J A J = +-conj(A): it is skew-centrohermitian (general) or
centrohermitian (bose_phi, bose_pi).  The unitary U = (I + iJ)/sqrt(2) makes
a centrohermitian matrix real (Lee, Linear Algebra Appl. 29 (1980) 205):
U^H A U = X - YJ.  In the skew case iA = -Y + iX is centrohermitian, so
U^H (iA) U = -(X + YJ) J, and X + YJ = -J (X - YJ) J.  Either way X - YJ
has the singular values of A.  The damping e^{-a cosh x} sits on the row
variable, so the rows of X - YJ at large |x| are tiny, subnormal or zero.
The smallest rows whose 2-norms sum to at most 2^-53 (the unit roundoff)
times the largest row norm are dropped before the SVD.  Each row is a
rank-one matrix, so the dropped block has trace norm at most that sum;
the largest row norm is at most sigma_1, and by Weyl's inequality and the
triangle inequality for ||.||_1 every singular value and the trace norm
move by less than one roundoff of sigma_1.
"""

from dataclasses import dataclass, replace
import math

import numpy as np

from .errors import ConvergenceError, ModelError, StripError
from .quadrature import gauss_legendre
from .sfunction import kappa as kappa_of
from .sfunction import strip_sup_norm

SCALE_DEFAULT = 1.0
NODES_DEFAULT = 400
REFINE_TOL = 1e-3
MAX_DOUBLINGS = 3
# largest Nystrom level: the default after every doubling.  Its trace norm
# peaks near 270 MB RSS for every kind (the complex matrix and the real
# one formed from it), inside a 768 MiB address-space cap
MAX_NODES = NODES_DEFAULT * 2 ** MAX_DOUBLINGS
BOSE_SLAB = 64                  # rows of a Bose kernel's direct term at once
SERIES_TAIL_TOL = 1e-12
SERIES_CHUNK = 1 << 18
MAX_SERIES_TERMS = 1 << 30      # ~70x the bounds sweep's largest window
K0_NODES = 64
EXP_UNDERFLOW = 745.0           # e^{-745} is the smallest subnormal double
LOG_FLOOR = math.log(math.ulp(0.0))
BRACKET_MARGIN = 1e-3
BRENT_RTOL = 4 * np.finfo(float).eps
BRENT_MAXITER = 100


def _tan_rule(scale, nodes):
    """Gauss-Legendre rule mapped onto the whole line by y = scale tan(v)."""
    v, w = gauss_legendre(nodes)
    v = v * (math.pi / 2)
    w = w * (math.pi / 2)
    y = scale * np.tan(v)
    jac = scale / np.cos(v) ** 2
    return y, w * jac


def _damped_cauchy(a, b):
    """The kernel e^{-a cosh x} / (x - y + i b), written into one complex
    array with no real temporary of its size."""
    def kern(x, y):
        d = np.empty(np.broadcast_shapes(x.shape, y.shape), complex)
        np.subtract(x, y, out=d.real)
        d.imag = b
        with np.errstate(over="ignore", under="ignore"):
            return np.divide(np.exp(-a * np.cosh(x)), d, out=d)
    return kern


def _bose_kernel(s, mass, sign):
    """(sign K_+(x, -y) + K_-(x, y)) / (2 pi i), K_+- the damped Cauchy
    kernel at a = m s, b = +-pi / 2, in one complex array: the direct term
    K_- is added one slab of ``BOSE_SLAB`` rows at a time."""
    reflected = _damped_cauchy(s * mass, math.pi / 2)
    direct = _damped_cauchy(s * mass, -math.pi / 2)

    def kern(x, y):
        A = reflected(x, -y)
        A *= sign
        for start in range(0, A.shape[0], BOSE_SLAB):
            rows = slice(start, start + BOSE_SLAB)
            A[rows] += direct(x[rows], y)
        A /= 2j * math.pi
        return A
    return kern


@dataclass(frozen=True)
class KernelOperator:
    """One of the explicit integral operators, plus its discretization knobs.

    Every kind is the damped Cauchy kernel of :func:`_damped_cauchy`:
    ``general`` (params a, b) is it as it stands, and is the modular
    operator times -i pi at a = m s / 2, b = kappa / 2 (see
    :func:`modular_trace_norm`); ``bose_phi`` and ``bose_pi`` (s, mass)
    combine it at a = m s, b = +-pi / 2 with its reflection in y.
    """

    kind: str
    params: tuple
    scale: float = SCALE_DEFAULT
    nodes: int = NODES_DEFAULT

    def kernel(self):
        if self.kind == "general":
            a, b = self.params
            if not (a > 0):
                raise ModelError("damping a must be positive")
            if b == 0:
                raise ModelError("offset b must be nonzero")
            return _damped_cauchy(a, b)
        if self.kind in ("bose_phi", "bose_pi"):
            s, mass = self.params
            return _bose_kernel(s, mass, -1 if self.kind == "bose_phi" else +1)
        raise ModelError(f"unknown kernel kind {self.kind!r}")


def _nystrom_matrix(K):
    """Weight-symmetrized Nystrom matrix sqrt(w_i) K(y_i, y_j) sqrt(w_j)."""
    y, w = _tan_rule(K.scale, K.nodes)
    A = K.kernel()(y[:, None], y[None, :])
    sw = np.sqrt(w)
    A *= sw[:, None]
    A *= sw[None, :]
    return A


def singular_values(K):
    """Singular values of the weight-symmetrized Nystrom matrix, descending.

    Computed from the real matrix M = X - YJ of A = X + iY (see the module
    docstring), without its smallest rows: in stable ascending order of
    2-norm, rows are dropped while their norms sum to at most 2^-53 times
    the largest row norm, and the rest keep their order.  That moves each
    singular value and the trace norm by less than one roundoff of
    sigma_1, and drops every zero or subnormal row, so the array is
    shorter than ``K.nodes`` when the damping is that small, and empty
    when M is zero.  A level above ``MAX_NODES`` raises
    :class:`ConvergenceError` before anything is built.
    """
    if K.nodes > MAX_NODES:
        raise ConvergenceError(
            f"Nystrom level of {K.nodes} nodes exceeds the budget of "
            f"{MAX_NODES} nodes")
    A = _nystrom_matrix(K)
    M = A.real - A.imag[:, ::-1]
    del A
    norms = np.sqrt(np.einsum("ij,ij->i", M, M))
    order = np.argsort(norms, kind="stable")
    drop = np.cumsum(norms[order]) <= 2.0 ** -53 * np.max(norms)
    return np.linalg.svd(np.delete(M, order[drop], axis=0), compute_uv=False)


@dataclass(frozen=True)
class TraceNormResult:
    value: float
    scale: float
    nodes: int
    rel_change: float
    converged: bool


def _rel_change(new, old):
    return abs(new - old) / max(abs(new), 1e-300)


def trace_norm_estimate(K, refine=True):
    """Sum of singular values, checked level by level on one ladder.

    With ``refine`` the ladder starts at a companion of round(nodes /
    sqrt(2)) nodes at scale / sqrt(2), whose SVD costs about a third of the
    requested one, then the requested level, then up to ``MAX_DOUBLINGS``
    levels that each double scale and nodes.  Each level after the
    companion is compared with the one before it, and the first that
    agrees with it to ``REFINE_TOL`` is reported, with that agreement as
    ``rel_change``; at default settings that is the requested level.
    Non-convergence within the budget is flagged, not raised, and the last
    level is still returned; a doubling above ``MAX_NODES`` raises (see
    :func:`singular_values`).  Without ``refine``, ``rel_change`` is NaN.
    """
    value = float(np.sum(singular_values(K)))
    if not refine:
        return TraceNormResult(value, K.scale, K.nodes, math.nan, True)
    below = float(np.sum(singular_values(replace(
        K, scale=K.scale / math.sqrt(2), nodes=round(K.nodes / math.sqrt(2))))))
    for doubling in range(MAX_DOUBLINGS + 1):
        if doubling:
            K = replace(K, scale=K.scale * 2, nodes=K.nodes * 2)
            value, below = float(np.sum(singular_values(K))), value
        rel = _rel_change(value, below)
        if rel < REFINE_TOL:
            break
    return TraceNormResult(value, K.scale, K.nodes, rel, rel < REFINE_TOL)


def analytic_trace_bound(a, b):
    """Closed-form trace-norm bound for the damped Cauchy kernel.

    Valid for a > 0, b != 0; negative b is covered by unitary equivalence,
    so |b| enters the formula.
    """
    if not (a > 0):
        raise ValueError(f"need a > 0, got {a}")
    if b == 0:
        raise ValueError("need b != 0")
    b = abs(b)
    return (2 ** 0.25 * math.pi ** 0.75
            * math.exp(-a) / a ** 0.25
            * math.sqrt(math.sqrt(math.pi / 2) + 1 / (4 * a))
            * math.sqrt((b ** 4 + 4 * b ** 2 + 24) / b ** 5))


def _bessel_k0(a):
    """K_0(a) = int_0^inf e^{-a cosh t} dt on the shared Gauss-Legendre rule.

    The integrand reaches the smallest subnormal double where a cosh t
    reaches ``EXP_UNDERFLOW``, so the integral is cut there and taken with
    a ``K0_NODES``-point rule; it is 0.0 for a at or above that.
    """
    if a >= EXP_UNDERFLOW:
        return 0.0
    half = math.acosh(EXP_UNDERFLOW / a) / 2
    v, w = gauss_legendre(K0_NODES)
    return half * float(np.dot(w, np.exp(-a * np.cosh(half * (v + 1)))))


def _trace_lower_bound(a, b):
    """2 K_0(a) / |b|, the |trace| of the damped Cauchy kernel.

    |tr A| <= sum sigma_i(A), so this bounds the trace norm from below,
    and also its Nystrom estimate, whose trace matches it to about 3e-14
    at the default nodes.
    """
    return 2 * _bessel_k0(a) / abs(b)


def sigma(S, s, kap):
    """Hardy constant controlling the wedge wavefunction bounds.

    sigma(s, kappa) = 2 sqrt(2) e^{-m s cos(kappa)} ||S2||_kappa
                      / sqrt((m s / 2) cos(kappa) (kappa(S2) - kappa)),
    monotone decreasing in s, divergent at s = 0.  The argument convention
    absorbs the half/half splitting of the distance, so the same constant
    appears in the distal and Pauli-improved series.  ||S2||_kappa is
    always the memoized :func:`~wedgeqft.sfunction.strip_sup_norm`.
    """
    if S.a != 0.0:
        raise StripError("nuclearity estimates need the bounded family (a = 0)")
    kmax = kappa_of(S)
    if not (0.0 < kap < kmax):
        raise StripError(f"kappa must lie in (0, {kmax}), got {kap}")
    if not (s > 0):
        raise ValueError(f"splitting distance must be positive, got {s}")
    m = S.mass
    ck = math.cos(kap)
    return (2 * math.sqrt(2) * math.exp(-m * s * ck) * strip_sup_norm(S, kap)
            / math.sqrt((m * s / 2) * ck * (kmax - kap)))


def modular_trace_norm(S, s, kap, nodes=NODES_DEFAULT, refine=False):
    """||T_s||_1 at (s, kappa) for the model mass: the trace norm of the
    general kernel at (m s / 2, kappa / 2), divided by pi."""
    a = S.mass * s / 2
    if s > 0 and not a > 0:
        raise ConvergenceError(f"damping m s / 2 underflows at s = {s}")
    K = KernelOperator("general", (a, kap / 2), nodes=nodes)
    r = trace_norm_estimate(K, refine=refine)
    return replace(r, value=r.value / math.pi)


def xi_bound_distal(S, s, kap, trace_norm):
    """Geometric bound series: 1/(1 - x) for x = sigma * ||T||_1, else inf.

    ``trace_norm`` is the ||T_s||_1 the caller reports next to the bound.
    """
    x = sigma(S, s, kap) * trace_norm
    if x >= 1.0:
        return math.inf
    return 1.0 / (1.0 - x)


def log_xi_bound_minus(S, s, kap, trace_norm):
    """log of the Pauli-improved series sum_n x^n / sqrt(n!), finite for
    every x, with x = sigma * ||T||_1 * sqrt(||S2||_kappa).

    ``trace_norm`` is ||T_s||_1, as for :func:`xi_bound_distal`.  The log
    form stays in double range where the sum itself overflows.
    Requires S2(0) = -1 (the fermionic subfamily) and a = 0.
    """
    if S.epsilon != -1:
        raise ModelError("the improved bound needs S2(0) = -1")
    x = sigma(S, s, kap) * trace_norm * math.sqrt(strip_sup_norm(S, kap))
    return log_sqrt_factorial_series(x)


def log_sqrt_factorial_series(x):
    """log of sum_{n>=0} x^n / sqrt(n!), in memory that does not grow with x.

    The terms t_n peak at n* = floor(x^2), and their logs have curvature
    about -1/(2 n*), so only the window n* +- (12 sqrt(2) x + 50) is summed.
    log t_n* comes from one ``math.lgamma``; the other terms are reached by
    walking out from the peak on the term ratio t_k / t_{k-1} = x / sqrt(k),
    each step adding +-(log x - log(k) / 2) to a running level, in chunks
    of ``SERIES_CHUNK`` steps that carry the level across.  The ratio
    decreases in n, so the tail beyond each edge of the window is bounded
    by the geometric series t_edge q / (1 - q), with q = x / sqrt(hi + 1)
    above it and q = sqrt(lo) / x below it.  Raises ``ConvergenceError`` if
    that bound is not below ``SERIES_TAIL_TOL`` relative to the sum, or,
    before any summing, if the window may exceed ``MAX_SERIES_TERMS``.
    """
    if x < 0:
        raise ValueError("series argument must be nonnegative")
    if x == 0.0:
        return 0.0
    # at most 2 half terms, checked before x * x can leave the int range
    reach = 12 * math.sqrt(2) * x
    if not 2 * reach + 100 <= MAX_SERIES_TERMS:
        raise ConvergenceError(
            f"series at x = {x:.3g} needs about {2 * reach:.3g} terms, "
            f"above the budget of {MAX_SERIES_TERMS}")
    log_x = math.log(x)
    peak = int(x * x)
    half = int(reach) + 50
    lo, hi = max(peak - half, 0), peak + half
    # acc sums t_n / t_peak; each walk ends at level log(t_edge / t_peak)
    acc, tail = 1.0, 0.0
    walks = ((1.0, range(peak + 1, hi + 1), x / math.sqrt(hi + 1)),
             (-1.0, range(peak, lo, -1), math.sqrt(lo) / x))
    for sign, steps, q in walks:
        level = 0.0
        for i in range(0, len(steps), SERIES_CHUNK):
            k = steps[i:i + SERIES_CHUNK]
            k = np.arange(k.start, k.stop, k.step, dtype=float)
            levels = np.cumsum(sign * (log_x - 0.5 * np.log(k)))
            levels += level
            acc += float(np.sum(np.exp(levels)))
            level = float(levels[-1])
        tail += math.exp(level) * q / (1 - q)
    tail /= acc
    if not tail < SERIES_TAIL_TOL:
        raise ConvergenceError(
            f"series tail bound {tail:.3g} exceeds {SERIES_TAIL_TOL:g}")
    return peak * log_x - 0.5 * math.lgamma(peak + 1) + math.log(acc)


def _log(x):
    """math.log, with 0.0 (an underflowed product) sent to ``LOG_FLOOR``."""
    return math.log(x) if x > 0 else LOG_FLOOR


def _brentq(f, a, b, xtol):
    """Root of f in [a, b] by Brent's zeroin, to xtol + ``BRENT_RTOL`` |x|.

    Ported from SciPy's C ``brentq`` (scipy/optimize/Zeros/brentq.c;
    Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers; BSD
    3-clause licence) with its operation order and its defaults rtol =
    4 eps and maxiter = 100, so it returns the same root bit for bit.
    Brent, Algorithms for Minimization without Derivatives (1973), ch. 4.
    f(a) and f(b) must differ in sign; :class:`ConvergenceError` names the
    bracket otherwise, and is raised when ``BRENT_MAXITER`` steps do not
    meet the tolerance.
    """
    xpre, xcur = a, b
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ConvergenceError(
            f"no sign change in bracket ({a}, {b}): f(lo) = {fpre:.3g}, "
            f"f(hi) = {fcur:.3g}")
    for _ in range(BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry     # good short step
            else:
                spre = scur = sbis          # bisect
        else:
            spre = scur = sbis              # bisect
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise ConvergenceError(
        f"Brent's method took more than {BRENT_MAXITER} steps")


def s_min_bracket(S, kap):
    """Closed-form bracket (lo, hi) of the root of sigma(s) ||T_s||_1 = 1.

    ||T_s||_1 is the trace norm of the damped Cauchy kernel at
    (m s / 2, kappa / 2) over pi, so it lies between
    :func:`_trace_lower_bound` and :func:`analytic_trace_bound` there, over
    pi; the Nystrom estimate does too.  Both sides times sigma decrease in
    s, so lo solves sigma * lower = 1 and hi solves sigma * upper = 1, each
    by Brent's method (:func:`_brentq`) in log s over (1e-6 / m, 1e3 / m).
    Each end is then moved outward by ``BRACKET_MARGIN`` relative, so that
    the sign of the objective there rests on the bounds, not on a root
    tolerance.
    """
    m = S.mass

    def root(trace_bound):
        def log_objective(u):
            s = math.exp(u)
            return _log(sigma(S, s, kap) * trace_bound(m * s / 2, kap / 2)
                        / math.pi)
        return math.exp(_brentq(log_objective, math.log(1e-6 / m),
                                math.log(1e3 / m), xtol=1e-12))

    return (root(_trace_lower_bound) * (1 - BRACKET_MARGIN),
            root(analytic_trace_bound) * (1 + BRACKET_MARGIN))


def find_s_min(S, kap, bracket=None, tol=1e-4, nodes=NODES_DEFAULT):
    """Root of sigma(s, kappa) ||T_s||_1 = 1 in the bracket, to ``tol`` in s.

    The objective is strictly decreasing in s, so above the root the
    geometric bound series converges.  The default bracket is the closed
    form of :func:`s_min_bracket`.  The root is found by Brent's method
    (:func:`_brentq`, which interpolates and so takes about five
    objective evaluations where bisection would take fifteen) on
    log(sigma ||T_s||_1), which is nearly linear in s, with the unrefined
    ``nodes``-point trace norms; a product that underflows to 0.0 counts
    as ``LOG_FLOOR``.  :func:`_brentq` raises :class:`ConvergenceError`
    when the objective does not change sign over the bracket.
    :func:`sigma` raises :class:`StripError` outside the bounded family,
    and supplies ||S2||_kappa, computed once per model and kappa.
    """
    if bracket is None:
        bracket = s_min_bracket(S, kap)

    def objective(s):
        return _log(sigma(S, s, kap)
                    * modular_trace_norm(S, s, kap, nodes=nodes).value)

    return _brentq(objective, *bracket, xtol=tol)


@dataclass(frozen=True)
class FreeBoseResult:
    value: float
    max_singular_phi: float
    max_singular_pi: float
    trace_phi: float
    trace_pi: float

    @property
    def exp_bound(self):
        """exp(2 ||T_phi||_1 + 2 ||T_pi||_1), the Ising-Fermi bound."""
        return math.exp(2 * (self.trace_phi + self.trace_pi))


def free_bose_bound(s, mass, nodes=NODES_DEFAULT):
    """Determinant surrogate for the free model of the given mass.

    Computes the singular values of the position- and momentum-type
    kernels and returns prod (1 - t_i)^{-2} over both spectra, infinite if
    any singular value reaches 1.  Dropping the half-line projections can
    only enlarge singular values, so this surrogate is conservative.
    """
    if not (s > 0):
        raise ValueError("need s > 0")
    sv_phi = singular_values(KernelOperator("bose_phi", (s, mass), nodes=nodes))
    sv_pi = singular_values(KernelOperator("bose_pi", (s, mass), nodes=nodes))
    top_phi = float(sv_phi[0]) if sv_phi.size else 0.0
    top_pi = float(sv_pi[0]) if sv_pi.size else 0.0
    if top_phi >= 1.0 or top_pi >= 1.0:
        value = math.inf
    else:
        log_det = (np.log1p(-sv_phi).sum() + np.log1p(-sv_pi).sum())
        value = float(math.exp(-2.0 * log_det))
    return FreeBoseResult(value=value, max_singular_phi=top_phi,
                          max_singular_pi=top_pi,
                          trace_phi=float(sv_phi.sum()),
                          trace_pi=float(sv_pi.sum()))


@dataclass(frozen=True)
class PartitionBound:
    value: float
    log_value: float
    mu: float
    s_effective: float
    improved: bool
    heuristic: bool = True


def partition_bound(S, beta, r, kap, improved=False, nodes=NODES_DEFAULT):
    """Heuristic partition-function bound for the fermionic subfamily.

    mu = arctan(beta / 2r) / 2pi sets the effective damping
    e^{-(r m / 2) sin(2 pi mu) cosh t}; the bound is the Pauli series at
    the effective distance r sin(2 pi mu), doubled unless ``improved``.
    The generalized kernel is an extrapolation and is flagged as such.
    """
    if S.epsilon != -1:
        raise ModelError("partition bound needs the fermionic subfamily")
    if not (beta > 0 and r > 0):
        raise ValueError("need beta > 0 and r > 0")
    mu = math.atan2(beta, 2 * r) / (2 * math.pi)
    s_eff = r * math.sin(2 * math.pi * mu)
    if not (s_eff > 0):
        raise ConvergenceError("effective distance r sin(2 pi mu) "
                               f"underflows at beta = {beta}, r = {r}")
    trace_norm = modular_trace_norm(S, s_eff, kap, nodes=nodes).value
    log_series = log_xi_bound_minus(S, s_eff, kap, trace_norm=trace_norm)
    prefactor = 1.0 if improved else 2.0
    log_value = math.log(prefactor) + log_series
    # multiply by the prefactor after exponentiating: doubling is exact in
    # binary floating point, matching the advertised factor-of-two relation
    series_value = math.exp(log_series) if log_series < 700 else math.inf
    return PartitionBound(value=prefactor * series_value, log_value=log_value,
                          mu=mu, s_effective=s_eff, improved=improved)

