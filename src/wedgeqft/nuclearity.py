"""Trace norms of the damped Cauchy kernels and the nuclearity bound chain.

The quantitative side of the construction reduces to singular values of a
few explicit integral operators on the line, all of the damped-Cauchy type

    K(x, y) = e^{-a cosh x} / (x - y + i b)

possibly with reflected or differently shifted denominators.  Singular
values are computed by a weight-symmetrized Nystrom discretization after
the substitution y = scale * tan(v), which maps the whole line onto a
finite interval; the substitution is unitary, so the discrete singular
values converge to those of the full-line operator without any window
truncation.  On top of the trace norms sit the Hardy constant, the
geometric and Pauli-improved bound series, the minimal splitting distance,
the free/fermionic special cases and the heuristic partition-function
bound.

The SVD runs on a smaller real matrix with the same singular values.  The
tan-mapped rule is mirror-symmetric bit for bit (y reversed is -y, w
reversed is w), and every kernel here has K(-x, -y) = +-conj K(x, y), so
with J the reversal permutation the weighted matrix A = X + iY satisfies
J A J = +-conj(A): it is centrohermitian (modular, bose_phi, bose_pi) or
skew-centrohermitian (general).  The unitary U = (I + iJ)/sqrt(2) makes
a centrohermitian matrix real (Lee, Linear Algebra Appl. 29 (1980) 205):
U^H A U = X - YJ.  In the skew case iA = -Y + iX is centrohermitian, so
U^H (iA) U = -(X + YJ) J, and X + YJ = -J (X - YJ) J.  Either way X - YJ
has the singular values of A.  The damping e^{-a cosh x} sits on the row
variable and underflows to exactly 0.0 at large |x|; those rows of A,
and of X - YJ, are identically zero and contribute only zero singular
values, so they are dropped before the SVD.
"""

from dataclasses import dataclass
from functools import cache
import math

import numpy as np
from scipy.special import gammaln

from .errors import ConvergenceError, ModelError, StripError
from .quadrature import gauss_legendre
from .sfunction import kappa as kappa_of
from .sfunction import strip_sup_norm

SCALE_DEFAULT = 1.0
NODES_DEFAULT = 400
REFINE_TOL = 1e-3
MAX_DOUBLINGS = 3
SERIES_TAIL_TOL = 1e-12
SERIES_CHUNK = 1 << 18


def _tan_rule(scale, nodes):
    """Gauss-Legendre rule mapped onto the whole line by y = scale tan(v)."""
    v, w = gauss_legendre(nodes)
    v = v * (math.pi / 2)
    w = w * (math.pi / 2)
    y = scale * np.tan(v)
    jac = scale / np.cos(v) ** 2
    return y, w * jac


def _damped_cauchy(a, b):
    def kern(x, y):
        with np.errstate(over="ignore", under="ignore"):
            return np.exp(-a * np.cosh(x)) / (x - y + 1j * b)
    return kern


def _modular_kernel(s, kap, mass):
    a = mass * s / 2
    half = kap / 2

    def kern(x, y):
        with np.errstate(over="ignore", under="ignore"):
            # in place: one full-size complex array instead of three
            d = y - x - 1j * half
            d *= 1j * math.pi
            return np.divide(np.exp(-a * np.cosh(x)), d, out=d)
    return kern


def _bose_kernel(s, mass, sign_first):
    def kern(x, y):
        with np.errstate(over="ignore", under="ignore"):
            e = np.exp(-s * mass * np.cosh(x))
            first = sign_first * e / (y + x + 1j * math.pi / 2)
            return (first - e / (y - x + 1j * math.pi / 2)) / (2j * math.pi)
    return kern


@dataclass(frozen=True)
class KernelOperator:
    """One of the explicit integral operators, plus its discretization knobs.

    Kinds: ``general`` (params a, b), ``modular`` (s, kappa, mass),
    ``bose_phi`` and ``bose_pi`` (s, mass).
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
        if self.kind == "modular":
            s, kap, mass = self.params
            if not (s > 0 and mass > 0):
                raise ModelError("modular kernel needs s > 0 and mass > 0")
            return _modular_kernel(s, kap, mass)
        if self.kind == "bose_phi":
            s, mass = self.params
            return _bose_kernel(s, mass, -1)
        if self.kind == "bose_pi":
            s, mass = self.params
            return _bose_kernel(s, mass, +1)
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

    Computed from the real matrix X - YJ on the rows where A = X + iY is
    not identically zero (see the module docstring).  The zero singular
    values of the dropped rows are left out, so the array is shorter than
    ``K.nodes`` when the damping underflows, and empty when it underflows
    on every row.
    """
    A = _nystrom_matrix(K)
    keep = np.any(A != 0, axis=1)
    return np.linalg.svd(A.real[keep] - A.imag[keep][:, ::-1],
                         compute_uv=False)


@dataclass(frozen=True)
class TraceNormResult:
    value: float
    scale: float
    nodes: int
    rel_change: float
    converged: bool


def trace_norm_estimate(K, refine=True):
    """Sum of singular values, with optional (scale, nodes) doubling.

    Refinement doubles both up to ``MAX_DOUBLINGS`` times and stops once
    the relative change is below ``REFINE_TOL``.  The reported relative
    change compares the last two refinement levels; non-convergence within
    the budget is flagged, not raised, and the last value is still
    returned.
    """
    value = float(np.sum(singular_values(K)))
    if not refine:
        return TraceNormResult(value, K.scale, K.nodes, math.nan, True)
    scale, nodes = K.scale, K.nodes
    rel = math.inf
    for _ in range(MAX_DOUBLINGS):
        finer = KernelOperator(K.kind, K.params, scale * 2, nodes * 2)
        new = float(np.sum(singular_values(finer)))
        rel = abs(new - value) / max(abs(new), 1e-300)
        value, scale, nodes = new, finer.scale, finer.nodes
        if rel < REFINE_TOL:
            return TraceNormResult(value, scale, nodes, rel, True)
    return TraceNormResult(value, scale, nodes, rel, False)


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


def _require_bounded_family(S):
    if S.a != 0.0:
        raise StripError(
            "nuclearity estimates need the bounded family (a = 0)")


def sigma(S, s, kap, sup_norm=None):
    """Hardy constant controlling the wedge wavefunction bounds.

    sigma(s, kappa) = 2 sqrt(2) e^{-m s cos(kappa)} ||S2||_kappa
                      / sqrt((m s / 2) cos(kappa) (kappa(S2) - kappa)),
    monotone decreasing in s, divergent at s = 0.  The argument convention
    absorbs the half/half splitting of the distance, so the same constant
    appears in the distal and Pauli-improved series.
    """
    _require_bounded_family(S)
    kmax = kappa_of(S)
    if not (0.0 < kap < kmax):
        raise StripError(f"kappa must lie in (0, {kmax}), got {kap}")
    if not (s > 0):
        raise ValueError(f"splitting distance must be positive, got {s}")
    if sup_norm is None:
        sup_norm = strip_sup_norm(S, kap)
    m = S.mass
    ck = math.cos(kap)
    return (2 * math.sqrt(2) * math.exp(-m * s * ck) * sup_norm
            / math.sqrt((m * s / 2) * ck * (kmax - kap)))


def modular_trace_norm(S, s, kap, nodes=NODES_DEFAULT, refine=False):
    """Trace norm of the modular kernel at (s, kappa) for the model mass."""
    K = KernelOperator("modular", (float(s), float(kap), S.mass), nodes=nodes)
    return trace_norm_estimate(K, refine=refine)


def xi_bound_distal(S, s, kap, sup_norm=None, trace_norm=None):
    """Geometric bound series: 1/(1 - x) for x = sigma * ||T||_1, else inf."""
    x = _bound_factor(S, s, kap, sup_norm, trace_norm, pauli=False)
    if x >= 1.0:
        return math.inf
    return 1.0 / (1.0 - x)


def xi_bound_minus(S, s, kap, sup_norm=None, trace_norm=None):
    """Pauli-improved series sum_n x^n / sqrt(n!); finite for every x.

    Requires S2(0) = -1 (the fermionic subfamily) and a = 0.
    """
    if S.epsilon != -1:
        raise ModelError("the improved bound needs S2(0) = -1")
    x = _bound_factor(S, s, kap, sup_norm, trace_norm, pauli=True)
    return sqrt_factorial_series(x)


def log_xi_bound_minus(S, s, kap, sup_norm=None, trace_norm=None):
    if S.epsilon != -1:
        raise ModelError("the improved bound needs S2(0) = -1")
    x = _bound_factor(S, s, kap, sup_norm, trace_norm, pauli=True)
    return log_sqrt_factorial_series(x)


def _bound_factor(S, s, kap, sup_norm, trace_norm, pauli):
    _require_bounded_family(S)
    if sup_norm is None:
        sup_norm = strip_sup_norm(S, kap)
    if trace_norm is None:
        trace_norm = modular_trace_norm(S, s, kap).value
    x = sigma(S, s, kap, sup_norm=sup_norm) * trace_norm
    if pauli:
        x *= math.sqrt(sup_norm)
    return x


def sqrt_factorial_series(x):
    """sum_{n>=0} x^n / sqrt(n!) to relative tail below 1e-12.

    Returns inf when the (always finite) sum exceeds double range; use
    :func:`log_sqrt_factorial_series` in that regime.
    """
    lv = log_sqrt_factorial_series(x)
    return math.exp(lv) if lv < 709.0 else math.inf


def log_sqrt_factorial_series(x):
    """log of sum_{n>=0} x^n / sqrt(n!), in memory that does not grow with x.

    The terms t_n peak at n* = floor(x^2), and their logs have curvature
    about -1/(2 n*), so only the window n* +- (12 sqrt(2) x + 50) is summed,
    in chunks of ``SERIES_CHUNK`` terms scaled by the peak term.  The ratio
    t_{n+1} / t_n = x / sqrt(n + 1) decreases in n, so the omitted tails
    are bounded by geometric series: above the window by
    t_hi r / (1 - r) with r = x / sqrt(hi + 1), below it by
    t_lo q / (1 - q) with q = sqrt(lo) / x.  Raises ``ConvergenceError``
    if that bound is not below ``SERIES_TAIL_TOL`` relative to the sum.
    """
    if x < 0:
        raise ValueError("series argument must be nonnegative")
    if x == 0.0:
        return 0.0
    log_x = math.log(x)

    def log_terms(n):
        return n * log_x - 0.5 * gammaln(n + 1.0)

    peak = int(x * x)
    half = int(12 * math.sqrt(2) * x) + 50
    lo, hi = max(peak - half, 0), peak + half
    m = float(log_terms(float(peak)))
    acc = 0.0
    for start in range(lo, hi + 1, SERIES_CHUNK):
        n = np.arange(start, min(start + SERIES_CHUNK, hi + 1), dtype=float)
        acc += float(np.sum(np.exp(log_terms(n) - m)))
    total = m + math.log(acc)
    r = x / math.sqrt(hi + 1)
    tail = math.exp(float(log_terms(float(hi))) - total) * r / (1 - r)
    if lo > 0:
        q = math.sqrt(lo) / x
        tail += math.exp(float(log_terms(float(lo))) - total) * q / (1 - q)
    if not tail < SERIES_TAIL_TOL:
        raise ConvergenceError(
            f"series tail bound {tail:.3g} exceeds {SERIES_TAIL_TOL:g}")
    return total


def find_s_min(S, kap, bracket=None, tol=1e-4, nodes=NODES_DEFAULT,
               sup_norm=None):
    """Root of sigma(s, kappa) ||T_s||_1 = 1 in the bracket, to ``tol`` in s.

    The objective is strictly decreasing in s, so above the root the
    geometric bound series converges.  Default bracket (1e-3/m, 50/m).
    The root is found by Brent's method (``scipy.optimize.brentq``) on the
    unrefined ``nodes``-point trace norms; :class:`ConvergenceError` is
    raised when the objective does not change sign over the bracket.
    """
    _require_bounded_family(S)
    m = S.mass
    if bracket is None:
        bracket = (1e-3 / m, 50.0 / m)
    if sup_norm is None:
        sup_norm = strip_sup_norm(S, kap)

    @cache          # brentq evaluates the two bracket ends again
    def objective(s):
        tn = modular_trace_norm(S, s, kap, nodes=nodes).value
        return sigma(S, s, kap, sup_norm=sup_norm) * tn - 1.0

    lo, hi = bracket
    f_lo, f_hi = objective(lo), objective(hi)
    if f_lo < 0 or f_hi > 0:
        raise ConvergenceError(
            f"no sign change in bracket {bracket}: f(lo)={f_lo:.3g}, "
            f"f(hi)={f_hi:.3g}")
    # imported on use: scipy.optimize adds about 0.25 s to `import wedgeqft`
    from scipy.optimize import brentq
    return brentq(objective, lo, hi, xtol=tol)


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


def free_bose_bound(s, mass=1.0, nodes=NODES_DEFAULT):
    """Determinant surrogate for the free model.

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


def ising_fermi_bound(s, mass=1.0, nodes=NODES_DEFAULT):
    """exp(2 ||T_phi||_1 + 2 ||T_pi||_1): always finite."""
    return free_bose_bound(s, mass=mass, nodes=nodes).exp_bound


@dataclass(frozen=True)
class PartitionBound:
    value: float
    log_value: float
    mu: float
    s_effective: float
    improved: bool
    heuristic: bool = True


def partition_bound(S, beta, r, kap, improved=False, nodes=NODES_DEFAULT,
                    sup_norm=None):
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
        raise ValueError("effective damping is nonpositive")
    log_series = log_xi_bound_minus(
        S, s_eff, kap, sup_norm=sup_norm,
        trace_norm=modular_trace_norm(S, s_eff, kap, nodes=nodes).value)
    prefactor = 1.0 if improved else 2.0
    log_value = math.log(prefactor) + log_series
    # multiply by the prefactor after exponentiating: doubling is exact in
    # binary floating point, matching the advertised factor-of-two relation
    series_value = math.exp(log_series) if log_series < 700 else math.inf
    return PartitionBound(value=prefactor * series_value, log_value=log_value,
                          mu=mu, s_effective=s_eff, improved=improved)

