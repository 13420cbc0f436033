"""Numerical verification of relative wedge locality.

The mixed commutator of the reflected and unreflected fields acts on each
n-particle level by multiplication with a pair of line integrals over the
real rapidity axis.  For test functions supported in opposite wedges the
two integrands are boundary values of one function analytic in the
physical strip, so the integrals cancel; the checks below evaluate both
integrals, their sum, and the strip-shift mechanism behind the
cancellation, then repeat the statement at operator level on truncated
vectors.

The mass-shell restrictions f^{+-}, g^{+-} on a quadrature line do not
depend on S2 or on the spectators, so each is computed once per (test
function, sign, mass, window, order, line) and cached as a read-only
array shared by every n, every refinement order that repeats a line and
every model of the same mass.  A cached array holds exactly the values a
fresh ``mass_shell`` call returns, so no result depends on what ran before.
"""

from dataclasses import dataclass
from functools import lru_cache
import math

import numpy as np

from .errors import TailError, WedgeQFTError
from .fields import field_norm_scale, field_phi, field_phi_prime, in_wedge, mass_shell
from .quadrature import gauss_legendre
from .sfunction import evaluate

WINDOW_DEFAULT = 8.0
ORDER_DEFAULT = 2048
RESIDUAL_FLOOR = 1e-14
TAIL_TOL = 1e-10
# the tail estimate integrates |integrand| over |t| >= (1 - _TAIL_BAND) times
# the window; the end nodes alone carry tiny Gauss-Legendre weights
_TAIL_BAND = 0.05


def _gl_line(window, order):
    x, w = gauss_legendre(order)
    return x * window, w * window


def _line_integral(S, psi1_vals, psi2_vals, nodes, weights, thetas, flip,
                   shift=0.0):
    """\\int psi1 psi2 prod_j S2(+-(t - theta_j)) dt along Im(t) = shift.

    Also returns the tail estimate: the integral of |integrand| over the
    outer ``_TAIL_BAND`` of the line at each end.
    """
    F = psi1_vals * psi2_vals
    t = nodes + 1j * shift
    for tj in thetas:
        F = F * (evaluate(S, tj - t) if flip else evaluate(S, t - tj))
    value = complex(np.dot(F, weights))
    edge = np.abs(nodes) >= (1 - _TAIL_BAND) * abs(nodes[0])
    tail = float(np.dot(np.abs(F[edge]), weights[edge]))
    return value, tail


def eval_b(S, psi1, psi2, thetas, window=WINDOW_DEFAULT, order=ORDER_DEFAULT):
    """B_n = + \\int psi1(t) psi2(t) prod_j S2(t - theta_j) dt.

    ``psi1`` and ``psi2`` are callables on (complex) rapidity, typically
    mass-shell restrictions.  Raises :class:`TailError` when the integrand
    over the outer band of the window is not negligible against B_n.
    """
    t, w = _gl_line(window, order)
    value, tail = _line_integral(S, psi1(t), psi2(t), t, w, thetas, flip=False)
    _check_tail(value, tail)
    return value


def eval_c(S, psi1, psi2, thetas, window=WINDOW_DEFAULT, order=ORDER_DEFAULT):
    """C_n = - \\int psi1(t) psi2(t) prod_j S2(theta_j - t) dt."""
    t, w = _gl_line(window, order)
    value, tail = _line_integral(S, psi1(t), psi2(t), t, w, thetas, flip=True)
    _check_tail(value, tail)
    return -value


def _check_tail(value, tail):
    if tail > TAIL_TOL * max(abs(value), RESIDUAL_FLOOR):
        raise TailError(
            f"integrand tail estimate {tail:.2e} not negligible against "
            f"value {abs(value):.2e}; enlarge the window")


def _require_wedge_separation(f, g):
    """Raise unless f is supported in W_R and g in W_L (box-corner test)."""
    if f.support_box is None or g.support_box is None:
        raise WedgeQFTError("wedge locality checks require compactly "
                            "supported test functions")
    if not in_wedge(f.support_box, "R"):
        raise WedgeQFTError(f"f box {f.support_box} not inside W_R")
    if not in_wedge(g.support_box, "L"):
        raise WedgeQFTError(f"g box {g.support_box} not inside W_L")


@lru_cache(maxsize=64)
def _line_restriction(f, sign, mass, window, order, shift):
    """f^{sign} at the ``order``-point nodes of [-window, window] + i*shift.

    The array is cached and shared, so it is read-only.
    """
    t, _ = _gl_line(window, order)
    vals = mass_shell(f, sign, t + 1j * shift if shift else t, mass=mass)
    vals.flags.writeable = False
    return vals


def _contour_samples(S, f, g, n, spectators, window, order):
    """(B, C) per spectator tuple on the real line, with tail checks."""
    t, w = _gl_line(window, order)
    fm_v = _line_restriction(f, -1, S.mass, window, order, 0.0)
    gp_v = _line_restriction(g, +1, S.mass, window, order, 0.0)
    fp_v = _line_restriction(f, +1, S.mass, window, order, 0.0)
    gm_v = _line_restriction(g, -1, S.mass, window, order, 0.0)
    out = []
    for theta in spectators:
        theta = tuple(float(x) for x in theta)
        if len(theta) != n:
            raise ValueError(f"spectator tuple {theta} does not have length {n}")
        B, tail_b = _line_integral(S, fm_v, gp_v, t, w, theta, flip=False)
        C, tail_c = _line_integral(S, fp_v, gm_v, t, w, theta, flip=True)
        C = -C
        _check_tail(B, tail_b)
        _check_tail(C, tail_c)
        out.append((theta, B, C))
    return out


def _relative_sum(B, C):
    return abs(B + C) / max(abs(B), abs(C), RESIDUAL_FLOOR)


@dataclass(frozen=True)
class ContourReport:
    """Residuals of the commutator-function cancellation for one model."""

    samples: tuple          # per-sample dicts for CSV emission
    max_relative: float
    shift_relative: float


def verify_contour_identity(S, f, g, n, spectators, window=WINDOW_DEFAULT,
                            order=ORDER_DEFAULT, check_support=True):
    """Relative residuals of B_n(f-, g+) + C_n(f+, g-) = 0 over spectators.

    ``f`` must be supported in the right wedge and ``g`` in the left one
    (box-corner test).  Also measures the shift mechanism: moving the B
    integration line to Im(t) = pi must reproduce the same value.
    """
    if check_support:
        _require_wedge_separation(f, g)
    rows = []
    worst = 0.0
    for theta, B, C in _contour_samples(S, f, g, n, spectators, window, order):
        rel = _relative_sum(B, C)
        worst = max(worst, rel)
        rows.append({"n": n, "thetas": theta, "abs_b": abs(B), "abs_c": abs(C),
                     "abs_sum": abs(B + C), "relative": rel})

    # shift mechanism at the first sample: B computed on Im(t) = pi
    t, w = _gl_line(window, order)
    theta0 = tuple(float(x) for x in spectators[0]) if spectators else ()

    def b_on_line(shift):
        fm_v = _line_restriction(f, -1, S.mass, window, order, shift)
        gp_v = _line_restriction(g, +1, S.mass, window, order, shift)
        return _line_integral(S, fm_v, gp_v, t, w, theta0, flip=False,
                              shift=shift)[0]

    B0, Bs = b_on_line(0.0), b_on_line(math.pi)
    shift_rel = abs(Bs - B0) / max(abs(B0), RESIDUAL_FLOOR)

    return ContourReport(samples=tuple(rows), max_relative=float(worst),
                         shift_relative=float(shift_rel))


def refinement_study(S, f, g, n, spectators, orders,
                     window=WINDOW_DEFAULT):
    """Max relative residual at each quadrature order (for ratio checks)."""
    _require_wedge_separation(f, g)
    out = []
    for order in orders:
        samples = _contour_samples(S, f, g, n, spectators, window, order)
        out.append(max((_relative_sum(B, C) for _, B, C in samples),
                       default=0.0))
    return out


def verify_operator_commutator(S, f, g, Phi, check_support=True):
    """|| [phi'(f), phi(g)] Phi || / ||Phi|| per unit field scale.

    The residual is divided by the product of the natural operator scales
    ||f+|| + ||f-|| and ||g+|| + ||g-||, so a fixed tolerance is
    meaningful regardless of test-function amplitudes.
    """
    if check_support:
        _require_wedge_separation(f, g)
    lhs = field_phi_prime(S, f, field_phi(S, g, Phi))
    rhs = field_phi(S, g, field_phi_prime(S, f, Phi))
    resid = lhs.sub(rhs).norm() / max(Phi.norm(), 1e-300)
    scale = (field_norm_scale(S, f, Phi.grid)
             * field_norm_scale(S, g, Phi.grid))
    resid /= max(scale, 1e-300)
    return float(resid)
