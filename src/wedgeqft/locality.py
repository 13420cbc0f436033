"""Numerical verification of relative wedge locality.

The mixed commutator of the reflected and unreflected fields acts on each
n-particle level by multiplication with a pair of line integrals over the
real rapidity axis.  For test functions supported in opposite wedges the
two integrands are boundary values of one function analytic in the
physical strip, so the integrals cancel; the checks below evaluate both
integrals, their sum, and the strip-shift mechanism behind the
cancellation, then repeat the statement at operator level on truncated
vectors.  The operator check leaves out the top level, where only the
creators act: [z'^dag(f+), z^dag(g+)] vanishes for any f and g, because
P_{n+1}(P_n x 1) = P_{n+1} = P_{n+1}(1 x P_n).  verify-algebra checks that
identity on every run (its ``creators_commute`` row).

The mass-shell restrictions f^{+-}, g^{+-} on a quadrature line do not
depend on S2 or on the spectators, so one contour check computes the
pairs (f^+, f^-) and (g^+, g^-) once on the real line and once on
Im(t) = pi, where it reads f^- and g^+, and shares them across all
spectator tuples, whatever their length.  Nothing is kept between calls,
so no result depends on what ran before.
"""

from dataclasses import dataclass
import math

import numpy as np

from .errors import TailError, WedgeQFTError
from .fields import (field_norm_scale, field_phi, field_phi_prime, in_wedge,
                     mass_shell, sample_mass_shell)
from .fock import FockVector, annihilate, create, reflect_j
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


def _contour_samples(S, f, g, spectators, window, order):
    """(B, C) per spectator tuple on the real line, with tail checks.

    The tuples may differ in length; the real-line pairs of f and g are
    computed once for all of them.
    """
    if not spectators:
        raise ValueError("no spectator tuples: nothing would be checked")
    t, w = _gl_line(window, order)
    fp_v, fm_v = mass_shell(f, t, mass=S.mass)
    gp_v, gm_v = mass_shell(g, t, mass=S.mass)
    out = []
    for theta in spectators:
        theta = tuple(float(x) for x in theta)
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


def verify_contour_identity(S, f, g, spectators, window=WINDOW_DEFAULT,
                            order=ORDER_DEFAULT, check_support=True):
    """Relative residuals of B_n(f-, g+) + C_n(f+, g-) = 0 over spectators.

    Each spectator tuple is one sample, with n its length; tuples of
    different lengths may share one call.  ``f`` must be supported in the
    right wedge and ``g`` in the left one (box-corner test).  Also measures
    the shift mechanism at the first tuple of each length: moving the B
    integration line to Im(t) = pi must reproduce the same value.
    """
    if check_support:
        _require_wedge_separation(f, g)
    rows = []
    worst = 0.0
    samples = _contour_samples(S, f, g, spectators, window, order)
    first = {}
    for theta, B, C in samples:
        rel = _relative_sum(B, C)
        worst = max(worst, rel)
        rows.append({"n": len(theta), "thetas": theta, "abs_b": abs(B),
                     "abs_c": abs(C), "abs_sum": abs(B + C), "relative": rel})
        first.setdefault(len(theta), (theta, B))

    # shift mechanism: B on Im(t) = pi at the first tuple of each length
    t, w = _gl_line(window, order)
    # f^- and g^+ are read; the other member of each pair shares their sums
    fm_v = mass_shell(f, t + 1j * math.pi, mass=S.mass)[1]
    gp_v = mass_shell(g, t + 1j * math.pi, mass=S.mass)[0]
    shift_rel = 0.0
    for theta0, B0 in first.values():
        Bs = _line_integral(S, fm_v, gp_v, t, w, theta0, flip=False,
                            shift=math.pi)[0]
        shift_rel = max(shift_rel, abs(Bs - B0) / max(abs(B0), RESIDUAL_FLOOR))

    return ContourReport(samples=tuple(rows), max_relative=float(worst),
                         shift_relative=float(shift_rel))


def refinement_study(S, f, g, spectators, orders, window=WINDOW_DEFAULT):
    """Max relative residual over the spectator tuples, whatever their
    length, at each quadrature order (for ratio checks)."""
    _require_wedge_separation(f, g)
    out = []
    for order in orders:
        samples = _contour_samples(S, f, g, spectators, window, order)
        out.append(max(_relative_sum(B, C) for _, B, C in samples))
    return out


def _field_below_top(S, plus, minus, V):
    """Levels 0..V.n_max of create(plus) + annihilate(minus) on V.

    Each level is computed as :func:`fields.field_phi` computes it; only
    the top level V.n_max + 1, which the creator alone reaches, is left out.
    """
    head = FockVector(V.grid, V.components[:-1])
    return create(S, plus, head).add(annihilate(S, minus, V))


def verify_operator_commutator(S, f, g, Phi, check_support=True):
    """|| [phi'(f), phi(g)] Phi || / ||Phi|| per unit field scale.

    The residual is divided by the product of the natural operator scales
    ||f+|| + ||f-|| and ||g+|| + ||g-||, so a fixed tolerance is
    meaningful regardless of test-function amplitudes.

    f and g are each sampled once.  From their pairs X = phi(g) Phi and
    Y = phi'(f) Phi are built whole, and so is every level of phi'(f) X and
    phi(g) Y up to Phi.n_max + 1, with the field functions' arithmetic.
    The top level Phi.n_max + 2 is [z'^dag(f+), z^dag(g+)] Phi_{n_max},
    which vanishes identically (see the module docstring), so it is left out.
    """
    if check_support:
        _require_wedge_separation(f, g)
    f_pair = sample_mass_shell(f, Phi.grid, S.mass)
    g_pair = sample_mass_shell(g, Phi.grid, S.mass)
    jx = reflect_j(field_phi(S, g_pair, Phi))
    y = field_phi_prime(S, f_pair, Phi)
    lhs = reflect_j(_field_below_top(S, *(psi.conj() for psi in f_pair), jx))
    rhs = _field_below_top(S, *g_pair, y)
    resid = lhs.sub(rhs).norm() / max(Phi.norm(), 1e-300)
    scale = field_norm_scale(f_pair) * field_norm_scale(g_pair)
    resid /= max(scale, 1e-300)
    return float(resid)
