"""Spacetime test functions and the two wedge-local field operators.

Two test-function families are supported: Gaussians with a general
quadratic exponent (closed-form Fourier transform, closed under Poincare
maps, used for the covariance, adjointness and field-bound identities)
and smooth compactly supported bumps (Fourier transform by
Gauss-Legendre quadrature over the support box, its order chosen per
value so each is within 1e-13 of the profile's integral at real momenta;
genuine support restriction, used wherever wedge membership matters).
A bump axis sums each distinct momentum of a call once: its cosine sum G
satisfies G(-k) = G(k) and G(conj k) = conj G(k) exactly, so -k repeats
the value of k and conj k conjugates it.

Fourier convention: ft(p) = (1/2pi) \\int f(x) e^{i p.x} d^2x with the
Minkowski pairing p.x = p0 x0 - p1 x1.  The mass-shell restrictions are
f^{+-}(z) = ft(+-p(z)) with p(z) = mass * (cosh z, sinh z); for compactly
supported f these are entire in z.  :func:`mass_shell` computes the pair
(f^+, f^-) in one transform of the stacked momenta (p, -p), which for a
bump costs what f^+ alone costs.  A field takes f's pair on its vector's
grid; phi'(f) conjugates that pair rather than sample f*.
"""

from dataclasses import dataclass, replace
import math

import numpy as np

from .errors import ConvergenceError, QuadratureOverflowError
from .fock import FockVector, WaveFunction1, annihilate, create, reflect_j
from .quadrature import gauss_legendre
from .sfunction import node_matrix

EXP_BUDGET = 700.0  # |Im(p.x)| cap before exp() leaves double range
ORDER_FLOOR = 128    # smallest bump order meeting the 1e-13 target
ORDER_CAP = 1 << 14  # largest bump quadrature order


def _boost_matrix(lam):
    ch, sh = math.cosh(lam), math.sinh(lam)
    return np.array([[ch, sh], [sh, ch]])


@dataclass(frozen=True)
class Gaussian2D:
    """amp * exp(-(x-c)^T Q (x-c) / 2 + i k.(x-c)) with Euclidean pairing k.x.

    ``quad`` is a symmetric positive-definite 2x2 array; :meth:`isotropic`
    builds the case quad = I/sigma^2.  The family is
    closed under Poincare transforms, time reflection and conjugation,
    which keeps covariance checks free of quadrature error.
    """

    center: tuple
    quad: tuple          # ((q00, q01), (q01, q11)) row-major
    modulation: tuple    # Euclidean momentum k
    amplitude: complex = 1.0

    @classmethod
    def isotropic(cls, center, sigma, q=(0.0, 0.0), amplitude=1.0):
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        g = 1.0 / sigma ** 2
        return cls(center=(float(center[0]), float(center[1])),
                   quad=((g, 0.0), (0.0, g)),
                   modulation=(float(q[0]), float(q[1])),
                   amplitude=complex(amplitude))

    def _qmat(self):
        return np.array(self.quad, dtype=float)

    def __call__(self, x0, x1):
        d0 = np.asarray(x0) - self.center[0]
        d1 = np.asarray(x1) - self.center[1]
        Q = self._qmat()
        quad = Q[0, 0] * d0 ** 2 + 2 * Q[0, 1] * d0 * d1 + Q[1, 1] * d1 ** 2
        phase = self.modulation[0] * d0 + self.modulation[1] * d1
        return self.amplitude * np.exp(-quad / 2 + 1j * phase)

    def fourier(self, p0, p1):
        """Closed-form ft at (arrays of) complex Minkowski momentum."""
        u0 = np.asarray(p0, dtype=complex)
        u1 = -np.asarray(p1, dtype=complex)  # Euclidean pairing
        Q = self._qmat()
        det = Q[0, 0] * Q[1, 1] - Q[0, 1] ** 2
        inv = np.array([[Q[1, 1], -Q[0, 1]], [-Q[0, 1], Q[0, 0]]]) / det
        v0 = u0 + self.modulation[0]
        v1 = u1 + self.modulation[1]
        quad = inv[0, 0] * v0 ** 2 + 2 * inv[0, 1] * v0 * v1 + inv[1, 1] * v1 ** 2
        phase = u0 * self.center[0] + u1 * self.center[1]
        return self.amplitude / math.sqrt(det) * np.exp(1j * phase - quad / 2)

    def transformed(self, x, lam=0.0):
        """Parameters of f_(x, lam)(y) = f(Lambda(-lam)(y - x))."""
        Linv = _boost_matrix(-lam)
        c = _boost_matrix(lam) @ np.array(self.center) + np.array(x)
        Q = Linv.T @ self._qmat() @ Linv
        k = Linv.T @ np.array(self.modulation)
        return replace(self, center=(c[0], c[1]),
                       quad=((Q[0, 0], Q[0, 1]), (Q[0, 1], Q[1, 1])),
                       modulation=(k[0], k[1]))

    def star(self):
        """f*(x) = conj(f(-x))."""
        return replace(self, center=(-self.center[0], -self.center[1]),
                       amplitude=np.conj(self.amplitude))

    def conj(self):
        return replace(self,
                       modulation=(-self.modulation[0], -self.modulation[1]),
                       amplitude=np.conj(self.amplitude))

    def time_reflected(self):
        """f_T(x0, x1) = conj(f(-x0, x1))."""
        T = np.diag([-1.0, 1.0])
        Q = T @ self._qmat() @ T
        return replace(self, center=(-self.center[0], self.center[1]),
                       quad=((Q[0, 0], Q[0, 1]), (Q[0, 1], Q[1, 1])),
                       modulation=(self.modulation[0], -self.modulation[1]),
                       amplitude=np.conj(self.amplitude))

    support_box = None


def _auto_order(phase):
    """Smallest ladder order, ORDER_FLOOR * 2^k, resolving each one-axis
    oscillation budget; vectorized over ``phase``.

    Raises :class:`ConvergenceError` when a budget needs more than
    ``ORDER_CAP`` nodes, since a capped rule would alias.
    """
    phase = np.asarray(phase, dtype=float)
    need = np.floor(1.3 * phase) + 48
    worst = need.max(initial=0.0)
    if not worst <= ORDER_CAP:
        raise ConvergenceError(
            f"bump transform needs {worst:.0f} quadrature nodes, above the "
            f"cap {ORDER_CAP} (oscillation phase {phase.max():.1f})")
    ladder = ORDER_FLOOR << np.arange((ORDER_CAP // ORDER_FLOOR).bit_length())
    return ladder[np.searchsorted(ladder, need)]


@dataclass(frozen=True)
class Bump2D:
    """amp * g((x0-c0)/h0) * g((x1-c1)/h1) with g(u) = exp(-1/(1-u^2)).

    Supported exactly on the box [a0, b0] x [a1, b1].  The Fourier
    transform factorizes into two one-dimensional quadratures.  Each value
    takes its own order, from ``ORDER_FLOOR`` up with its momentum, so large
    rapidities do not alias and no value depends, beyond its last bits, on
    the others requested with it.
    """

    box: tuple               # (a0, b0, a1, b1)
    amplitude: complex = 1.0

    def __post_init__(self):
        a0, b0, a1, b1 = self.box
        if not (b0 > a0 and b1 > a1):
            raise ValueError(f"degenerate support box {self.box}")

    @property
    def center(self):
        a0, b0, a1, b1 = self.box
        return (0.5 * (a0 + b0), 0.5 * (a1 + b1))

    @property
    def half_width(self):
        a0, b0, a1, b1 = self.box
        return (0.5 * (b0 - a0), 0.5 * (b1 - a1))

    def __call__(self, x0, x1):
        u0 = (np.asarray(x0) - self.center[0]) / self.half_width[0]
        u1 = (np.asarray(x1) - self.center[1]) / self.half_width[1]
        return self.amplitude * _bump_profile(u0) * _bump_profile(u1)

    def fourier(self, p0, p1):
        (c0, c1), (h0, h1) = self.center, self.half_width
        i0 = _bump_transform(p0, c0, h0)
        # Minkowski pairing p.x = p0 x0 - p1 x1: the spatial axis sees -p1
        i1 = _bump_transform(-np.asarray(p1, dtype=complex), c1, h1)
        return self.amplitude * i0 * i1 / (2 * math.pi)

    def transformed(self, x, lam=0.0):
        if lam != 0.0:
            raise ValueError("boosts do not preserve product bumps; "
                             "use gaussians for boost covariance checks")
        a0, b0, a1, b1 = self.box
        return replace(self, box=(a0 + x[0], b0 + x[0], a1 + x[1], b1 + x[1]))

    def star(self):
        a0, b0, a1, b1 = self.box
        return replace(self, box=(-b0, -a0, -b1, -a1),
                       amplitude=np.conj(self.amplitude))

    def conj(self):
        return replace(self, amplitude=np.conj(self.amplitude))

    def time_reflected(self):
        a0, b0, a1, b1 = self.box
        return replace(self, box=(-b0, -a0, a1, b1),
                       amplitude=np.conj(self.amplitude))

    @property
    def support_box(self):
        return self.box


def _bump_profile(u):
    u = np.asarray(u, dtype=float)
    inside = np.abs(u) < 1.0
    den = np.where(inside, 1.0 - u ** 2, 1.0)
    return np.where(inside, np.exp(-1.0 / den), 0.0)


def _bump_transform(p, center, half_width):
    """\\int g((x - center)/half_width) e^{i p x} dx, vectorized over ``p``.

    The profile g is even, so each value is 2 half_width e^{i p center}
    G(p half_width) with G(k) = \\int_0^1 g(u) cos(k u) du, summed over the
    upper half of a Gauss-Legendre rule whose order comes from that value's
    own |k|.  G is computed once per distinct momentum in the batch and
    shared through two exact identities of the cosine sum, G(-k) = G(k)
    and G(conj k) = conj G(k): at real k the key is |k| (real arithmetic),
    at complex k it is |Re k| + i|Im k|, conjugated back where Re k and
    Im k have opposite signs.  At real p each value is within 1e-13 of
    \\int g((x - center)/half_width) dx, whatever else is in the batch;
    the batch may still move a value's last bits, through the row of the
    matrix product it lands on.
    """
    p = np.asarray(p, dtype=complex)
    im_max = np.abs(p.imag).max(initial=0.0) * (abs(center) + half_width)
    if im_max > EXP_BUDGET:
        raise QuadratureOverflowError(
            f"imaginary phase {im_max:.1f} exceeds budget {EXP_BUDGET}")
    k = (p * half_width).ravel()
    if not k.imag.any():
        keys, flip = np.abs(k.real), None
    else:
        keys = np.abs(k.real) + 1j * np.abs(k.imag)
        flip = (k.real < 0) != (k.imag < 0)
    keys, scatter = np.unique(keys, return_inverse=True)
    orders = _auto_order(np.abs(keys))
    folded = np.empty(keys.shape, dtype=keys.dtype)
    for order in set(orders.tolist()):
        u, w = gauss_legendre(order)
        u, w = u[order // 2:], w[order // 2:]
        band = orders == order
        cosines = np.cos(np.multiply.outer(keys[band], u))
        folded[band] = cosines @ (_bump_profile(u) * w)
    folded = folded[scatter]
    if flip is not None:
        folded[flip] = np.conj(folded[flip])
    return (2 * half_width) * np.exp(1j * p * center) * folded.reshape(p.shape)


def in_wedge(box, which):
    """Corner test for box membership in the right wedge ``"R"``,
    x1 > |x0|, or the left wedge ``"L"``, -x1 > |x0|."""
    if which not in ("R", "L"):
        raise ValueError(f"unknown wedge {which!r}")
    sign = 1 if which == "R" else -1
    a0, b0, a1, b1 = box
    return all(sign * x1 > abs(x0) for x0 in (a0, b0) for x1 in (a1, b1))


def mass_shell(f, zeta, mass):
    """The pair (f^+(z), f^-(z)) with f^{+-}(z) = (1/2pi) \\int f(+-x)
    e^{i p(z).x} d^2x, from one ``f.fourier`` call on the stacked momenta
    (p(z), -p(z)).

    ``mass`` is the model's, ``S.mass``: no default stands in for it.
    Vectorized over ``zeta``.  For bumps each axis's cosine sum G obeys
    G(-k) = G(k) and G(conj k) = conj G(k) exactly, so f^- and the mirrored
    nodes of a symmetric line reuse the sums of f^+ (see
    :func:`_bump_transform`).  Each value takes the quadrature order its
    own momentum needs, and at real rapidity each one-axis factor is within
    1e-13 of the profile's integral, whatever else is in the batch.
    """
    z = np.asarray(zeta, dtype=complex)
    p0 = mass * np.cosh(z)
    p1 = mass * np.sinh(z)
    signs = (+1, -1)
    plus, minus = f.fourier(np.multiply.outer(signs, p0),
                            np.multiply.outer(signs, p1))
    return plus, minus


def sample_mass_shell(f, grid, mass):
    """The pair (f^+, f^-) at the grid nodes, for the model's mass, as
    wave functions from one :func:`mass_shell` call, in which f^- shares
    the cosine sums of f^+: every field takes both, f^+ to create and f^-
    to annihilate."""
    z = grid.nodes.astype(complex)
    return tuple(WaveFunction1(grid, v) for v in mass_shell(f, z, mass))


def field_phi(S, pair, Phi):
    """Left-wedge field: create f^+, annihilate f^- of a sampled pair.

    The result carries one more level than ``Phi``; nothing is truncated,
    so iterated commutators close exactly at grid level.
    """
    return create(S, pair[0], Phi).add(annihilate(S, pair[1], Phi))


def field_phi_prime(S, pair, Phi):
    """Right-wedge partner J phi(f*) J of f's own sampled pair."""
    return reflect_j(field_phi(S, tuple(psi.conj() for psi in pair),
                               reflect_j(Phi)))


def field_norm_scale(pair):
    """||f^+|| + ||f^-|| of a sampled pair: the natural operator-norm scale."""
    return pair[0].norm() + pair[1].norm()


@dataclass(frozen=True)
class Gaussian1D:
    """amp * exp(-(x-c)^2/(2 sigma^2) + i q (x-c)); unitary-convention ft."""

    center: float
    sigma: float
    q: float = 0.0
    amplitude: complex = 1.0

    def __call__(self, x):
        d = np.asarray(x) - self.center
        return self.amplitude * np.exp(-d ** 2 / (2 * self.sigma ** 2)
                                       + 1j * self.q * d)

    def fourier(self, p):
        """(1/sqrt(2pi)) \\int f(x) e^{i p x} dx, entire in p."""
        p = np.asarray(p, dtype=complex)
        v = p + self.q
        return (self.amplitude * self.sigma * np.exp(1j * p * self.center)
                * np.exp(-self.sigma ** 2 * v ** 2 / 2))

    def norm_l2_sq(self):
        return abs(self.amplitude) ** 2 * self.sigma * math.sqrt(math.pi)


@dataclass(frozen=True)
class Bump1D:
    """amp * g((x-c)/h) on [c-h, c+h]."""

    center: float
    half_width: float
    amplitude: complex = 1.0

    def __call__(self, x):
        u = (np.asarray(x) - self.center) / self.half_width
        return self.amplitude * _bump_profile(u)

    def fourier(self, p):
        """(1/sqrt(2pi)) \\int f(x) e^{i p x} dx, entire in p."""
        return (self.amplitude * _bump_transform(p, self.center, self.half_width)
                / math.sqrt(2 * math.pi))

    def norm_l2_sq(self):
        u, w = gauss_legendre(256)
        return abs(self.amplitude) ** 2 * self.half_width * float(
            np.sum(_bump_profile(u) ** 2 * w))


def timezero_field(S, f1d, which, Phi):
    """Time-zero field (position type) or its conjugate momentum.

    varphi(f) = z^dag(fhat) + z(fhat_-);
    pi(f)     = i (z^dag(omega fhat) - z(omega fhat_-)), built as
                z^dag(i omega fhat) + z(-i omega fhat_-) since z is linear;
    fhat(t) = ft(mass sinh t), and fhat_-(t) = fhat(-t) is fhat reversed.
    """
    grid = Phi.grid
    fhat = f1d.fourier(S.mass * np.sinh(grid.nodes.astype(complex)))
    plus, minus = fhat, fhat[::-1]
    if which == "pi":
        omega = S.mass * np.cosh(grid.nodes)
        plus, minus = 1j * omega * plus, -1j * omega * minus
    elif which != "varphi":
        raise ValueError(f"unknown time-zero field {which!r}")
    return field_phi(S, (WaveFunction1(grid, plus), WaveFunction1(grid, minus)),
                     Phi)


def nonlocality_witness(S, f, g, grid):
    """Two-particle part of [phi(f), phi(g)] Omega, twice over.

    Returns (field kernel's level-2 tensor, closed form, max |f+ (x) g+|);
    the closed form is (f+(t1) g+(t2) - g+(t1) f+(t2)) (1 - S2(t2 - t1))
    / sqrt(2) sampled on the grid.  Both vanish identically iff S2 = 1 or
    f = g; the last value, the size of the products the commutator
    subtracts, does not.
    """
    f_pair = sample_mass_shell(f, grid, S.mass)
    g_pair = sample_mass_shell(g, grid, S.mass)
    omega = FockVector.vacuum(grid)
    commutator = field_phi(S, f_pair, field_phi(S, g_pair, omega)).sub(
        field_phi(S, g_pair, field_phi(S, f_pair, omega)))

    fp, gp = f_pair[0].values, g_pair[0].values
    M = node_matrix(S, grid)
    closed = (np.multiply.outer(fp, gp) - np.multiply.outer(gp, fp)) \
        * (1.0 - M.T) / math.sqrt(2)
    return (commutator.component(2), closed,
            float(np.max(np.abs(fp)) * np.max(np.abs(gp))))
