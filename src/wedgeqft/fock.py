"""Discretized twisted Fock space over a symmetric rapidity grid.

States are families of rank-n complex tensors on the grid nodes, symmetric
under the S2-twisted permutation action.  All operators below (twisted
permutation representation, symmetrizer, creation/annihilation, Poincare
action, reflections) act level by level on those tensors.  The grid delta
is represented as delta_ij / w_i, which makes the exchange-algebra
identities close exactly at grid level instead of up to quadrature error.

One kernel, :func:`_insert`, carries the twisted insertion behind the
creator, the symmetrizer and (z^dag x z): I_a sums the moves of slot a to
each slot k >= a, every move one twisted adjacent swap past the last.  It
consumes its tensor argument and accumulates the sum into it.  The
symmetrizer factors over the cosets of S_{n-1} (Okounkov & Vershik,
Selecta Math. 2 (1996) 581) as P_n = (1/n) I_0 (1 x P_{n-1}): n(n-1)/2
twisted swaps instead of n! permutations.  On a twisted-symmetric
Phi_{n-1} the creator is n^{-1/2} I_0 (psi x Phi_{n-1}).
"""

from dataclasses import dataclass
from functools import lru_cache
import json
import math

import numpy as np

from .errors import (GridError, SupportOverflowError, TruncationCapError)
from .sfunction import node_matrix

N_HARD_CAP = 6
MAX_TENSOR_ELEMENTS = 2 ** 25  # dense rank-n tensors; ~0.5 GiB of complex128
SUPPORT_TOL = 1e-10  # amplitude a boost may push off-grid, relative to the norm


@dataclass(frozen=True)
class RapidityGrid:
    """Uniform symmetric grid on [-half_width, half_width] with odd count.

    Odd count puts a node at 0 and makes index mirroring an exact
    realization of rapidity reflection.  Trapezoid weights are used, so
    sum(w) equals the window length.
    """

    half_width: float
    count: int

    def __post_init__(self):
        if self.count < 3 or self.count % 2 == 0:
            raise GridError(f"count must be odd and >= 3, got {self.count}")
        if not (self.half_width > 0):
            raise GridError(f"half_width must be positive, got {self.half_width}")

    @property
    def spacing(self):
        return 2 * self.half_width / (self.count - 1)

    @property
    def nodes(self):
        n = _grid_nodes(self.half_width, self.count)
        n.setflags(write=False)
        return n

    @property
    def weights(self):
        w = _grid_weights(self.half_width, self.count)
        w.setflags(write=False)
        return w


@lru_cache(maxsize=32)
def _grid_nodes(half_width, count):
    return np.linspace(-half_width, half_width, count)


@lru_cache(maxsize=32)
def _grid_weights(half_width, count):
    h = 2 * half_width / (count - 1)
    w = np.full(count, h)
    w[0] = w[-1] = h / 2
    return w


@dataclass(frozen=True)
class WaveFunction1:
    """One-particle vector: complex amplitudes on the grid nodes."""

    grid: RapidityGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (self.grid.count,):
            raise GridError(
                f"values shape {v.shape} does not match grid count {self.grid.count}")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def norm(self):
        return math.sqrt(float(np.sum(self.grid.weights * np.abs(self.values) ** 2)))

    def inner(self, other):
        """<self, other> = sum w * conj(self) * other."""
        return complex(np.sum(self.grid.weights * np.conj(self.values) * other.values))

    def conj(self):
        return WaveFunction1(self.grid, np.conj(self.values))


class FockVector:
    """Particle-number-truncated state: one rank-n tensor per level.

    ``components[n]`` has shape ``(N,) * n`` (the n = 0 entry is a scalar
    array).  Instances are treated as immutable; all operations return
    fresh vectors.
    """

    def __init__(self, grid, components):
        self.grid = grid
        comps = []
        for n, c in enumerate(components):
            arr = np.asarray(c, dtype=complex)
            if arr.shape != (grid.count,) * n:
                raise GridError(
                    f"component {n} has shape {arr.shape}, expected {(grid.count,) * n}")
            arr = arr.copy()
            arr.setflags(write=False)
            comps.append(arr)
        self.components = tuple(comps)

    @property
    def n_max(self):
        return len(self.components) - 1

    @classmethod
    def vacuum(cls, grid):
        return cls(grid, [np.asarray(1.0 + 0.0j)])

    def component(self, n):
        if n < len(self.components):
            return self.components[n]
        return np.zeros((self.grid.count,) * n, dtype=complex)

    def norm_sq(self):
        total = 0.0
        for n, c in enumerate(self.components):
            total += float(np.real(_weighted_inner(self.grid, c, c)))
        return total

    def norm(self):
        return math.sqrt(self.norm_sq())

    def inner(self, other):
        if other.grid != self.grid:
            raise GridError("grid mismatch in inner product")
        total = 0.0 + 0.0j
        for n in range(max(self.n_max, other.n_max) + 1):
            if n <= self.n_max and n <= other.n_max:
                total += _weighted_inner(self.grid, self.components[n],
                                         other.components[n])
        return total

    def scaled(self, factor):
        return FockVector(self.grid, [factor * c for c in self.components])

    def add(self, other):
        if other.grid != self.grid:
            raise GridError("grid mismatch in vector sum")
        top = max(self.n_max, other.n_max)
        return FockVector(self.grid, [self.component(n) + other.component(n)
                                      for n in range(top + 1)])

    def sub(self, other):
        return self.add(other.scaled(-1.0))

    def number_half_power(self, shift=0.0):
        """Apply (N + shift)^(1/2) levelwise."""
        return FockVector(self.grid, [math.sqrt(n + shift) * c
                                      for n, c in enumerate(self.components)])


def _weighted_inner(grid, a, b):
    """<a, b> with the n-fold product of trapezoid weights."""
    t = np.conj(a) * b
    for _ in range(t.ndim):
        t = np.tensordot(t, grid.weights, axes=([0], [0]))
    return complex(t)


def _check_tensor_budget(count, n):
    if n > N_HARD_CAP:
        raise TruncationCapError(
            f"rank {n} exceeds the hard particle-number cap {N_HARD_CAP}")
    if count ** n > MAX_TENSOR_ELEMENTS:
        raise TruncationCapError(
            f"rank-{n} tensor on {count} nodes exceeds the dense budget")


def _pair_factor(M, n, axis_a, axis_b):
    """Broadcast view of M placing its rows on axis_a and columns on axis_b."""
    shape = [1] * n
    shape[axis_a] = M.shape[0]
    shape[axis_b] = M.shape[1]
    if axis_a < axis_b:
        return M.reshape(shape)
    return M.T.reshape(shape)


def apply_dn(S, perm, psi_n, grid):
    """Twisted permutation action on a rank-n tensor.

    ``perm`` is a 0-based permutation tuple: output slot k reads input slot
    ``perm[k]``.  The result is the permuted tensor times the product of
    S2 factors over the inversions of ``perm``, evaluated nodewise.
    """
    psi_n = np.asarray(psi_n, dtype=complex)
    n = psi_n.ndim
    if sorted(perm) != list(range(n)):
        raise ValueError(f"perm {perm} is not a permutation of range({n})")
    if n == 0:
        return psi_n.copy()
    M = node_matrix(S, grid)
    # np.transpose applies the inverse permutation to the index tuple, so
    # pass argsort(perm) to realize out[i] = psi[i_perm[0], ..., i_perm[n-1]]
    inv = np.argsort(perm)
    out = np.transpose(psi_n, axes=inv).copy()
    for l in range(n):
        for k in range(l + 1, n):
            if perm[l] > perm[k]:
                out *= _pair_factor(M, n, perm[l], perm[k])
    return out


def compose(p, q):
    """Composition p after q: (p o q)[k] = p[q[k]]."""
    return tuple(p[q[k]] for k in range(len(p)))


def _insert(M, t, a=0):
    """Sum over k >= a of slot a of ``t`` moved to slot k, with the twist.

    Moving the slot one place right swaps it past its neighbour and
    multiplies by S2(t_{k+1} - t_k) of the two nodes.  ``t`` is consumed:
    the sum is accumulated into it and returned.
    """
    n = t.ndim
    if a >= n - 1:
        return t
    term = np.swapaxes(t, a, a + 1) * _pair_factor(M, n, a + 1, a)
    t += term
    for k in range(a + 1, n - 1):
        term = np.swapaxes(term, k, k + 1)
        term *= _pair_factor(M, n, k + 1, k)
        t += term
    return t


def symmetrize(S, psi_n, grid):
    """Mean of the twisted action over all permutations (the projector).

    Built as P_n = (1/n) I_0 (1 x P_{n-1}), innermost slots first.
    """
    psi_n = np.asarray(psi_n, dtype=complex)
    n = psi_n.ndim
    _check_tensor_budget(grid.count, n)
    out = psi_n.copy()
    M = node_matrix(S, grid)
    for a in range(n - 2, -1, -1):
        out = _insert(M, out, a)
        out /= n - a
    return out


def annihilate(S, psi, Phi):
    """Twisted annihilator: weight-contract the first slot against psi.

    Level n of the result is sqrt(n+1) * sum_j w_j psi_j Phi_{n+1}[j, ...].
    The vacuum maps to zero and the truncation drops by one.
    """
    grid = Phi.grid
    if psi.grid != grid:
        raise GridError("grid mismatch between psi and Phi")
    wpsi = grid.weights * psi.values
    comps = []
    top = max(Phi.n_max - 1, 0)
    for n in range(top + 1):
        src = Phi.component(n + 1)
        comps.append(math.sqrt(n + 1) * np.tensordot(wpsi, src, axes=([0], [0])))
    return FockVector(grid, comps)


def create(S, psi, Phi):
    """Twisted creator via the explicit insertion formula.

    Level n of the result is

        n^{-1/2} sum_k prod_{j<k} S2(t_k - t_j) psi(t_k) Phi_{n-1}(... t_k hat ...)

    = n^{-1/2} I_0 (psi (x) Phi_{n-1}) = sqrt(n) P_n (psi (x) Phi_{n-1}) for
    twisted-symmetric Phi.
    """
    grid = Phi.grid
    if psi.grid != grid:
        raise GridError("grid mismatch between psi and Phi")
    _check_tensor_budget(grid.count, Phi.n_max + 1)
    M = node_matrix(S, grid)
    comps = [np.zeros((), dtype=complex)]
    for n in range(1, Phi.n_max + 2):
        # lower level first: the operand order fixes the last bits
        t = Phi.component(n - 1)[None] * psi.values.reshape((-1,) + (1,) * (n - 1))
        out = _insert(M, t)
        out /= math.sqrt(n)
        comps.append(out)
    return FockVector(grid, comps)


def _smeared_zz(kernel, Phi):
    """(z x z)(K): contract K[j, k] w_j w_k against slots (2, 1) of level n+2."""
    grid = Phi.grid
    w = grid.weights
    Kw = kernel * w[:, None] * w[None, :]
    comps = []
    top = max(Phi.n_max - 2, 0)
    for n in range(top + 1):
        src = Phi.component(n + 2)                       # slots [k, j, ...]
        t = np.tensordot(Kw, src, axes=([1, 0], [0, 1]))
        comps.append(math.sqrt((n + 1) * (n + 2)) * t)
    return FockVector(grid, comps)


def _smeared_zdz(M, kernel, Phi):
    """(z^dag x z)(K): contract K[t, j] with slot 0, then insert t at every slot."""
    Kw = kernel * Phi.grid.weights[None, :]
    comps = [np.zeros((), dtype=complex)]
    for n in range(1, Phi.n_max + 1):
        comps.append(_insert(M, np.tensordot(Kw, Phi.component(n), axes=([1], [0]))))
    return FockVector(Phi.grid, comps)


def check_zf_relations(S, psi, phi, Phi):
    """Exchange-relation residuals on a twisted-symmetric vector.

    Returns the relative residuals (annihilator pair, mixed pair) of
    z(psi) z(phi) = (z x z)(S2^*(phi (x) psi)) and
    z(psi) z^dag(phi) = (z^dag x z)(S2(phi (x) psi)) + <conj(psi), phi> 1,
    with the two-slot kernels sampled at grid nodes.
    """
    grid = Phi.grid
    if Phi.n_max < 2:
        raise TruncationCapError("need n_max >= 2 to probe both relations")
    M = node_matrix(S, grid)

    lhs1 = annihilate(S, psi, annihilate(S, phi, Phi))
    k1 = M.T * np.multiply.outer(phi.values, psi.values)   # S2^*(phi x psi)[j,k]
    rhs1 = _smeared_zz(k1, Phi)
    r1 = lhs1.sub(rhs1).norm()

    lhs2 = annihilate(S, psi, create(S, phi, Phi))
    k2 = M * np.multiply.outer(phi.values, psi.values)     # S2(phi x psi)[a,b]
    rhs2 = _smeared_zdz(M, k2, Phi).add(
        Phi.scaled(complex(np.sum(grid.weights * psi.values * phi.values))))
    r2 = lhs2.sub(rhs2).norm()

    scale = max(Phi.norm(), 1e-300)
    return r1 / scale, r2 / scale


def _adjacent_swap(n, k):
    """The permutation of n slots that exchanges slots k and k + 1."""
    tau = list(range(n))
    tau[k], tau[k + 1] = tau[k + 1], tau[k]
    return tuple(tau)


def dn_law_residuals(S, grid, n, trials, rng):
    """Worst relative residuals of the D_n laws at particle number n.

    On random n-particle tensors: the adjacent transpositions act as
    involutions and isometries, distant ones commute, neighbouring ones
    satisfy the braid relation, and the symmetrizer is a self-adjoint
    projector.
    """
    worst = {"involution": 0.0, "commuting": 0.0, "braid": 0.0,
             "unitary": 0.0, "projector": 0.0, "selfadjoint": 0.0}
    N = grid.count

    def rand():
        return rng.standard_normal((N,) * n) + 1j * rng.standard_normal((N,) * n)

    def wnorm(x):
        return math.sqrt(abs(_weighted_inner(grid, x, x)))

    def chain(seq, x):
        for p in seq:
            x = apply_dn(S, p, x, grid)
        return x

    for _ in range(trials):
        f = rand()
        scale = max(wnorm(f), 1e-300)
        for k in range(n - 1):
            tau = _adjacent_swap(n, k)
            ff = apply_dn(S, tau, apply_dn(S, tau, f, grid), grid)
            worst["involution"] = max(worst["involution"], wnorm(ff - f) / scale)
            worst["unitary"] = max(worst["unitary"], abs(
                wnorm(apply_dn(S, tau, f, grid)) - wnorm(f)) / scale)
        for j in range(n - 1):
            for k in range(j + 2, n - 1):
                tj, tk = _adjacent_swap(n, j), _adjacent_swap(n, k)
                ab = chain((tk, tj), f)
                ba = chain((tj, tk), f)
                worst["commuting"] = max(worst["commuting"], wnorm(ab - ba) / scale)
        for k in range(n - 2):
            ta, tb = _adjacent_swap(n, k), _adjacent_swap(n, k + 1)
            lhs = chain((ta, tb, ta), f)
            rhs = chain((tb, ta, tb), f)
            worst["braid"] = max(worst["braid"], wnorm(lhs - rhs) / scale)
        g = rand()
        Pf = symmetrize(S, f, grid)
        Pg = symmetrize(S, g, grid)
        worst["projector"] = max(worst["projector"],
                                 wnorm(symmetrize(S, Pf, grid) - Pf) / scale)
        worst["selfadjoint"] = max(worst["selfadjoint"], abs(
            _weighted_inner(grid, Pf, g)
            - _weighted_inner(grid, f, Pg)) / (scale * max(wnorm(g), 1e-300)))
    return worst


@dataclass(frozen=True)
class PoincareElement:
    """Spacetime translation plus boost; boosts must be whole node shifts."""

    x: tuple
    lam: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "x", (float(self.x[0]), float(self.x[1])))

    def compose(self, other):
        """Group law (x, l) * (x', l') = (x + Lambda(l) x', l + l')."""
        ch, sh = math.cosh(self.lam), math.sinh(self.lam)
        x0 = self.x[0] + ch * other.x[0] + sh * other.x[1]
        x1 = self.x[1] + sh * other.x[0] + ch * other.x[1]
        return PoincareElement((x0, x1), self.lam + other.lam)

    def inverse(self):
        ch, sh = math.cosh(-self.lam), math.sinh(-self.lam)
        x0 = -(ch * self.x[0] + sh * self.x[1])
        x1 = -(sh * self.x[0] + ch * self.x[1])
        return PoincareElement((x0, x1), -self.lam)


def _node_shift(grid, lam):
    steps = lam / grid.spacing
    rounded = round(steps)
    if abs(steps - rounded) > 1e-9:
        raise GridError(
            f"boost {lam} is not a whole number of node shifts "
            f"(spacing {grid.spacing})")
    return int(rounded)


def poincare_apply(S, g, Phi):
    """Unitary action: phases from the translation, node shift from the boost.

    Zeros are fed in at the boundary; if amplitude exceeding ``SUPPORT_TOL``
    (relative to the vector norm) would shift off-grid, the operation fails
    rather than silently alias.
    """
    grid = Phi.grid
    shift = _node_shift(grid, g.lam)
    m = S.mass
    t = grid.nodes
    phase = np.exp(1j * m * (np.cosh(t) * g.x[0] - np.sinh(t) * g.x[1]))
    scale = max(Phi.norm(), 1e-300)
    comps = [Phi.component(0).copy()]
    for n in range(1, Phi.n_max + 1):
        c = Phi.component(n)
        if shift != 0:
            lost = 0.0
            for axis in range(n):
                c, lost_axis = _shift_axis(c, axis, shift)
                lost += lost_axis
            # weight the dropped mass like an interior node product
            lost_norm = math.sqrt(lost * grid.spacing ** n)
            if lost_norm > SUPPORT_TOL * scale:
                raise SupportOverflowError(
                    f"boost shifts amplitude of size {lost_norm:.3e} "
                    f"off-grid at level {n}")
        for axis in range(n):
            shape = [1] * n
            shape[axis] = grid.count
            c = c * phase.reshape(shape)
        comps.append(c)
    return FockVector(grid, comps)


def _shift_axis(c, axis, shift):
    """Shift one axis by `shift` nodes, feeding zeros; returns lost mass.

    A shift by the axis length or more loses everything.
    """
    c = np.moveaxis(c, axis, 0)
    out = np.zeros_like(c)
    shift = max(-c.shape[0], min(c.shape[0], shift))
    if shift > 0:
        lost = float(np.sum(np.abs(c[c.shape[0] - shift:]) ** 2))
        out[shift:] = c[:c.shape[0] - shift]
    else:
        lost = float(np.sum(np.abs(c[:-shift]) ** 2))
        out[:shift] = c[-shift:]
    return np.moveaxis(out, 0, axis), lost


def reflect_j(Phi):
    """TCP-style reflection: reverse slot order and conjugate."""
    comps = []
    for n, c in enumerate(Phi.components):
        comps.append(np.conj(np.transpose(c, axes=tuple(range(n - 1, -1, -1)))
                             if n else c))
    return FockVector(Phi.grid, comps)


def reflect_gamma(Phi):
    """Time reflection: mirror every rapidity index and conjugate."""
    comps = []
    for n, c in enumerate(Phi.components):
        out = np.conj(c)
        for axis in range(n):
            out = np.flip(out, axis=axis)
        comps.append(out)
    return FockVector(Phi.grid, comps)


def modular_boost(S, t, Phi):
    """Grid realization of the modular flow: a pure boost by -2*pi*t."""
    return poincare_apply(S, PoincareElement((0.0, 0.0), -2 * math.pi * t), Phi)


def random_fock(S, grid, n_max, rng, margin=0):
    """Random twisted-symmetric vector; `margin` zeroes boundary shells.

    Zeroing the outer `margin` nodes before symmetrizing keeps boost tests
    exact (shifted amplitude never reaches the trapezoid half-weight ends).
    """
    N = grid.count
    mask = np.ones(N)
    if margin:
        mask[:margin] = 0.0
        mask[-margin:] = 0.0
    comps = [np.asarray(rng.standard_normal() + 1j * rng.standard_normal(),
                        dtype=complex)]
    for n in range(1, n_max + 1):
        raw = rng.standard_normal((N,) * n) + 1j * rng.standard_normal((N,) * n)
        for axis in range(n):
            shape = [1] * n
            shape[axis] = N
            raw = raw * mask.reshape(shape)
        comps.append(symmetrize(S, raw, grid))
    return FockVector(grid, comps)


def save_fock_vector(path, Phi):
    """Serialize to a JSON container: grid header plus flat level arrays."""
    payload = {
        "grid": {"half_width": Phi.grid.half_width, "count": Phi.grid.count},
        "n_max": Phi.n_max,
        "components": [
            {"re": c.real.ravel().tolist(), "im": c.imag.ravel().tolist()}
            for c in Phi.components
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def load_fock_vector(path):
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    grid = RapidityGrid(payload["grid"]["half_width"], payload["grid"]["count"])
    comps = []
    for n, entry in enumerate(payload["components"]):
        arr = (np.asarray(entry["re"], dtype=float)
               + 1j * np.asarray(entry["im"], dtype=float))
        comps.append(arr.reshape((grid.count,) * n))
    return FockVector(grid, comps)


def random_wavefunction(grid, rng):
    """Random one-particle vector of unit norm."""
    v = rng.standard_normal(grid.count) + 1j * rng.standard_normal(grid.count)
    return WaveFunction1(grid, v / WaveFunction1(grid, v).norm())
