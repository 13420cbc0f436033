"""Discretized twisted Fock space over a symmetric rapidity grid.

States are families of rank-n complex tensors on the grid nodes, symmetric
under the S2-twisted permutation action.  All operators below (twisted
permutation representation, symmetrizer, creation/annihilation, Poincare
action, reflections) act level by level on those tensors.  The grid delta
is represented as delta_ij / w_i, which makes the exchange-algebra
identities close exactly at grid level instead of up to quadrature error.

One step, :func:`_swap`, the twisted adjacent swap, is behind
:func:`apply_dn` (a reduced word of swaps), the creator, the symmetrizer
and (z^dag x z), so the D_n laws are checked on the creator's own step.
The insertion I_a (:func:`_insert`) sums the moves of slot a to each slot
k >= a, every move one swap past the last.  It consumes its tensor
argument and accumulates the sum into it.  It reads only the block where
slot a runs over a given span and each later slot over a given box, and
adds each move into that move's block.  The creator passes psi's nonzero
span and the support box of Phi_{n-1}, the hull over every slot: it skips
only terms that are exactly zero, so each entry sees the dense
insertion's operations in the same order.  The symmetrizer and
(z^dag x z) pass whole slots.  The symmetrizer factors over the cosets of
S_{n-1} (Okounkov & Vershik, Selecta Math. 2 (1996) 581) as
P_n = (1/n) I_0 (1 x P_{n-1}) = (1/n!) I_0 I_1 ... I_{n-2}: n(n-1)/2
twisted swaps instead of n! permutations.  On a twisted-symmetric
Phi_{n-1} the creator is I_0 ((n^{-1/2} psi) x Phi_{n-1}).  Each scalar
goes on the smallest operand, never on a finished level: the creator
scales psi's span before the product, and the symmetrizer scales its
tensor by 1/n! once, before the insertions.

One inner product, :func:`_weighted_inner`, serves every rank: the
one-particle vectors, each level of a Fock vector and every norm.  It and
the annihilator sum over the nodes in a fixed order without BLAS, which
would split its sums by thread and so make the rounding depend on the
thread count.  The inner product forms conj(a) * b over groups of
first-axis slabs, never a whole level.

Vectors own their arrays: the constructors freeze what they are given, so
read-only arrays are shared between vectors and never copied to protect them.
"""

from dataclasses import dataclass
import math

import numpy as np

from .errors import (GridError, SupportOverflowError, TruncationCapError)
from .sfunction import node_matrix

N_HARD_CAP = 6
MAX_TENSOR_ELEMENTS = 2 ** 25  # dense rank-n tensors; ~0.5 GiB of complex128
SUPPORT_TOL = 1e-10  # amplitude a boost may push off-grid, relative to the norm
INNER_GROUP = 2 ** 14  # elements of conj(a) * b formed at once by the inner product


@dataclass(frozen=True)
class RapidityGrid:
    """Uniform symmetric grid on [-half_width, half_width] with odd count.

    The nonnegative half is built and mirrored, so the node at 0 is exact,
    the ends are exactly +-half_width and index mirroring is rapidity
    reflection bit for bit.  Trapezoid weights are used, so
    sum(w) equals the window length.  The read-only ``nodes`` and
    ``weights`` arrays are built once; equality and hashing use the two
    fields only.
    """

    half_width: float
    count: int

    def __post_init__(self):
        if self.count < 3 or self.count % 2 == 0:
            raise GridError(f"count must be odd and >= 3, got {self.count}")
        if not (self.half_width > 0):
            raise GridError(f"half_width must be positive, got {self.half_width}")
        half = np.linspace(0.0, self.half_width, self.count // 2 + 1)
        nodes = np.concatenate([-half[:0:-1], half])
        weights = np.full(self.count, self.spacing)
        weights[0] = weights[-1] = self.spacing / 2
        for name, arr in (("nodes", nodes), ("weights", weights)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def spacing(self):
        return 2 * self.half_width / (self.count - 1)


@dataclass(frozen=True)
class WaveFunction1:
    """One-particle vector: complex amplitudes on the grid nodes, held in the
    array given and frozen read-only (a caller who keeps writing passes a copy)."""

    grid: RapidityGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex, order="C")
        if v.shape != (self.grid.count,):
            raise GridError(
                f"values shape {v.shape} does not match grid count {self.grid.count}")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def norm(self):
        return math.sqrt(self.inner(self).real)

    def inner(self, other):
        """<self, other> = sum w * conj(self) * other."""
        if other.grid != self.grid:
            raise GridError("grid mismatch in inner product")
        return _weighted_inner(self.grid, self.values, other.values)

    def conj(self):
        return WaveFunction1(self.grid, np.conj(self.values))


class FockVector:
    """Particle-number-truncated state: one rank-n tensor per level.

    ``components[n]`` has shape ``(N,) * n`` (the n = 0 entry is a scalar
    array).  The constructor freezes the arrays it is given, and a caller
    who keeps writing passes a copy.  Vectors may share these read-only
    arrays; all operations return new vectors.
    """

    def __init__(self, grid, components):
        self.grid = grid
        comps = []
        for n, c in enumerate(components):
            arr = np.asarray(c, dtype=complex, order="C")
            if arr.shape != (grid.count,) * n:
                raise GridError(
                    f"component {n} has shape {arr.shape}, expected {(grid.count,) * n}")
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
        return self.inner(self).real

    def norm(self):
        return math.sqrt(self.norm_sq())

    def inner(self, other):
        if other.grid != self.grid:
            raise GridError("grid mismatch in inner product")
        return sum((_weighted_inner(self.grid, a, b)
                    for a, b in zip(self.components, other.components)), 0j)

    def scaled(self, factor):
        return FockVector(self.grid, [factor * c for c in self.components])

    def add(self, other):
        return self._levelwise(np.add, other)

    def sub(self, other):
        return self._levelwise(np.subtract, other)

    def _levelwise(self, op, other):
        """op levelwise: self's extra levels are shared, other's become op(0, y)."""
        if other.grid != self.grid:
            raise GridError("grid mismatch in vector sum")
        a, b = self.components, other.components
        return FockVector(self.grid, [op(x, y) for x, y in zip(a, b)] + list(a[len(b):])
                          + [op(0, y) for y in b[len(a):]])

    def number_half_power(self, shift=0.0):
        """Apply (N + shift)^(1/2) levelwise."""
        return FockVector(self.grid, [math.sqrt(n + shift) * c
                                      for n, c in enumerate(self.components)])


def _weighted_inner(grid, a, b):
    """<a, b> with the n-fold product of trapezoid weights.

    conj(a) * b is formed over groups of consecutive first-axis slabs, up
    to ``INNER_GROUP`` elements (at least one slab) at a time, so no
    level-sized temporary is built.  Each group is contracted against the
    weights down to one sum per slab, last axis first, and the slab sums
    are summed in node order.  Every contraction is an einsum without
    ``optimize``, which never calls BLAS: the sum runs in one fixed order
    at any thread count, and at any group size.
    """
    if a.ndim == 0:
        return complex(np.conj(a) * b)
    w = grid.weights
    count = a.shape[0]
    step = max(1, INNER_GROUP // a[0].size)
    sums = np.empty(count, dtype=complex)
    for i in range(0, count, step):
        g = np.conj(a[i:i + step])
        g *= b[i:i + step]
        for _ in range(a.ndim - 1):
            g = np.einsum("...j,j->...", g, w)
        sums[i:i + step] = g
    return complex(np.einsum("i,i->", sums, w))


def _check_tensor_budget(count, n):
    """The rank cap, and the dense budget for a rank-n tensor."""
    if n > N_HARD_CAP:
        raise TruncationCapError(
            f"rank {n} exceeds the hard particle-number cap {N_HARD_CAP}")
    if count ** n > MAX_TENSOR_ELEMENTS:
        raise TruncationCapError(
            f"rank-{n} tensor on {count} nodes exceeds the dense budget")


def _on_axes(a, n, *axes):
    """View of ``a`` in n dimensions with its axes on ``axes``, in order.

    The other dimensions have length 1, so the view broadcasts against a
    rank-n tensor.  ``axes`` must be increasing.
    """
    shape = [1] * n
    for axis, size in zip(axes, a.shape):
        shape[axis] = size
    return a.reshape(shape)


def apply_dn(S, perm, psi_n, grid):
    """Twisted permutation action on a rank-n tensor.

    ``perm`` is a 0-based permutation tuple: input slot k moves to output
    slot ``perm[k]``, out[i] = psi[i_perm[0], ..., i_perm[n-1]], times the
    product of S2 factors over the inversions of ``perm``, evaluated
    nodewise.  A copy of ``psi_n`` is bubble-sorted by ``perm`` with
    :func:`_swap`, a reduced word that crosses each inversion once.
    """
    n = np.ndim(psi_n)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"perm {perm} is not a permutation of range({n})")
    MT = node_matrix(S, grid).T
    out = np.array(psi_n, dtype=complex)
    word = list(perm)       # the output slot of each slot's contents
    for stop in range(n - 1, 0, -1):
        for k in range(stop):
            if word[k] > word[k + 1]:
                word[k], word[k + 1] = word[k + 1], word[k]
                out = _swap(MT, out, k)
    return np.ascontiguousarray(out)


_ALL = slice(None)


def _support(c):
    """The slice from the first to the last node at which ``c`` is nonzero
    in some slot: the hull over every slot, a one-slot ``c``'s span."""
    nonzero = c != 0
    used = np.zeros(c.shape[:1], dtype=bool)
    for axis in range(c.ndim):
        used |= nonzero.any(axis=tuple(k for k in range(c.ndim) if k != axis))
    idx = np.flatnonzero(used)
    return slice(idx[0], idx[-1] + 1) if idx.size else slice(0, 0)


def _swap(MT, x, k):
    """``x`` with slots k and k + 1 swapped, multiplied in place by
    S2(t_{k+1} - t_k) of their nodes: the one twisted adjacent swap.
    ``MT`` holds the S2 factors with the nodes of slot k after the swap as
    rows and those of slot k + 1 as columns.  ``x`` is consumed and the
    result is a view of it."""
    x = np.swapaxes(x, k, k + 1)
    factor = _on_axes(MT, x.ndim, k, k + 1)
    if x.size > 1:
        x *= factor
        return x
    # in place, numpy would multiply a single entry on its reduction loop,
    # which rounds complex products differently
    return x * factor


def _insert(M, t, a=0, span=_ALL, box=_ALL):
    """Sum over k >= a of slot a of ``t`` moved to slot k, with the twist.

    Moving the slot one place right is one :func:`_swap` past its
    neighbour.  ``t`` must vanish outside its block where slot a runs over
    ``span`` and each later slot over ``box``; only that block is read,
    and each move is added into its own block.  ``t`` is consumed: the sum
    is accumulated into it and returned.
    """
    n = t.ndim
    MT = M.T[box, span]
    slots = [_ALL] * a + [span] + [box] * (n - 1 - a)
    term = t[tuple(slots)].copy()   # the moves read the block as it was
    for k in range(a, n - 1):
        term = _swap(MT, term, k)
        slots[k], slots[k + 1] = slots[k + 1], slots[k]
        block = t[tuple(slots)]
        block += term
    return t


def symmetrize(S, psi_n, grid):
    """Mean of the twisted action over all permutations (the projector),
    applied to a copy of ``psi_n``."""
    _check_tensor_budget(grid.count, np.ndim(psi_n))
    return _project(node_matrix(S, grid),
                    np.array(psi_n, dtype=complex, order="C"))


def _project(M, t):
    """P_n = (1/n!) I_0 I_1 ... I_{n-2} on ``t`` in place: ``t`` is scaled
    once, then the insertions run innermost slot first."""
    n = t.ndim
    if n > 1:
        t /= math.factorial(n)
    for a in range(n - 2, -1, -1):
        _insert(M, t, a)
    return t


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
        # one axpy per node, in node order, without BLAS (module docstring)
        acc = wpsi[0] * src[0]
        for j in range(1, grid.count):
            acc += wpsi[j] * src[j]
        comps.append(math.sqrt(n + 1) * acc)
    return FockVector(grid, comps)


def create(S, psi, Phi):
    """Twisted creator via the explicit insertion formula.

    Level n of the result is

        n^{-1/2} sum_k prod_{j<k} S2(t_k - t_j) psi(t_k) Phi_{n-1}(... t_k hat ...)

    = I_0 ((n^{-1/2} psi) (x) Phi_{n-1}) = sqrt(n) P_n (psi (x) Phi_{n-1})
    for twisted-symmetric Phi.  The scalar goes on psi's span, the smallest
    operand.  The insertion runs over that span in the travelling slot and
    Phi_{n-1}'s support box in the others, so it skips only terms that are
    exactly zero, and the level is written only in the blocks it reaches.
    """
    grid = Phi.grid
    if psi.grid != grid:
        raise GridError("grid mismatch between psi and Phi")
    _check_tensor_budget(grid.count, Phi.n_max + 1)
    M = node_matrix(S, grid)
    span = _support(psi.values)
    comps = [np.zeros((), dtype=complex)]
    for n in range(1, Phi.n_max + 2):
        c = Phi.component(n - 1)
        box = _support(c)
        slots = (span,) + (box,) * (n - 1)
        out = np.zeros((grid.count,) * n, dtype=complex)
        # lower level first: the operand order fixes the last bits
        np.multiply(c[(None,) + slots[1:]],
                    (psi.values[span] / math.sqrt(n)).reshape(
                        (-1,) + (1,) * (n - 1)),
                    out=out[slots])
        comps.append(_insert(M, out, 0, span, box))
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
    projector.  A law gets a key only when n is large enough to sample it:
    the braid relation needs n >= 3, the commuting one n >= 4.
    """
    worst = {}
    N = grid.count

    def record(law, residual):
        worst[law] = max(worst.get(law, 0.0), residual)

    def rand():
        return _complex_normal(rng, N, n)

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
            tf = apply_dn(S, tau, f, grid)
            record("involution", wnorm(apply_dn(S, tau, tf, grid) - f) / scale)
            record("unitary", abs(wnorm(tf) - wnorm(f)) / scale)
        for j in range(n - 1):
            for k in range(j + 2, n - 1):
                tj, tk = _adjacent_swap(n, j), _adjacent_swap(n, k)
                ab = chain((tk, tj), f)
                ba = chain((tj, tk), f)
                record("commuting", wnorm(ab - ba) / scale)
        for k in range(n - 2):
            ta, tb = _adjacent_swap(n, k), _adjacent_swap(n, k + 1)
            lhs = chain((ta, tb, ta), f)
            rhs = chain((tb, ta, tb), f)
            record("braid", wnorm(lhs - rhs) / scale)
        g = rand()
        Pf = symmetrize(S, f, grid)
        Pg = symmetrize(S, g, grid)
        record("projector", wnorm(symmetrize(S, Pf, grid) - Pf) / scale)
        record("selfadjoint", abs(
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
    comps = [Phi.component(0)]
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
        c = c * _on_axes(phase, n, 0)
        for axis in range(1, n):
            c *= _on_axes(phase, n, axis)
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
    return FockVector(Phi.grid, [np.conj(c.T, order="C")
                                 for c in Phi.components])


def reflect_gamma(Phi):
    """Time reflection: mirror every rapidity index and conjugate."""
    return FockVector(Phi.grid, [np.conj(np.flip(c), order="C")
                                 for c in Phi.components])


def modular_boost(S, t, Phi):
    """Grid realization of the modular flow: a pure boost by -2*pi*t."""
    return poincare_apply(S, PoincareElement((0.0, 0.0), -2 * math.pi * t), Phi)


def random_fock(S, grid, n_max, rng, margin=0):
    """Random twisted-symmetric vector; `margin` zeroes boundary shells.

    Zeroing the outer `margin` nodes before symmetrizing keeps boost tests
    exact (shifted amplitude never reaches the trapezoid half-weight ends).
    The budget of the top level, the largest, is checked before anything is
    drawn, and each level is symmetrized in the array it was drawn into.
    """
    N = grid.count
    _check_tensor_budget(N, n_max)
    M = node_matrix(S, grid)
    comps = [_complex_normal(rng, N, 0)]
    for n in range(1, n_max + 1):
        raw = _complex_normal(rng, N, n)
        for axis in range(n if margin > 0 else 0):  # [-0:] is all of raw
            shells = np.moveaxis(raw, axis, 0)     # a view into raw
            shells[:margin] = 0.0
            shells[-margin:] = 0.0
        comps.append(_project(M, raw))
    return FockVector(grid, comps)


def random_wavefunction(grid, rng):
    """Random one-particle vector of unit norm."""
    v = _complex_normal(rng, grid.count, 1)
    return WaveFunction1(grid, v / WaveFunction1(grid, v).norm())


def _complex_normal(rng, count, n):
    """Complex standard normals on a rank-n tensor over ``count`` nodes.

    The dense budget is checked before anything is drawn.  The real parts
    are drawn first and then the imaginary parts, the stream order (and
    the bytes) of ``a + 1j * b``.
    """
    _check_tensor_budget(count, n)
    out = np.empty((count,) * n, dtype=complex)
    out.real = rng.standard_normal(out.shape)
    out.imag = rng.standard_normal(out.shape)
    return out
