"""Multi-particle collision states and recovery of the factorizing S-matrix.

Outgoing states are ordered products of twisted creators on the vacuum;
equivalently sqrt(n!) times the twisted symmetrization of the tensor
product.  Comparing the in/out overlap against nodewise multiplication by
the totally symmetric two-body product reproduces the factorizing
S-matrix; the checks here do exactly that on random ordered wave packets,
plus a pointwise multiplier comparison.

Overlap convention used throughout (and documented in CLI output):
states are normalized as sqrt(n!) P_n(psi_1 x ... x psi_n), and
<in, out> is compared with the weighted sum of conj(S_n) |Phi+|^2, where
Phi+ is the plain-symmetrized packet and S_n the multiplier below.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import OrderingError, TruncationCapError
from .fock import FockVector, N_HARD_CAP, WaveFunction1, create
from .sfunction import evaluate


@dataclass(frozen=True)
class OrderedWavePacket:
    """Wave functions with strictly ordered, node-separated supports.

    Supports are read off the nonzero grid amplitudes; each must end at
    least two nodes before the next begins (one empty node in between), so
    that cross inner products vanish exactly.  ``supports`` keeps each
    wave's nonzero node indices, ascending.
    """

    waves: tuple
    supports: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        waves = tuple(self.waves)
        if not waves:
            raise OrderingError("empty wave packet")
        supports = tuple(np.flatnonzero(psi.values) for psi in waves)
        for k, (psi, idx) in enumerate(zip(waves, supports)):
            if psi.grid != waves[0].grid:
                raise OrderingError("all packet entries must share one grid")
            if idx.size == 0:
                raise OrderingError(f"packet entry {k} vanishes identically")
            if k and idx[0] <= supports[k - 1][-1] + 1:
                raise OrderingError(
                    f"supports of entries {k - 1} and {k} are not separated "
                    "by an empty node")
        object.__setattr__(self, "waves", waves)
        object.__setattr__(self, "supports", supports)

    @property
    def grid(self):
        return self.waves[0].grid

    def __len__(self):
        return len(self.waves)


def out_state(S, packet):
    """z^dag(psi_1) ... z^dag(psi_n) Omega for an ordered packet."""
    return _creation_chain(S, packet.grid, list(packet.waves))


def in_state(S, packet):
    """Creators applied in reversed order: the incoming configuration."""
    return _creation_chain(S, packet.grid, list(reversed(packet.waves)))


def _creation_chain(S, grid, waves):
    if len(waves) > N_HARD_CAP:
        raise TruncationCapError(
            f"{len(waves)} particles exceed the hard cap {N_HARD_CAP}")
    state = FockVector.vacuum(grid)
    for psi in reversed(waves):      # rightmost creator acts first
        state = create(S, psi, state)
    return state


def smatrix_factor(S, thetas):
    """Totally symmetric multiplier prod_{k<l} S2(|theta_k - theta_l|).

    The rapidities may be arrays that broadcast against each other; the
    product is then taken elementwise.
    """
    ts = list(thetas)
    out = 1.0 + 0.0j
    for k in range(len(ts)):
        for l in range(k + 1, len(ts)):
            out = out * evaluate(S, np.abs(ts[k] - ts[l]))
    return out


def _sorting_perm(thetas, descending=False):
    """Ascending stable sort; descending is its exact reversal.

    Reversing (rather than stably sorting the negated values) makes the
    product of the two wave-operator multipliers reproduce the two-body
    factor even at exactly tied rapidities: each tied pair then picks up
    one S2(0) factor on the incoming side, matching S2(|0|).
    """
    t = np.asarray(thetas, dtype=float)
    asc = tuple(int(i) for i in np.argsort(t, kind="stable"))
    return asc[::-1] if descending else asc


def _s_perm_factor(S, perm, thetas):
    """prod over inversions of S2(theta_perm(l) - theta_perm(k))."""
    out = 1.0 + 0.0j
    n = len(perm)
    for l in range(n):
        for k in range(l + 1, n):
            if perm[l] > perm[k]:
                out *= evaluate(S, thetas[perm[l]] - thetas[perm[k]])
    return out


def moller_multiplier(S, direction, thetas):
    """Multiplier of the wave operator at a rapidity tuple.

    ``out`` gives the adjoint outgoing multiplier 1/S^pi with pi the
    ascending stable sort; ``in`` gives S^pi with pi the descending stable
    sort.  Their product is the factorizing S-matrix multiplier.
    """
    ts = [float(t) for t in thetas]
    if direction == "out":
        perm = _sorting_perm(ts, descending=False)
        return 1.0 / _s_perm_factor(S, perm, ts)
    if direction == "in":
        perm = _sorting_perm(ts, descending=True)
        return _s_perm_factor(S, perm, ts)
    raise ValueError(f"direction must be 'in' or 'out', got {direction!r}")


def overlap_oracle(S, packet):
    """Weighted sum of conj(S_n) |Phi+|^2 for the plain-symmetrized packet.

    The disjoint supports make the cross terms of |Phi+|^2 vanish
    pointwise, and total symmetry of the multiplier makes all n! diagonal
    terms equal.  That leaves one contraction of the multiplier against
    the per-particle weight densities, which vanish off the supports, so
    both are evaluated on the product of the supports alone.
    """
    grid = packet.grid
    mesh = np.ix_(*packet.supports)
    dens = np.conj(smatrix_factor(S, [grid.nodes[i] for i in mesh]))
    for i, psi in zip(mesh, packet.waves):
        dens = dens * (grid.weights[i] * np.abs(psi.values[i]) ** 2)
    return complex(dens.sum())


def random_ordered_packet(grid, n, rng):
    """Random packet on n disjoint blocks of 2+ nodes spread across the grid."""
    N = grid.count
    span = N // n
    usable = span - 2
    if usable < 2:
        raise OrderingError(
            f"grid with {N} nodes cannot hold {n} separated blocks of 2+ nodes")
    waves = []
    for k in range(n):
        lo = k * span
        hi = lo + usable
        vals = np.zeros(N, dtype=complex)
        vals[lo:hi] = rng.standard_normal(hi - lo) + 1j * rng.standard_normal(hi - lo)
        psi = WaveFunction1(grid, vals)
        waves.append(WaveFunction1(grid, vals / psi.norm()))
    return OrderedWavePacket(tuple(waves))


@dataclass(frozen=True)
class RecoveryReport:
    max_multiplier_residual: float
    max_overlap_residual: float
    rows: tuple


def recover_smatrix(S, grid, n, trials, rng):
    """Two independent checks per random trial.

    (a) multiplier check: moller(out) * moller(in) against smatrix_factor
        at a random rapidity tuple;
    (b) state check: <in, out> for a random ordered packet against the
        weighted sum of conj(S_n) |Phi+|^2 with Phi+ the plain-symmetrized
        packet tensor.
    """
    rows = []
    worst_mult = 0.0
    worst_overlap = 0.0
    for trial in range(trials):
        thetas = rng.uniform(-grid.half_width, grid.half_width, n)
        prod = (moller_multiplier(S, "out", thetas)
                * moller_multiplier(S, "in", thetas))
        r_mult = abs(prod - smatrix_factor(S, thetas))

        packet = random_ordered_packet(grid, n, rng)
        lhs = in_state(S, packet).inner(out_state(S, packet))
        r_overlap = abs(lhs - overlap_oracle(S, packet))

        worst_mult = max(worst_mult, r_mult)
        worst_overlap = max(worst_overlap, r_overlap)
        rows.append({"trial": trial, "n": n, "multiplier_residual": r_mult,
                     "overlap_residual": r_overlap})
    return RecoveryReport(max_multiplier_residual=float(worst_mult),
                          max_overlap_residual=float(worst_overlap),
                          rows=tuple(rows))

