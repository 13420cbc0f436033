"""Slow reference constructions that the library kernels are checked against.

Each one builds its object literally from the definition (sums over all
n! permutations, explicit tensor products, every term of a series), so it
shares no kernel with the code under test.  The twisted permutation
action transposes the whole tensor and multiplies one S2 factor per
inversion, where the library takes one twisted adjacent swap at a time.
The dense inner product forms the whole product of two levels and
contracts it through BLAS.  The slab-wise inner product is the same
einsum chain as the library's, one slab at a time: what it checks is that
grouping slabs moves no bit.  The dense creator is the insertion itself
on whole tensors, move by move: what it checks is that the creator's
support blocks leave out only exact zeros.
The dense Nystrom spectrum shares only the matrix assembly: what it
checks is the real, row-trimmed reduction that ``singular_values``
applies to that matrix.  The strip sup norm reference shares only
``evaluate``: it maximizes by scipy's optimizer, not by the certified
bisection.  The mass-shell reference evaluates one sign at a time, each
value of each bump axis from its own cosine sum: it checks that sharing
sums between p and -p, mirrored nodes and conjugate momenta moves no
value.  The recurrence rule is the Gauss-Legendre rule the package built
before its series evaluators: Newton sweeps on the three-term recurrence,
one pass of n steps per sweep, sharing only Tricomi's start and the
half-and-mirror construction with ``gauss_legendre``.
"""

from itertools import permutations
import math

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import gammaln

import wedgeqft as wq
from wedgeqft.fields import (_auto_order, field_norm_scale, field_phi,
                             sample_mass_shell)
from wedgeqft.fock import FockVector, _on_axes, reflect_j
from wedgeqft.nuclearity import _nystrom_matrix
from wedgeqft.quadrature import gauss_legendre
from wedgeqft.sfunction import node_matrix


def _bump_axis_by_value(p, center, half_width):
    """One axis of a bump's transform, each value from its own cosine sum
    over the upper half of the rule its |p| half_width needs."""
    out = []
    for pj in np.ravel(np.asarray(p, dtype=complex)):
        k = pj * half_width
        order = int(_auto_order(abs(k)))
        u, w = gauss_legendre(order)
        u, w = u[order // 2:], w[order // 2:]
        folded = np.dot(np.cos(k * u), np.exp(-1.0 / (1.0 - u * u)) * w)
        out.append(2 * half_width * np.exp(1j * pj * center) * folded)
    return np.array(out, dtype=complex).reshape(np.shape(p))


def mass_shell_by_sign(f, sign, zeta, mass):
    """f^{+-}(zeta) of a ``Bump2D`` for one ``sign``, value by value."""
    z = np.asarray(zeta, dtype=complex)
    p0, p1 = sign * mass * np.cosh(z), sign * mass * np.sinh(z)
    (c0, c1), (h0, h1) = f.center, f.half_width
    return (f.amplitude * _bump_axis_by_value(p0, c0, h0)
            * _bump_axis_by_value(-p1, c1, h1) / (2 * math.pi))


def apply_dn_by_inversions(S, perm, psi_n, grid):
    """The twisted action of ``perm`` as one transpose of the whole tensor
    times the S2 factor of every inversion of ``perm``, one at a time."""
    psi_n = np.asarray(psi_n, dtype=complex)
    n = psi_n.ndim
    M = node_matrix(S, grid)
    # np.transpose applies the inverse permutation to the index tuple, so
    # pass argsort(perm) to realize out[i] = psi[i_perm[0], ..., i_perm[n-1]]
    out = np.transpose(psi_n, axes=np.argsort(perm)).copy()
    for l in range(n):
        for k in range(l + 1, n):
            if perm[l] > perm[k]:
                # S2(t_perm[l] - t_perm[k]) on the two slots
                out *= _on_axes(M.T, n, perm[k], perm[l])
    return out


def symmetrize_by_permutations(S, psi_n, grid):
    """P_n as the mean of the twisted action over all n! permutations."""
    psi_n = np.asarray(psi_n, dtype=complex)
    n = psi_n.ndim
    acc = np.zeros_like(psi_n)
    for perm in permutations(range(n)):
        acc += apply_dn_by_inversions(S, perm, psi_n, grid)
    return acc / math.factorial(n)


def weighted_inner_dense(grid, a, b):
    """<a, b> with the n-fold product of trapezoid weights, from the whole
    product conj(a) * b contracted one axis at a time."""
    t = np.conj(a) * b
    for _ in range(t.ndim):
        t = np.tensordot(t, grid.weights, axes=([0], [0]))
    return complex(t)


def weighted_inner_slabs(grid, a, b):
    """<a, b> through the library's einsum chain, one first-axis slab at a
    time: ranks 0-2 fold the whole product conj(a) * b, last axis first;
    from rank 3 each slab is folded on its own and the slab sums are summed
    in node order.  No contraction calls BLAS, so the library's grouped
    slabs must match this bit for bit."""
    w = grid.weights

    def fold(t):
        for _ in range(t.ndim):
            t = np.einsum("...j,j->...", t, w)
        return t

    if a.ndim < 3:
        return complex(fold(np.conj(a) * b))
    sums = np.array([fold(np.conj(a[i]) * b[i]) for i in range(a.shape[0])])
    return complex(np.einsum("i,i->", sums, w))


def create_via_projection(S, psi, Phi):
    """Creator as sqrt(n) P_n (psi (x) Phi_{n-1})."""
    grid = Phi.grid
    N = grid.count
    comps = [np.zeros((N,) * n, dtype=complex) for n in range(Phi.n_max + 2)]
    for n in range(1, Phi.n_max + 2):
        prod = np.multiply.outer(psi.values, Phi.component(n - 1))
        comps[n] = math.sqrt(n) * symmetrize_by_permutations(S, prod, grid)
    return FockVector(grid, comps)


def create_dense(S, psi, Phi):
    """Creator I_0 ((n^{-1/2} psi) (x) Phi_{n-1}) with every slot over the
    whole grid: psi's slot moved to each slot k, one twisted adjacent swap
    at a time, and the moves summed in order."""
    grid = Phi.grid
    MT = node_matrix(S, grid).T
    comps = [np.zeros((), dtype=complex)]
    for n in range(1, Phi.n_max + 2):
        scaled = psi.values / math.sqrt(n)
        out = Phi.component(n - 1)[None] * scaled.reshape((-1,) + (1,) * (n - 1))
        term = out
        for k in range(n - 1):
            term = np.swapaxes(term, k, k + 1) * _on_axes(MT, n, k, k + 1)
            out += term
        comps.append(out)
    return FockVector(grid, comps)


def _both_orders(S, f, g, Phi):
    """phi'(f) phi(g) Phi and phi(g) phi'(f) Phi, every level a dense tensor.

    phi'(f) is J phi(f*) J with f* sampled through its own transform, so
    the comparison checks the library's conjugated pair against f.star().
    """
    star = sample_mass_shell(f.star(), Phi.grid, S.mass)
    g_pair = sample_mass_shell(g, Phi.grid, S.mass)

    def prime(V):
        return reflect_j(field_phi(S, star, reflect_j(V)))

    return (prime(field_phi(S, g_pair, Phi)),
            field_phi(S, g_pair, prime(Phi)))


def operator_commutator_dense(S, f, g, Phi):
    """The operator-level locality residual from both field applications
    built whole: every level of phi'(f) phi(g) Phi and phi(g) phi'(f) Phi,
    the top one included, is a dense tensor."""
    lhs, rhs = _both_orders(S, f, g, Phi)
    resid = lhs.sub(rhs).norm() / max(Phi.norm(), 1e-300)
    scale = (field_norm_scale(sample_mass_shell(f, Phi.grid, S.mass))
             * field_norm_scale(sample_mass_shell(g, Phi.grid, S.mass)))
    return float(resid / max(scale, 1e-300))


def creator_top_level_dense(S, f, g, Phi):
    """Weighted norms of the top level Phi.n_max + 2 of
    phi'(f) phi(g) Phi - phi(g) phi'(f) Phi and of phi'(f) phi(g) Phi.

    Only the creators reach that level, so it is
    [z'^dag(f+), z^dag(g+)] Phi_{n_max}, built whole from both orders.
    """
    lhs, rhs = (v.components[-1] for v in _both_orders(S, f, g, Phi))
    diff = lhs - rhs
    return (math.sqrt(abs(weighted_inner_dense(Phi.grid, diff, diff))),
            math.sqrt(abs(weighted_inner_dense(Phi.grid, lhs, lhs))))


def state_via_projection(S, packet, reverse=False):
    """sqrt(n!) P_n (psi_1 (x) ... (x) psi_n), the scattering-state definition."""
    waves = list(packet.waves)
    if reverse:
        waves = waves[::-1]
    n = len(waves)
    prod = waves[0].values
    for psi in waves[1:]:
        prod = np.multiply.outer(prod, psi.values)
    comps = [np.zeros((packet.grid.count,) * k, dtype=complex)
             for k in range(n)]
    comps.append(math.sqrt(math.factorial(n))
                 * symmetrize_by_permutations(S, prod, packet.grid))
    return FockVector(packet.grid, comps)


def plain_symmetrized_product(waves):
    """sqrt(n!) P_n^+ (tensor product): the free-statistics reference."""
    n = len(waves)
    N = waves[0].grid.count
    acc = np.zeros((N,) * n, dtype=complex)
    vals = [psi.values for psi in waves]
    for perm in permutations(range(n)):
        term = vals[perm[0]]
        for k in range(1, n):
            term = np.multiply.outer(term, vals[perm[k]])
        acc += term
    return acc / math.sqrt(math.factorial(n))


def smatrix_tensor(S, grid, n):
    """smatrix_factor evaluated at every node tuple of the grid.

    The tensor is a read-only view of shape ``(N,) * n``; for n < 2 it
    broadcasts the empty product 1.
    """
    t = grid.nodes
    out = wq.smatrix_factor(S, [_on_axes(t, n, k) for k in range(n)])
    return np.broadcast_to(out, (grid.count,) * n)


def overlap_literal(S, packet):
    """Weighted sum of conj(S_n) |Phi+|^2 with Phi+ built literally."""
    grid = packet.grid
    n = len(packet)
    plus = plain_symmetrized_product(packet.waves)
    dens = np.conj(smatrix_tensor(S, grid, n)) * np.abs(plus) ** 2
    for _ in range(n):
        dens = np.tensordot(dens, grid.weights, axes=([0], [0]))
    return complex(dens)


def _legendre_by_recurrence(n, theta):
    """(P_n, sin^2(theta) P_n' / n) at x = cos(theta), by the recurrence
    on u = 1 - x and the scaled differences E_k."""
    u = np.sin(theta / 2)
    u *= u
    u *= 2
    p = 1 - u           # P_1
    e = -u              # E_1 = P_1 - P_0
    tmp = e.copy()      # E_k / k
    for k in range(2, n + 1):
        # E_k = k D_k = E_{k-1} - (2k - 1) u P_{k-1}, P_k = P_{k-1} + E_k / k
        np.multiply(u, p, out=tmp)
        tmp *= 2 * k - 1
        e -= tmp
        np.divide(e, k, out=tmp)
        p += tmp
    u *= p
    u -= tmp
    return p, u


def gauss_legendre_by_recurrence(order):
    """Nodes (ascending) and weights of the ``order``-point rule on [-1, 1],
    by three Newton sweeps on the three-term recurrence.

    The recurrence runs on u = 1 - x = 2 sin^2(theta / 2) and on the scaled
    differences E_k = k (P_k - P_{k-1}) (Reinsch's form), so P_n keeps its
    relative accuracy near x = 1.  From the last pass, sin^2(theta) P_n'(x)
    = n (u P_n - E_n / n), and the weights are 2 / ((1 - x^2) P_n'(x)^2)
    with 1 - x^2 = sin^2(theta) taken from the angle.  Each sweep is n
    steps of five ufunc calls.  Against 34-digit roots its nodes err by at
    most 2e-16; its weights err by up to 2.6e-14 relative at 4096 nodes
    and 4.6e-14 at 8192, both near x = 0.
    """
    n = int(order)
    if n < 1:
        raise ValueError(f"rule order must be positive, got {order}")
    k = np.arange(1, (n + 1) // 2 + 1)
    theta = math.pi * (4 * k - 1) / (4 * n + 2)
    theta = np.arccos(np.cos(theta)
                      * (1 - (n - 1) / (8 * n ** 3)
                         - (39 - 28 / np.sin(theta) ** 2) / (384 * n ** 4)))
    for _ in range(3):
        # d P_n(cos theta) / d theta = -sin(theta) P_n'
        p, slope = _legendre_by_recurrence(n, theta)
        theta += p * np.sin(theta) / (n * slope)
    _, slope = _legendre_by_recurrence(n, theta)
    w = 2 * np.sin(theta) ** 2 / (n * slope) ** 2
    x = np.cos(theta[:n // 2])      # the strictly positive nodes
    nodes = np.concatenate([-x, np.zeros(n % 2), x[::-1]])
    weights = np.concatenate([w, w[:n // 2][::-1]])
    return nodes, weights


def singular_values_dense(K):
    """Every singular value of the full complex Nystrom matrix, descending."""
    return np.linalg.svd(_nystrom_matrix(K), compute_uv=False)


def modular_trace_norm_dense(S, s, kap, nodes):
    """||T_s||_1 from the full complex Nystrom matrix of the modular kernel
    e^{-(m s / 2) cosh x} / (-i pi (x - y + i kappa / 2))."""
    K = wq.KernelOperator("general", (S.mass * s / 2, kap / 2), nodes=nodes)
    A = _nystrom_matrix(K) / (-1j * math.pi)
    return float(np.sum(np.linalg.svd(A, compute_uv=False)))


def log_sqrt_factorial_full_sum(x):
    """log sum_n x^n / sqrt(n!) over every n up to x^2 + 20 x + 50, at once.

    O(x^2) memory: keep x at a few hundred.
    """
    peak = int(x * x) + 1
    n = np.arange(peak + int(20 * math.sqrt(peak)) + 50 + 1, dtype=float)
    logs = n * math.log(x) - 0.5 * gammaln(n + 1.0)
    m = float(np.max(logs))
    return m + math.log(float(np.sum(np.exp(logs - m))))


def strip_sup_scipy(S, kap, half_width, spacing=1e-3, peaks=10):
    """Reference ||S2||_kappa from below: the ``peaks`` highest local maxima
    of a dense scan of |S2(t - i kappa)| over |t| <= half_width, each refined
    by scipy's bounded Brent minimizer between its neighbouring samples, and
    the real-line floor 1.
    """
    t = np.arange(-half_width, half_width + spacing, spacing)
    f = np.abs(wq.evaluate(S, t - 1j * kap))
    inner = f[1:-1]
    tops = 1 + np.flatnonzero((inner > f[:-2]) & (inner >= f[2:]))
    best = 1.0
    for i in tops[np.argsort(f[tops])[-peaks:]]:
        # offsets from t[i], so Brent's relative tolerance sqrt(eps)|x| is
        # set by the spacing, not by |t|
        res = minimize_scalar(
            lambda u: -abs(wq.evaluate(S, t[i] + u - 1j * kap)),
            bounds=(-spacing, spacing), method="bounded",
            options={"xatol": 1e-12})
        best = max(best, f[i], -res.fun)
    return float(best)
