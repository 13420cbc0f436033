import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

import wedgeqft as wq
from oracles import (apply_dn_by_inversions, create_dense,
                     create_via_projection, symmetrize_by_permutations,
                     weighted_inner_dense, weighted_inner_slabs)
from wedgeqft.errors import (GridError, SupportOverflowError,
                             TruncationCapError)
from wedgeqft.fock import (INNER_GROUP, FockVector, dn_law_residuals,
                           _adjacent_swap, _complex_normal, _on_axes,
                           _weighted_inner)
from wedgeqft.sfunction import evaluate

HALF_PI = math.pi / 2


def compose(p, q):
    """Composition p after q: (p o q)[k] = p[q[k]]."""
    return tuple(p[q[k]] for k in range(len(p)))


def dn_oracle(S, perm, f, grid):
    """Element-by-element reference for the twisted permutation action."""
    t = grid.nodes
    n = f.ndim
    out = np.zeros_like(f)
    for idx in itertools.product(range(grid.count), repeat=n):
        fac = 1.0 + 0j
        for l in range(n):
            for k in range(l + 1, n):
                if perm[l] > perm[k]:
                    fac *= evaluate(S, t[idx[perm[l]]] - t[idx[perm[k]]])
        out[idx] = fac * f[tuple(idx[perm[i]] for i in range(n))]
    return out


def rand_tensor(grid, n, rng):
    shape = (grid.count,) * n
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def wnorm(grid, x):
    return math.sqrt(abs(_weighted_inner(grid, x, x)))


def test_grid_invariants(grid41):
    assert_allclose(grid41.nodes[::-1], -grid41.nodes, atol=0)
    assert np.all(grid41.weights > 0)
    assert abs(grid41.weights.sum() - 2 * grid41.half_width) < 1e-12
    with pytest.raises(GridError):
        wq.RapidityGrid(6.0, 40)   # even count


@pytest.mark.parametrize("count", [21, 31, 41, 81, 161])
@pytest.mark.parametrize("half_width", [3.0, 6.0, 7.3])
def test_grid_is_mirrored_bit_for_bit(half_width, count):
    nodes = wq.RapidityGrid(half_width, count).nodes
    assert np.array_equal(nodes, -nodes[::-1])
    assert nodes[count // 2] == 0.0
    assert nodes[0] == -half_width and nodes[-1] == half_width
    assert np.all(np.diff(nodes) > 0)


def test_vectors_own_their_arrays(grid7, rng):
    # a C-ordered complex array is held as given and frozen
    held = [np.asarray(1.0 + 0j), rand_tensor(grid7, 1, rng),
            rand_tensor(grid7, 2, rng)]
    Phi = FockVector(grid7, held)
    psi = wq.WaveFunction1(grid7, held[1])
    for given, kept in zip(held + [held[1]], Phi.components + (psi.values,)):
        assert np.shares_memory(given, kept)
        assert not given.flags.writeable
    # a transposed or real array is copied into a C-ordered complex one
    others = [np.asarray(2.0), rng.standard_normal(7), rand_tensor(grid7, 2, rng).T]
    Psi = FockVector(grid7, others)
    phi = wq.WaveFunction1(grid7, others[1])
    for given, kept in zip(others + [others[1]], Psi.components + (phi.values,)):
        assert not np.shares_memory(given, kept)
        assert given.flags.writeable
        assert kept.flags.c_contiguous and not kept.flags.writeable
        assert kept.dtype == complex
        np.testing.assert_array_equal(kept, given)


def test_add_sub_between_unequal_truncations(shg, grid7, rng):
    short = wq.random_fock(shg, grid7, 1, rng)
    long = wq.random_fock(shg, grid7, 3, rng)

    def padded(Phi):
        return [Phi.component(n) for n in range(long.n_max + 1)]

    for a, b in ((short, long), (long, short)):
        for result, op in ((a.add(b), np.add), (a.sub(b), np.subtract)):
            assert result.n_max == long.n_max
            for got, x, y in zip(result.components, padded(a), padded(b)):
                np.testing.assert_array_equal(got, op(x, y))
    # a level only self has is shared as it is
    for result in (long.add(short), long.sub(short)):
        for n in range(short.n_max + 1, long.n_max + 1):
            assert result.components[n] is long.components[n]


def test_inner_products_check_the_grid(shg, grid21, rng):
    ones = wq.WaveFunction1(grid21, np.ones(21))
    for other_grid in (wq.RapidityGrid(3.0, 21), wq.RapidityGrid(6.0, 11)):
        other = wq.WaveFunction1(other_grid, np.ones(other_grid.count))
        for a, b in ((ones, other), (other, ones)):
            with pytest.raises(GridError):
                a.inner(b)
        Phi = wq.random_fock(shg, grid21, 1, rng)
        Psi = wq.random_fock(shg, other_grid, 1, rng)
        for a, b in ((Phi, Psi), (Psi, Phi)):
            with pytest.raises(GridError):
                a.inner(b)


def test_apply_dn_against_oracle(shg, rng):
    grid = wq.RapidityGrid(2.0, 5)
    f = rand_tensor(grid, 3, rng)
    for perm in itertools.permutations(range(3)):
        got = wq.apply_dn(shg, perm, f, grid)
        want = dn_oracle(shg, perm, f, grid)
        assert_allclose(got, want, atol=1e-13)


def test_apply_dn_identity_and_free(free, shg, rng):
    grid = wq.RapidityGrid(2.0, 5)
    f = rand_tensor(grid, 3, rng)
    assert_allclose(wq.apply_dn(shg, (0, 1, 2), f, grid), f, atol=0)
    # constant +1 model: plain index permutation
    got = wq.apply_dn(free, (2, 0, 1), f, grid)
    want = dn_oracle(free, (2, 0, 1), f, grid)
    assert_allclose(got, want, atol=0)


def test_apply_dn_homomorphism(shg, rng):
    grid = wq.RapidityGrid(2.0, 5)
    f = rand_tensor(grid, 3, rng)
    for p in itertools.permutations(range(3)):
        for q in itertools.permutations(range(3)):
            lhs = wq.apply_dn(shg, compose(p, q), f, grid)
            rhs = wq.apply_dn(shg, p, wq.apply_dn(shg, q, f, grid), grid)
            assert_allclose(lhs, rhs, atol=1e-12)


def test_dn_laws_sampled_only_where_they_apply(shg, rng):
    grid = wq.RapidityGrid(2.0, 5)
    common = {"involution", "unitary", "projector", "selfadjoint"}
    assert set(dn_law_residuals(shg, grid, 2, 1, rng)) == common
    assert set(dn_law_residuals(shg, grid, 3, 1, rng)) == common | {"braid"}
    res = dn_law_residuals(shg, grid, 4, 2, rng)
    assert set(res) == common | {"braid", "commuting"}
    assert max(res.values()) <= 1e-12, res


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((+1, -1)),
       st.lists(st.tuples(st.floats(-3, 3), st.floats(0.05, HALF_PI)),
                max_size=2),
       st.integers(1, 4), st.sampled_from((3, 5, 7, 9)),
       st.integers(0, 2 ** 32 - 1))
def test_apply_dn_matches_the_inversion_product(eps, zeros, n, count, seed):
    # the reduced word of twisted swaps against one transpose times every
    # inversion's factor: one swap is one multiplication by the same
    # factor, so an adjacent transposition matches bit for bit, and a
    # longer word multiplies the same factors in another order
    S = wq.build_model(eps, zeros=[complex(re, im) for re, im in zeros])
    grid = wq.RapidityGrid(6.0, count)
    f = rand_tensor(grid, n, np.random.default_rng(seed))
    kept = f.copy()
    adjacent = {_adjacent_swap(n, k) for k in range(n - 1)}
    for perm in itertools.permutations(range(n)):
        got = wq.apply_dn(S, perm, f, grid)
        want = apply_dn_by_inversions(S, perm, f, grid)
        assert got.flags.c_contiguous and not np.shares_memory(got, f)
        if perm in adjacent:
            assert got.tobytes() == want.tobytes(), perm
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    np.testing.assert_array_equal(f, kept)


def test_apply_dn_rank_mismatch(shg, grid7, rng):
    with pytest.raises(ValueError):
        wq.apply_dn(shg, (0, 1), rand_tensor(grid7, 3, rng), grid7)


def test_symmetrize_idempotent_and_pauli(shg, ising, free, grid7, rng):
    f = rand_tensor(grid7, 3, rng)
    P = wq.symmetrize(shg, f, grid7)
    assert_allclose(wq.symmetrize(shg, P, grid7), P, atol=1e-12)
    # Pauli principle: antisymmetric statistics kill psi (x) psi
    psi = rng.standard_normal(grid7.count) + 1j * rng.standard_normal(grid7.count)
    assert np.max(np.abs(wq.symmetrize(ising, np.multiply.outer(psi, psi),
                                       grid7))) < 1e-13
    sym = wq.symmetrize(free, np.multiply.outer(psi, psi), grid7)
    assert_allclose(sym, np.multiply.outer(psi, psi), atol=1e-13)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((+1, -1)),
       st.lists(st.tuples(st.floats(-3, 3), st.floats(0.05, HALF_PI)),
                max_size=2),
       st.integers(2, 5), st.sampled_from((5, 7, 9, 11)),
       st.integers(0, 2 ** 32 - 1))
def test_symmetrize_matches_permutation_sum(eps, zeros, n, count, seed):
    # the coset-factorized symmetrizer against the literal n!-sum; the
    # tolerance allows a few hundred roundings of unimodular factors
    S = wq.build_model(eps, zeros=[complex(re, im) for re, im in zeros])
    grid = wq.RapidityGrid(6.0, count)
    f = rand_tensor(grid, n, np.random.default_rng(seed))
    want = symmetrize_by_permutations(S, f, grid)
    got = wq.symmetrize(S, f, grid)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_symmetrize_cap(shg, grid7, rng):
    with pytest.raises(TruncationCapError):
        wq.symmetrize(shg, np.zeros((7,) * 7), grid7)


def test_symmetrize_keeps_its_input(shg, grid7, rng):
    f = rand_tensor(grid7, 3, rng)
    kept = f.copy()
    P = wq.symmetrize(shg, f, grid7)
    assert not np.shares_memory(P, f)
    np.testing.assert_array_equal(f, kept)


def zero_shells(t, margin):
    """Zero the outer ``margin`` nodes of every slot of ``t`` in place."""
    for axis in range(t.ndim if margin > 0 else 0):
        shells = np.moveaxis(t, axis, 0)
        shells[:margin] = 0.0
        shells[-margin:] = 0.0
    return t


def random_fock_summed(S, grid, n_max, rng, margin=0):
    """random_fock built from sums: each level drawn as a + 1j * b from two
    real arrays, its shells zeroed, and symmetrized on a copy."""
    N = grid.count
    comps = [np.asarray(rng.standard_normal() + 1j * rng.standard_normal(),
                        dtype=complex)]
    for n in range(1, n_max + 1):
        raw = rng.standard_normal((N,) * n) + 1j * rng.standard_normal((N,) * n)
        comps.append(wq.symmetrize(S, zero_shells(raw, margin), grid))
    return FockVector(grid, comps)


@pytest.mark.parametrize("margin", [0, 3])
def test_random_draws_keep_their_bytes(shg, grid21, margin):
    # drawn into one complex array, real parts first, and symmetrized in
    # place: the same stream and the same bytes as a + 1j * b
    got_rng, want_rng = np.random.default_rng(5), np.random.default_rng(5)
    got = wq.random_fock(shg, grid21, 3, got_rng, margin=margin)
    want = random_fock_summed(shg, grid21, 3, want_rng, margin=margin)
    for a, b in zip(got.components, want.components, strict=True):
        assert a.tobytes() == b.tobytes()
    psi = wq.random_wavefunction(grid21, got_rng)
    v = want_rng.standard_normal(21) + 1j * want_rng.standard_normal(21)
    assert psi.values.tobytes() == (v / wq.WaveFunction1(grid21, v).norm()).tobytes()
    for n in range(4):
        shape = (21,) * n
        assert (_complex_normal(got_rng, 21, n).tobytes()
                == (want_rng.standard_normal(shape)
                    + 1j * want_rng.standard_normal(shape)).tobytes())
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_random_fock_checks_the_budget_before_drawing(shg, grid21):
    # rank 6 on 21 nodes is over the dense budget, rank 7 over the cap
    rng = np.random.default_rng(1)
    state = rng.bit_generator.state
    for n_max in (6, 7):
        with pytest.raises(TruncationCapError):
            wq.random_fock(shg, grid21, n_max, rng)
        assert rng.bit_generator.state == state


def test_create_matches_projection(catalogue, grid7, rng):
    for S in catalogue.values():
        Phi = wq.random_fock(S, grid7, 2, rng)
        psi = wq.random_wavefunction(grid7, rng)
        a = wq.create(S, psi, Phi)
        b = create_via_projection(S, psi, Phi)
        assert a.sub(b).norm() < 1e-12


def _supported(rng, shape, slots):
    """A random tensor that vanishes outside slots[a] on each axis a."""
    t = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for axis, keep in enumerate(slots):
        mask = np.zeros(shape[axis], dtype=bool)
        mask[keep] = True
        t *= _on_axes(mask, t.ndim, axis)
    return t


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((+1, -1)),
       st.lists(st.tuples(st.floats(-3, 3), st.floats(0.05, HALF_PI)),
                min_size=1, max_size=2),
       st.integers(0, 3), st.sampled_from((5, 7, 9)),
       st.sampled_from(("margins", "single", "zero")),
       st.sampled_from(("shells", "zero_level", "raw")),
       st.integers(0, 2 ** 32 - 1))
def test_create_equals_dense_insertion(eps, zeros, n_max, count, psi_kind,
                                       phi_kind, seed):
    # the creator reads only psi's span and Phi's support box, so it may
    # skip exact zeros and nothing else: every level equals the dense one
    S = wq.build_model(eps, zeros=[complex(re, im) for re, im in zeros])
    grid = wq.RapidityGrid(3.0, count)
    rng = np.random.default_rng(seed)

    def interval():
        lo = int(rng.integers(0, count))
        return slice(lo, int(rng.integers(lo + 1, count + 1)))

    if psi_kind == "margins":
        span = interval()
    elif psi_kind == "single":
        k = int(rng.integers(0, count))
        span = slice(k, k + 1)
    else:
        span = slice(0, 0)
    psi = wq.WaveFunction1(grid, _supported(rng, (count,), [span]))
    if phi_kind == "shells":
        Phi = wq.random_fock(S, grid, n_max, rng,
                             margin=int(rng.integers(1, (count + 1) // 2)))
    elif phi_kind == "zero_level":
        comps = list(wq.random_fock(S, grid, n_max, rng).components)
        level = int(rng.integers(0, n_max + 1))
        comps[level] = np.zeros_like(comps[level])
        Phi = FockVector(grid, comps)
    else:
        # not twisted-symmetric: each slot has its own support, so a box
        # read off one slot would drop entries
        Phi = FockVector(grid, [_supported(rng, (count,) * n,
                                           [interval() for _ in range(n)])
                                for n in range(n_max + 1)])
    got = wq.create(S, psi, Phi)
    want = create_dense(S, psi, Phi)
    assert got.n_max == want.n_max == n_max + 1
    for n, (a, b) in enumerate(zip(got.components, want.components)):
        assert np.array_equal(a, b), n


def test_create_annihilate_vacuum(shg, grid21, rng):
    om = FockVector.vacuum(grid21)
    psi = wq.random_wavefunction(grid21, rng)
    phi = wq.random_wavefunction(grid21, rng)
    assert wq.annihilate(shg, psi, om).norm() == 0
    created = wq.create(shg, phi, om)
    assert_allclose(created.component(1), phi.values, atol=0)
    # one-particle isometry <zdag(psi)O, zdag(phi)O> = <psi, phi>
    lhs = wq.create(shg, psi, om).inner(created)
    assert abs(lhs - psi.inner(phi)) < 1e-14
    # z(psi) zdag(phi) Omega = <conj psi, phi> Omega on the grid pairing
    back = wq.annihilate(shg, psi, created)
    pairing = np.sum(grid21.weights * psi.values * phi.values)
    assert abs(back.component(0) - pairing) < 1e-14


def test_pauli_double_creation(ising, grid21, rng):
    om = FockVector.vacuum(grid21)
    psi = wq.random_wavefunction(grid21, rng)
    twice = wq.create(ising, psi, wq.create(ising, psi, om))
    assert twice.norm() < 1e-13


def test_free_annihilator_is_bose(free, grid7, rng):
    # on two-particle states the twisted annihilator reduces to the
    # standard symmetric contraction
    Phi2 = wq.random_fock(free, grid7, 2, rng)
    psi = wq.random_wavefunction(grid7, rng)
    got = wq.annihilate(free, psi, Phi2).component(1)
    want = math.sqrt(2) * np.tensordot(grid7.weights * psi.values,
                                       Phi2.component(2), axes=([0], [0]))
    assert_allclose(got, want, atol=1e-14)


def test_zf_relations_all_models(catalogue, grid7, rng):
    for S in catalogue.values():
        for _ in range(3):
            Phi = wq.random_fock(S, grid7, 3, rng)
            psi = wq.random_wavefunction(grid7, rng)
            phi = wq.random_wavefunction(grid7, rng)
            rep = wq.check_zf_relations(S, psi, phi, Phi)
            assert max(rep) <= 1e-12, rep


def test_zf_needs_two_levels(shg, grid7, rng):
    Phi = wq.random_fock(shg, grid7, 1, rng)
    psi = wq.random_wavefunction(grid7, rng)
    with pytest.raises(TruncationCapError):
        wq.check_zf_relations(shg, psi, psi, Phi)


def test_adjointness(shg, grid7, rng):
    Phi = wq.random_fock(shg, grid7, 2, rng)
    Psi = wq.random_fock(shg, grid7, 3, rng)
    psi = wq.random_wavefunction(grid7, rng)
    lhs = wq.create(shg, psi, Phi).inner(Psi)
    rhs = Phi.inner(wq.annihilate(shg, psi.conj(), Psi))
    assert abs(lhs - rhs) < 1e-13


def test_number_bounds(catalogue, grid7, rng):
    for S in catalogue.values():
        Phi = wq.random_fock(S, grid7, 3, rng)
        psi = wq.random_wavefunction(grid7, rng)
        assert (wq.annihilate(S, psi, Phi).norm()
                <= psi.norm() * Phi.number_half_power().norm() + 1e-12)
        assert (wq.create(S, psi, Phi).norm()
                <= psi.norm() * Phi.number_half_power(1.0).norm() + 1e-12)


def test_poincare_identity_and_norm(shg, grid21, rng):
    Phi = wq.random_fock(shg, grid21, 2, rng, margin=3)
    ident = wq.PoincareElement((0.0, 0.0), 0.0)
    assert wq.poincare_apply(shg, ident, Phi).sub(Phi).norm() == 0
    translation = wq.PoincareElement((0.7, -1.2), 0.0)
    assert abs(wq.poincare_apply(shg, translation, Phi).norm() - Phi.norm()) < 1e-12


def test_poincare_group_law(shg, grid21, rng):
    Phi = wq.random_fock(shg, grid21, 2, rng, margin=4)
    lam = grid21.spacing
    g1 = wq.PoincareElement((0.3, -0.2), lam)
    g2 = wq.PoincareElement((0.1, 0.4), 2 * lam)
    lhs = wq.poincare_apply(shg, g1, wq.poincare_apply(shg, g2, Phi))
    rhs = wq.poincare_apply(shg, g1.compose(g2), Phi)
    assert lhs.sub(rhs).norm() / Phi.norm() < 1e-12


def test_poincare_errors(shg, grid21, rng):
    Phi = wq.random_fock(shg, grid21, 1, rng)
    with pytest.raises(GridError):
        wq.poincare_apply(shg, wq.PoincareElement((0, 0), 0.5 * grid21.spacing), Phi)
    # full-support vector cannot be shifted without loss
    with pytest.raises(SupportOverflowError):
        wq.poincare_apply(shg, wq.PoincareElement((0, 0), 3 * grid21.spacing), Phi)


def test_boost_past_the_whole_grid(shg, grid21, rng):
    # shifting by the node count or more loses all amplitude: a typed
    # error for a nonzero vector, the zero vector for a zero one
    Phi = wq.random_fock(shg, grid21, 2, rng)
    for steps in (21, 22, 40, -21, -22, -40):
        g = wq.PoincareElement((0, 0), steps * grid21.spacing)
        with pytest.raises(SupportOverflowError):
            wq.poincare_apply(shg, g, Phi)
        zero = Phi.scaled(0.0)
        assert wq.poincare_apply(shg, g, zero).norm() == 0


def test_reflections(catalogue, grid21, rng):
    c = 0.3 - 0.7j
    for S in catalogue.values():
        Phi = wq.random_fock(S, grid21, 2, rng)
        assert wq.reflect_j(wq.reflect_j(Phi)).sub(Phi).norm() == 0
        assert wq.reflect_gamma(wq.reflect_gamma(Phi)).sub(Phi).norm() == 0
        jg = wq.reflect_j(wq.reflect_gamma(Phi))
        gj = wq.reflect_gamma(wq.reflect_j(Phi))
        assert jg.sub(gj).norm() == 0
        # antilinear on every level, the vacuum coefficient included
        for reflect in (wq.reflect_j, wq.reflect_gamma):
            lhs = reflect(Phi.scaled(c))
            rhs = reflect(Phi).scaled(np.conj(c))
            assert lhs.sub(rhs).norm() <= 1e-14 * Phi.norm()
    om = FockVector.vacuum(grid21)
    assert wq.reflect_j(om).sub(om).norm() == 0
    assert wq.reflect_gamma(om).sub(om).norm() == 0
    for reflect in (wq.reflect_j, wq.reflect_gamma):
        assert reflect(om.scaled(c)).sub(om.scaled(np.conj(c))).norm() == 0


def test_reflections_commute_with_symmetrizer(shg, grid7, rng):
    raw = rand_tensor(grid7, 3, rng)
    sym_then_j = wq.reflect_j(FockVector(grid7, [np.zeros(()),
                                                 np.zeros(7),
                                                 np.zeros((7, 7)),
                                                 wq.symmetrize(shg, raw, grid7)]))
    j_then_sym = FockVector(grid7, [np.zeros(()), np.zeros(7), np.zeros((7, 7)),
                                    wq.symmetrize(shg, wq.reflect_j(
                                        FockVector(grid7, [np.zeros(()), np.zeros(7),
                                                           np.zeros((7, 7)), raw])
                                    ).component(3), grid7)])
    assert sym_then_j.sub(j_then_sym).norm() < 1e-12


def test_reflection_conjugations_of_poincare(shg, grid21, rng):
    Phi = wq.random_fock(shg, grid21, 2, rng, margin=3)
    lam = 2 * grid21.spacing
    g = wq.PoincareElement((0.4, -0.6), lam)
    juj = wq.reflect_j(wq.poincare_apply(shg, g, wq.reflect_j(Phi)))
    ref = wq.poincare_apply(shg, wq.PoincareElement((-0.4, 0.6), lam), Phi)
    assert juj.sub(ref).norm() / Phi.norm() < 1e-12
    gug = wq.reflect_gamma(wq.poincare_apply(shg, g, wq.reflect_gamma(Phi)))
    ref = wq.poincare_apply(shg, wq.PoincareElement((-0.4, -0.6), -lam), Phi)
    assert gug.sub(ref).norm() / Phi.norm() < 1e-12


def test_modular_boost(shg, grid21, rng):
    Phi = wq.random_fock(shg, grid21, 2, rng, margin=4)
    om = FockVector.vacuum(grid21)
    assert wq.modular_boost(shg, 0.0, Phi).sub(Phi).norm() == 0
    assert wq.modular_boost(shg, grid21.spacing / (2 * math.pi), om).sub(om).norm() == 0
    t1 = grid21.spacing / (2 * math.pi)
    lhs = wq.modular_boost(shg, t1, wq.modular_boost(shg, t1, Phi))
    rhs = wq.modular_boost(shg, 2 * t1, Phi)
    assert lhs.sub(rhs).norm() / Phi.norm() < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 4), st.integers(1, 20), st.integers(0, 21),
       st.integers(0, 2 ** 32 - 1))
@example(4, 20, 0, 0)     # rank 4 on 41 nodes
@example(3, 20, 21, 0)    # every node zeroed
def test_inner_matches_dense_product(n, half, margin, seed):
    # the grouped, BLAS-free inner product against the whole product
    # contracted through BLAS, with random_fock's zeroed shells on a
    grid = wq.RapidityGrid(6.0, 2 * half + 1)
    rng = np.random.default_rng(seed)
    a = zero_shells(rand_tensor(grid, n, rng), min(margin, half + 1))
    b = rand_tensor(grid, n, rng)
    norms = math.sqrt(weighted_inner_dense(grid, a, a).real
                      * weighted_inner_dense(grid, b, b).real)
    got = _weighted_inner(grid, a, b)
    assert abs(got - weighted_inner_dense(grid, a, b)) <= 1e-14 * norms


# the largest half-count per rank that keeps a level within 2^20 entries
INNER_HALF_CAP = {0: 80, 1: 80, 2: 80, 3: 50, 4: 15}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 4).flatmap(
           lambda n: st.tuples(st.just(n), st.integers(1, INNER_HALF_CAP[n]))),
       st.integers(0, 81), st.integers(0, 2 ** 32 - 1))
@example((3, 40), 0, 0)      # rank 3 on 81 nodes: 2 slabs a group
@example((2, 80), 0, 0)      # rank 2 on 161 nodes: groups of 101 and 60
@example((4, 15), 3, 0)      # rank 4 on 31 nodes: one slab a group
@example((3, 20), 21, 0)     # every node zeroed
def test_inner_groups_move_no_bit(rank_half, margin, seed):
    # grouping first-axis slabs changes no operation of any entry's sum:
    # the result equals the one-slab-at-a-time sum bit for bit, with
    # random_fock's zeroed shells on a
    n, half = rank_half
    grid = wq.RapidityGrid(6.0, 2 * half + 1)
    rng = np.random.default_rng(seed)
    a = zero_shells(rand_tensor(grid, n, rng), min(margin, half + 1))
    b = rand_tensor(grid, n, rng)
    got, want = _weighted_inner(grid, a, b), weighted_inner_slabs(grid, a, b)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (got, want)


def test_inner_builds_no_level_sized_temporary(grid41, rng):
    a, b = rand_tensor(grid41, 4, rng), rand_tensor(grid41, 4, rng)
    tracemalloc.start()
    try:
        _weighted_inner(grid41, a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.05 * a.nbytes, peak


def test_inner_group_stays_within_its_budget(rng):
    # rank 3 on 81 nodes: a group spans two 6561-entry slabs, and the
    # traced peak stays near the group, far below the level's 8.4 MB
    grid = wq.RapidityGrid(6.0, 81)
    a, b = rand_tensor(grid, 3, rng), rand_tensor(grid, 3, rng)
    assert INNER_GROUP // 81 ** 2 == 2
    tracemalloc.start()
    try:
        _weighted_inner(grid, a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * INNER_GROUP * a.itemsize, peak


def test_vector_norm_consistency(shg, grid7, rng):
    Phi = wq.random_fock(shg, grid7, 2, rng)
    assert abs(Phi.norm_sq() - abs(Phi.inner(Phi))) < 1e-12


def test_gamma_commutes_with_symmetrizer(shg, grid7, rng):
    raw = rand_tensor(grid7, 3, rng)
    lifted = FockVector(grid7, [np.zeros(()), np.zeros(7), np.zeros((7, 7)), raw])
    a = wq.symmetrize(shg, wq.reflect_gamma(lifted).component(3), grid7)
    b = wq.reflect_gamma(FockVector(
        grid7, [np.zeros(()), np.zeros(7), np.zeros((7, 7)),
                wq.symmetrize(shg, raw, grid7)])).component(3)
    assert np.max(np.abs(a - b)) < 1e-12
