import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import wedgeqft as wq
from oracles import create_via_projection, symmetrize_by_permutations
from wedgeqft.errors import (GridError, SupportOverflowError,
                             TruncationCapError)
from wedgeqft.fock import FockVector, compose, _weighted_inner
from wedgeqft.sfunction import evaluate

HALF_PI = math.pi / 2


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


def test_create_matches_projection(catalogue, grid7, rng):
    for S in catalogue.values():
        Phi = wq.random_fock(S, grid7, 2, rng)
        psi = wq.random_wavefunction(grid7, rng)
        a = wq.create(S, psi, Phi)
        b = create_via_projection(S, psi, Phi)
        assert a.sub(b).norm() < 1e-12


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
    for S in catalogue.values():
        Phi = wq.random_fock(S, grid21, 2, rng)
        assert wq.reflect_j(wq.reflect_j(Phi)).sub(Phi).norm() == 0
        assert wq.reflect_gamma(wq.reflect_gamma(Phi)).sub(Phi).norm() == 0
        jg = wq.reflect_j(wq.reflect_gamma(Phi))
        gj = wq.reflect_gamma(wq.reflect_j(Phi))
        assert jg.sub(gj).norm() == 0
    om = FockVector.vacuum(grid21)
    assert wq.reflect_j(om).sub(om).norm() == 0
    assert wq.reflect_gamma(om).sub(om).norm() == 0


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


def test_serialization_round_trip(shg, grid7, rng, tmp_path):
    Phi = wq.random_fock(shg, grid7, 3, rng)
    path = tmp_path / "state.json"
    wq.save_fock_vector(path, Phi)
    again = wq.load_fock_vector(path)
    assert again.grid == Phi.grid
    assert again.sub(Phi).norm() == 0
