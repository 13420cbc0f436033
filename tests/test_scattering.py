import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import wedgeqft as wq
from oracles import overlap_literal, state_via_projection
from wedgeqft.errors import OrderingError
from wedgeqft.fock import WaveFunction1
from wedgeqft.scattering import overlap_oracle, smatrix_tensor


def block_wave(grid, lo, hi, rng):
    vals = np.zeros(grid.count, dtype=complex)
    vals[lo:hi] = rng.standard_normal(hi - lo) + 1j * rng.standard_normal(hi - lo)
    psi = WaveFunction1(grid, vals)
    return WaveFunction1(grid, vals / psi.norm())


def test_packet_ordering_enforced(grid21, rng):
    a = block_wave(grid21, 0, 4, rng)
    b = block_wave(grid21, 6, 10, rng)
    wq.OrderedWavePacket((a, b))
    touching = block_wave(grid21, 4, 8, rng)    # no empty node after a
    with pytest.raises(OrderingError):
        wq.OrderedWavePacket((a, touching))
    with pytest.raises(OrderingError):
        wq.OrderedWavePacket((b, a))            # reversed order
    with pytest.raises(OrderingError):
        wq.OrderedWavePacket(())


def test_out_state_agrees_with_projection(catalogue, rng):
    grid = wq.RapidityGrid(6.0, 15)
    for n in (2, 3):
        packet = wq.random_ordered_packet(grid, n, rng)
        for S in catalogue.values():
            a = wq.out_state(S, packet)
            b = state_via_projection(S, packet)
            assert a.sub(b).norm() < 1e-12
            c = wq.in_state(S, packet)
            d = state_via_projection(S, packet, reverse=True)
            assert c.sub(d).norm() < 1e-12


def test_single_particle_in_equals_out(shg, grid21, rng):
    packet = wq.OrderedWavePacket((block_wave(grid21, 2, 7, rng),))
    iv, ov = wq.in_state(shg, packet), wq.out_state(shg, packet)
    assert iv.sub(ov).norm() == 0
    assert_allclose(ov.component(1), packet.waves[0].values, atol=0)


def test_free_in_equals_out(free, grid21, rng):
    packet = wq.random_ordered_packet(grid21, 2, rng)
    assert wq.in_state(free, packet).sub(wq.out_state(free, packet)).norm() < 1e-14


def test_norm_factorizes_for_disjoint_supports(catalogue, grid41, rng):
    packet = wq.random_ordered_packet(grid41, 3, rng)   # unit-normalized
    for S in catalogue.values():
        assert abs(wq.out_state(S, packet).norm() - 1.0) < 1e-12


def test_ising_two_particle_overlap_ratio(ising, grid41, rng):
    packet = wq.random_ordered_packet(grid41, 2, rng)
    iv, ov = wq.in_state(ising, packet), wq.out_state(ising, packet)
    ratio = iv.inner(ov) / (iv.norm() * ov.norm())
    assert abs(ratio + 1.0) < 1e-12


def test_smatrix_factor_basics(shg, ising):
    assert wq.smatrix_factor(shg, [0.7]) == 1
    assert abs(wq.smatrix_factor(shg, [0.4, 0.4]) + 1) < 1e-14   # S2(0) = -1
    assert abs(wq.smatrix_factor(ising, [0.1, 0.9, 2.0]) + 1) < 1e-14


def test_smatrix_factor_symmetric(shg, rng):
    thetas = rng.uniform(-3, 3, 4)
    base = wq.smatrix_factor(shg, thetas)
    perm = rng.permutation(4)
    assert abs(wq.smatrix_factor(shg, thetas[perm]) - base) < 1e-13


def test_moller_trivial_orderings(shg):
    assert wq.moller_multiplier(shg, "out", [-1.0, 0.0, 2.0]) == 1
    assert wq.moller_multiplier(shg, "in", [2.0, 0.0, -1.0]) == 1


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-3, 3), min_size=2, max_size=4))
def test_moller_unimodular_and_product(thetas):
    S = wq.build_model(-1, zeros=[1j * math.pi / 2])
    out = wq.moller_multiplier(S, "out", thetas)
    inn = wq.moller_multiplier(S, "in", thetas)
    assert abs(abs(out) - 1) < 1e-12
    assert abs(out * inn - wq.smatrix_factor(S, thetas)) < 1e-11


def test_moller_tie_break_deterministic(shg):
    v1 = wq.moller_multiplier(shg, "out", [0.5, 0.5, -1.0])
    v2 = wq.moller_multiplier(shg, "out", [0.5, 0.5, -1.0])
    assert v1 == v2


def test_smatrix_tensor_unimodular_preserves_norm(shg, grid21, rng):
    Sn = smatrix_tensor(shg, grid21, 3)
    assert np.max(np.abs(np.abs(Sn) - 1)) < 1e-12
    Phi = wq.random_fock(shg, grid21, 3, rng)
    c = Phi.component(3)
    w = grid21.weights
    norm2 = lambda x: np.einsum("abc,a,b,c->", np.abs(x) ** 2, w, w, w)
    assert abs(norm2(Sn * c) - norm2(c)) < 1e-12 * norm2(c)


def test_overlap_oracle_reduced_matches_literal(catalogue, grid41, rng):
    for S in catalogue.values():
        for n in (2, 3):
            packet = wq.random_ordered_packet(grid41, n, rng)
            fast = overlap_oracle(S, packet)
            slow = overlap_literal(S, packet)
            assert abs(fast - slow) < 1e-12


def test_recover_smatrix(catalogue, grid41):
    for name, S in catalogue.items():
        for n in (2, 3):
            rep = wq.recover_smatrix(S, grid41, n, trials=4,
                                     rng=np.random.default_rng(11))
            assert max(rep.max_multiplier_residual,
                       rep.max_overlap_residual) <= 1e-10, (name, n, rep)


def test_recover_smatrix_n4_single_trial(shg, grid41):
    rep = wq.recover_smatrix(shg, grid41, 4, trials=1,
                             rng=np.random.default_rng(5))
    assert max(rep.max_multiplier_residual,
               rep.max_overlap_residual) <= 1e-10, rep


def test_two_particle_smatrix(catalogue, grid21, rng):
    packet = wq.random_ordered_packet(grid21, 2, rng)
    t = grid21.nodes
    for S in catalogue.values():
        got = wq.two_particle_smatrix(S, *packet.waves)
        want = wq.evaluate(S, np.abs(t[:, None] - t[None, :]))
        assert_allclose(got, want, atol=1e-13)


def test_out_state_label_independent(shg, grid41, rng):
    # relabeling packet entries (then restoring support order) reproduces
    # the same state: the scattering states are symmetric
    packet = wq.random_ordered_packet(grid41, 3, rng)
    shuffled = wq.OrderedWavePacket(tuple(packet.waves))
    assert wq.out_state(shg, packet).sub(wq.out_state(shg, shuffled)).norm() == 0
