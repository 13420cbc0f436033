
import math
import tracemalloc

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

import wedgeqft as wq
from oracles import (creator_top_level_dense, mass_shell_by_sign,
                     operator_commutator_dense)
from wedgeqft import fields, fock, locality, suites
from wedgeqft.config import load_config
from wedgeqft.errors import TailError, TruncationCapError, WedgeQFTError
from wedgeqft.locality import RESIDUAL_FLOOR

HALF_PI = math.pi / 2


@pytest.fixture(scope="module")
def wedge_pair():
    f = wq.Bump2D((-0.2, 0.22, 0.5, 1.2))      # right wedge
    g = wq.Bump2D((-0.18, 0.21, -1.25, -0.55))  # left wedge
    return f, g


def restriction(S, f, sign):
    return lambda z: wq.mass_shell(f, z, mass=S.mass)[(1 - sign) // 2]


def contour_samples(S, f, g, spectators, order=locality.ORDER_DEFAULT):
    """(B, C) per spectator tuple, as the verify-locality rows compute them."""
    return [(B, C) for _, B, C in locality._contour_samples(
        S, f, g, spectators, locality.WINDOW_DEFAULT, order)]


def line_integral(S, psi1, psi2, thetas, flip):
    """Value and tail estimate on the default line for arbitrary integrands."""
    t, w = locality._gl_line(locality.WINDOW_DEFAULT, locality.ORDER_DEFAULT)
    return locality._line_integral(S, psi1(t), psi2(t), t, w, thetas, flip)


def test_eval_b_n0_is_plain_overlap(shg, wedge_pair):
    f, g = wedge_pair
    [(B, C)] = contour_samples(shg, f, g, [()])
    # independent straight quadrature of the two overlaps
    t, w = np.polynomial.legendre.leggauss(400)
    t, w = 8 * t, 8 * w
    for got, sign in ((B, -1), (-C, +1)):
        want = np.sum(restriction(shg, f, sign)(t)
                      * restriction(shg, g, -sign)(t) * w)
        assert abs(got - want) < 1e-13 + 1e-7 * abs(want)


def test_eval_b_free_spectator_independent(free, wedge_pair, rng):
    f, g = wedge_pair
    [base] = contour_samples(free, f, g, [()])
    for n in (1, 2, 3):
        [got] = contour_samples(free, f, g, [tuple(rng.uniform(-2, 2, n))])
        for x, y in zip(got, base):
            assert abs(x - y) < 1e-14


def test_eval_b_refinement_oracle(shg, wedge_pair, rng):
    f, g = wedge_pair
    spect = [tuple(rng.uniform(-2, 2, 2))]
    [coarse] = contour_samples(shg, f, g, spect, order=512)
    [fine] = contour_samples(shg, f, g, spect, order=2048)
    for x, y in zip(coarse, fine):
        assert abs(x - y) < 1e-14 + 1e-6 * abs(y)


def test_c_is_minus_conjugate_of_b(shg, wedge_pair, rng):
    f, g = wedge_pair
    psi1 = restriction(shg, f, -1)
    psi2 = restriction(shg, g, +1)
    psi1c = lambda z: np.conj(psi1(np.conj(z)))
    psi2c = lambda z: np.conj(psi2(np.conj(z)))
    spect = rng.uniform(-2, 2, 2)
    C = -line_integral(shg, psi1, psi2, spect, flip=True)[0]
    B = line_integral(shg, psi1c, psi2c, spect, flip=False)[0]
    assert abs(C + np.conj(B)) < 1e-13 * max(abs(B), 1e-10)


def test_tail_in_outer_band_raises(free):
    # large on [7.4, 7.98] inside the window 8, but zero at its end nodes
    bump = wq.Bump1D(7.69, 0.29)
    value, tail = line_integral(free, bump, np.ones_like, [], flip=False)
    with pytest.raises(TailError):
        locality._check_tail(value, tail)


def test_ising_n1_sign_flip(ising, wedge_pair):
    f, g = wedge_pair
    [(b0, c0)] = contour_samples(ising, f, g, [()])
    [(b1, c1)] = contour_samples(ising, f, g, [(0.7,)])
    assert abs(b1 + b0) < 1e-14          # single factor -1
    assert abs(c1 + c0) < 1e-14


def test_contour_identity_catalogue(catalogue, wedge_pair, rng):
    f, g = wedge_pair
    for S in catalogue.values():
        for n in (0, 2):
            spect = [tuple(rng.uniform(-2, 2, n)) for _ in range(2)]
            rep = wq.verify_contour_identity(S, f, g, spect)
            assert max(rep.max_relative, rep.shift_relative) <= 1e-6, rep


def test_contour_identity_support_check(shg, wedge_pair):
    f, g = wedge_pair
    with pytest.raises(WedgeQFTError):
        wq.verify_contour_identity(shg, g, f, [()])
    gauss = wq.Gaussian2D.isotropic((0, 1.0), 0.3)
    with pytest.raises(WedgeQFTError):
        wq.verify_contour_identity(shg, gauss, g, [()])


def test_contour_negative_control(shg, wedge_pair):
    f, g = wedge_pair
    # overlapping supports break the strip decay; the residual is O(1)
    g_bad = g.transformed((0.35, f.center[1] - g.center[1]))
    rep = wq.verify_contour_identity(shg, f, g_bad, [(0.4,)],
                                     check_support=False)
    assert rep.max_relative > 1e-2


def test_refinement_ratios(shg, wedge_pair):
    f, g = wedge_pair
    vals = wq.refinement_study(shg, f, g, [(0.5,)], orders=(256, 512, 1024))
    for prev, nxt in zip(vals, vals[1:]):
        assert nxt <= prev / 10 or nxt <= 1e-9


def test_contour_checks_reject_an_empty_spectator_list(shg, wedge_pair):
    # no spectator tuple means no sample: a residual of 0.0 over it would
    # pass any tolerance without having checked anything
    f, g = wedge_pair
    with pytest.raises(ValueError, match="no spectator tuples"):
        wq.verify_contour_identity(shg, f, g, [])
    with pytest.raises(ValueError, match="no spectator tuples"):
        wq.refinement_study(shg, f, g, [], orders=(256, 512))


def test_one_call_over_all_lengths_equals_per_length_calls(shg, wedge_pair,
                                                            rng):
    # the suite's single call against one call per spectator count, bit
    # for bit: rows, worst residual and worst shift residual
    f, g = wedge_pair
    spect = [tuple(rng.uniform(-2, 2, n)) for n in range(4) for _ in range(2)]
    whole = wq.verify_contour_identity(shg, f, g, spect, order=512)
    parts = [wq.verify_contour_identity(
                 shg, f, g, [t for t in spect if len(t) == n], order=512)
             for n in range(4)]
    assert [row["n"] for row in whole.samples] == [0, 0, 1, 1, 2, 2, 3, 3]
    assert repr(whole.samples) == repr(tuple(row for rep in parts
                                             for row in rep.samples))
    assert repr(whole.max_relative) == repr(max(r.max_relative for r in parts))
    assert repr(whole.shift_relative) == repr(max(r.shift_relative
                                                  for r in parts))


def test_line_restrictions_computed_once(monkeypatch, rng):
    cfg = load_config("catalogue:free",
                      overrides=["locality.order=256", "locality.grid_count=11",
                                 "locality.spectators=1"])
    calls = []

    def counting(f, zeta, mass):
        calls.append((len(zeta), mass))
        return wq.mass_shell(f, zeta, mass)

    monkeypatch.setattr(locality, "mass_shell", counting)
    suites.verify_locality(cfg, rng)
    # the pairs of f and g on the real line and on Im t = pi at the
    # configured order, then the real-line pairs per refinement order
    assert sorted(n for n, _ in calls) == ([32] * 2 + [64] * 2 + [128] * 2
                                           + [256] * 4)

    # nothing is kept between calls: a repeated call computes its four
    # pairs again, each at the model's mass
    loc = cfg.locality
    f, g = cfg.testfunction(loc.f), cfg.testfunction(loc.g)
    heavy = wq.build_model(+1, m=2.0)
    for _ in range(2):
        calls.clear()
        locality.verify_contour_identity(heavy, f, g, [(), (0.3,)],
                                         window=loc.window, order=loc.order)
        assert calls == [(loc.order, 2.0)] * 4


def test_contour_samples_match_restrictions_taken_sign_by_sign():
    # each of the four restrictions on its own, every value from its own
    # cosine sum: the pairs' shared sums move B and C by roundoff only.
    # S2 is unimodular on the line, so the integral of |f^-| |g^+| is the
    # scale of a sum's roundoff; B itself falls ~3000x below it at n = 3
    cfg = load_config("catalogue:shg-b050")
    S, loc = cfg.model, cfg.locality
    f, g = cfg.testfunction(loc.f), cfg.testfunction(loc.g)
    t, w = locality._gl_line(loc.window, loc.order)
    ref = {(h, sign): mass_shell_by_sign(h, sign, t, S.mass)
           for h in (f, g) for sign in (+1, -1)}
    for h in (f, g):
        for got, sign in zip(wq.mass_shell(h, t, S.mass), (+1, -1)):
            want = ref[h, sign]
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    scale = float(np.dot(np.abs(ref[f, -1] * ref[g, +1]), w))
    spect = [(), (0.3,), (-0.7, 1.1), (0.2, -1.5, 0.9)]
    for theta, B, C in locality._contour_samples(S, f, g, spect, loc.window,
                                                 loc.order):
        B_ref = locality._line_integral(S, ref[f, -1], ref[g, +1], t, w,
                                        theta, flip=False)[0]
        C_ref = -locality._line_integral(S, ref[f, +1], ref[g, -1], t, w,
                                         theta, flip=True)[0]
        assert abs(B - B_ref) <= 1e-14 * scale, theta
        assert abs(C - C_ref) <= 1e-14 * scale, theta


def test_each_test_function_sampled_once_per_grid(monkeypatch, shg,
                                                  wedge_pair, rng):
    calls = []

    def counting(f, zeta, mass):
        calls.append(f)
        return wq.mass_shell(f, zeta, mass)

    # the contour checks call mass_shell from locality, the fields' pairs
    # from fields
    monkeypatch.setattr(locality, "mass_shell", counting)
    monkeypatch.setattr(fields, "mass_shell", counting)
    f, g = wedge_pair
    Phi = wq.random_fock(shg, wq.RapidityGrid(6.0, 21), 1, rng)
    locality.verify_operator_commutator(shg, f, g, Phi)
    # one pair each: phi'(f) conjugates f's pair instead of sampling f*
    assert calls == [f, g]

    calls.clear()
    suites.verify_locality(load_config("catalogue:shg-b050"), rng)
    # four contour pairs, two per refinement order, two per operator
    # check (three) and two for the witness
    assert len(calls) == 4 + 3 * 2 + 3 * 2 + 2


def test_verify_locality_draws_each_spectator_tuple_once(rng):
    # every n = 0 tuple is the empty one, so the suite draws it once
    cfg = load_config("catalogue:free",
                      overrides=["locality.order=256", "locality.grid_count=11"])
    rows = suites.verify_locality(cfg, rng).rows
    assert [row["n"] for row in rows].count(0) == 1
    thetas = [row["thetas"] for row in rows]
    assert len(set(thetas)) == len(thetas) == 1 + 3 * cfg.locality.spectators


def test_witness_threshold_is_relative_to_the_closed_form(monkeypatch):
    # the closed form peaks near 1e-5 on the witness grid, so an operator
    # tensor off by 1e-6 of its largest entry is off by about 1e-11: below
    # an absolute 1e-10, yet a wrong tensor, and the suite must fail
    cfg = load_config("catalogue:shg-b050")
    assert suites.verify_locality(cfg, np.random.default_rng(1)).passed
    witness = suites.nonlocality_witness

    def perturbed(S, f, g, grid):
        op, closed, products = witness(S, f, g, grid)
        return op + 1e-6 * np.max(np.abs(closed)), closed, products

    monkeypatch.setattr(suites, "nonlocality_witness", perturbed)
    res = suites.verify_locality(cfg, np.random.default_rng(1))
    assert 1e-12 < res.summary["witness_agreement"] < 1e-10
    assert res.passed is False


def test_operator_commutator_and_halving(shg, wedge_pair, rng):
    f, g = wedge_pair
    grid = wq.RapidityGrid(6.0, 81)
    Phi = wq.random_fock(shg, grid, 1, rng)
    resid = wq.verify_operator_commutator(shg, f, g, Phi)
    assert resid <= 1e-4
    grid2 = wq.RapidityGrid(6.0, 161)
    Phi2 = wq.random_fock(shg, grid2, 1, rng)
    resid2 = wq.verify_operator_commutator(shg, f, g, Phi2)
    assert resid2 <= resid / 2


def test_operator_commutator_free_field(free, wedge_pair, rng):
    f, g = wedge_pair
    grid = wq.RapidityGrid(6.0, 81)
    Phi = wq.random_fock(free, grid, 1, rng)
    assert wq.verify_operator_commutator(free, f, g, Phi) <= 1e-4


def test_operator_commutator_support_check(shg, wedge_pair, rng):
    f, g = wedge_pair
    Phi = wq.random_fock(shg, wq.RapidityGrid(6.0, 21), 1, rng)
    with pytest.raises(WedgeQFTError):
        wq.verify_operator_commutator(shg, g, f, Phi)
    gauss = wq.Gaussian2D.isotropic((0, 1.0), 0.3)
    with pytest.raises(WedgeQFTError):
        wq.verify_operator_commutator(shg, gauss, g, Phi)
    # f in W_R, but g there too instead of in W_L
    with pytest.raises(WedgeQFTError, match="not inside W_L"):
        wq.verify_operator_commutator(shg, f, f, Phi)


def test_operator_commutator_wrong_wedges_generic_model(shg, wedge_pair, rng):
    # for a non-constant model, swapping the wedges leaves an O(1) residual
    f, g = wedge_pair
    grid = wq.RapidityGrid(6.0, 81)
    Phi = wq.random_fock(shg, grid, 1, rng)
    resid = wq.verify_operator_commutator(shg, g, f, Phi, check_support=False)
    assert resid > 1e-2


@pytest.mark.parametrize("count, n_max", [(41, 1), (41, 2), (81, 1)])
def test_operator_commutator_matches_dense_reference(catalogue, wedge_pair,
                                                     rng, count, n_max):
    # the dense reference builds the creator-only top level that the check
    # leaves out, so agreement at 1e-12 also bounds that level.  At
    # n_max = 2 the lower levels have both creator and annihilator parts;
    # the dense rank-4 reference does not fit the budget at 81 nodes.  The
    # swapped pair is the negative control
    f, g = wedge_pair
    grid = wq.RapidityGrid(6.0, count)
    for S in catalogue.values():
        Phi = wq.random_fock(S, grid, n_max, rng)
        for a, b in ((f, g), (g, f)):
            got = wq.verify_operator_commutator(S, a, b, Phi,
                                                check_support=False)
            want = operator_commutator_dense(S, a, b, Phi)
            assert abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize("n_max", [1, 2])
def test_creator_only_top_level_vanishes(catalogue, wedge_pair, rng, n_max):
    # the level Phi.n_max + 2 that the check leaves out, built whole: only
    # the creators reach it, and [z'^dag(f+), z^dag(g+)] = 0 for any f, g
    f, g = wedge_pair
    grid = wq.RapidityGrid(6.0, 41)
    for S in catalogue.values():
        Phi = wq.random_fock(S, grid, n_max, rng)
        for a, b in ((f, g), (g, f)):
            top, side = creator_top_level_dense(S, a, b, Phi)
            assert top <= 1e-14 * side


@settings(max_examples=30, deadline=None)
@given(st.sampled_from((+1, -1)),
       st.lists(st.tuples(st.floats(-3, 3), st.floats(0.05, HALF_PI)),
                min_size=1, max_size=2),
       st.integers(1, 2), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_creator_only_top_level_vanishes_on_bounded_models(
        wedge_pair, eps, zeros, n_max, swap, seed):
    S = wq.build_model(eps, zeros=[complex(re, im) for re, im in zeros])
    f, g = wedge_pair[::-1] if swap else wedge_pair
    Phi = wq.random_fock(S, wq.RapidityGrid(6.0, 21), n_max,
                         np.random.default_rng(seed))
    top, side = creator_top_level_dense(S, f, g, Phi)
    assert top <= 1e-14 * side


def test_operator_commutator_memory_is_streamed(shg, wedge_pair, rng):
    # the dense check held several rank-3 tensors of 161^3 entries (64 MiB
    # each) at once and peaked at 256 MiB
    f, g = wedge_pair
    Phi = wq.random_fock(shg, wq.RapidityGrid(6.0, 161), 1, rng)
    tracemalloc.start()
    try:
        wq.verify_operator_commutator(shg, f, g, Phi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


def test_operator_commutator_top_level_outside_dense_budget(
        shg, wedge_pair, rng, monkeypatch):
    # with the budget at 41^2 the rank-3 top level at 41 nodes is over it;
    # it is never built, so the check still runs, while a level that is
    # built (rank n_max + 1) still has to fit
    f, g = wedge_pair
    grid = wq.RapidityGrid(6.0, 41)
    Phi = wq.random_fock(shg, grid, 1, rng)
    Phi2 = wq.random_fock(shg, grid, 2, rng)
    want = operator_commutator_dense(shg, f, g, Phi)
    monkeypatch.setattr(fock, "MAX_TENSOR_ELEMENTS", 41 ** 2)
    assert abs(wq.verify_operator_commutator(shg, f, g, Phi) - want) \
        <= 1e-12 * want
    with pytest.raises(TruncationCapError):
        wq.verify_operator_commutator(shg, f, g, Phi2)


def test_strip_bound_heuristic(shg, wedge_pair, rng):
    # |integrand| along a shifted contour is bounded by the boundary sup
    # norms (maximum principle), and |S2| <= 1 inside the physical strip
    f, g = wedge_pair
    t = np.linspace(-4, 4, 33)
    sup_f = max(np.max(np.abs(restriction(shg, f, s)(t.astype(complex))))
                for s in (+1, -1))
    sup_g = max(np.max(np.abs(restriction(shg, g, s)(t.astype(complex))))
                for s in (+1, -1))
    z = t + 0.5j
    shifted = restriction(shg, f, -1)(z) * restriction(shg, g, +1)(z)
    assert np.max(np.abs(shifted)) <= sup_f * sup_g * (1 + 1e-9)
    prod = np.abs(wq.evaluate(shg, (t + 0.5j)[:, None]
                              - rng.uniform(-2, 2, 3)[None, :]))
    assert np.max(np.prod(prod, axis=1)) <= 1.0 + 1e-12


def test_relative_floor_exists():
    assert RESIDUAL_FLOOR > 0
