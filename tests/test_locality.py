

import numpy as np
import pytest

import wedgeqft as wq
from wedgeqft import locality, suites
from wedgeqft.cli import resolve_config_path
from wedgeqft.config import load_config
from wedgeqft.errors import TailError, WedgeQFTError
from wedgeqft.locality import RESIDUAL_FLOOR


@pytest.fixture(scope="module")
def wedge_pair():
    f = wq.Bump2D((-0.2, 0.22, 0.5, 1.2))      # right wedge
    g = wq.Bump2D((-0.18, 0.21, -1.25, -0.55))  # left wedge
    return f, g


def restriction(S, f, sign):
    return lambda z: wq.mass_shell(f, sign, z, mass=S.mass)


def test_eval_b_n0_is_plain_overlap(shg, wedge_pair):
    f, g = wedge_pair
    fm = restriction(shg, f, -1)
    gp = restriction(shg, g, +1)
    got = wq.eval_b(shg, fm, gp, [])
    # independent straight quadrature of the overlap
    t, w = np.polynomial.legendre.leggauss(400)
    t, w = 8 * t, 8 * w
    want = np.sum(fm(t) * gp(t) * w)
    assert abs(got - want) < 1e-13 + 1e-7 * abs(want)
    assert abs(wq.eval_c(shg, fm, gp, []) + got) < 1e-15


def test_eval_b_free_spectator_independent(free, wedge_pair, rng):
    f, g = wedge_pair
    fm = restriction(free, f, -1)
    gp = restriction(free, g, +1)
    base = wq.eval_b(free, fm, gp, [])
    for n in (1, 2, 3):
        spect = rng.uniform(-2, 2, n)
        assert abs(wq.eval_b(free, fm, gp, spect) - base) < 1e-14


def test_eval_b_refinement_oracle(shg, wedge_pair, rng):
    f, g = wedge_pair
    fm = restriction(shg, f, -1)
    gp = restriction(shg, g, +1)
    spect = rng.uniform(-2, 2, 2)
    coarse = wq.eval_b(shg, fm, gp, spect, order=512)
    fine = wq.eval_b(shg, fm, gp, spect, order=2048)
    assert abs(coarse - fine) < 1e-14 + 1e-6 * abs(fine)


def test_c_is_minus_conjugate_of_b(shg, wedge_pair, rng):
    f, g = wedge_pair
    psi1 = restriction(shg, f, -1)
    psi2 = restriction(shg, g, +1)
    psi1c = lambda z: np.conj(psi1(np.conj(z)))
    psi2c = lambda z: np.conj(psi2(np.conj(z)))
    spect = rng.uniform(-2, 2, 2)
    C = wq.eval_c(shg, psi1, psi2, spect)
    B = wq.eval_b(shg, psi1c, psi2c, spect)
    assert abs(C + np.conj(B)) < 1e-13 * max(abs(B), 1e-10)


def test_tail_in_outer_band_raises(free):
    # large on [7.4, 7.98] inside the window 8, but zero at its end nodes
    bump = wq.Bump1D(7.69, 0.29)
    with pytest.raises(TailError):
        wq.eval_b(free, bump, np.ones_like, [])


def test_ising_n1_sign_flip(ising, wedge_pair):
    f, g = wedge_pair
    fm = restriction(ising, f, -1)
    gp = restriction(ising, g, +1)
    b0 = wq.eval_b(ising, fm, gp, [])
    b1 = wq.eval_b(ising, fm, gp, [0.7])
    c1 = wq.eval_c(ising, fm, gp, [0.7])
    assert abs(b1 + b0) < 1e-14          # single factor -1
    assert abs(c1 - b0) < 1e-14


def test_contour_identity_catalogue(catalogue, wedge_pair, rng):
    f, g = wedge_pair
    for S in catalogue.values():
        for n in (0, 2):
            spect = [tuple(rng.uniform(-2, 2, n)) for _ in range(2)]
            rep = wq.verify_contour_identity(S, f, g, n, spect)
            assert max(rep.max_relative, rep.shift_relative) <= 1e-6, rep


def test_contour_identity_support_check(shg, wedge_pair):
    f, g = wedge_pair
    with pytest.raises(WedgeQFTError):
        wq.verify_contour_identity(shg, g, f, 0, [()])
    gauss = wq.Gaussian2D.isotropic((0, 1.0), 0.3)
    with pytest.raises(WedgeQFTError):
        wq.verify_contour_identity(shg, gauss, g, 0, [()])


def test_contour_negative_control(shg, wedge_pair):
    f, g = wedge_pair
    # overlapping supports break the strip decay; the residual is O(1)
    g_bad = g.transformed((0.35, f.center[1] - g.center[1]))
    rep = wq.verify_contour_identity(shg, f, g_bad, 1, [(0.4,)],
                                     check_support=False)
    assert rep.max_relative > 1e-2


def test_refinement_ratios(shg, wedge_pair):
    f, g = wedge_pair
    vals = wq.refinement_study(shg, f, g, 1, [(0.5,)], orders=(256, 512, 1024))
    for prev, nxt in zip(vals, vals[1:]):
        assert nxt <= prev / 10 or nxt <= 1e-9


def test_line_restrictions_computed_once(monkeypatch, rng):
    cfg = load_config(resolve_config_path("catalogue:free"),
                      overrides=["locality.order=256", "locality.grid_count=11",
                                 "locality.spectators=1"])
    calls = []

    def counting(f, sign, zeta, mass=1.0):
        calls.append(mass)
        return wq.mass_shell(f, sign, zeta, mass=mass)

    monkeypatch.setattr(locality, "mass_shell", counting)
    locality._line_restriction.cache_clear()
    suites.verify_locality(cfg, rng)
    # f-, g+, f+, g- on the real line and f-, g+ on Im t = pi at the
    # configured order, then the four real-line ones per refinement order
    assert len(calls) <= 6 + 4 * 3

    # the values depend on the mass only, not on S2 or the spectators
    loc = cfg.locality
    f, g = cfg.testfunction(loc.f_name), cfg.testfunction(loc.g_name)
    before = len(calls)
    for S in (cfg.model, wq.build_model(-1)):
        locality.verify_contour_identity(S, f, g, 1, [(0.3,)],
                                         window=loc.window, order=loc.order)
    assert len(calls) == before

    heavy = wq.build_model(+1, m=2.0)
    locality.verify_contour_identity(heavy, f, g, 0, [()],
                                     window=loc.window, order=loc.order)
    assert len(calls) > before
    assert set(calls[before:]) == {2.0}


def test_cached_line_restriction_is_exact_and_read_only(wedge_pair):
    f, _ = wedge_pair
    t, _ = locality._gl_line(8.0, 256)
    for shift in (0.0, np.pi):
        cached = locality._line_restriction(f, -1, 1.0, 8.0, 256, shift)
        direct = wq.mass_shell(f, -1, t + 1j * shift, mass=1.0)
        assert np.array_equal(cached.view(np.uint64), direct.view(np.uint64))
        with pytest.raises(ValueError):
            cached[0] = 0.0


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


def test_operator_commutator_wrong_wedges_generic_model(shg, wedge_pair, rng):
    # for a non-constant model, swapping the wedges leaves an O(1) residual
    f, g = wedge_pair
    grid = wq.RapidityGrid(6.0, 81)
    Phi = wq.random_fock(shg, grid, 1, rng)
    resid = wq.verify_operator_commutator(shg, g, f, Phi, check_support=False)
    assert resid > 1e-2


def test_strip_bound_heuristic(shg, wedge_pair, rng):
    # |integrand| along a shifted contour is bounded by the boundary sup
    # norms (maximum principle), and |S2| <= 1 inside the physical strip
    f, g = wedge_pair
    t = np.linspace(-4, 4, 33)
    sup_f = max(np.max(np.abs(wq.mass_shell(f, s, t.astype(complex))))
                for s in (+1, -1))
    sup_g = max(np.max(np.abs(wq.mass_shell(g, s, t.astype(complex))))
                for s in (+1, -1))
    shifted = wq.mass_shell(f, -1, t + 0.5j) * wq.mass_shell(g, +1, t + 0.5j)
    assert np.max(np.abs(shifted)) <= sup_f * sup_g * (1 + 1e-9)
    prod = np.abs(wq.evaluate(shg, (t + 0.5j)[:, None]
                              - rng.uniform(-2, 2, 3)[None, :]))
    assert np.max(np.prod(prod, axis=1)) <= 1.0 + 1e-12


def test_relative_floor_exists():
    assert RESIDUAL_FLOOR > 0
