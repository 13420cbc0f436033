import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

import wedgeqft as wq
from wedgeqft import fields
from wedgeqft.config import load_config
from wedgeqft.errors import ConvergenceError, GridError, QuadratureOverflowError
from wedgeqft.fields import (ORDER_CAP, _auto_order, _bump_profile,
                             _bump_transform, field_norm_scale,
                             sample_mass_shell)
from wedgeqft.fock import FockVector, annihilate
from wedgeqft.quadrature import gauss_legendre

BUMP_INTEGRAL = 0.44399381616807943782   # \int_{-1}^{1} g, from mpmath
BUMP_TARGET = 1e-13                      # stated accuracy, in units of \int g


def _phi(S, f, Phi):
    return wq.field_phi(S, sample_mass_shell(f, Phi.grid, S.mass), Phi)


def _phi_prime(S, f, Phi):
    return wq.field_phi_prime(S, sample_mass_shell(f, Phi.grid, S.mass), Phi)


@pytest.fixture(scope="module")
def gaussian():
    return wq.Gaussian2D.isotropic((0.2, -0.3), 1.1, q=(0.4, 0.7))


@pytest.fixture(scope="module")
def bump():
    return wq.Bump2D((-0.3, 0.4, 0.9, 1.9))


def test_gaussian_fourier_against_quadrature(gaussian):
    # brute-force the double Fourier integral at a few momenta
    for (p0, p1) in [(0.5, -0.3), (1.2, 0.8)]:
        def integrand(x0, x1, part):
            v = gaussian(x0, x1) * np.exp(1j * (p0 * x0 - p1 * x1))
            return v.real if part == "re" else v.imag

        re = quad(lambda x0: quad(lambda x1: integrand(x0, x1, "re"),
                                  -12, 12, limit=200)[0], -12, 12, limit=200)[0]
        im = quad(lambda x0: quad(lambda x1: integrand(x0, x1, "im"),
                                  -12, 12, limit=200)[0], -12, 12, limit=200)[0]
        want = (re + 1j * im) / (2 * math.pi)
        assert abs(gaussian.fourier(p0, p1) - want) < 1e-9


def test_bump_support_and_wedges(bump):
    assert bump(0.0, 1.4) != 0
    assert bump(0.0, 2.1) == 0
    assert wq.in_wedge(bump.box, "R")
    assert not wq.in_wedge(bump.box, "L")
    assert wq.in_wedge(bump.star().box, "L")


def test_conjugate_pair_identity(gaussian, bump):
    # (conj f)^+ = conj(f^-) at real rapidity
    t = np.linspace(-3, 3, 11).astype(complex)
    for f in (gaussian, bump):
        lhs = wq.mass_shell(f.conj(), t, mass=1.0)[0]
        rhs = np.conj(wq.mass_shell(f, t, mass=1.0)[1])
        assert_allclose(lhs, rhs, atol=1e-14)


def test_half_period_contour_identity(bump):
    # entire transform: f^+(t - i pi) = f^-(t) for compact support
    t = np.linspace(-2, 2, 9)
    lhs = wq.mass_shell(bump, t - 1j * math.pi, mass=1.0)[0]
    rhs = wq.mass_shell(bump, t.astype(complex), mass=1.0)[1]
    assert_allclose(lhs, rhs, atol=1e-14)


def test_half_period_identity_on_catalogue_line():
    # the Im t = pi line carries Im p ~ 1e-16 |p| from sin(pi), so it runs
    # the complex fold; both factors of each value stay within the target
    cfg = load_config("catalogue:shg-b050")
    u, _ = gauss_legendre(cfg.locality.order)
    t = cfg.locality.window * u
    for name in ("f", "g"):
        f = cfg.testfunction(name)
        h0, h1 = f.half_width
        scale = h0 * h1 * BUMP_INTEGRAL ** 2 / (2 * math.pi)
        lhs = wq.mass_shell(f, t - 1j * math.pi, mass=cfg.model.mass)[0]
        rhs = wq.mass_shell(f, t.astype(complex), mass=cfg.model.mass)[1]
        assert np.max(np.abs(lhs - rhs)) <= 2 * BUMP_TARGET * scale


@pytest.fixture(scope="module")
def cosine_transforms():
    """k -> the integral of g(u) cos(k u) over [-1, 1], to 20 digits."""
    ks = (0, 0.5, 1, 3, 10, 30, 100, 300, 1000)

    def integral(k):
        # g(u) cos(k u) is even; split [0, 1] into pieces of ~10 radians
        pieces = mpmath.linspace(0, 1, int(k / 10) + 2)
        return 2 * float(mpmath.quad(
            lambda u: mpmath.exp(-1 / (1 - u * u)) * mpmath.cos(k * u), pieces))

    with mpmath.workdps(20):
        return {k: integral(k) for k in ks}


def test_bump_transform_against_mpmath(cosine_transforms):
    # single-point and batched values both meet the target; the order-64
    # rule misses it by 20x at k <= 1
    ks = np.array(list(cosine_transforms))
    want = np.array(list(cosine_transforms.values()))
    assert abs(want[0] - BUMP_INTEGRAL) < 1e-18
    alone = np.array([_bump_transform(k, 0.0, 1.0) for k in ks])
    for got in (alone, _bump_transform(ks, 0.0, 1.0)):
        assert np.max(np.abs(got - want)) <= BUMP_TARGET * BUMP_INTEGRAL


def test_mass_shell_value_independent_of_batch():
    # a value computed alone and inside the 2048-node locality line agree;
    # BLAS blocking may still move the last bits
    cfg = load_config("catalogue:shg-b050")
    f = cfg.testfunction(cfg.locality.f)
    u, _ = gauss_legendre(cfg.locality.order)
    m = cfg.model.mass
    batch = wq.mass_shell(f, np.append(cfg.locality.window * u, 0.3), m)[0]
    alone = wq.mass_shell(f, [0.3], m)[0]
    assert abs(alone[0] - batch[-1]) <= 1e-14 * np.max(np.abs(batch))


@settings(max_examples=60, deadline=None)
@given(st.floats(-2000.0, 2000.0),
       st.sampled_from(("real", "rounding", "complex")),
       st.floats(-1.0, 1.0), st.floats(0.1, 1.0))
def test_folded_transform_matches_unfolded_sum(re, imag, center, half_width):
    # the fold and the real path against the plain complex sum over the
    # whole rule at the next ladder order
    im = {"real": 0.0, "rounding": 1e-16 * abs(re), "complex": 0.25}[imag]
    p = complex(re, im)
    u, w = gauss_legendre(2 * int(_auto_order(abs(p) * half_width)))
    want = half_width * np.sum(_bump_profile(u) * w
                               * np.exp(1j * p * (center + half_width * u)))
    envelope = math.exp(im * (abs(center) + half_width))
    got = _bump_transform(p, center, half_width)
    assert abs(got - want) <= (BUMP_TARGET * half_width * BUMP_INTEGRAL
                               * envelope)


def test_mass_shell_of_empty_batch(bump):
    assert [v.shape for v in wq.mass_shell(bump, [], mass=1.0)] == [(0,)] * 2


@pytest.mark.parametrize("count", [255, 2048])
@pytest.mark.parametrize("shift", [0.0, math.pi])
def test_pair_transforms_each_distinct_key_once(monkeypatch, count, shift):
    # mirrored nodes and the sign of f^- repeat each axis's |p| four times
    # on the real line; on Im t = pi the repeats are conjugate momenta
    cfg = load_config("catalogue:shg-b050")
    f = cfg.testfunction(cfg.locality.f)
    u, _ = gauss_legendre(count)
    keys = []

    def spy(phase):
        keys.append(np.size(phase))
        return _auto_order(phase)

    monkeypatch.setattr(fields, "_auto_order", spy)
    wq.mass_shell(f, cfg.locality.window * u + 1j * shift, cfg.model.mass)
    assert len(keys) == 2                       # one call per axis
    assert max(keys) <= (count + 1) // 2


@settings(max_examples=40, deadline=None)
@given(st.floats(-2.0, 2.0), st.floats(0.05, 2.0), st.floats(-2.0, 2.0),
       st.floats(0.05, 2.0), st.floats(-3.0, 3.0).filter(bool),
       st.floats(0.3, 2.0),
       st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=40))
def test_real_amplitude_minus_is_conjugate_plus(a0, w0, a1, w1, amplitude,
                                                mass, thetas):
    # at real rapidity -p(t) is p(t) with both signs flipped, so for a real
    # amplitude f^- = conj f^+ bit for bit
    f = wq.Bump2D((a0, a0 + w0, a1, a1 + w1), amplitude=amplitude)
    plus, minus = wq.mass_shell(f, np.array(thetas), mass)
    assert np.array_equal(minus, np.conj(plus))


def test_equal_keys_share_values_bit_for_bit():
    # at center 0 a value is 2h G(p h): in one batch -p repeats the value
    # of p and conj p conjugates it exactly, whatever else is requested
    rng = np.random.default_rng(3)
    x = rng.uniform(-400.0, 400.0, 50)
    z = x + 1j * rng.uniform(-2.0, 2.0, 50)
    for base, partners, want in (
            (x, (-x,), (lambda v: v,)),
            (z, (-z, z.conj(), -z.conj()),
             (lambda v: v, np.conj, np.conj))):
        batch = np.concatenate((base, *partners, rng.uniform(-50, 50, 7)))
        perm = rng.permutation(batch.size)
        got = np.empty(batch.size, dtype=complex)
        got[perm] = _bump_transform(batch[perm], 0.0, 0.7)
        n = base.size
        for k, relation in enumerate(want, start=1):
            assert np.array_equal(got[k * n:(k + 1) * n], relation(got[:n]))


def test_klein_gordon_symbol():
    # the on-shell symbol -p(z)^2 + m^2 vanishes identically, so the wave
    # operator annihilates every mass-shell restriction
    rng = np.random.default_rng(0)
    z = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    for m in (1.0, 2.5):
        p0 = m * np.cosh(z)
        p1 = m * np.sinh(z)
        assert np.max(np.abs(-(p0 ** 2 - p1 ** 2) + m ** 2)) < 1e-10


def test_star_is_reflected_conjugate(gaussian, bump):
    pts = [(-0.7, 0.4), (0.3, -1.2)]
    for f in (gaussian, bump):
        g = f.star()
        for (x0, x1) in pts:
            assert abs(g(x0, x1) - np.conj(f(-x0, -x1))) < 1e-14


def test_time_reflected(gaussian, bump):
    for f in (gaussian, bump):
        g = f.time_reflected()
        for (x0, x1) in [(0.2, 1.1), (-0.5, -0.8)]:
            assert abs(g(x0, x1) - np.conj(f(-x0, x1))) < 1e-14


def test_gaussian_poincare_transform(gaussian):
    lam, x = 0.6, (0.5, -0.7)
    moved = gaussian.transformed(x, lam)
    ch, sh = math.cosh(-lam), math.sinh(-lam)
    for (y0, y1) in [(0.3, 0.9), (-1.0, 0.2)]:
        d0, d1 = y0 - x[0], y1 - x[1]
        back = (ch * d0 + sh * d1, sh * d0 + ch * d1)
        assert abs(moved(y0, y1) - gaussian(*back)) < 1e-13


def test_translation_pulls_out_phase(bump, shg):
    # (f_x)^+ = e^{i p.x} f^+ at real rapidity
    x = (0.4, -0.9)
    t = np.linspace(-2.5, 2.5, 11)
    moved = bump.transformed(x)
    phase = np.exp(1j * (np.cosh(t) * x[0] - np.sinh(t) * x[1]))
    assert_allclose(wq.mass_shell(moved, t.astype(complex), mass=1.0)[0],
                    phase * wq.mass_shell(bump, t.astype(complex), 1.0)[0],
                    atol=1e-14)


def test_quadrature_overflow_guard(bump):
    with pytest.raises(QuadratureOverflowError):
        wq.mass_shell(bump, 8.0 + 1.4j, mass=1.0)


def test_field_phi_on_vacuum(shg, gaussian, grid41):
    om = FockVector.vacuum(grid41)
    out = _phi(shg, gaussian, om)
    fp, _ = sample_mass_shell(gaussian, grid41, shg.mass)
    assert_allclose(out.component(1), fp.values, atol=0)
    assert abs(out.component(0)) == 0


def test_field_bound(shg, gaussian, grid21, rng):
    Phi = wq.random_fock(shg, grid21, 2, rng)
    out = _phi(shg, gaussian, Phi)
    scale = field_norm_scale(sample_mass_shell(gaussian, grid21, shg.mass))
    assert out.norm() <= scale * Phi.number_half_power(1.0).norm() + 1e-12


def test_field_adjoint(shg, gaussian, grid21, rng):
    Phi = wq.random_fock(shg, grid21, 2, rng)
    Psi = wq.random_fock(shg, grid21, 3, rng)
    lhs = _phi(shg, gaussian, Phi).inner(Psi)
    rhs = Phi.inner(_phi(shg, gaussian.conj(), Psi))
    assert abs(lhs - rhs) < 1e-12


def test_field_covariance(shg, gaussian, grid41, rng):
    Phi = wq.random_fock(shg, grid41, 2, rng, margin=3)
    lam = 2 * grid41.spacing
    x = (0.5, -0.7)
    g = wq.PoincareElement(x, lam)
    lhs = wq.poincare_apply(
        shg, g, _phi(shg, gaussian,
                     wq.poincare_apply(shg, g.inverse(), Phi)))
    rhs = _phi(shg, gaussian.transformed(x, lam), Phi)
    assert lhs.sub(rhs).norm() / Phi.norm() < 1e-10


def test_prime_field_on_vacuum_and_coincidence(catalogue, gaussian, grid21, rng):
    free = catalogue["free"]
    shg = catalogue["shg"]
    om = FockVector.vacuum(grid21)
    fp, _ = sample_mass_shell(gaussian, grid21, shg.mass)
    assert_allclose(_phi_prime(shg, gaussian, om).component(1),
                    fp.values, atol=1e-14)
    Phi = wq.random_fock(free, grid21, 2, rng)
    d = _phi_prime(free, gaussian, Phi).sub(_phi(free, gaussian, Phi)).norm()
    assert d / Phi.norm() < 1e-12
    Phi = wq.random_fock(shg, grid21, 2, rng)
    d = _phi_prime(shg, gaussian, Phi).sub(_phi(shg, gaussian, Phi)).norm()
    assert d / Phi.norm() > 1e-3      # genuinely different fields


def test_two_point_function_model_independent(catalogue, gaussian, grid41):
    g2 = wq.Gaussian2D.isotropic((-0.4, 0.6), 0.9, q=(-0.2, 0.3))
    vals = []
    for S in catalogue.values():
        om = FockVector.vacuum(grid41)
        vals.append(om.inner(_phi(S, gaussian, _phi(S, g2, om))))
    assert max(abs(v - vals[0]) for v in vals) < 1e-10


def test_gamma_covariance(shg, gaussian, grid21, rng):
    Phi = wq.random_fock(shg, grid21, 2, rng)
    lhs = wq.reflect_gamma(_phi(shg, gaussian, wq.reflect_gamma(Phi)))
    rhs = _phi(shg, gaussian.time_reflected(), Phi)
    assert lhs.sub(rhs).norm() / Phi.norm() < 1e-12


def test_timezero_hermiticity_and_norms(shg, grid21, rng):
    f1 = wq.Gaussian1D(0.3, 0.8)
    Phi = wq.random_fock(shg, grid21, 2, rng)
    Psi = wq.random_fock(shg, grid21, 3, rng)
    for which in ("varphi", "pi"):
        lhs = wq.timezero_field(shg, f1, which, Phi).inner(Psi)
        rhs = Phi.inner(wq.timezero_field(shg, f1, which, Psi))
        assert abs(lhs - rhs) < 1e-12
    # pi(f) Omega has no scalar component
    om = FockVector.vacuum(grid21)
    assert abs(wq.timezero_field(shg, f1, "pi", om).component(0)) == 0


@pytest.mark.parametrize("f1", [wq.Gaussian1D(0.3, 0.8),
                                wq.Bump1D(-0.2, 0.9),
                                wq.Bump1D(-0.2, 0.9, amplitude=2 - 1j)])
def test_energy_weighted_norm_identity(f1):
    # int m cosh(t) |fhat(t)|^2 dt = ||f||_2^2 via the change of variables
    t = np.linspace(-9, 9, 6001)
    fh = f1.fourier(np.sinh(t).astype(complex))
    lhs = np.trapezoid(np.cosh(t) * np.abs(fh) ** 2, t)
    assert abs(lhs - f1.norm_l2_sq()) < 1e-8


def test_timezero_minus_sampling(shg, grid21):
    # varphi(f) creates fhat from the vacuum; on a two-particle vector
    # holding the identity its annihilator leaves sqrt(2) w fhat_-, and
    # fhat_-(t) = fhat(-t) is fhat reversed on the symmetric grid
    f1 = wq.Gaussian1D(0.4, 0.7, q=0.3)
    N, w = grid21.count, grid21.weights
    fhat = wq.timezero_field(shg, f1, "varphi",
                             FockVector.vacuum(grid21)).component(1)
    two = FockVector(grid21, [0.0, np.zeros(N), np.eye(N)])
    fhat_m = wq.timezero_field(shg, f1, "varphi", two).component(1)
    assert_allclose(fhat_m / (math.sqrt(2) * w), fhat[::-1], rtol=1e-14)
    assert np.max(np.abs(fhat - fhat[::-1])) > 1e-2   # fhat is not even


def test_nonlocality_witness(catalogue, grid41):
    f = wq.Bump2D((-0.3, 0.4, 0.9, 1.9))
    g = wq.Bump2D((-0.2, 0.35, -2.0, -1.0))
    shg = catalogue["shg"]
    op, closed, _ = wq.nonlocality_witness(shg, f, g, grid41)
    assert np.max(np.abs(op - closed)) < 1e-10 * max(np.max(np.abs(closed)), 1)
    assert np.max(np.abs(closed)) > 0
    op_free, closed_free, _ = wq.nonlocality_witness(catalogue["free"], f, g, grid41)
    assert np.max(np.abs(op_free)) < 1e-14
    assert np.max(np.abs(closed_free)) == 0
    op_same, *_ = wq.nonlocality_witness(shg, f, f, grid41)
    assert np.max(np.abs(op_same)) < 1e-14
    # Ising with spacelike-separated supports: nonzero witness
    op_ising, *_ = wq.nonlocality_witness(catalogue["ising"], f, g, grid41)
    assert np.max(np.abs(op_ising)) > 0


def test_witness_sees_a_creator_leaving_the_symmetric_subspace(
        monkeypatch, catalogue, grid41):
    # a creator whose level 2 gains a part outside the twisted-symmetric
    # subspace, linear in psi (through a fixed random functional v) so it
    # does not cancel in the commutator: the witness compares the field
    # kernel's own tensor, so it must see the defect
    shg = catalogue["shg"]
    f = wq.Bump2D((-0.3, 0.4, 0.9, 1.9))
    g = wq.Bump2D((-0.2, 0.35, -2.0, -1.0))
    rng = np.random.default_rng(7)
    N = grid41.count
    r = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    off = 1e-6 * (r - wq.symmetrize(shg, r, grid41))
    v = rng.standard_normal(N)
    create = fields.create

    def leaky(S, psi, Phi):
        out = create(S, psi, Phi)
        if out.n_max < 2:
            return out
        comps = list(out.components)
        comps[2] = comps[2] + off * np.dot(v, psi.values)
        return FockVector(out.grid, comps)

    op, closed, _ = wq.nonlocality_witness(shg, f, g, grid41)
    assert np.max(np.abs(op - closed)) < 1e-10
    monkeypatch.setattr(fields, "create", leaky)
    op, closed, _ = wq.nonlocality_witness(shg, f, g, grid41)
    assert np.max(np.abs(op - closed)) > 1e-8


@settings(max_examples=40, deadline=None)
@given(st.floats(-2.0, 2.0), st.floats(0.05, 2.0), st.floats(-2.0, 2.0),
       st.floats(0.05, 2.0),
       st.complex_numbers(min_magnitude=0.1, max_magnitude=3.0),
       st.floats(0.3, 2.0), st.integers(1, 40))
def test_star_pair_is_the_conjugate_pair(a0, w0, a1, w1, amplitude, mass,
                                         half_count):
    # f*(x) = conj f(-x) makes (f*)^{+-} = conj f^{+-} at real rapidity,
    # bit for bit and down to the sign of zero: phi' conjugates f's own
    # pair instead of sampling f*, and no output moves
    f = wq.Bump2D((a0, a0 + w0, a1, a1 + w1), amplitude=amplitude)
    grid = wq.RapidityGrid(6.0, 2 * half_count + 1)
    for star, psi in zip(sample_mass_shell(f.star(), grid, mass),
                         sample_mass_shell(f, grid, mass)):
        want = np.conj(psi.values)
        assert np.array_equal(star.values, want)
        assert np.array_equal(np.signbit(star.values.imag),
                              np.signbit(want.imag))
        assert np.array_equal(np.signbit(star.values.real),
                              np.signbit(want.real))


def test_pair_from_another_grid_raises(shg, gaussian, grid21, grid41, rng):
    # a pair is sampled on one grid: applying it on another is an error
    plus, minus = sample_mass_shell(gaussian, grid21, shg.mass)
    Phi = wq.random_fock(shg, grid41, 1, rng)
    with pytest.raises(GridError):
        wq.field_phi(shg, (plus, minus), Phi)
    with pytest.raises(GridError):
        wq.field_phi_prime(shg, (plus, minus), Phi)
    with pytest.raises(GridError):
        annihilate(shg, minus, Phi)


def test_unknown_choices_raise(shg, bump, grid21):
    with pytest.raises(ValueError, match="unknown wedge"):
        wq.in_wedge(bump.box, "X")
    with pytest.raises(ValueError, match="unknown time-zero field"):
        wq.timezero_field(shg, wq.Gaussian1D(0.3, 0.8), "rho",
                          FockVector.vacuum(grid21))


def test_bump_order_cap_raises_instead_of_aliasing():
    # order need = int(1.3 * |p| * half_width) + 48: 16383 at |p| = 12566,
    # 16385 at 12567 (checked on the order alone: a 16384-node rule takes
    # seconds to build)
    assert _auto_order(12566.0) == ORDER_CAP
    with pytest.raises(ConvergenceError):
        _auto_order(12567.0)
    # a rule clamped at the cap aliases to |ft| ~ 2e-3 here, where the true
    # transform is below 1e-100
    with pytest.raises(ConvergenceError):
        wq.Bump1D(0.0, 1.0).fourier(40000.0)
