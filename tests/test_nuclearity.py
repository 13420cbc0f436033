from functools import cache
import math
import tracemalloc
from unittest import mock

from hypothesis import example, given, settings, strategies as st
import mpmath
import numpy as np
import pytest
import scipy.optimize

import wedgeqft as wq
import wedgeqft.nuclearity as nuclearity
from wedgeqft import suites
from wedgeqft.config import load_config
from wedgeqft.errors import ConvergenceError, ModelError, StripError
from wedgeqft.nuclearity import (REFINE_TOL, KernelOperator, _bessel_k0,
                                 _brentq, _nystrom_matrix, _trace_lower_bound,
                                 log_sqrt_factorial_series,
                                 log_xi_bound_minus, modular_trace_norm,
                                 s_min_bracket)

from oracles import (log_sqrt_factorial_full_sum, modular_trace_norm_dense,
                     singular_values_dense)


def unrefined_trace_norm(S, s, kap):
    """||T_s||_1 on the default nodes, as fed to the bound series."""
    return modular_trace_norm(S, s, kap).value


# one operator of each kind with its mirror sign: J A J = sign * conj(A)
MIRROR_CASES = [
    (KernelOperator("general", (1.0, 0.6)), -1),
    (KernelOperator("general", (0.3, -math.pi / 8)), -1),
    # the modular operators at (s, kappa, mass) = (0.7, pi/8, 1), (2, pi/4, 2)
    (KernelOperator("general", (0.35, math.pi / 16)), -1),
    (KernelOperator("general", (2.0, math.pi / 8)), -1),
    (KernelOperator("bose_phi", (0.5, 1.0)), +1),
    (KernelOperator("bose_pi", (1.5, 1.0)), +1),
]


def test_analytic_bound_formula_spot_value():
    # recompute the closed form through an independently coded expression
    a, b = 1.0, math.pi / 2
    got = wq.analytic_trace_bound(a, b)
    pref = 2 ** 0.25 * math.pi ** 0.75
    damp = math.exp(-a) * a ** -0.25 * math.sqrt(math.sqrt(math.pi / 2) + 0.25 / a)
    tail = math.sqrt((b ** 4 + 4 * b ** 2 + 24) / b ** 5)
    assert abs(got - pref * damp * tail) < 1e-14
    assert abs(wq.analytic_trace_bound(a, -b) - got) == 0


def test_analytic_bound_limits():
    assert wq.analytic_trace_bound(60.0, 1.0) < 1e-20
    assert wq.analytic_trace_bound(1.0, 0.1) > wq.analytic_trace_bound(1.0, 1.0)
    with pytest.raises(ValueError):
        wq.analytic_trace_bound(0.0, 1.0)
    with pytest.raises(ValueError):
        wq.analytic_trace_bound(1.0, 0.0)


def test_trace_norm_below_bound_and_converged():
    for a in (0.5, 2.0):
        for b in (math.pi / 8, math.pi / 2):
            r = wq.trace_norm_estimate(KernelOperator("general", (a, b)),
                                       refine=True)
            assert r.converged and r.rel_change < 1e-3
            assert r.value <= wq.analytic_trace_bound(a, b)
    # a start too coarse for the doubling budget is flagged, not raised,
    # and the last level is returned
    r = wq.trace_norm_estimate(
        KernelOperator("general", (1.0, 0.6), scale=1e-3, nodes=4))
    assert not r.converged
    assert (r.nodes, r.scale) == (32, 0.008)
    assert 0.4 < r.rel_change < 0.5 and math.isfinite(r.value)


def test_refine_at_default_settings_reports_the_requested_level(resonance):
    # the coarser companion confirms the requested level, which is reported
    # unchanged
    K = KernelOperator("general", (1.0, 0.6))
    results = [(wq.trace_norm_estimate(K, refine=True),
                wq.trace_norm_estimate(K, refine=False))]
    for s, kap in ((0.5, math.pi / 8), (5.0, math.pi / 4)):
        results.append((modular_trace_norm(resonance, s, kap, refine=True),
                         modular_trace_norm(resonance, s, kap)))
    for r, unrefined in results:
        assert (r.nodes, r.scale) == (K.nodes, K.scale)
        assert r.value == unrefined.value
        assert r.converged and r.rel_change < REFINE_TOL


def test_refine_doubles_when_the_companion_disagrees():
    K = KernelOperator("general", (2.0, math.pi / 2), scale=0.25, nodes=20)
    companion = KernelOperator("general", (2.0, math.pi / 2),
                               scale=0.25 / math.sqrt(2), nodes=14)
    value = wq.trace_norm_estimate(K, refine=False).value
    coarse = wq.trace_norm_estimate(companion, refine=False).value
    assert abs(value - coarse) / value > REFINE_TOL
    r = wq.trace_norm_estimate(K)
    assert r.converged and (r.nodes, r.scale) == (40, 0.5)
    doubled = KernelOperator("general", (2.0, math.pi / 2), 0.5, 40)
    assert r.value == wq.trace_norm_estimate(doubled, refine=False).value
    assert r.rel_change == abs(r.value - value) / r.value < REFINE_TOL


def test_bessel_k0_matches_mpmath():
    # tolerance fixed at 5e-14 relative before the first run
    for a in np.geomspace(5e-4, 25.0, 60):
        ref = float(mpmath.besselk(0, a))
        assert abs(_bessel_k0(a) - ref) <= 5e-14 * ref


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=1e-3, max_value=25.0),
       st.floats(min_value=0.01, max_value=math.pi / 4), st.booleans())
def test_nystrom_trace_norm_inside_closed_form_bounds(a, b, negative):
    # |tr A| <= sum sigma_i(A) below, the analytic bound above
    b = -b if negative else b
    value = wq.trace_norm_estimate(KernelOperator("general", (a, b)),
                                   refine=False).value
    assert _trace_lower_bound(a, b) <= value <= wq.analytic_trace_bound(a, b)


def test_curve_suite_reports_doubled_levels(rng):
    # no default setting doubles; from 25 nodes the shg-b050 curve climbs
    # two rungs at its first two points and one at its last
    cfg = load_config("catalogue:shg-b050", overrides=["nuclearity.nodes=25"])
    rows = suites.nuclearity_curve(cfg, rng).rows
    assert [(r["trace_nodes"], r["trace_scale"], r["trace_converged"])
            for r in rows] == [(100, 4, True), (100, 4, True), (50, 2, True)]


@pytest.mark.parametrize("name", ["free", "ising", "shg-b050",
                                  "resonance-pi4"])
def test_curve_trace_norms_inside_closed_form_bounds(name):
    # every nuclearity-curve point of the catalogue model
    cfg = load_config(f"catalogue:{name}")
    S, nuc = cfg.model, cfg.nuclearity
    for s in np.linspace(nuc.s_min, nuc.s_max, nuc.steps):
        a, b = S.mass * s / 2, nuc.kappa / 2
        value = modular_trace_norm(S, s, nuc.kappa, nodes=nuc.nodes,
                                   refine=True).value
        assert (_trace_lower_bound(a, b) / math.pi <= value
                <= wq.analytic_trace_bound(a, b) / math.pi)


def test_trace_norm_strong_damping_vanishes():
    r = wq.trace_norm_estimate(KernelOperator("general", (50.0, 1.0)),
                               refine=False)
    assert r.value < 1e-15


def test_trace_norm_sign_symmetry():
    vp = wq.trace_norm_estimate(KernelOperator("general", (1.0, 0.6)),
                                refine=False).value
    vm = wq.trace_norm_estimate(KernelOperator("general", (1.0, -0.6)),
                                refine=False).value
    assert abs(vp - vm) < 1e-10


def test_modular_kernel_decreasing_and_mapped_bound(resonance):
    kap = math.pi / 8
    vals = [modular_trace_norm(resonance, s, kap).value for s in (0.5, 1.0, 2.0)]
    assert all(x > y for x, y in zip(vals, vals[1:]))
    for s, v in zip((0.5, 1.0, 2.0), vals):
        mapped = wq.analytic_trace_bound(resonance.mass * s / 2, kap / 2) / math.pi
        assert v <= mapped
    # the modular operator is the general kernel over -i pi: the reference
    # divides the matrix by -i pi before its complex SVD, the library sums
    # the row-trimmed real spectrum and divides by pi
    for nodes in (100, 400, 800):
        for s in (0.5, 1.0, 2.0):
            v = modular_trace_norm(resonance, s, kap, nodes=nodes).value
            ref = modular_trace_norm_dense(resonance, s, kap, nodes)
            assert abs(v - ref) <= 1e-13 * ref


def test_sigma_formula_second_path(ising):
    # independent re-derivation: evaluate the double-distance form at s/2
    s, kap = 1.0, math.pi / 4
    got = wq.sigma(ising, s, kap)
    m = ising.mass
    kmax = wq.kappa(ising)

    def doubled(s2x):   # constant as a function of twice the half-distance
        return (2 * math.sqrt(2) * math.exp(-2 * m * s2x * math.cos(kap))
                / math.sqrt(m * s2x * math.cos(kap) * (kmax - kap)))

    assert abs(got - doubled(s / 2)) < 1e-14


def test_sigma_limits_and_domain(ising, resonance):
    assert wq.sigma(ising, 80.0, math.pi / 4) < 1e-20
    assert wq.sigma(ising, 1e-8, math.pi / 4) > 1e3
    vals = [wq.sigma(resonance, s, math.pi / 8) for s in (0.5, 1, 2, 4)]
    assert all(x > y for x, y in zip(vals, vals[1:]))
    with pytest.raises(StripError):
        wq.sigma(resonance, 1.0, math.pi / 3)    # kappa >= kappa(S)
    with pytest.raises(StripError):
        wq.sigma(wq.build_model(-1, a=0.7), 1.0, 0.3)


def test_series_against_brute_force():
    # independent oracle: partial sums with exact factorials
    def brute(x):
        total, n = 0.0, 0
        while True:
            term = x ** n / math.sqrt(math.factorial(n))
            total += term
            if n > 5 and term < 1e-17 * total:
                return total
            n += 1
    for x in (0.0, 0.3, 1.0, 2.7):
        got = math.exp(log_sqrt_factorial_series(x))
        assert abs(got - brute(x)) < 1e-12 * brute(x)
    assert abs(math.exp(log_sqrt_factorial_series(1.0)) - 3.4695) < 1e-3


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.0, max_value=300.0, exclude_min=True))
def test_series_matches_full_sum(x):
    # tolerance fixed at 1e-14 relative before the first run
    ref = log_sqrt_factorial_full_sum(x)
    assert abs(log_sqrt_factorial_series(x) - ref) <= 1e-14 * max(abs(ref), 1.0)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.0, max_value=300.0, exclude_min=True))
def test_series_carries_level_across_chunks(x):
    # a small odd chunk makes both walks from the peak cross many chunk
    # boundaries, each carrying the running level into the next chunk
    ref = log_sqrt_factorial_full_sum(x)
    with mock.patch.object(nuclearity, "SERIES_CHUNK", 7):
        got = log_sqrt_factorial_series(x)
    assert abs(got - ref) <= 1e-14 * max(abs(ref), 1.0)


def test_series_against_mpmath():
    # 30-digit reference: every term within +-(15 x + 60) of the peak from
    # mpmath.loggamma, the omitted terms below e^-56 of the largest
    for x in (0.3, 2.7, 9.9, 31.0, 150.0, 300.0):
        with mpmath.workdps(30):
            log_x = mpmath.log(x)
            peak, half = int(x * x), int(15 * x) + 60
            logs = [n * log_x - mpmath.loggamma(n + 1) / 2
                    for n in range(max(peak - half, 0), peak + half + 1)]
            top = max(logs)
            want = top + mpmath.log(mpmath.fsum(mpmath.exp(v - top)
                                                for v in logs))
        got = log_sqrt_factorial_series(x)
        assert abs(got - want) <= 1e-14 * abs(want), x


def test_series_memory_does_not_grow_with_argument():
    # the full sum would hold ~1e10 floats at x = 1e5
    x = 1e5
    tracemalloc.start()
    try:
        lv = log_sqrt_factorial_series(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20
    n_peak = int(x * x)
    assert n_peak * math.log(x) - 0.5 * math.lgamma(n_peak + 1) <= lv <= x * x


class _Summing(Exception):
    pass


def test_series_budget_is_checked_before_summing():
    # x = 1e9 needs a window of about 3.4e10 terms, above MAX_SERIES_TERMS,
    # and raises before any chunk is summed; at the largest x the budget
    # allows, summing starts
    x_max = ((nuclearity.MAX_SERIES_TERMS - 100) / (24 * math.sqrt(2))
             * (1 - 1e-9))
    with mock.patch.object(nuclearity.np, "cumsum", side_effect=_Summing):
        with pytest.raises(ConvergenceError, match="budget"):
            log_sqrt_factorial_series(1e9)
        with pytest.raises(_Summing):
            log_sqrt_factorial_series(x_max)


def test_series_log_large_argument():
    x = 150.0
    lv = log_sqrt_factorial_series(x)
    # the peak term alone is a lower bound; x^2/2 an upper-scale reference
    n_peak = int(x * x)
    log_peak = n_peak * math.log(x) - 0.5 * math.lgamma(n_peak + 1)
    assert lv >= log_peak
    assert lv <= x * x


def test_xi_bound_distal_values(ising):
    # feed explicit trace norms so the geometric series is exercised exactly
    sig = wq.sigma(ising, 1.0, math.pi / 4)
    assert wq.xi_bound_distal(ising, 1.0, math.pi / 4,
                              trace_norm=0.5 / sig) == 2.0
    assert wq.xi_bound_distal(ising, 1.0, math.pi / 4,
                              trace_norm=1.0 / sig) == math.inf


def test_xi_bound_distal_large_distance(resonance):
    val = wq.xi_bound_distal(resonance, 30.0, math.pi / 8,
                             trace_norm=unrefined_trace_norm(
                                 resonance, 30.0, math.pi / 8))
    assert 1.0 <= val < 1.0001


def test_xi_bound_minus_requires_fermionic(free):
    with pytest.raises(ModelError):
        log_xi_bound_minus(free, 1.0, math.pi / 4, trace_norm=1.0)


def test_xi_bound_minus_finite_decreasing(ising, resonance):
    ivals = [log_xi_bound_minus(ising, s, math.pi / 4,
                                unrefined_trace_norm(ising, s, math.pi / 4))
             for s in (0.5, 1, 2, 5)]
    assert all(math.isfinite(v) for v in ivals)
    assert all(x > y for x, y in zip(ivals, ivals[1:]))
    rvals = [log_xi_bound_minus(resonance, s, math.pi / 8,
                                unrefined_trace_norm(resonance, s,
                                                     math.pi / 8))
             for s in (0.5, 1, 2, 5)]
    assert all(math.isfinite(v) for v in rvals)
    assert all(x > y for x, y in zip(rvals, rvals[1:]))


def test_find_s_min_resonance(resonance):
    smin = wq.find_s_min(resonance, math.pi / 8, nodes=200)
    assert 0.0 < smin < 10.0
    heavier = wq.build_model(-1, zeros=[1j * math.pi / 4], m=2.0)
    smin2 = wq.find_s_min(heavier, math.pi / 8, nodes=200)
    assert abs(smin / (2 * smin2) - 1.0) < 0.05


def test_find_s_min_objective_monotone(resonance):
    kap = math.pi / 8
    vals = [wq.sigma(resonance, s, kap)
            * modular_trace_norm(resonance, s, kap, nodes=200).value
            for s in (0.5, 1.5, 3.0, 6.0, 12.0)]
    assert all(x > y for x, y in zip(vals, vals[1:]))


def test_find_s_min_root_within_tol(resonance):
    # the model of catalogue:resonance-pi4 at its kappa/2; the 400-node
    # objective changes sign within tol of the returned root
    kap, tol = math.pi / 8, 1e-4
    smin = wq.find_s_min(resonance, kap, tol=tol)

    def objective(s):
        return (wq.sigma(resonance, s, kap)
                * modular_trace_norm(resonance, s, kap).value - 1.0)

    assert objective(smin - tol) > 0 > objective(smin + tol)


@pytest.mark.parametrize("name", ["shg-b050", "resonance-pi4"])
def test_find_s_min_root_inside_its_closed_form_bracket(name):
    cfg = load_config(f"catalogue:{name}")
    S, kap = cfg.model, cfg.nuclearity.kappa
    lo, hi = s_min_bracket(S, kap)

    def product(s):
        return wq.sigma(S, s, kap) * modular_trace_norm(S, s, kap).value

    assert product(lo) > 1 > product(hi)
    assert lo < wq.find_s_min(S, kap) < hi


def test_find_s_min_past_a_fully_underflowed_kernel(resonance):
    # at s = 1600 the damping underflows on every row, ||T_s||_1 = 0.0
    kap = math.pi / 8
    assert modular_trace_norm(resonance, 1600.0, kap).value == 0.0
    lo, _ = s_min_bracket(resonance, kap)
    smin = wq.find_s_min(resonance, kap, bracket=(lo, 1600.0))
    assert abs(smin - wq.find_s_min(resonance, kap)) < 2e-4


def test_find_s_min_bad_bracket(resonance):
    with pytest.raises(ConvergenceError):
        wq.find_s_min(resonance, math.pi / 8, bracket=(20.0, 40.0), nodes=200)


def test_free_bose_bound():
    r = wq.free_bose_bound(1.0, mass=1.0, nodes=200)
    assert r.max_singular_phi < 1.0 and r.max_singular_pi < 1.0
    assert math.isfinite(r.value) and r.value > 1.0
    r10 = wq.free_bose_bound(10.0, mass=1.0, nodes=200)
    assert abs(r10.value - 1.0) < 1e-3
    vals = [wq.free_bose_bound(s, mass=1.0, nodes=200).value
            for s in (0.5, 1.0, 2.0)]
    assert all(x > y for x, y in zip(vals, vals[1:]))
    # at short distance a singular value passes 1 and the surrogate is inf
    r0 = wq.free_bose_bound(1e-3, mass=1.0, nodes=100)
    assert r0.max_singular_phi > 1.0 and r0.value == math.inf


def test_ising_fermi_vs_determinant():
    for s in (0.5, 1.0):
        r = wq.free_bose_bound(s, mass=1.0, nodes=200)
        assert math.isfinite(r.exp_bound)
        assert r.exp_bound < r.value
    assert abs(wq.free_bose_bound(10.0, mass=1.0, nodes=200).exp_bound
               - 1.0) < 1e-3


def test_partition_bound_basics(ising, free):
    pb = wq.partition_bound(ising, 0.5, 1.0, math.pi / 4, nodes=200)
    assert pb.heuristic
    assert 0 < pb.mu < 0.25
    assert abs(pb.s_effective - math.sin(2 * math.pi * pb.mu)) < 1e-14
    improved = wq.partition_bound(ising, 0.5, 1.0, math.pi / 4, improved=True,
                                  nodes=200)
    assert pb.value == 2.0 * improved.value
    with pytest.raises(ModelError):
        wq.partition_bound(free, 0.5, 1.0, math.pi / 4)
    with pytest.raises(ValueError):
        wq.partition_bound(ising, -0.5, 1.0, math.pi / 4)


def test_partition_large_beta_approaches_modular(ising):
    pb = wq.partition_bound(ising, 1e8, 1.0, math.pi / 4, improved=True,
                            nodes=200)
    assert abs(pb.s_effective - 1.0) < 1e-8
    ref = log_xi_bound_minus(ising, 1.0, math.pi / 4,
                             trace_norm=modular_trace_norm(
                                 ising, 1.0, math.pi / 4, nodes=200).value)
    assert abs(pb.log_value - ref) < 1e-6


def test_kernel_kind_validation():
    with pytest.raises(ModelError):
        KernelOperator("general", (-1.0, 0.5)).kernel()
    with pytest.raises(ModelError):
        KernelOperator("general", (1.0, 0.0)).kernel()
    with pytest.raises(ModelError):
        KernelOperator("weird", (1.0,)).kernel()


@pytest.mark.parametrize("kind", ["general", "bose_phi", "bose_pi"])
@pytest.mark.parametrize("nodes", [25, 64, 65, 283])
def test_kernels_match_whole_array_expressions_bit_for_bit(kind, nodes):
    # the kernels write one complex array (the Bose direct term one row
    # slab at a time); the whole-array expressions they replace, with their
    # real and complex temporaries, give the same bytes.  On |x| <= 3 no
    # row underflows to zero, so a row the slabs missed would show
    y = np.linspace(-3.0, 3.0, nodes)
    x, y = y[:, None], y[None, :]
    a = 0.7

    def cauchy(b, yy):
        with np.errstate(over="ignore", under="ignore"):
            d = x - yy + 1j * b
            return np.divide(np.exp(-a * np.cosh(x)), d, out=d)
    if kind == "general":
        ref = cauchy(-math.pi / 8, y)
        got = KernelOperator(kind, (a, -math.pi / 8)).kernel()(x, y)
    else:
        sign = -1 if kind == "bose_phi" else +1
        ref = ((sign * cauchy(math.pi / 2, -y) + cauchy(-math.pi / 2, y))
               / (2j * math.pi))
        got = KernelOperator(kind, (a, 1.0)).kernel()(x, y)
    assert got.tobytes() == ref.tobytes()


def test_singular_values_descending():
    sv = wq.singular_values(KernelOperator("bose_phi", (1.0, 1.0), nodes=100))
    assert np.all(np.diff(sv) <= 0)
    assert np.all(sv >= 0)


@pytest.mark.parametrize("K, sign", MIRROR_CASES)
def test_nystrom_matrix_is_centrohermitian(K, sign):
    A = _nystrom_matrix(K)
    assert np.array_equal(A[::-1, ::-1], sign * np.conj(A))


@pytest.mark.parametrize("nodes", [100, 400, 800])
@pytest.mark.parametrize("K", [K for K, _ in MIRROR_CASES])
def test_singular_values_match_dense_complex_svd(K, nodes):
    K = KernelOperator(K.kind, K.params, K.scale, nodes)
    ref = singular_values_dense(K)
    sv = wq.singular_values(K)
    rows = len(sv)
    assert rows < nodes
    tol = 1e-14 * ref[0]
    assert np.max(np.abs(sv - ref[:rows])) <= tol
    assert np.all(ref[rows:] <= tol)


def _svd_input(K):
    """The spectrum of K and the matrix that singular_values hands to the SVD."""
    seen = []
    svd = np.linalg.svd

    def spy(M, **kwargs):
        seen.append(M.copy())
        return svd(M, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "svd", spy)
        sv = wq.singular_values(K)
    assert len(seen) == 1
    return sv, seen[0]


def _real_form(K):
    A = _nystrom_matrix(K)
    return A.real - A.imag[:, ::-1]


def _has_subnormal(M):
    return bool(np.any((M != 0) & (np.abs(M) < np.finfo(float).tiny)))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(("general", "bose_phi", "bose_pi")),
       st.floats(0.01, 30.0), st.floats(0.02, math.pi / 2), st.booleans(),
       st.sampled_from((1 / math.sqrt(2), 1.0, 2.0)), st.integers(2, 283))
# M holds two subnormal rows here (765 entries), which the zero-row rule kept
@example("general", 1.4, math.pi / 8, False, 1.0, 400)
def test_svd_sees_no_row_below_the_unit_roundoff_cut(kind, a, b, negative,
                                                    scale, nodes):
    params = (a, -b if negative else b) if kind == "general" else (a, 1.0)
    K = KernelOperator(kind, params, scale, nodes)
    sv, kept = _svd_input(K)
    assert not _has_subnormal(kept)
    M = _real_form(K)
    # the kept rows are rows of M in their order; the others were dropped
    dropped, j = [], 0
    for i, row in enumerate(M):
        if j < len(kept) and np.array_equal(row, kept[j]):
            j += 1
        else:
            dropped.append(i)
    assert j == len(kept)
    norms = np.linalg.norm(M, axis=1)
    cut = 2.0 ** -53 * float(np.max(norms))
    slack = 1e-12 * cut     # the norms' and sums' own roundoff
    dropped_sum = math.fsum(norms[dropped])
    assert dropped_sum <= cut + slack
    if len(kept):   # the cut is maximal: one more row would cross it
        smallest_kept = float(np.min(np.linalg.norm(kept, axis=1)))
        assert dropped_sum + smallest_kept > cut - slack
    # the cut moves the trace norm by under 2^-53 sigma_1, but LAPACK's own
    # roundoff is larger: on 1300 random cases of this domain, the same rows
    # in another order moved the sum by up to 2.3e-15 relative and the cut
    # by up to 4.9e-15, so the check is at the dense test's 1e-14
    ref = float(np.sum(np.linalg.svd(M[np.any(M != 0, axis=1)],
                                     compute_uv=False)))
    assert abs(float(np.sum(sv)) - ref) <= 1e-14 * ref


def test_fully_underflowing_kernel_has_empty_spectrum():
    K = KernelOperator("general", (1e4, 1.0))
    assert wq.singular_values(K).shape == (0,)
    r = wq.trace_norm_estimate(K, refine=True)
    assert r.value == 0.0 and r.converged


def _recorded(f):
    """f, recording each point it is evaluated at."""
    def wrapped(x):
        wrapped.points.append(x)
        return f(x)
    wrapped.points = []
    return wrapped


@settings(max_examples=200, deadline=None)
@given(st.floats(-50.0, 50.0), st.floats(1e-3, 100.0),
       st.floats(0.0, 1.0), st.floats(0.01, 5.0),
       st.sampled_from(["linear", "cubic", "exp", "atan"]),
       st.sampled_from([1e-12, 1e-8, 1e-4, 1e-1]))
def test_brentq_port_matches_scipy_bit_for_bit(lo, width, where, k, shape,
                                               xtol):
    # the same root and the same sequence of evaluation points, on monotone
    # functions of several curvatures whose root sits anywhere in [lo, hi]
    hi = lo + width
    root = lo + where * width
    f = {"linear": lambda x: k * (x - root),
         "cubic": lambda x: (x - root) * (1 + k * (x - root) ** 2),
         "exp": lambda x: math.expm1(k * (x - root)),
         "atan": lambda x: math.atan(k * (x - root))}[shape]
    ours, theirs = _recorded(f), _recorded(f)
    got = _brentq(ours, lo, hi, xtol=xtol)
    want = scipy.optimize.brentq(theirs, lo, hi, xtol=xtol)
    assert got.hex() == want.hex()
    assert ours.points == theirs.points


def test_brentq_port_sign_error_and_root_at_an_end():
    with pytest.raises(ConvergenceError, match=r"bracket \(0.0, 1.0\)"):
        _brentq(lambda x: x + 1.0, 0.0, 1.0, xtol=1e-12)
    assert _brentq(lambda x: x, 0.0, 1.0, xtol=1e-12) == 0.0


def test_brentq_iteration_budget_raises(monkeypatch):
    # a cubic whose root needs several steps, allowed one
    monkeypatch.setattr(nuclearity, "BRENT_MAXITER", 1)
    with pytest.raises(ConvergenceError, match="more than 1 steps"):
        _brentq(lambda x: x ** 3 - 0.3, 0.0, 1.0, xtol=1e-12)


@pytest.mark.parametrize("name", ["free", "ising", "shg-b050",
                                  "resonance-pi4"])
def test_s_min_searches_match_scipy_brentq(name, monkeypatch):
    # every root search of s_min_bracket and find_s_min, replayed through
    # scipy's brentq on the same objective; the spy caches the objective,
    # so the replay, which visits the same points, costs no SVD
    cfg = load_config(f"catalogue:{name}")
    S, kap = cfg.model, cfg.nuclearity.kappa
    port, calls = _brentq, []

    def spy(f, a, b, xtol):
        f = cache(f)
        root = port(f, a, b, xtol)
        calls.append(root)
        assert root.hex() == scipy.optimize.brentq(f, a, b, xtol=xtol).hex()
        return root

    monkeypatch.setattr(nuclearity, "_brentq", spy)
    wq.find_s_min(S, kap)
    assert len(calls) == 3
