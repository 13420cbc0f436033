import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import wedgeqft as wq
import wedgeqft.sfunction as sfunction
from wedgeqft.cli import main
from wedgeqft.config import load_config
from wedgeqft.errors import (ConvergenceError, ModelError, PoleProximityError,
                             StripError)
from wedgeqft.sfunction import ScatteringFunction

from oracles import strip_sup_scipy

HALF_PI = math.pi / 2


def test_build_free_and_ising(free, ising):
    assert wq.evaluate(free, 0.7) == 1.0
    assert wq.evaluate(ising, -1.3) == -1.0


def test_build_sinh_gordon_matches_closed_form(shg):
    # S2(t) = (sinh t - i sin(pi B)) / (sinh t + i sin(pi B)) at B = 1/2
    for t in (-2.0, -0.5, 0.3, 1.7):
        ref = (math.sinh(t) - 1j) / (math.sinh(t) + 1j)
        assert abs(wq.evaluate(shg, t) - ref) < 1e-14


def test_resonance_plus_matches_paper_form(resonance_plus):
    for t in (-1.0, 0.2, 2.5):
        ref = (1j - math.sqrt(2) * math.sinh(t)) / (1j + math.sqrt(2) * math.sinh(t))
        assert abs(wq.evaluate(resonance_plus, t) - ref) < 1e-14


def test_build_rejects_bad_zeros():
    with pytest.raises(ModelError):
        wq.build_model(+1, zeros=[0.5 - 0.1j])        # Im <= 0
    with pytest.raises(ModelError):
        wq.build_model(+1, zeros=[0.5 + 2.0j])        # Im > pi/2
    with pytest.raises(ModelError):
        wq.build_model(+1, a=-0.5)
    with pytest.raises(ModelError):
        wq.build_model(+1, zeros=[0.4 + 0.3j], auto_mirror=False)


def test_auto_mirror_adds_partner():
    S = wq.build_model(+1, zeros=[0.4 + 0.3j])
    assert set(S.zeros) == {0.4 + 0.3j, -0.4 + 0.3j}
    rep = wq.verify_relations(S, np.linspace(-5, 5, 101))
    assert max(rep.values()) <= 1e-12, rep


def test_epsilon_is_value_at_origin(catalogue):
    for S in catalogue.values():
        v = wq.evaluate(S, 0.0)
        assert abs(v - S.epsilon) < 1e-14


def test_evaluate_trivial_limits(shg):
    # sinh dominates numerator and denominator at large |t|
    assert abs(wq.evaluate(shg, 30.0) - 1.0) < 1e-10
    assert abs(wq.evaluate(shg, -30.0) - 1.0) < 1e-10


def test_evaluate_pole_proximity(resonance):
    with pytest.raises(PoleProximityError):
        wq.evaluate(resonance, -1j * math.pi / 4)


def test_relations_pass_for_catalogue(catalogue):
    thetas = np.linspace(-5, 5, 101)
    for S in catalogue.values():
        rep = wq.verify_relations(S, thetas)
        assert max(rep.values()) <= 1e-12, rep


@pytest.mark.parametrize("a", [0.3, 1.0])
def test_relations_hold_with_exponential_rate(a):
    S = wq.build_model(+1, a=a, zeros=[0.4 + 0.3j, 1.1j])
    rep = wq.verify_relations(S, np.linspace(-8, 8, 201))
    assert max(rep.values()) <= 1e-12, rep


def test_exponential_rate_factor():
    t = np.linspace(-3, 3, 61)
    assert_allclose(wq.evaluate(wq.build_model(+1, a=1.0), t),
                    np.exp(1j * np.sinh(t)), rtol=1e-15, atol=0)


def test_relations_fail_for_unpaired_zero():
    # the product form keeps S(t + i pi) = 1/S(t) identically, so the
    # corruption surfaces through the unitarity/modulus links of the chain
    broken = ScatteringFunction(epsilon=+1, zeros=(0.4 + 0.3j,))
    rep = wq.verify_relations(broken, np.linspace(-4, 4, 81))
    assert rep["unitarity"] > 1e-12
    assert rep["modulus"] > 1e-12


def test_kappa(free, resonance, shg):
    assert wq.kappa(free) == HALF_PI               # empty zero list, capped
    assert abs(wq.kappa(resonance) - math.pi / 4) < 1e-15
    # Sinh-Gordon at generic B: zero at i * arcsin(sin(pi B))
    for B in (0.2, 0.35):
        S = wq.build_model(-1, zeros=[1j * math.asin(math.sin(math.pi * B))])
        assert abs(wq.kappa(S) - math.pi * B) < 1e-12
    assert wq.kappa(shg) == HALF_PI


def test_strip_sup_norm_constants(free, ising):
    assert wq.strip_sup_norm(free, 0.3) == 1.0
    assert wq.strip_sup_norm(ising, 1.0) == 1.0


def test_strip_sup_norm_resonance_against_dense_oracle(resonance_plus):
    kap = math.pi / 8
    val = wq.strip_sup_norm(resonance_plus, kap)
    # 10x denser sampling oracle on the boundary line
    t = np.linspace(-30, 30, 100_001)
    oracle = np.max(np.abs(wq.evaluate(resonance_plus, t - 1j * kap)))
    assert val >= 1.0
    assert val >= oracle - 1e-12
    assert abs(val - oracle) < 1e-6


def _dense_strip_max(S, kap, half_width, spacing=1e-3):
    t = np.arange(-half_width, half_width + spacing, spacing)
    return float(np.max(np.abs(wq.evaluate(S, t - 1j * kap))))


def test_strip_sup_norm_finds_peaks_beyond_base_window():
    # the peaks of |S2(t - i kappa)| sit at t = +-35
    S = wq.build_model(-1, zeros=[35 + 0.6j])
    for kap, oracle in ((0.3, 3.19618), (0.5, 12.2519)):
        val = wq.strip_sup_norm(S, kap)
        assert val >= _dense_strip_max(S, kap, 60.0) - 1e-12
        assert abs(val - oracle) < 1e-4 * oracle


@settings(max_examples=15, deadline=None)
@given(st.lists(st.tuples(st.floats(-60, 60), st.floats(0.05, HALF_PI)),
                min_size=1, max_size=3))
def test_strip_sup_norm_property_against_dense_scan(zeros):
    S = wq.build_model(+1, zeros=[complex(re, im) for re, im in zeros])
    kap = wq.kappa(S) / 2
    val = wq.strip_sup_norm(S, kap)
    reach = max(abs(re) for re, _ in zeros) + 15.0
    oracle = _dense_strip_max(S, kap, reach)
    # The result is a certified upper bound, so no sample of a dense scan
    # exceeds it; and the 1e-3 scan misses a peak by less than
    # (1e-3)^2 / (8 kap^2) <= 2e-4 (half-width >= kap >= 0.025).
    assert val >= oracle
    assert val <= oracle * (1 + 1e-3)


THREE_PEAKS = [6.8078 + 0.27037j, 4.9271 + 0.065116j, 8.8718 + 0.065072j]


def test_strip_sup_norm_refines_every_candidate_peak():
    # the highest scan sample sits on the peak at t ~ -8.872, but the sup,
    # 3.016891, is at t ~ -4.927
    S = wq.build_model(+1, zeros=THREE_PEAKS)
    assert wq.strip_sup_norm(S, wq.kappa(S) / 2) >= 3.01689


def test_strip_sup_norm_monotone_in_kappa(resonance):
    vals = [wq.strip_sup_norm(resonance, k) for k in (0.1, 0.3, 0.5, 0.7)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_strip_sup_norm_domain(resonance):
    with pytest.raises(StripError):
        wq.strip_sup_norm(resonance, math.pi / 4)    # kappa == kappa(S)
    with pytest.raises(StripError):
        wq.strip_sup_norm(wq.build_model(+1, a=1.0), 0.3)


@settings(max_examples=40, deadline=None)
@given(st.floats(-6, 6))
def test_unimodular_on_reals_property(theta):
    S = wq.build_model(-1, zeros=[1j * math.pi / 3, 0.7 + 0.2j])
    assert abs(abs(wq.evaluate(S, theta)) - 1) < 1e-12


@settings(max_examples=30, deadline=None)
@given(st.floats(-3, 3), st.floats(0.05, 3.0))
def test_periodicity_property(re, im):
    S = wq.build_model(-1, zeros=[1j * math.pi / 3])
    z = complex(re, im)
    assert abs(wq.evaluate(S, z + 2j * math.pi) - wq.evaluate(S, z)) < 1e-10


def test_hermitian_analyticity_and_crossing_samples(shg):
    t = np.linspace(-4, 4, 41)
    v = wq.evaluate(shg, t)
    assert_allclose(np.conj(v), wq.evaluate(shg, -t), atol=1e-13)
    assert_allclose(wq.evaluate(shg, t + 1j * math.pi),
                    wq.evaluate(shg, -t), atol=1e-12)


def _closed_sup(beta, kap):
    # ||S2||_kappa for a single zero i*beta: its maximum, at t = 0
    return ((math.sin(beta) + math.sin(kap))
            / (math.sin(beta) - math.sin(kap)))


@pytest.mark.parametrize("name", ["catalogue:shg-b050",
                                  "catalogue:resonance-pi4", "beta=1e-3"])
def test_strip_sup_norm_single_zero_closed_form(name):
    if name == "beta=1e-3":
        S = wq.build_model(+1, zeros=[1e-3j])
    else:
        S = load_config(name).model
    (beta,) = (b.imag for b in S.zeros)
    kap = wq.kappa(S) / 2
    closed = _closed_sup(beta, kap)
    assert closed <= wq.strip_sup_norm(S, kap) <= closed * (1 + 2e-12)


@settings(max_examples=40, deadline=None)
@given(st.floats(1e-3, HALF_PI), st.floats(1e-6, 0.95))
def test_strip_sup_norm_closed_form_property(beta, ratio):
    S = wq.build_model(+1, zeros=[1j * beta])
    kap = ratio * beta
    closed = _closed_sup(beta, kap)
    val = sfunction.strip_sup_norm.__wrapped__(S, kap)
    assert closed <= val <= closed * (1 + 2e-12)


def _assert_against_scipy(S, kap, half_width):
    ref = strip_sup_scipy(S, kap, half_width)
    val = sfunction.strip_sup_norm.__wrapped__(S, kap)
    assert ref <= val <= ref * (1 + 2e-12)


@pytest.mark.parametrize("zeros", [THREE_PEAKS, [35 + 0.6j]])
def test_strip_sup_norm_against_scipy_refinement(zeros):
    S = wq.build_model(+1, zeros=zeros)
    _assert_against_scipy(S, wq.kappa(S) / 2,
                          max(abs(b.real) for b in zeros) + 15.0)


@settings(max_examples=15, deadline=None)
@given(st.lists(st.tuples(st.floats(-60, 60), st.floats(0.05, HALF_PI)),
                min_size=1, max_size=3))
def test_strip_sup_norm_property_against_scipy_refinement(zeros):
    S = wq.build_model(+1, zeros=[complex(re, im) for re, im in zeros])
    _assert_against_scipy(S, wq.kappa(S) / 2,
                          max(abs(re) for re, _ in zeros) + 15.0)


def test_strip_sup_norm_budget_raises(monkeypatch, tmp_path, capsys):
    S = load_config("catalogue:shg-b050").model
    monkeypatch.setattr(sfunction, "MAX_HALVINGS", 2)
    with pytest.raises(ConvergenceError):
        sfunction.strip_sup_norm.__wrapped__(S, wq.kappa(S) / 2)
    # the CLI reports it as non-convergence, exit 3
    sfunction.strip_sup_norm.cache_clear()
    code = main(["nuclearity-curve", "--config", "catalogue:shg-b050",
                 "--out", str(tmp_path / "out")])
    assert code == 3
    err = json.loads(capsys.readouterr().err.strip())["error"]
    assert err["kind"] == "nonconvergence"


def test_strip_sup_norm_cell_too_narrow_raises(monkeypatch):
    # cells containing t = 0 are never bounded, so they halve down to the
    # float spacing around 0, about 2k halvings, far below MAX_HALVINGS
    S = load_config("catalogue:shg-b050").model
    real = sfunction._cell_bounds

    def unbounded_at_zero(sb, kap, lo, hi, g_lo, g_hi):
        bounds = real(sb, kap, lo, hi, g_lo, g_hi)
        return np.where((lo <= 0) & (0 <= hi), np.inf, bounds)

    monkeypatch.setattr(sfunction, "_cell_bounds", unbounded_at_zero)
    with pytest.raises(ConvergenceError, match="narrower than the float"):
        sfunction.strip_sup_norm.__wrapped__(S, wq.kappa(S) / 2)


def test_strip_sup_norm_near_the_pole():
    # kappa a millionth below kappa(S): the peak at t = 0 is ~1.6e12 high
    # and ~1e-6 wide; the bisection resolves it or raises within its budget.
    # The closed form rounds 1 - sin(kappa) as evaluate does at t = 0, so
    # this checks the bisection, not the rounding of evaluate near a pole.
    S = load_config("catalogue:shg-b050").model
    kap = wq.kappa(S) * (1 - 1e-6)
    closed = _closed_sup(HALF_PI, kap)
    try:
        val = sfunction.strip_sup_norm.__wrapped__(S, kap)
    except ConvergenceError:
        return
    assert closed <= val <= closed * (1 + 2e-12)


def test_strip_sup_norm_evaluation_count(monkeypatch):
    # a zero 1e-4 above the real axis; the scan samples in batches, one
    # call per halving level, not one Brent run per roundoff ripple
    S = wq.build_model(+1, zeros=[6 + 1e-4j])
    calls, real = [], sfunction.evaluate

    def spy(S, zeta):
        calls.append(zeta)
        return real(S, zeta)

    monkeypatch.setattr(sfunction, "evaluate", spy)
    sfunction.strip_sup_norm.__wrapped__(S, wq.kappa(S) / 2)
    assert len(calls) <= 100
