"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line; run with ``pytest -s
tests/test_acceptance.py`` to see them.  Tolerances are pinned here and
nowhere else.
"""

import json
import math
import time

import numpy as np

import wedgeqft as wq
from wedgeqft.cli import main as cli_main
from wedgeqft.fock import _weighted_inner
from wedgeqft.nuclearity import (KernelOperator, log_sqrt_factorial_series,
                                 log_xi_bound_minus, modular_trace_norm)


def record(num, description, ok):
    print(f"ACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {description}")
    assert ok, f"criterion {num} failed: {description}"


def test_criterion_01_scattering_axioms(catalogue):
    thetas = np.linspace(-8.0, 8.0, 201)
    t0 = time.perf_counter()
    worst = 0.0
    for S in catalogue.values():
        rep = wq.verify_relations(S, thetas)
        worst = max(worst, *rep.values())
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    record(1, f"relation residuals <= 1e-12 on 201 points "
              f"(worst {worst:.2e}, {elapsed:.2f}s)", ok)


def test_criterion_02_representation_laws(shg, grid9, rng):
    t0 = time.perf_counter()
    tol = 1e-12
    worst = 0.0
    N = grid9.count

    def wnorm(x):
        return math.sqrt(abs(_weighted_inner(grid9, x, x)))

    for n in (2, 3, 4):
        for _ in range(50):
            f = (rng.standard_normal((N,) * n)
                 + 1j * rng.standard_normal((N,) * n))
            scale = wnorm(f)
            k = int(rng.integers(0, n - 1))
            tau = list(range(n)); tau[k], tau[k + 1] = tau[k + 1], tau[k]
            tau = tuple(tau)
            tf = wq.apply_dn(shg, tau, f, grid9)
            worst = max(worst,
                        wnorm(wq.apply_dn(shg, tau, tf, grid9) - f) / scale,
                        abs(wnorm(tf) - scale) / scale)
            if n >= 3:
                kk = int(rng.integers(0, n - 2))
                ta = list(range(n)); ta[kk], ta[kk + 1] = ta[kk + 1], ta[kk]
                tb = list(range(n)); tb[kk + 1], tb[kk + 2] = tb[kk + 2], tb[kk + 1]
                ta, tb = tuple(ta), tuple(tb)
                lhs = wq.apply_dn(shg, ta, wq.apply_dn(
                    shg, tb, wq.apply_dn(shg, ta, f, grid9), grid9), grid9)
                rhs = wq.apply_dn(shg, tb, wq.apply_dn(
                    shg, ta, wq.apply_dn(shg, tb, f, grid9), grid9), grid9)
                worst = max(worst, wnorm(lhs - rhs) / scale)
            if n >= 4:
                tj = (1, 0, 2, 3)
                tk = (0, 1, 3, 2)
                ab = wq.apply_dn(shg, tj, wq.apply_dn(shg, tk, f, grid9), grid9)
                ba = wq.apply_dn(shg, tk, wq.apply_dn(shg, tj, f, grid9), grid9)
                worst = max(worst, wnorm(ab - ba) / scale)
            P = wq.symmetrize(shg, f, grid9)
            worst = max(worst, wnorm(wq.symmetrize(shg, P, grid9) - P) / scale)
            g = (rng.standard_normal((N,) * n)
                 + 1j * rng.standard_normal((N,) * n))
            worst = max(worst, abs(
                _weighted_inner(grid9, P, g)
                - _weighted_inner(grid9, f, wq.symmetrize(shg, g, grid9)))
                / (scale * wnorm(g)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 30.0
    record(2, f"D_n laws and projector for n <= 4, 50 tensors/n "
              f"(worst {worst:.2e}, {elapsed:.1f}s)", ok)


def test_criterion_03_exchange_algebra(catalogue, grid7, rng):
    worst = 0.0
    for S in catalogue.values():
        for _ in range(20):
            Phi = wq.random_fock(S, grid7, 3, rng)
            psi = wq.random_wavefunction(grid7, rng)
            phi = wq.random_wavefunction(grid7, rng)
            worst = max(worst, *wq.check_zf_relations(S, psi, phi, Phi))
    ok = worst <= 1e-12
    record(3, f"exchange relations close on 7-node grid, n_max=3, "
              f"20 triples x 4 models (worst {worst:.2e})", ok)


def test_criterion_04_wedge_locality(catalogue, shg, rng):
    f = wq.Bump2D((-0.2, 0.22, 0.5, 1.2))
    g = wq.Bump2D((-0.18, 0.21, -1.25, -0.55))
    worst_contour = 0.0
    for S in catalogue.values():
        spect = [tuple(rng.uniform(-2, 2, n))
                 for n in range(4) for _ in range(2)]
        rep = wq.verify_contour_identity(S, f, g, spect)
        worst_contour = max(worst_contour, rep.max_relative,
                            rep.shift_relative)
    contour_ok = worst_contour <= 1e-6

    study = wq.refinement_study(shg, f, g, [(0.5,)],
                                orders=(256, 512, 1024))
    refine_ok = all(nxt <= prev / 10 or nxt <= 1e-9
                    for prev, nxt in zip(study, study[1:]))

    grid = wq.RapidityGrid(6.0, 81)
    Phi = wq.random_fock(shg, grid, 1, rng)
    op = wq.verify_operator_commutator(shg, f, g, Phi)
    grid2 = wq.RapidityGrid(6.0, 161)
    Phi2 = wq.random_fock(shg, grid2, 1, rng)
    op2 = wq.verify_operator_commutator(shg, f, g, Phi2)
    halve_ok = op <= 1e-4 and op2 <= op / 2

    g_bad = g.transformed((0.35, f.center[1] - g.center[1]))
    neg = wq.verify_operator_commutator(shg, f, g_bad, Phi,
                                        check_support=False)
    neg_ok = neg > 1e-2

    ok = contour_ok and refine_ok and halve_ok and neg_ok
    record(4, f"wedge locality: contour {worst_contour:.2e} <= 1e-6, "
              f"refinement {['%.1e' % v for v in study]}, operator "
              f"{op:.2e} -> {op2:.2e}, "
              f"negative control {neg:.2e} > 1e-2", ok)


def test_criterion_05_smatrix_recovery(catalogue, grid41):
    t0 = time.perf_counter()
    worst = 0.0
    trials_per_n = {2: 7, 3: 7, 4: 6}     # 20 random trials per model
    for k, S in enumerate(catalogue.values()):
        for n, trials in trials_per_n.items():
            rep = wq.recover_smatrix(S, grid41, n, trials,
                                     rng=np.random.default_rng([17, k, n]))
            worst = max(worst, rep.max_multiplier_residual,
                        rep.max_overlap_residual)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 120.0
    record(5, f"S-matrix recovery, n in 2..4, 20 trials/model at N=41 "
              f"(worst {worst:.2e}, {elapsed:.0f}s)", ok)


def test_criterion_06_trace_norm_bound():
    ok = True
    detail = []
    for a in (0.5, 1.0, 2.0):
        for b in (math.pi / 8, math.pi / 4, math.pi / 2):
            r = wq.trace_norm_estimate(KernelOperator("general", (a, b)),
                                       refine=True)
            bound = wq.analytic_trace_bound(a, b)
            ok &= r.converged and r.rel_change < 1e-3 and r.value <= bound
            detail.append(f"{r.value:.3f}<={bound:.2f}")
    record(6, "Nystrom trace norms converged and below the closed form: "
              + ", ".join(detail[:3]) + " ...", ok)


def test_criterion_07_minimal_splitting_distance():
    res1 = wq.build_model(-1, zeros=[1j * math.pi / 4], m=1.0)
    res2 = wq.build_model(-1, zeros=[1j * math.pi / 4], m=2.0)
    s1 = wq.find_s_min(res1, math.pi / 8)
    s2 = wq.find_s_min(res2, math.pi / 8)
    scaling = abs(s1 / (2 * s2) - 1.0)
    ok = (0.0 < s1 < 10.0) and scaling < 0.05
    record(7, f"s_min = {s1:.3f}/m in (0, 10); doubling the mass halves it "
              f"(deviation {scaling:.1%})", ok)


def test_criterion_08_fermionic_all_distance_bound(ising, resonance):
    svals = (0.2, 0.5, 1.0, 2.0, 5.0)
    ok = True
    for S, kap in ((ising, math.pi / 4), (resonance, math.pi / 8)):
        logs = [log_xi_bound_minus(S, s, kap,
                                   modular_trace_norm(S, s, kap).value)
                for s in svals]
        ok &= all(math.isfinite(v) for v in logs)
        ok &= all(x > y for x, y in zip(logs, logs[1:]))

    # independent oracle for the x = 1 reference sum
    total, n, term = 0.0, 0, 1.0
    while term > 1e-16:
        term = 1.0 / math.sqrt(math.factorial(n))
        total += term
        n += 1
    ok &= abs(total - 3.4695) <= 1e-3
    ok &= abs(math.exp(log_sqrt_factorial_series(1.0)) - total) <= 1e-12
    record(8, f"fermionic bound finite and decreasing on s grid; "
              f"reference sum {total:.5f} = 3.4695 +- 1e-3", ok)


def test_criterion_09_free_bose():
    r1 = wq.free_bose_bound(1.0, mass=1.0)
    r10 = wq.free_bose_bound(10.0, mass=1.0)
    ok = (r1.max_singular_phi < 1.0 and r1.max_singular_pi < 1.0
          and math.isfinite(r1.value) and abs(r10.value - 1.0) < 1e-3)
    record(9, f"free-Bose singular values {r1.max_singular_phi:.3f}, "
              f"{r1.max_singular_pi:.3f} < 1; surrogate -> "
              f"{r10.value:.6f} at s=10", ok)


def test_criterion_10_exponential_vs_determinant():
    ok = True
    vals = []
    for s in (0.5, 1.0):
        r = wq.free_bose_bound(s, mass=1.0)
        e, d = r.exp_bound, r.value
        ok &= math.isfinite(e) and math.isfinite(d) and e < d
        vals.append(f"{e:.3f}<{d:.3f}")
    record(10, "fermionic exponential bound below the determinant bound "
               "on the same spectrum: " + ", ".join(vals), ok)


def test_criterion_11_partition_bound(ising):
    r = 1.0 / ising.mass
    betas = np.linspace(0.1, 1.0, 10) * r
    logs = [wq.partition_bound(ising, float(b), r, math.pi / 4).log_value
            for b in betas]
    # beta ascending means 1/beta descending: demand strict decrease
    ok = all(x > y for x, y in zip(logs, logs[1:]))
    record(11, "log partition bound monotone increasing in 1/beta "
               "(heuristic kernel)", ok)


def test_criterion_12_deterministic_reports(tmp_path, capsys):
    args = ["all", "--config", "catalogue:ising"]
    code1 = cli_main(args + ["--out", str(tmp_path / "r1")])
    code2 = cli_main(args + ["--out", str(tmp_path / "r2")])
    capsys.readouterr()
    b1 = (tmp_path / "r1" / "report.json").read_bytes()
    b2 = (tmp_path / "r2" / "report.json").read_bytes()
    report = json.loads(b1)
    ok = code1 == 0 and code2 == 0 and b1 == b2 and report["all_passed"]
    record(12, "two consecutive full runs produce byte-identical reports", ok)
