"""Verification suites: each one runs a family of checks against a model.

A suite consumes a :class:`~wedgeqft.config.RunConfig` and a seeded random
generator and produces a :class:`SuiteResult` whose pass/fail derives only
from residuals versus tolerances.  All numerics are delegated to the
library modules; nothing here does its own mathematics.
"""

from collections.abc import Callable
from dataclasses import asdict, dataclass, field
import math

import numpy as np

from . import fock, locality, nuclearity, scattering, sfunction
from .fields import nonlocality_witness
from .fock import PoincareElement, RapidityGrid


@dataclass
class SuiteResult:
    passed: bool
    summary: dict
    rows: list = field(default_factory=list)
    nonconverged: bool = False
    runtime: float = 0.0

    def report_entry(self):
        return {"passed": self.passed, "nonconverged": self.nonconverged,
                "summary": self.summary}


@dataclass(frozen=True)
class Suite:
    """A suite's function and the meaning of each CSV column its rows carry."""

    run: Callable          # (cfg, rng) -> SuiteResult
    column_docs: dict


def verify_scattering(cfg, rng):
    S = cfg.model
    tol = 1e-12
    residuals = sfunction.verify_relations(S, np.linspace(-8.0, 8.0, 201))
    relations_ok = max(residuals.values()) <= tol
    origin = sfunction.evaluate(S, 0.0)
    origin_ok = min(abs(origin - 1.0), abs(origin + 1.0)) <= tol
    rows = [{"relation": k, "residual": v} for k, v in residuals.items()]
    summary = dict(residuals, tol=tol, passed=relations_ok,
                   origin_value=[origin.real, origin.imag],
                   kappa=sfunction.kappa(S))
    return SuiteResult(relations_ok and origin_ok, summary, rows)


def verify_algebra(cfg, rng):
    S = cfg.model
    grid = RapidityGrid(cfg.grid.half_width, cfg.algebra.grid_count)
    tol = cfg.algebra.tol
    trials = cfg.algebra.trials
    worst = {}

    for n in range(2, cfg.algebra.dn_max + 1):
        res = fock.dn_law_residuals(S, grid, n, trials, rng)
        for k, v in res.items():
            worst[f"dn{n}_{k}"] = v

    zf_worst = 0.0
    adj_worst = 0.0
    bound_ok = True
    for _ in range(trials):
        Phi = fock.random_fock(S, grid, cfg.n_max, rng)
        psi = fock.random_wavefunction(grid, rng)
        phi = fock.random_wavefunction(grid, rng)
        zf_worst = max(zf_worst, *fock.check_zf_relations(S, psi, phi, Phi))
        Psi = fock.random_fock(S, grid, cfg.n_max + 1, rng)
        lhs = fock.create(S, psi, Phi).inner(Psi)
        rhs = Phi.inner(fock.annihilate(S, psi.conj(), Psi))
        scale = max(Phi.norm() * Psi.norm(), 1e-300)
        adj_worst = max(adj_worst, abs(lhs - rhs) / scale)
        bound_ok &= (fock.annihilate(S, psi, Phi).norm()
                     <= psi.norm() * Phi.number_half_power().norm() + tol)
        bound_ok &= (fock.create(S, psi, Phi).norm()
                     <= psi.norm() * Phi.number_half_power(1.0).norm() + tol)
    worst["zf_relations"] = zf_worst
    worst["adjointness"] = adj_worst

    Phi = fock.random_fock(S, grid, cfg.n_max, rng, margin=3)
    lam = 2 * grid.spacing
    g1 = PoincareElement((0.4, -0.3), lam)
    g2 = PoincareElement((-0.2, 0.5), -lam)
    lhs = fock.poincare_apply(S, g1, fock.poincare_apply(S, g2, Phi))
    rhs = fock.poincare_apply(S, g1.compose(g2), Phi)
    worst["group_law"] = lhs.sub(rhs).norm() / Phi.norm()
    worst["reflection_j"] = fock.reflect_j(fock.reflect_j(Phi)).sub(Phi).norm() / Phi.norm()
    worst["reflection_gamma"] = fock.reflect_gamma(
        fock.reflect_gamma(Phi)).sub(Phi).norm() / Phi.norm()
    tshift = grid.spacing / (2 * math.pi)
    lhs = fock.modular_boost(S, tshift, fock.modular_boost(S, tshift, Phi))
    rhs = fock.modular_boost(S, 2 * tshift, Phi)
    worst["modular_flow"] = lhs.sub(rhs).norm() / Phi.norm()

    rows = [{"check": k, "residual": v} for k, v in sorted(worst.items())]
    passed = bound_ok and all(v <= tol for v in worst.values())
    summary = {"max_residual": max(worst.values()), "tol": tol,
               "number_bounds_ok": bool(bound_ok)}
    return SuiteResult(passed, summary, rows)


def verify_locality(cfg, rng):
    S = cfg.model
    loc = cfg.locality
    f = cfg.testfunction(loc.f_name)
    g = cfg.testfunction(loc.g_name)
    rows = []
    worst_contour = 0.0
    worst_shift = 0.0
    for n in range(4):
        spect = [tuple(rng.uniform(-2.0, 2.0, n))
                 for _ in range(loc.spectator_samples)]
        rep = locality.verify_contour_identity(
            S, f, g, n, spect, window=loc.window, order=loc.order)
        worst_contour = max(worst_contour, rep.max_relative)
        worst_shift = max(worst_shift, rep.shift_relative)
        for row in rep.samples:
            out = dict(row)
            out["thetas"] = " ".join(f"{t:.6f}" for t in row["thetas"])
            rows.append(out)

    orders = (loc.order // 8, loc.order // 4, loc.order // 2)
    study = locality.refinement_study(S, f, g, 1, [(0.5,)], orders=orders,
                                      window=loc.window)
    refine_ok = all(nxt <= prev / 10 or nxt <= 1e-9
                    for prev, nxt in zip(study, study[1:]))

    grid = RapidityGrid(cfg.grid.half_width, loc.grid_count)
    Phi = fock.random_fock(S, grid, 1, rng)
    op = locality.verify_operator_commutator(S, f, g, Phi)
    grid2 = RapidityGrid(cfg.grid.half_width, 2 * loc.grid_count - 1)
    Phi2 = fock.random_fock(S, grid2, 1, rng)
    op2 = locality.verify_operator_commutator(S, f, g, Phi2)
    halving_ok = op2 <= op / 2 or op2 <= 1e-10

    # negative control: translate g so the supports overlap (with a time
    # offset so the mismatch is not accidentally real); the wedge
    # separation is violated and the commutator must be of order one
    shift_up = f.center[1] - g.center[1]
    g_overlap = g.transformed((0.35, shift_up))
    neg = locality.verify_operator_commutator(S, f, g_overlap, Phi,
                                              check_support=False)
    negative_ok = neg > 1e-2

    # witness: operator commutator against the closed two-particle form
    wit_grid = RapidityGrid(cfg.grid.half_width, min(cfg.grid.count, 41))
    op_tensor, closed = nonlocality_witness(S, f, g, wit_grid)
    wit = float(np.max(np.abs(op_tensor - closed)))

    passed = (worst_contour <= loc.contour_tol
              and worst_shift <= loc.contour_tol
              and op <= loc.operator_tol
              and refine_ok and halving_ok and negative_ok
              and wit <= 1e-10)
    summary = {"max_contour_relative": worst_contour,
               "shift_relative": worst_shift,
               "contour_tol": loc.contour_tol,
               "refinement_residuals": study,
               "operator_residual": op,
               "operator_residual_doubled": op2,
               "operator_tol": loc.operator_tol,
               "negative_control": neg,
               "witness_agreement": wit}
    return SuiteResult(passed, summary, rows)


def run_smatrix(cfg, rng):
    S = cfg.model
    grid = cfg.grid
    rows = []
    worst = 0.0
    per_n = {}
    for n in cfg.smatrix.n_values:
        rep = scattering.recover_smatrix(S, grid, n, cfg.smatrix.trials, rng)
        rows.extend(dict(r) for r in rep.rows)
        per_n[str(n)] = {"max_multiplier_residual": rep.max_multiplier_residual,
                         "max_overlap_residual": rep.max_overlap_residual}
        worst = max(worst, rep.max_multiplier_residual, rep.max_overlap_residual)
    summary = {"model": cfg.model_name, "n_values": list(cfg.smatrix.n_values),
               "trials": cfg.smatrix.trials, "max_residual": worst,
               "tol": cfg.smatrix.tol, "per_n": per_n,
               "overlap_convention":
                   "states sqrt(n!) P_n(tensor); <in,out> vs sum of "
                   "conj(S_n) |Phi+|^2 with trapezoid weights"}
    return SuiteResult(worst <= cfg.smatrix.tol, summary, rows)


def _nuclearity_kappa(cfg):
    kap = cfg.nuclearity.kappa
    if kap is None:
        kap = sfunction.kappa(cfg.model) / 2
    return kap


def nuclearity_curve(cfg, rng):
    S = cfg.model
    kap = _nuclearity_kappa(cfg)
    sup = sfunction.strip_sup_norm(S, kap)
    svals = np.linspace(cfg.nuclearity.s_lo, cfg.nuclearity.s_hi,
                        cfg.nuclearity.steps)
    rows = []
    nonconv = False
    fermionic = S.epsilon == -1
    for s in svals:
        tn = nuclearity.modular_trace_norm(
            S, s, kap, nodes=cfg.nuclearity.nodes, refine=True)
        nonconv |= not tn.converged
        sig = nuclearity.sigma(S, float(s), kap, sup_norm=sup)
        distal = nuclearity.xi_bound_distal(S, float(s), kap, sup_norm=sup,
                                            trace_norm=tn.value)
        row = {"s": float(s), "sigma": sig, "trace_norm": tn.value,
               "trace_rel_change": tn.rel_change,
               "trace_scale": tn.scale, "trace_nodes": tn.nodes,
               "trace_converged": tn.converged,
               "bound_distal": distal}
        if fermionic:
            row["log_bound_minus"] = nuclearity.log_xi_bound_minus(
                S, float(s), kap, sup_norm=sup, trace_norm=tn.value)
        rows.append(row)
    sig_seq = [r["sigma"] for r in rows]
    tn_seq = [r["trace_norm"] for r in rows]
    mono = (all(a > b for a, b in zip(sig_seq, sig_seq[1:]))
            and all(a > b for a, b in zip(tn_seq, tn_seq[1:])))
    minus_ok = True
    if fermionic:
        mseq = [r["log_bound_minus"] for r in rows]
        minus_ok = (all(math.isfinite(v) for v in mseq)
                    and all(a > b for a, b in zip(mseq, mseq[1:])))
    summary = {"kappa": kap, "sup_norm": sup, "monotone": bool(mono),
               "fermionic_bound_finite_decreasing": bool(minus_ok)}
    return SuiteResult(mono and minus_ok and not nonconv, summary, rows,
                       nonconverged=nonconv)


def find_smin_suite(cfg, rng):
    S = cfg.model
    kap = _nuclearity_kappa(cfg)
    s_min = nuclearity.find_s_min(S, kap, nodes=cfg.nuclearity.nodes)
    summary = {"kappa": kap, "s_min": s_min,
               "in_expected_range": bool(0.0 < s_min < 50.0 / S.mass)}
    rows = [{"kappa": kap, "s_min": s_min}]
    return SuiteResult(summary["in_expected_range"], summary, rows)


def free_bose(cfg, rng):
    S = cfg.model
    rows = []
    ok = True
    for s in np.linspace(cfg.nuclearity.s_lo, cfg.nuclearity.s_hi,
                         cfg.nuclearity.steps):
        r = nuclearity.free_bose_bound(float(s), mass=S.mass,
                                       nodes=cfg.nuclearity.nodes)
        ok &= max(r.max_singular_phi, r.max_singular_pi) < 1.0
        ok &= math.isfinite(r.value)
        rows.append({"s": float(s), **asdict(r)})
    vals = [r["value"] for r in rows]
    ok &= all(a > b for a, b in zip(vals, vals[1:]))
    summary = {"max_singular_value": max(max(r["max_singular_phi"],
                                             r["max_singular_pi"])
                                         for r in rows),
               "monotone_decreasing": all(a > b for a, b in zip(vals, vals[1:])),
               "note": "unprojected determinant surrogate (conservative)"}
    return SuiteResult(bool(ok), summary, rows)


def ising_fermi(cfg, rng):
    S = cfg.model
    rows = []
    ok = True
    for s in np.linspace(cfg.nuclearity.s_lo, cfg.nuclearity.s_hi,
                         cfg.nuclearity.steps):
        # one pair of Bose spectra gives both bounds
        det = nuclearity.free_bose_bound(float(s), mass=S.mass,
                                         nodes=cfg.nuclearity.nodes)
        exp_bound = det.exp_bound
        ok &= math.isfinite(exp_bound)
        ok &= exp_bound < det.value
        rows.append({"s": float(s), "exp_bound": exp_bound,
                     "det_bound": det.value})
    summary = {"exp_below_det_everywhere": bool(ok)}
    return SuiteResult(bool(ok), summary, rows)


def partition(cfg, rng):
    S = cfg.model
    kap = _nuclearity_kappa(cfg)
    sup = sfunction.strip_sup_norm(S, kap)
    p = cfg.partition
    betas = np.linspace(p.beta_lo, p.beta_hi, p.steps)
    rows = []
    for beta in betas:
        r = nuclearity.partition_bound(S, float(beta), p.r, kap,
                                       improved=p.improved,
                                       nodes=cfg.nuclearity.nodes,
                                       sup_norm=sup)
        rows.append({"beta": float(beta), "inv_beta": 1.0 / float(beta),
                     "mu": r.mu, "s_effective": r.s_effective,
                     "log_bound": r.log_value, "bound": r.value,
                     "heuristic": r.heuristic})
    logs = [r["log_bound"] for r in rows]
    mono = all(a > b for a, b in zip(logs, logs[1:]))   # beta ascending
    summary = {"kappa": kap, "r": p.r, "heuristic": True,
               "log_monotone_in_inverse_beta": bool(mono)}
    return SuiteResult(bool(mono), summary, rows)


# The one declaration of each suite: its name, its function and one doc
# string per CSV column (a CSV header is the keys of the suite's rows).  A
# suite's position here is its seed index, which report.json depends on,
# so new suites go at the end.
SUITES = {
    "verify-scattering": Suite(verify_scattering, {
        "relation": "identity being sampled",
        "residual": "max residual over 201 points in [-8, 8]"}),
    "verify-algebra": Suite(verify_algebra, {
        "check": "algebraic law or operator identity",
        "residual": "relative residual on random inputs"}),
    "verify-locality": Suite(verify_locality, {
        "n": "spectator count",
        "thetas": "space-separated spectator rapidities",
        "abs_b": "|B| line integral",
        "abs_c": "|C| line integral",
        "abs_sum": "|B + C|",
        "relative": "|B + C| / max(|B|, |C|, floor)"}),
    "smatrix": Suite(run_smatrix, {
        "trial": "trial index", "n": "particle number",
        "multiplier_residual": "wave-operator product vs two-body factor",
        "overlap_residual": "<in, out> vs multiplier oracle"}),
    "nuclearity-curve": Suite(nuclearity_curve, {
        "s": "splitting distance", "sigma": "Hardy constant",
        "trace_norm": "||T_s||_1 estimate",
        "trace_rel_change": "relative change at last refinement",
        "trace_scale": "tan-map scale of the last Nystrom refinement",
        "trace_nodes": "Nystrom node count of the last refinement",
        "trace_converged": "whether the refinement met its tolerance",
        "bound_distal": "geometric series bound (inf above radius)",
        "log_bound_minus": "log of the Pauli-improved series (fermionic)"}),
    "find-smin": Suite(find_smin_suite, {
        "kappa": "strip parameter", "s_min": "root of sigma*||T||=1"}),
    "free-bose": Suite(free_bose, {
        "s": "splitting distance", "value": "determinant surrogate",
        "max_singular_phi": "largest singular value, position kernel",
        "max_singular_pi": "largest singular value, momentum kernel",
        "trace_phi": "trace norm, position kernel",
        "trace_pi": "trace norm, momentum kernel"}),
    "ising-fermi": Suite(ising_fermi, {
        "s": "splitting distance",
        "exp_bound": "exponential trace-norm bound",
        "det_bound": "determinant bound from the same spectrum"}),
    "partition": Suite(partition, {
        "beta": "inverse temperature", "inv_beta": "1/beta",
        "mu": "modular weight arctan(beta/2r)/2pi",
        "s_effective": "r sin(2 pi mu)",
        "log_bound": "log of the partition bound",
        "bound": "partition bound (inf when above double range)",
        "heuristic": "always true: kernel extrapolation is heuristic"}),
}


def suites_for_all(cfg):
    """The 'all' selection, adapted to the model class.

    The fermionic extras need S2(0) = -1; the free-Bose determinant is the
    free model's special case; the distal-distance search needs a
    non-constant bounded model (otherwise sigma * ||T||_1 < 1 everywhere
    reachable and the bracket has no root).
    """
    S = cfg.model
    names = ["verify-scattering", "verify-algebra", "verify-locality",
             "smatrix", "nuclearity-curve"]
    if S.zeros:
        names.append("find-smin")
    if S.epsilon == +1 and not S.zeros:
        names.append("free-bose")
    if S.epsilon == -1 and not S.zeros:
        names.append("ising-fermi")
    if S.epsilon == -1:
        names.append("partition")
    return names
