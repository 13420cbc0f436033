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
from .errors import ModelError
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


def _decreasing(seq):
    """Whether each value is strictly below the one before it."""
    return all(a > b for a, b in zip(seq, seq[1:]))


def verify_scattering(cfg, rng):
    S = cfg.model
    tol = 1e-12
    residuals = sfunction.verify_relations(S, np.linspace(-8.0, 8.0, 201))
    origin = sfunction.evaluate(S, 0.0)
    passed = (max(residuals.values()) <= tol
              and min(abs(origin - 1.0), abs(origin + 1.0)) <= tol)
    rows = [{"relation": k, "residual": v} for k, v in residuals.items()]
    summary = dict(residuals, tol=tol, passed=passed,
                   origin_value=[origin.real, origin.imag],
                   kappa=sfunction.kappa(S))
    return SuiteResult(passed, summary, rows)


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
    comm_worst = 0.0
    bound_ok = True
    for _ in range(trials):
        Phi = fock.random_fock(S, grid, cfg.n_max, rng)
        psi = fock.random_wavefunction(grid, rng)
        phi = fock.random_wavefunction(grid, rng)
        zf_worst = max(zf_worst, *fock.check_zf_relations(S, psi, phi, Phi))
        Psi = fock.random_fock(S, grid, cfg.n_max + 1, rng)
        lhs = fock.create(S, psi, Phi)
        bound_ok &= (lhs.norm()
                     <= psi.norm() * Phi.number_half_power(1.0).norm() + tol)
        lhs = lhs.inner(Psi)    # frees the created vector, as large as Psi
        rhs = Phi.inner(fock.annihilate(S, psi.conj(), Psi))
        scale = max(Phi.norm() * Psi.norm(), 1e-300)
        adj_worst = max(adj_worst, abs(lhs - rhs) / scale)
        bound_ok &= (fock.annihilate(S, psi, Phi).norm()
                     <= psi.norm() * Phi.number_half_power().norm() + tol)
        # [J z^dag(psi) J, z^dag(phi)] = 0, the creator-only part of the
        # wedge commutator, up to rank dn_max
        head = fock.FockVector(grid, Phi.components[:cfg.algebra.dn_max - 1])
        lhs = fock.reflect_j(fock.create(
            S, psi, fock.reflect_j(fock.create(S, phi, head))))
        rhs = fock.create(S, phi, fock.reflect_j(
            fock.create(S, psi, fock.reflect_j(head))))
        comm_worst = max(comm_worst,
                         lhs.sub(rhs).norm() / max(lhs.norm(), 1e-300))
    worst["zf_relations"] = zf_worst
    worst["adjointness"] = adj_worst
    worst["creators_commute"] = comm_worst

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
    f = cfg.testfunction(loc.f)
    g = cfg.testfunction(loc.g)
    # n = 0 has one spectator tuple, the empty one
    spect = [()] + [tuple(rng.uniform(-2.0, 2.0, n))
                    for n in range(1, 4) for _ in range(loc.spectators)]
    rep = locality.verify_contour_identity(S, f, g, spect, window=loc.window,
                                           order=loc.order)
    rows = [dict(row, thetas=" ".join(f"{t:.6f}" for t in row["thetas"]))
            for row in rep.samples]

    orders = (loc.order // 8, loc.order // 4, loc.order // 2)
    study = locality.refinement_study(S, f, g, [(0.5,)], orders=orders,
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

    # witness: operator commutator against the closed two-particle form, to
    # 1e-10 of the form's largest entry, or of the products the commutator
    # subtracts where they are larger (the form vanishes when S2 = 1)
    wit_grid = RapidityGrid(cfg.grid.half_width, min(cfg.grid.count, 41))
    op_tensor, closed, products = nonlocality_witness(S, f, g, wit_grid)
    wit = float(np.max(np.abs(op_tensor - closed)))
    wit_ok = wit <= 1e-10 * max(float(np.max(np.abs(closed))), products)

    passed = (rep.max_relative <= loc.contour_tol
              and rep.shift_relative <= loc.contour_tol
              and op <= loc.operator_tol
              and refine_ok and halving_ok and negative_ok and wit_ok)
    summary = {"max_contour_relative": rep.max_relative,
               "shift_relative": rep.shift_relative,
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


def nuclearity_curve(cfg, rng):
    S = cfg.model
    kap = cfg.nuclearity.kappa
    sup = sfunction.strip_sup_norm(S, kap)
    svals = np.linspace(cfg.nuclearity.s_min, cfg.nuclearity.s_max,
                        cfg.nuclearity.steps)
    rows = []
    nonconv = False
    fermionic = S.epsilon == -1
    for s in svals:
        tn = nuclearity.modular_trace_norm(
            S, s, kap, nodes=cfg.nuclearity.nodes, refine=True)
        nonconv |= not tn.converged
        sig = nuclearity.sigma(S, float(s), kap)
        distal = nuclearity.xi_bound_distal(S, float(s), kap,
                                            trace_norm=tn.value)
        row = {"s": float(s), "sigma": sig, "trace_norm": tn.value,
               "trace_rel_change": tn.rel_change,
               "trace_scale": tn.scale, "trace_nodes": tn.nodes,
               "trace_converged": tn.converged,
               "bound_distal": distal}
        if fermionic:
            row["log_bound_minus"] = nuclearity.log_xi_bound_minus(
                S, float(s), kap, trace_norm=tn.value)
        rows.append(row)
    mono = (_decreasing([r["sigma"] for r in rows])
            and _decreasing([r["trace_norm"] for r in rows]))
    minus_ok = True
    if fermionic:
        mseq = [r["log_bound_minus"] for r in rows]
        minus_ok = all(math.isfinite(v) for v in mseq) and _decreasing(mseq)
    summary = {"kappa": kap, "sup_norm": sup, "monotone": bool(mono),
               "fermionic_bound_finite_decreasing": bool(minus_ok)}
    return SuiteResult(mono and minus_ok and not nonconv, summary, rows,
                       nonconverged=nonconv)


def find_smin_suite(cfg, rng):
    S = cfg.model
    kap = cfg.nuclearity.kappa
    bracket = nuclearity.s_min_bracket(S, kap)
    s_min = nuclearity.find_s_min(S, kap, bracket=bracket,
                                  nodes=cfg.nuclearity.nodes)
    summary = {"kappa": kap, "s_min": s_min, "s_bracket": list(bracket),
               "in_expected_range": bool(0.0 < s_min < 50.0 / S.mass)}
    rows = [{"kappa": kap, "s_min": s_min,
             "s_bracket": " ".join(format(s, ".17g") for s in bracket)}]
    return SuiteResult(summary["in_expected_range"], summary, rows)


def _is_constant(S, epsilon):
    """Whether S2 is identically epsilon: no zeros and a = 0."""
    return S.epsilon == epsilon and not S.zeros and S.a == 0.0


def free_bose(cfg, rng):
    S = cfg.model
    if not _is_constant(S, +1):
        raise ModelError("free-bose describes only S2 = +1 (no zeros, a = 0)")
    rows = []
    ok = True
    for s in np.linspace(cfg.nuclearity.s_min, cfg.nuclearity.s_max,
                         cfg.nuclearity.steps):
        r = nuclearity.free_bose_bound(float(s), mass=S.mass,
                                       nodes=cfg.nuclearity.nodes)
        ok &= max(r.max_singular_phi, r.max_singular_pi) < 1.0
        ok &= math.isfinite(r.value)
        rows.append({"s": float(s), **asdict(r)})
    mono = _decreasing([r["value"] for r in rows])
    ok &= mono
    summary = {"max_singular_value": max(max(r["max_singular_phi"],
                                             r["max_singular_pi"])
                                         for r in rows),
               "monotone_decreasing": mono,
               "note": "unprojected determinant surrogate (conservative)"}
    return SuiteResult(bool(ok), summary, rows)


def ising_fermi(cfg, rng):
    S = cfg.model
    if not _is_constant(S, -1):
        raise ModelError("ising-fermi describes only S2 = -1 (no zeros, a = 0)")
    rows = []
    ok = True
    for s in np.linspace(cfg.nuclearity.s_min, cfg.nuclearity.s_max,
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
    kap = cfg.nuclearity.kappa
    p = cfg.partition
    betas = np.linspace(p.beta_min, p.beta_max, p.steps)
    rows = []
    for beta in betas:
        r = nuclearity.partition_bound(S, float(beta), p.r, kap,
                                       improved=p.improved,
                                       nodes=cfg.nuclearity.nodes)
        rows.append({"beta": float(beta), "inv_beta": 1.0 / float(beta),
                     "mu": r.mu, "s_effective": r.s_effective,
                     "log_bound": r.log_value, "bound": r.value,
                     "heuristic": r.heuristic})
    mono = _decreasing([r["log_bound"] for r in rows])   # beta ascending
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
        "trace_rel_change": "relative change against the coarser companion "
                            "level, or between the last two doublings",
        "trace_scale": "tan-map scale of the reported Nystrom level",
        "trace_nodes": "Nystrom node count of the reported level",
        "trace_converged": "whether the refinement met its tolerance",
        "bound_distal": "geometric series bound (inf above radius)",
        "log_bound_minus": "log of the Pauli-improved series (fermionic)"}),
    "find-smin": Suite(find_smin_suite, {
        "kappa": "strip parameter", "s_min": "root of sigma*||T||=1",
        "s_bracket": "space-separated closed-form bracket (lo hi) searched "
                     "for s_min"}),
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

    The five bound suites need the strip sup norm, which is finite only
    for a = 0.  The fermionic extras need S2(0) = -1; the free-Bose and
    Ising determinants describe S2 = +1 and S2 = -1 alone.  The
    distal-distance search runs only on models with zeros: on a constant
    one s_min is a function of the mass and kappa alone (1.805 at unit
    mass and kappa = pi/4).
    """
    S = cfg.model
    names = ["verify-scattering", "verify-algebra", "verify-locality",
             "smatrix"]
    if S.a != 0.0:
        return names
    names.append("nuclearity-curve")
    if S.zeros:
        names.append("find-smin")
    if _is_constant(S, +1):
        names.append("free-bose")
    if _is_constant(S, -1):
        names.append("ising-fermi")
    if S.epsilon == -1:
        names.append("partition")
    return names
