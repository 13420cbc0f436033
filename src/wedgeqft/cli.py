"""Command-line entry point: config-driven verification runs.

Reports are split into a canonical, byte-reproducible ``report.json``
(identical config and version give identical bytes), per-suite CSV tables,
and a non-canonical ``timings.json``.  Exit codes: 0 all selected suites
pass, 1 suite failure, 2 configuration error, 3 numerical non-convergence.
"""

import argparse
import csv
import json
import pathlib
import sys
import time

import numpy as np

from . import __version__
from .config import DEFAULT_SEED, load_config
from .errors import ConfigError, ConvergenceError, WedgeQFTError
from .nuclearity import REFINE_TOL
from .sfunction import SUP_RTOL
from .suites import SUITES, suites_for_all

_SUITE_INDEX = {name: i for i, name in enumerate(SUITES)}


def _fmt(value):
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_csv(path, rows):
    """One line per row dict; the header is the keys of the first row."""
    columns = list(rows[0])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in columns])


def _canonical_json(obj):
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=True) + "\n"


def run_suites(cfg, names, seed):
    """Execute suites in order, each with its own deterministic generator."""
    results = {}
    for name in names:
        rng = np.random.default_rng([seed, _SUITE_INDEX[name]])
        t0 = time.perf_counter()
        res = SUITES[name].run(cfg, rng)
        res.runtime = time.perf_counter() - t0
        results[name] = res
    return results


def assemble_report(cfg, results, seed):
    return {
        "tool": "wedgeqft",
        "version": __version__,
        "seed": seed,
        "config_path": str(cfg.path),
        "config": cfg.echo,
        "model": cfg.model_name,
        "suites": {name: res.report_entry() for name, res in results.items()},
        "all_passed": all(res.passed for res in results.values()),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="wedgeqft",
        description="Verify factorizing-S-matrix model identities and bounds")
    parser.add_argument("suite", nargs="?", choices=[*SUITES, "all"],
                        help="verification suite to run (not needed with "
                             "--schema)")
    parser.add_argument("--config", required=False,
                        help="config path or catalogue:NAME")
    parser.add_argument("--out", default="wedgeqft-out",
                        help="output directory for report and CSV files")
    parser.add_argument("--format", choices=("json", "csv"), default=None,
                        help="override the output format from the config")
    parser.add_argument("--tol-override", action="append", default=[],
                        metavar="SECTION.KEY=VAL",
                        help="override any config entry (repeatable)")
    parser.add_argument("--s-min", type=float, default=None,
                        help="lower end of the splitting-distance curve")
    parser.add_argument("--s-max", type=float, default=None,
                        help="upper end of the splitting-distance curve")
    parser.add_argument("--steps", type=int, default=None,
                        help="number of samples on the s or beta curve")
    parser.add_argument("--beta", type=float, default=None,
                        help="single inverse temperature for the partition suite")
    parser.add_argument("--r", type=float, default=None,
                        help="localization radius for the partition suite")
    parser.add_argument("--seed", type=lambda v: int(v, 0), default=None,
                        help="seed for randomized trials (recorded in report)")
    parser.add_argument("--schema", action="store_true",
                        help="print the CSV column documentation and exit")
    args = parser.parse_args(argv)

    if args.schema:
        schema = {name: suite.column_docs for name, suite in SUITES.items()}
        print(json.dumps(schema, sort_keys=True, indent=2))
        return 0
    if args.suite is None:
        parser.error("the following arguments are required: suite")

    if args.config is None:
        _fail_json({"kind": "config", "message": "--config is required"})
        return 2
    # a shortcut flag stands for overrides whose errors name the flag;
    # --beta comes after --steps, so it pins the partition curve to one point
    overrides = list(args.tol_override)
    for flag, value, settings in (
            ("--s-min", args.s_min, {"nuclearity.s_min": args.s_min}),
            ("--s-max", args.s_max, {"nuclearity.s_max": args.s_max}),
            ("--steps", args.steps, {"nuclearity.steps": args.steps,
                                     "partition.steps": args.steps}),
            ("--beta", args.beta, {"partition.beta_min": args.beta,
                                   "partition.beta_max": args.beta,
                                   "partition.steps": 1}),
            ("--r", args.r, {"partition.r": args.r})):
        if value is not None:
            overrides += [(f"{key}={v}", f"{flag} {value}")
                          for key, v in settings.items()]
    try:
        cfg = load_config(args.config, overrides=overrides)
    except ConfigError as exc:
        return _config_error(exc)

    seed = DEFAULT_SEED if args.seed is None else args.seed
    names = suites_for_all(cfg) if args.suite == "all" else [args.suite]
    out_format = args.format or cfg.output.format

    try:
        results = run_suites(cfg, names, seed)
    except ConfigError as exc:       # e.g. a test function the config lacks
        return _config_error(exc)
    except ConvergenceError as exc:
        _fail_json({"kind": "nonconvergence", "message": str(exc)})
        return 3
    except WedgeQFTError as exc:
        _fail_json({"kind": "suite-error", "message": str(exc)})
        return 1

    out_dir = pathlib.Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = assemble_report(cfg, results, seed)
    (out_dir / "report.json").write_text(_canonical_json(report),
                                         encoding="utf-8")
    nuc_report = _nuclearity_report(cfg, results)
    if nuc_report is not None:
        (out_dir / "nuclearity-report.json").write_text(
            _canonical_json(nuc_report), encoding="utf-8")
    timings = {name: res.runtime for name, res in results.items()}
    (out_dir / "timings.json").write_text(
        json.dumps(timings, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    if out_format == "csv":
        for name, res in results.items():
            if res.rows:
                write_csv(out_dir / f"{name}.csv", res.rows)

    for name, res in results.items():
        status = "PASS" if res.passed else "FAIL"
        if res.nonconverged:
            status += " (non-converged)"
        print(f"[{status}] {name}: {json.dumps(res.summary, sort_keys=True, default=str)}")

    if not all(res.passed for res in results.values()):
        return 1
    if any(res.nonconverged for res in results.values()):
        return 3
    return 0


def _nuclearity_report(cfg, results):
    """Assemble the bound-curve report when the relevant suites ran."""
    sources = [n for n in ("nuclearity-curve", "find-smin", "free-bose",
                           "ising-fermi", "partition") if n in results]
    if not sources:
        return None
    nan = float("nan")
    out = {"model": cfg.model_name, "kappa": nan, "sup_norm": nan,
           "s_min": nan, "rows": [],
           "notes": ["sigma(s, kappa) absorbs the half/half distance splitting",
                     "tan-compactified Nystrom trace norms are converged "
                     "estimates, not certified bounds: curve rows report the "
                     f"first refinement level within {REFINE_TOL:g} of the one "
                     "below, s_min and partition use unrefined ones; "
                     "bound_distal, log_bound_minus, s_min and partition "
                     "bounds inherit this",
                     "free-Bose determinant uses unprojected singular values "
                     "(conservative surrogate)",
                     "sup_norm is a certified upper bound on ||S2||_kappa, "
                     f"at most {SUP_RTOL:g} relative above it"]}
    for name in sources:
        res = results[name]
        if name == "nuclearity-curve":
            out["rows"] = [dict(r) for r in res.rows]
            out["kappa"] = res.summary.get("kappa", nan)
            out["sup_norm"] = res.summary.get("sup_norm", nan)
        elif name == "find-smin":
            out["s_min"] = res.summary.get("s_min", nan)
        else:
            out[name.replace("-", "_")] = [dict(r) for r in res.rows]
    out["runtimes"] = "see timings.json (kept out of canonical reports)"
    return out


def _fail_json(payload):
    print(json.dumps({"error": payload}, sort_keys=True), file=sys.stderr)


def _config_error(exc):
    _fail_json({"kind": "config", "message": str(exc), "path": exc.path,
                "line": exc.line})
    return 2


if __name__ == "__main__":
    sys.exit(main())
