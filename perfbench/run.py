"""wedgeqft benchmark: time to a verified report, end to end and per layer.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md in this directory for the reasons behind each):

  catalogue     ``wedgeqft all --config catalogue:NAME --seed N`` for the
                four shipped models, one fresh process per invocation.
  fock-dense    two fresh processes on ``shg-b050``: ``smatrix`` on a
                41-node grid with n = 2, 3, 4 and ``verify-algebra`` on a
                31-node grid.
  bounds-sweep  one long-lived library session over models generated from
                the seed, running ``nuclearity-curve``, ``find-smin`` and,
                for fermionic models, ``partition``.

The load is a closed loop from one process: one child at a time, BLAS
pinned to one thread, suites serial.  Work is done in whole units (a pass
over the catalogue, a fock-dense pair, a cycle of sweep models) until at
least ``--seconds`` have passed.  Every child runs under an address-space
cap, so an over-allocation fails one operation instead of the machine.

With ``--trace 0`` the last line of standard output carries the
end-to-end metrics; with ``--trace 1`` the run repeats its first unit
under the per-layer tracer and the last line carries the per-layer
metrics.  Every check on the outputs counts a failed operation; see
README.md.  The line before the last holds the details: sample counts,
failures, fail ratio and the environment.
"""

import argparse
import compileall
import importlib.metadata
import json
import math
import os
import pathlib
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time

import tracer

HERE = pathlib.Path(__file__).resolve().parent
CATALOGUE = ("free", "ising", "shg-b050", "resonance-pi4")
MEMORY_CAP_MB = 768       # 1.4x the largest VmPeak seen (catalogue)
CHILD_TIMEOUT_S = 120
BLAS_THREADS = 1
SETUP_PROBES = 3
ZERO_WINDOW = 6.0          # rapidity window of every shipped config
SWEEP_CLASSES = ((+1, 1), (-1, 1), (+1, 2), (-1, 2))   # (epsilon, zeros)
SWEEP_CYCLE = 8           # models per cycle: two of each class
SWEEP_MAX_CYCLES = 4
SWEEP_MEMORY_SUITES = ("nuclearity-curve", "find-smin")

FOCK_DENSE = (
    ("smatrix", "--tol-override", "grid.count=41",
     "--tol-override", "smatrix.n_values=2,3,4"),
    ("verify-algebra", "--tol-override", "algebra.grid_count=31"),
)

SWEEP_CONFIG = """\
[model]
name = {name}
epsilon = {epsilon}
a = 0.0
mass = 1.0
zeros = {zeros}
auto_mirror = true

[nuclearity]
s_min = 0.5
s_max = 5.0
steps = 3
nodes = 400

[partition]
r = 1.0
beta_min = 0.1
beta_max = 1.0
steps = 6
improved = false
"""


class Run:
    """Samples, operation counts and check failures of one benchmark run."""

    def __init__(self, root, work, seed):
        self.work, self.seed = work, seed
        self.samples = {"report_s": [], "model_s": [], "setup_s": [],
                        "peak_rss_mb": []}
        self.attempted = 0
        self.failed = 0
        self.wrong = []          # outputs that ran but failed a check
        self.failures = []       # every failed operation, with its reason
        self.children = 0
        self.session_peak_rss_mb = None
        self.mean_metrics = ()   # metrics reported as a mean, not a median
        self.rss_method = "wait4 ru_maxrss"
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"),
                        OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
                        OMP_NUM_THREADS=str(BLAS_THREADS),
                        MKL_NUM_THREADS=str(BLAS_THREADS))

    def fail(self, where, reason, wrong_output=False):
        self.failed += 1
        self.failures.append({"where": where, "reason": reason})
        if wrong_output:
            self.wrong.append(where)

    def spawn(self, script, args):
        """Run one child to completion; return (exit code, seconds, peak MB, t0)."""
        self.children += 1
        tag = self.work / f"child-{self.children}"
        cmd = [sys.executable, str(HERE / script)] + [str(a) for a in args]

        def cap_memory():
            limit = MEMORY_CAP_MB << 20
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        with open(f"{tag}.out", "wb") as out, open(f"{tag}.err", "wb") as err:
            t0 = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=self.work, env=self.env,
                                    stdout=out, stderr=err,
                                    preexec_fn=cap_memory)
            killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
                killer.join()
            seconds = time.monotonic() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, seconds, usage.ru_maxrss / 1024, t0

    def cli(self, label, cli_args, trace=False):
        """One CLI invocation; counts its suites as operations."""
        self.children += 1
        out_dir = self.work / f"out-{self.children}"
        sidecar = self.work / f"sidecar-{self.children}.json"
        rc, seconds, rss, t0 = self.spawn(
            "cli_child.py", [sidecar, int(trace), "--", *cli_args,
                             "--out", out_dir, "--seed", self.seed])
        try:
            side = json.loads(sidecar.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            side = {"setup_done": None, "suites": None, "trace": None}
        report_path = out_dir / "report.json"
        report = report_path.read_bytes() if report_path.exists() else None
        suites = side["suites"] or ["<invocation>"]
        self.attempted += len(suites)
        entries = json.loads(report)["suites"] if report else {}
        bad = [s for s in suites
               if not entries.get(s, {}).get("passed")
               or entries[s].get("nonconverged")]
        for s in bad:
            self.fail(f"{label}:{s}", f"exit {rc}, suite did not PASS")
        if rc != 0 and not bad:
            self.fail(label, f"exit {rc}")
        timings_path = out_dir / "timings.json"
        timings = (json.loads(timings_path.read_text(encoding="utf-8"))
                   if timings_path.exists() else {})
        return {"label": label, "seconds": seconds, "rss_mb": rss,
                "setup_s": (side["setup_done"] - t0
                            if side["setup_done"] else None),
                "report": report, "out": out_dir, "trace": side["trace"],
                "timings": timings}

    def record(self, inv):
        self.samples["report_s"].append(inv["seconds"])
        self.samples["peak_rss_mb"].append(inv["rss_mb"])
        if inv["setup_s"] is not None:
            self.samples["setup_s"].append(inv["setup_s"])

    def same_bytes(self, label, first, other):
        """Two runs of one config and seed must give identical reports."""
        if first["report"] is not None and other["report"] != first["report"]:
            self.fail(label, "report.json bytes differ from "
                      f"{first['label']} (same config and seed)",
                      wrong_output=True)


def _rel_ok(value, ref, rtol):
    return (isinstance(value, (int, float)) and math.isfinite(value)
            and abs(value - ref) <= rtol * abs(ref))


def check_catalogue_values(run, inv, model, reference):
    """s_min, sup_norm and trace norms against the stored reference."""
    ref = reference["models"][model]
    rtol = reference["rtol"]
    path = inv["out"] / "nuclearity-report.json"
    try:
        nuc = json.loads(path.read_text(encoding="utf-8"))
        got = {"sup_norm": nuc["sup_norm"],
               "trace_norms": [r["trace_norm"] for r in nuc["rows"]],
               "s_min": nuc["s_min"]}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        run.fail(inv["label"], f"no readable nuclearity report: {exc!r}",
                 wrong_output=True)
        return
    pairs = [("sup_norm", got["sup_norm"], ref["sup_norm"])]
    pairs += [(f"trace_norms[{i}]", g, r) for i, (g, r)
              in enumerate(zip(got["trace_norms"], ref["trace_norms"]))]
    if len(got["trace_norms"]) != len(ref["trace_norms"]):
        pairs.append(("trace_norms", math.nan, 1.0))
    if "s_min" in ref:
        pairs.append(("s_min", got["s_min"], ref["s_min"]))
    for name, value, expected in pairs:
        if not _rel_ok(value, expected, rtol):
            run.fail(inv["label"], f"{name} = {value!r}, reference "
                     f"{expected!r} (rtol {rtol})", wrong_output=True)


def sup_norm_oracle(epsilon, zeros, kap):
    """Dense-scan sup of |S2(t - i kappa)| over real t, floored at 1.

    Independent of the package: the product formula on a coarse grid plus
    a fine grid around each peak, which sits at t = -Re(b) for every zero
    b (mirror partners included), at distance Im(b) - kappa from a pole.
    """
    import numpy as np

    zs = [complex(a, b) for a, b in zeros]
    zs += [complex(-z.real, z.imag) for z in zs if z.real != 0.0]
    grids = [np.linspace(-40.0, 40.0, 80001)]
    for z in zs:
        half = 20 * (z.imag - kap)
        grids.append(np.linspace(-z.real - half, -z.real + half, 4001))
    sz = np.sinh(np.concatenate(grids) - 1j * kap)
    val = np.full(sz.shape, complex(epsilon))
    for z in zs:
        sb = np.sinh(z)
        val *= (sb - sz) / (sb + sz)
    return max(1.0, float(np.max(np.abs(val))))


def _median(values):
    return statistics.median(values) if values else math.nan


def _mean(values):
    return statistics.fmean(values) if values else math.nan


def catalogue(run, seconds, trace, reference):
    start = time.monotonic()
    passes = []
    while not passes or (not trace and time.monotonic() - start < seconds):
        passes.append([run.cli(f"{m}#{len(passes)}",
                               ["all", "--config", f"catalogue:{m}"])
                       for m in CATALOGUE])
    for invs in passes:
        for model, inv in zip(CATALOGUE, invs):
            run.record(inv)
            check_catalogue_values(run, inv, model, reference)
            run.same_bytes(inv["label"], passes[0][CATALOGUE.index(model)],
                           inv)
    run.samples["model_s"] = list(run.samples["report_s"])
    if not trace:
        return None
    traced = [run.cli(f"{m}#traced", ["all", "--config", f"catalogue:{m}"],
                      trace=True) for m in CATALOGUE]
    for inv, first in zip(traced, passes[0]):
        run.same_bytes(inv["label"], first, inv)
    overhead = (_median([i["seconds"] for i in traced])
                - _median([i["seconds"] for i in passes[0]]))
    return _layer_result(traced, {"report_s": overhead, "model_s": overhead})


def fock_dense(run, seconds, trace, reference):
    start = time.monotonic()
    pairs = []
    while len(pairs) < 2 or (not trace and time.monotonic() - start < seconds):
        pairs.append([run.cli(f"{args[0]}#{len(pairs)}",
                              [*args, "--config", "catalogue:shg-b050"])
                      for args in FOCK_DENSE])
    for pair in pairs:
        for k, inv in enumerate(pair):
            run.record(inv)
            run.same_bytes(inv["label"], pairs[0][k], inv)
        run.samples["model_s"].append(sum(inv["seconds"] for inv in pair))
    if not trace:
        return None
    traced = [run.cli(f"{args[0]}#traced",
                      [*args, "--config", "catalogue:shg-b050"], trace=True)
              for args in FOCK_DENSE]
    for inv, first in zip(traced, pairs[0]):
        run.same_bytes(inv["label"], first, inv)
    overhead = {
        "report_s": (_median([i["seconds"] for i in traced])
                     - _median([i["seconds"] for i in pairs[0]])),
        "model_s": (sum(i["seconds"] for i in traced)
                    - sum(i["seconds"] for i in pairs[0]))}
    return _layer_result(traced, overhead)


def sweep_models(seed):
    """Generated models, one cycle of two models per class after another.

    Every zero has Re uniform over the grid window [-6, 6] and Im uniform
    in (0, pi/2]; off-axis zeros are auto-mirrored by the program.  The
    Im of each model's first zero is stratified within a cycle: the cycle
    draws it once from each of eight equal slices of (0, pi/2], in an
    order drawn from the seed.  Each Im is still uniform, but every cycle
    covers the whole range, so the spread of cost between seeds is small.
    """
    rng = random.Random(seed)
    models = []
    for _ in range(SWEEP_MAX_CYCLES):
        classes = list(SWEEP_CLASSES) * (SWEEP_CYCLE // len(SWEEP_CLASSES))
        strata = list(range(SWEEP_CYCLE))
        rng.shuffle(classes)
        rng.shuffle(strata)
        for (epsilon, count), stratum in zip(classes, strata):
            ims = [(stratum + 1.0 - rng.random()) / SWEEP_CYCLE]
            ims += [1.0 - rng.random() for _ in range(count - 1)]
            models.append({"epsilon": epsilon,
                           "zeros": [(rng.uniform(-ZERO_WINDOW, ZERO_WINDOW),
                                      (math.pi / 2) * im) for im in ims]})
    return models


def _session(run, plan_models, seed, min_seconds, trace, tag):
    plan = {"seed": seed, "trace": trace, "min_seconds": min_seconds,
            "cycle": SWEEP_CYCLE, "models": plan_models}
    plan_path = run.work / f"plan-{tag}.json"
    result_path = run.work / f"session-{tag}.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    rc, seconds, rss, t0 = run.spawn("session.py", [plan_path, result_path])
    try:
        result = json.loads(result_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        result = {"setup_done": None, "models": [], "trace": None,
                  "suite_seconds": {}, "rss_method": None}
    result.update(rc=rc, seconds=seconds, rss_mb=rss, t0=t0)
    return result


def bounds_sweep(run, seconds, trace, reference):
    models = sweep_models(run.seed)
    plan_models = []
    for i, model in enumerate(models):
        cfg = run.work / f"model-{i}.cfg"
        zeros = "; ".join(f"{a!r}, {b!r}" for a, b in model["zeros"])
        cfg.write_text(SWEEP_CONFIG.format(name=f"sweep-{run.seed}-{i}",
                                           epsilon=model["epsilon"],
                                           zeros=zeros), encoding="utf-8")
        suites = ["nuclearity-curve", "find-smin"]
        if model["epsilon"] == -1:
            suites.append("partition")
        plan_models.append({"config": str(cfg), "suites": suites,
                            "report": str(run.work / f"report-{i}.json")})
    for i in range(SETUP_PROBES):
        probe = run.cli(f"setup-probe#{i}", ["verify-scattering", "--config",
                                             plan_models[i]["config"]])
        if probe["setup_s"] is not None:
            run.samples["setup_s"].append(probe["setup_s"])

    first_cycle = plan_models[:SWEEP_CYCLE]
    session = _session(run, plan_models if not trace else first_cycle,
                       run.seed, 0 if trace else seconds, False, "plain")
    reports = _score_session(run, session, models, "session",
                             reference["rtol"])
    if session["setup_done"] is not None:
        run.samples["setup_s"].append(session["setup_done"] - session["t0"])
    per_model = [m["seconds"] for m in session["models"]]
    run.samples["model_s"] = per_model
    run.samples["report_s"] = list(per_model)
    # the cycle mixes bosonic and fermionic models in equal numbers, and
    # their times form two clusters; a median sits between them and jumps
    # with noise, so the session's time per model is reported
    run.mean_metrics = ("report_s", "model_s")
    # partition's O(x^2) series makes its peak depend on the zeros drawn;
    # it shows in failed operations and in session_peak_rss_mb instead
    run.samples["peak_rss_mb"] = [
        max(op["peak_rss_mb"] for op in m["ops"]
            if op["suite"] in SWEEP_MEMORY_SUITES)
        for m in session["models"]]
    run.session_peak_rss_mb = max(
        (op["peak_rss_mb"] for m in session["models"] for op in m["ops"]),
        default=None)
    run.rss_method = session["rss_method"]
    if not trace:
        return None
    traced = _session(run, first_cycle, run.seed, 0, True, "traced")
    traced_reports = _score_session(run, traced, models, "traced",
                                    reference["rtol"])
    for i, report in enumerate(traced_reports):
        if reports[i] is not None and report != reports[i]:
            run.fail(f"model-{i}#traced", "report bytes differ from the "
                     "untraced session", wrong_output=True)
    traced_models = [m["seconds"] for m in traced["models"]]
    overhead = _mean(traced_models) - _mean(per_model[:len(traced_models)])
    return tracer.layer_metrics(traced["trace"] or {},
                                traced["suite_seconds"],
                                {"report_s": overhead, "model_s": overhead})


def _score_reports(session):
    return [pathlib.Path(m["report"]).read_bytes() for m in session["models"]]


def _score_session(run, session, models, tag, rtol):
    """Count the session's suite calls and check their values."""
    if session["rc"] != 0:
        run.attempted += 1
        run.fail(f"{tag}", f"session exited with {session['rc']}")
    for i, m in enumerate(session["models"]):
        model = models[i]
        for op in m["ops"]:
            run.attempted += 1
            where = f"model-{i}:{op['suite']}#{tag}"
            if op["error"] is not None:
                run.fail(where, op["error"])
            elif not op["ok"]:
                run.fail(where, "suite did not PASS")
            if op["suite"] == "nuclearity-curve" and op["error"] is None:
                kap = min(min(b for _, b in model["zeros"]), math.pi / 2) / 2
                expected = sup_norm_oracle(model["epsilon"], model["zeros"],
                                           kap)
                got = op["summary"].get("sup_norm")
                if not _rel_ok(got, expected, rtol):
                    run.fail(where, f"sup_norm = {got!r}, dense-scan oracle "
                             f"{expected!r}", wrong_output=True)
    return _score_reports(session)


def _layer_result(traced, overhead):
    totals = tracer.merge_totals([inv["trace"] or {} for inv in traced])
    suite_seconds = {}
    for inv in traced:
        for name, value in inv["timings"].items():
            suite_seconds[name] = suite_seconds.get(name, 0.0) + value
    return tracer.layer_metrics(totals, suite_seconds, overhead)


WORKLOADS = {"catalogue": catalogue, "fock-dense": fock_dense,
             "bounds-sweep": bounds_sweep}
END_TO_END = {"report_s": "s", "model_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}


def _git_commit(root):
    """The checked-out commit, read from .git when the checkout has one."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root, seed):
    return {"nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "scipy": importlib.metadata.version("scipy"),
            "blas_threads": BLAS_THREADS,
            "memory_cap_mb": MEMORY_CAP_MB,
            "git_commit": _git_commit(root),
            "seed": seed}


def _summary(values):
    """Median and mean with the samples and their count, plus the highest
    tail percentile that has at least ten samples beyond it."""
    out = {"n": len(values), "median": _median(values),
           "mean": _mean(values), "values": values}
    for pct in (99, 90):
        if len(values) * (100 - pct) / 100 >= 10:
            out[f"p{pct}"] = statistics.quantiles(values, n=100)[pct - 1]
            break
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    root = pathlib.Path.cwd()
    if not (root / "src" / "wedgeqft" / "cli.py").is_file():
        sys.exit("perfbench: run from the root of a wedgeqft checkout "
                 "(src/wedgeqft not found)")
    # the build: byte-compile the package so every child imports the same way
    if not compileall.compile_dir(str(root / "src"), quiet=1):
        sys.exit("perfbench: src/ does not compile")
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        reference = json.load(fh)

    work = root / ".perfbench-work" / str(os.getpid())
    work.mkdir(parents=True)
    run = Run(root, work, args.seed)
    try:
        layers = WORKLOADS[args.workload](run, args.seconds, bool(args.trace),
                                          reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    if args.trace:
        metrics = layers
    else:
        metrics = {name: {"value": (_mean(run.samples[name])
                                    if name in run.mean_metrics
                                    else _median(run.samples[name])),
                          "unit": unit}
                   for name, unit in END_TO_END.items()}
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "samples": {name: _summary(v) for name, v in run.samples.items()},
        "fail_ratio": {"value": run.failed / max(run.attempted, 1),
                       "unit": "1"},
        "failures": run.failures,
        "session_peak_rss_mb": run.session_peak_rss_mb,
        "rss_method": run.rss_method,
        "env": environment(root, args.seed),
    }
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"fail_ratio = {detail['fail_ratio']['value']:.6g} 1 "
          f"({run.failed}/{run.attempted})")
    print(json.dumps(detail, default=str))
    print(json.dumps({"correct": not run.wrong, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
