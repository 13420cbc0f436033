"""One long-lived library session over generated models (``bounds-sweep``).

Usage: python3 perfbench/session.py PLAN RESULT

PLAN is a JSON file written by ``run.py``: the config files to load, the
suites to run on each, the seed, whether to trace, and how long to keep
going.  Models are taken in whole cycles (one model of every class per
cycle) until ``min_seconds`` have passed.  Each model is loaded with
``load_config``, its suites are run through ``wedgeqft.cli.run_suites``
(so the random streams equal the CLI's) and its report is assembled with
``wedgeqft.cli.assemble_report`` and written to disk.

A suite that raises, ``MemoryError`` included, is recorded as a failed
operation and the session goes on with the next one.  The peak resident
memory of every suite call is read from ``VmHWM`` after resetting it
through ``/proc/self/clear_refs``; where that is not possible the session
peak from ``getrusage`` is used and the method is recorded.
"""

import json
import resource
import sys
import time
import traceback


def _reset_peak():
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
        return True
    except OSError:
        return False


def _peak_mb(reset_ok):
    if reset_ok:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _canonical(obj):
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=True) + "\n"


def main():
    with open(sys.argv[1], encoding="utf-8") as fh:
        plan = json.load(fh)
    result = {"setup_done": None, "models": [], "trace": None,
              "rss_method": None, "suite_seconds": {}}

    import wedgeqft.cli as cli

    tracer = None
    if plan["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    start = time.monotonic()
    seed = plan["seed"]
    cycle = plan["cycle"]
    try:
        for i, model in enumerate(plan["models"]):
            if (i % cycle == 0 and i > 0
                    and time.monotonic() - start >= plan["min_seconds"]):
                break
            t0 = time.perf_counter()
            cfg = cli.load_config(model["config"])
            if result["setup_done"] is None:
                result["setup_done"] = time.monotonic()
            results, ops = {}, []
            for name in model["suites"]:
                reset_ok = _reset_peak()
                op = {"suite": name, "ok": False, "error": None}
                try:
                    res = cli.run_suites(cfg, [name], seed)[name]
                except Exception as exc:  # one failed operation; keep going
                    frame = traceback.extract_tb(exc.__traceback__)[-1]
                    op["error"] = (f"{type(exc).__name__} in {frame.name}: "
                                   f"{exc}")
                else:
                    results[name] = res
                    op["ok"] = bool(res.passed and not res.nonconverged)
                    op["summary"] = res.summary
                    op["rows"] = res.rows if name == "nuclearity-curve" else []
                    result["suite_seconds"][name] = (
                        result["suite_seconds"].get(name, 0.0) + res.runtime)
                op["peak_rss_mb"] = _peak_mb(reset_ok)
                result["rss_method"] = "VmHWM" if reset_ok else "ru_maxrss"
                ops.append(op)
            report = cli.assemble_report(cfg, results, seed)
            with open(model["report"], "w", encoding="utf-8") as fh:
                fh.write(_canonical(report))
            result["models"].append({"config": model["config"],
                                     "report": model["report"],
                                     "seconds": time.perf_counter() - t0,
                                     "ops": ops})
    finally:
        if tracer is not None:
            result["trace"] = tracer.metrics()
        with open(sys.argv[2], "w", encoding="utf-8") as fh:
            json.dump(result, fh, allow_nan=True, default=str)


if __name__ == "__main__":
    main()
