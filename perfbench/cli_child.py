"""Run one ``wedgeqft`` CLI invocation and record when its set-up ended.

Usage: python3 perfbench/cli_child.py SIDECAR TRACE -- <wedgeqft arguments>

The invocation is ``wedgeqft.cli.main`` with the given arguments, exactly
as the console script runs it.  Two things are added from outside the
package: the ``CLOCK_MONOTONIC`` time at which ``load_config`` returned
(the end of set-up) and, with TRACE=1, the per-layer tracer.  Both are
written to the SIDECAR JSON file when the invocation ends, whatever its
outcome; the exit code is the CLI's.
"""

import json
import sys
import time


def main():
    sidecar, trace = sys.argv[1], sys.argv[2] == "1"
    cli_args = sys.argv[sys.argv.index("--") + 1:]
    record = {"setup_done": None, "suites": None, "trace": None}

    import wedgeqft.cli as cli

    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    load_config, run_suites = cli.load_config, cli.run_suites

    def load_config_timed(*args, **kwargs):
        cfg = load_config(*args, **kwargs)
        record["setup_done"] = time.monotonic()
        return cfg

    def run_suites_recorded(cfg, names, *args, **kwargs):
        record["suites"] = list(names)
        return run_suites(cfg, names, *args, **kwargs)

    cli.load_config = load_config_timed
    cli.run_suites = run_suites_recorded
    try:
        return cli.main(cli_args)
    finally:
        if tracer is not None:
            record["trace"] = tracer.metrics()
        with open(sidecar, "w", encoding="utf-8") as fh:
            json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main())
